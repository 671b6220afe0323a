"""Supported activation functions and their derivatives.

ReLU and erf admit closed-form Gaussian integrals for the signal-propagation
maps; tanh is handled by Gauss-Hermite quadrature only.  SciPy supplies erf;
it is imported on the first erf evaluation, not with the package.
"""
from __future__ import annotations

import enum

import numpy as np


class ActivationKind(enum.Enum):
    RELU = "relu"
    ERF = "erf"
    TANH = "tanh"

    @classmethod
    def from_name(cls, name: str) -> "ActivationKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown activation {name!r}; expected one of "
                             f"{[k.value for k in cls]}") from None


_SQRT_PI = np.sqrt(np.pi)


def phi(kind: ActivationKind, u, out=None):
    """Apply the activation elementwise, into out when given."""
    if kind is ActivationKind.RELU:
        return np.maximum(u, 0.0, out=out)
    if kind is ActivationKind.ERF:
        from scipy.special import erf
        return erf(u, out=out)
    return np.tanh(u, out=out)


def dphi(kind: ActivationKind, u, out=None):
    """Derivative of the activation; the ReLU subgradient at 0 is defined as 0.

    With out the derivative is written there.  For ReLU it is then u > 0 in
    out's dtype: a bool mask multiplies bitwise like the 1.0/0.0 array,
    signed zeros and NaN included.
    """
    if kind is ActivationKind.RELU:
        if out is None:
            return np.where(u > 0.0, 1.0, 0.0)
        return np.greater(u, 0.0, out=out)
    if kind is ActivationKind.ERF:
        sq = np.square(u, out=out)
        return np.multiply(2.0 / _SQRT_PI, np.exp(np.negative(sq, out=out), out=out), out=out)
    return np.divide(1.0, np.square(np.cosh(u, out=out), out=out), out=out)
