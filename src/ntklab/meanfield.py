"""Mean-field signal propagation for randomly initialized fully-connected nets.

A network of depth L applies L affine maps; layer widths are taken to
infinity.  In that limit the second moments of pre-activations, activations
and backpropagated errors obey layerwise recursions driven by Gaussian
expectations of the activation:

    forward:   q^l     = sigma_w^2 * E[phi(sqrt(q^{l-1}) z)^2] + sigma_b^2
               q_sr^l  = sigma_w^2 * E[phi(u1) phi(u2)]        + sigma_b^2
    backward:  p^l     = sigma_w^2 * E[phi'(sqrt(q^l) z)^2] * p^{l+1}
               p_sr^l  = sigma_w^2 * E[phi'(u1) phi'(u2)]   * p_sr^{l+1}

with (u1, u2) a correlated Gaussian pair, for constant-width networks.
Terminal conditions are p^L = p_sr^L = 1 because the output is a linear
read-out of the last activations.  Layer 0 is treated as a virtual
activation layer: the recursion starts from a pre-activation variance q^0 (1
for normalized data) and q_hat^0 = E[phi(sqrt(q^0) z)^2] plays the role of
the input second moment.

The per-layer multiplier chi1^l = sigma_w^2 * E[phi'(sqrt(q^l) z)^2]
controls gradient propagation: chi1 < 1 at the variance fixed point means
vanishing gradients (ordered phase), chi1 > 1 exploding gradients (chaotic
phase), and chi1 = 1 is the edge of chaos (EOC).

ReLU and erf use closed-form expectations (NumPy ufuncs); anything else
falls back to Gauss-Hermite quadrature, whose pair rule fits a large array
of correlations by one Chebyshev interpolant in c, kept across calls (see
quadrature: both members of every pair of a layer have variance q^l, so the
pair expectation is a function of c alone, and the fit of a layer variance
serves every sample).  The expectations are elementwise over arrays.

forward_layers is the one place the layer recursion runs.  It advances a
1-D array of layer-0 covariances through the layers in one pass, one layer
per step, and evaluates only phi expectations: the NNGP kernel reads its
last layer.  depth_sums consumes it to get the NTK's depth sums without a
backward pass (Jacot et al., arXiv:1806.07572; Arora et al.,
arXiv:1904.11955): the sums sum_l q_hat^{l-1} p^l and sum_l p^l obey
forward recursions in the multipliers chi, so every depth up to the deepest
is read off in one pass and no per-layer array is kept.  Each layer clamps
its correlations c^l = q_sr^l / q^l to [-1, 1] once, and the pair
expectations take that c with q^l as the scale, so no product q^l * q^l is
formed (it would overflow long before q^l does).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .activations import ActivationKind, dphi, phi
from . import quadrature

# Tolerance band for clamping correlations that drift past +-1 in floating
# point; larger violations indicate an upstream bug and raise.
CORRELATION_SLACK = 1e-9

# |chi1 - 1| below this at the variance fixed point classifies as EOC.
EOC_TOLERANCE = 1e-6

# Fixed-point iteration of the variance map.
FIXED_POINT_MAX_ITER = 10_000
FIXED_POINT_RTOL = 1e-12


class MeanFieldError(Exception):
    """Base class for signal-propagation failures."""


class SignalOverflowError(MeanFieldError):
    """A recursion produced a non-finite value (e.g. deep chaotic iteration)."""

    def __init__(self, message: str, layer: int | None = None):
        self.layer = layer
        if layer is not None:
            message = f"{message} (layer {layer})"
        super().__init__(message)


class CorrelationDomainError(MeanFieldError):
    """A correlation left [-1, 1] by more than the clamping tolerance."""


class FixedPointDivergenceError(MeanFieldError):
    """The variance map did not converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: float):
        # args hold both, so the error unpickles (from a sweep's worker process)
        super().__init__(message, last_iterate)
        self.last_iterate = last_iterate

    def __str__(self):
        return f"{self.args[0]} (last iterate {self.last_iterate!r})"


@dataclass(frozen=True)
class InitHyper:
    """Initialization hyperparameters (sigma_w^2, sigma_b^2) plus activation kind."""

    sigma_w_sq: float
    sigma_b_sq: float
    activation: ActivationKind

    def __post_init__(self):
        if not (self.sigma_w_sq > 0.0 and math.isfinite(self.sigma_w_sq)):
            raise ValueError(f"sigma_w_sq must be positive, got {self.sigma_w_sq!r}")
        if not (self.sigma_b_sq >= 0.0 and math.isfinite(self.sigma_b_sq)):
            raise ValueError(f"sigma_b_sq must be non-negative, got {self.sigma_b_sq!r}")
        if not isinstance(self.activation, ActivationKind):
            raise TypeError("activation must be an ActivationKind")


class Phase(Enum):
    ORDERED = "ordered"
    CHAOTIC = "chaotic"
    EOC = "eoc"


@dataclass(frozen=True)
class PhaseLabel:
    tag: Phase
    chi1_fixed_point: float


def _clamp_correlation(c):
    """c clamped to [-1, 1]; raises CorrelationDomainError for an entry
    outside by more than CORRELATION_SLACK.  An array already inside (which
    also means NaN-free) is returned as it is, uncopied: clamping would
    leave every bit of it, -0.0 included, unchanged."""
    c = np.asarray(c, dtype=float)
    if np.maximum.reduce(np.abs(c), axis=None, initial=0.0) <= 1.0:
        return c
    outside = np.abs(c) > 1.0 + CORRELATION_SLACK
    if outside.any():
        raise CorrelationDomainError(
            f"correlation {float(c[outside].flat[0])!r} outside [-1, 1] beyond tolerance "
            f"{CORRELATION_SLACK}")
    return np.minimum(np.maximum(c, -1.0), 1.0)


# ---------------------------------------------------------------------------
# Gaussian expectations of the activation and its derivative.
#
# Every function here is elementwise: q and c may be scalars or arrays, and
# the result has their broadcast shape.  Quadrature (tanh) takes arrays of q
# and of c, with a scalar q in the pair expectations.  The pairs have one
# variance q for both members, which is all the recursions need (both inputs
# of a constant-width network share q^l).
#
# The ReLU closed forms are the arc-cosine kernel identities; the erf ones
# follow from E[erf(u1) erf(u2)] = (2/pi) arcsin(2 cov / (1 + 2q))
# and E[exp(-u1^2 - u2^2)] = 1/sqrt(det(I + 2 Sigma)), with cov = c q.

def avg_phi_sq(kind: ActivationKind, q):
    """E[phi(sqrt(q) z)^2] for z ~ N(0, 1)."""
    if kind is ActivationKind.RELU:
        return 0.5 * q
    if kind is ActivationKind.ERF:
        return 2.0 / math.pi * np.arctan(q / np.sqrt(q + 0.25))
    return quadrature.normal_expectation(lambda u: phi(kind, u) ** 2, np.sqrt(q))


def avg_dphi_sq(kind: ActivationKind, q):
    """E[phi'(sqrt(q) z)^2] for z ~ N(0, 1)."""
    if kind is ActivationKind.RELU:
        return 0.5 if np.ndim(q) == 0 else np.full(np.shape(q), 0.5)
    if kind is ActivationKind.ERF:
        return 2.0 / math.pi / np.sqrt(q + 0.25)
    return quadrature.normal_expectation(lambda u: dphi(kind, u) ** 2, np.sqrt(q))


def avg_phi_prod(kind: ActivationKind, q, c):
    """E[phi(u1) phi(u2)] over the correlated pair with common variance q and
    correlation c."""
    return _phi_prod(kind, q, _clamp_correlation(c))


def avg_dphi_prod(kind: ActivationKind, q, c):
    """E[phi'(u1) phi'(u2)] over the correlated pair with common variance q
    and correlation c."""
    return _dphi_prod(kind, q, _clamp_correlation(c))


# The in-place integrands phi and phi' of each activation, one object each:
# quadrature keeps its Chebyshev fits keyed by the integrand, and a fresh
# lambda per call would never find one.  phi and dphi are looked up by name
# when called, so a wrapper bound over them (the benchmark's tracer) sees
# every call.
_PAIR_INTEGRANDS = {kind: (lambda u, kind=kind: phi(kind, u, out=u),
                           lambda u, kind=kind: dphi(kind, u, out=u))
                    for kind in ActivationKind}


def _phi_prod(kind: ActivationKind, q, c):
    """avg_phi_prod for c already clamped to [-1, 1]."""
    if kind is ActivationKind.RELU:
        return q / (2.0 * math.pi) * (
            np.sqrt(np.maximum(1.0 - c * c, 0.0)) + c * (math.pi / 2.0 + np.arcsin(c)))
    if kind is ActivationKind.ERF:
        arg = 2.0 * (c * q) / (1.0 + 2.0 * q)
        return 2.0 / math.pi * np.arcsin(np.minimum(np.maximum(arg, -1.0), 1.0))
    return quadrature.normal_pair_expectation(_PAIR_INTEGRANDS[kind][0], q, c)


def _dphi_prod(kind: ActivationKind, q, c):
    """avg_dphi_prod for c already clamped to [-1, 1]."""
    if kind is ActivationKind.RELU:
        return (math.pi / 2.0 + np.arcsin(c)) / (2.0 * math.pi)
    if kind is ActivationKind.ERF:
        cov = c * q
        scale = 1.0 + 2.0 * q
        return 4.0 / math.pi / np.sqrt(scale * scale - 4.0 * cov * cov)
    return quadrature.normal_pair_expectation(_PAIR_INTEGRANDS[kind][1], q, c)


# ---------------------------------------------------------------------------
# The forward recursion.

def _check_finite(layer: int, array, *scalars) -> None:
    """SignalOverflowError at layer unless every entry of the array and
    every scalar is finite."""
    if not (all(map(math.isfinite, scalars))
            and np.logical_and.reduce(np.isfinite(array), axis=None)):
        raise SignalOverflowError("mean-field recursion overflowed", layer=layer)


def forward_layers(hyper: InitHyper, depth: int, q0: float, q0_sr):
    """Yield, for l = 1..depth, (q^l, q_sr^l, c^l, q_hat^{l-1}, q_hat_sr^{l-1}):
    layer l's variance, covariances and clamped correlations, and the
    second moments of layer l - 1 that made them.

    q0_sr is a 1-D array of layer-0 covariances (it may be empty); every
    covariance advances through the layers together with the shared
    variance.  Only phi expectations are evaluated.  Raises
    SignalOverflowError at the first layer whose q or q_sr is not finite,
    and ValueError where q underflows to 0.  The layer that overflows does
    so in NumPy arithmetic: callers run the loop under
    np.errstate(over="ignore", invalid="ignore") to keep its warning quiet.
    """
    q0_sr = np.asarray(q0_sr, dtype=float)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (q0 > 0.0):
        raise ValueError("q0 must be positive")
    if q0_sr.ndim != 1:
        raise ValueError("q0_sr must be a 1-D array of layer-0 covariances")
    if np.any(np.abs(q0_sr) > q0 * (1.0 + CORRELATION_SLACK)):
        raise ValueError("|q0_sr| must not exceed q0")
    kind, sw, sb = hyper.activation, hyper.sigma_w_sq, hyper.sigma_b_sq
    q, c = q0, _clamp_correlation(q0_sr / q0)
    for layer in range(1, depth + 1):
        q_hat, q_hat_sr = avg_phi_sq(kind, q), _phi_prod(kind, q, c)
        q, q_sr = sw * q_hat + sb, sw * q_hat_sr + sb
        _check_finite(layer, q_sr, q)
        if not q > 0.0:
            raise ValueError(f"variance {float(q)!r} at layer {layer} must be positive")
        c = _clamp_correlation(q_sr / q)
        yield q, q_sr, c, q_hat, q_hat_sr


@dataclass(frozen=True)
class DepthSums:
    """The forward NTK recursion at one depth L, for a 1-D array of layer-0
    covariances: q = q^L and the arrays q_sr = q_sr^L, kappa2 and
    p_sum_cross, one entry per covariance.

    kappa1 = T^L / alpha and kappa2 = T_sr^L / alpha, alpha = max(L - 1, 1);
    p_sum_diag = B^L and p_sum_cross = B_sr^L are the bias-parameter sums.
    """

    q: float
    q_sr: np.ndarray
    kappa1: float
    kappa2: np.ndarray
    p_sum_diag: float
    p_sum_cross: np.ndarray


def depth_sums(hyper: InitHyper, depths, q0: float, q0_sr) -> list[DepthSums]:
    """The DepthSums of each depth in depths (in that order, repeats
    allowed), from one pass of forward_layers to the deepest.

    The depth sums run forward with the layers,

        T^{l+1} = T^l chi^l + q_hat^l,   B^{l+1} = B^l chi^l + 1,
        T^1 = q_hat^0,                   B^1 = 1,

    and likewise T_sr, B_sr with the covariance multipliers, where
    chi^l = sigma_w^2 E[phi'(sqrt(q^l) z)^2] and the covariance multiplier
    is sigma_w^2 E[phi'(u1) phi'(u2)] at (q^l, c^l).  Unrolled, T^L is
    sum_{l=1}^{L} q_hat^{l-1} p^l and B^L is sum_{l=1}^{L} p^l, with
    p^l = prod_{m=l}^{L-1} chi^m: the backward recursion's products, summed
    without storing a layer.  So memory does not grow with the depth, and a
    shallower depth's sums are read off on the way to the deepest, bit for
    bit those of a call at that depth alone.

    Raises SignalOverflowError at the first layer where q, q_sr, T or B is
    not finite, so a depth that overflows fails the whole call.  Entry k of
    the array fields equals the call with q0_sr[k] alone: bit for bit for
    ReLU and erf (closed forms) and for tanh arrays at or below the size
    where quadrature.normal_pair_expectation switches to its Chebyshev
    interpolant in c (34 covariances); above that, to ~1e-14 of the pair
    expectations' scale per layer.
    """
    depths = list(depths)
    if not depths or min(depths) < 1:
        raise ValueError("depths must be a non-empty list of depths >= 1")
    kind, sw = hyper.activation, hyper.sigma_w_sq
    top, wanted, sums = max(depths), set(depths), {}
    # T^0 = B^0 = 0 and chi^0 = 0 start the recursion at T^1 = q_hat^0,
    # B^1 = 1; the rows of cross are T_sr and B_sr, updated in place
    t = b = chi = chi_sr = 0.0
    cross = np.zeros((2,) + np.shape(q0_sr))
    with np.errstate(over="ignore", invalid="ignore"):
        layers = forward_layers(hyper, top, q0, q0_sr)
        for layer, (q, q_sr, c, q_hat, q_hat_sr) in enumerate(layers, start=1):
            t, b = t * chi + q_hat, b * chi + 1.0
            cross *= chi_sr
            cross[0] += q_hat_sr
            cross[1] += 1.0
            _check_finite(layer, cross, t, b)
            if layer in wanted:
                alpha = float(max(layer - 1, 1))
                sums[layer] = DepthSums(q=float(q), q_sr=q_sr, kappa1=float(t) / alpha,
                                        kappa2=cross[0] / alpha, p_sum_diag=float(b),
                                        p_sum_cross=cross[1].copy())
            if layer < top:
                chi = sw * avg_dphi_sq(kind, q)
                chi_sr = sw * _dphi_prod(kind, q, c)
    return [sums[L] for L in depths]


# ---------------------------------------------------------------------------
# Phase classification.

def variance_fixed_point(hyper: InitHyper, q0: float = 1.0) -> tuple[float, float]:
    """Iterate the variance map to its fixed point; returns (q*, chi1(q*)).

    For activations whose variance map has no finite fixed point (ReLU with
    sigma_w^2 >= 2) the iteration falls back to convergence of the chi1
    sequence, which is what phase classification needs.

    With sigma_b^2 = 0, tanh and erf (odd, smooth at 0) have the fixed point
    q* = 0 with chi1 = sigma_w^2 phi'(0)^2; it attracts from every q0 when
    that value is <= 1, where at equality q -> 0 only algebraically, so it
    is returned directly as (0, sigma_w^2 phi'(0)^2).  ReLU needs no such
    case: its chi1 is sigma_w^2 / 2 at every q.
    """
    kind = hyper.activation
    if hyper.sigma_b_sq == 0.0 and kind is not ActivationKind.RELU:
        chi0 = hyper.sigma_w_sq * float(dphi(kind, 0.0)) ** 2
        if chi0 <= 1.0:
            return 0.0, chi0
    if not q0 > 0.0:
        raise ValueError(f"q0 must be positive, got {q0!r}")
    q = q0
    chi_prev = None
    stable = 0
    for _ in range(FIXED_POINT_MAX_ITER):
        q_next = hyper.sigma_w_sq * avg_phi_sq(kind, q) + hyper.sigma_b_sq
        if not math.isfinite(q_next):
            raise SignalOverflowError(f"variance map overflowed at q={q!r}")
        chi = hyper.sigma_w_sq * avg_dphi_sq(kind, q_next)
        if abs(q_next - q) < FIXED_POINT_RTOL * max(1.0, abs(q_next)):
            return float(q_next), float(chi)
        if chi_prev is not None and abs(chi - chi_prev) <= 1e-13 * max(1.0, abs(chi)):
            stable += 1
            if stable >= 16:
                return float(q_next), float(chi)
        else:
            stable = 0
        chi_prev = chi
        q = q_next
        if q > 1e280:
            raise FixedPointDivergenceError(
                "variance map diverged without chi1 settling", last_iterate=float(q))
    raise FixedPointDivergenceError("variance map did not converge", last_iterate=float(q))


def classify_phase(hyper: InitHyper) -> PhaseLabel:
    """Classify (sigma_w^2, sigma_b^2) as ordered / chaotic / EOC via chi1 at
    the variance fixed point (iterated from q0 = 1), within EOC_TOLERANCE of 1."""
    _, chi = variance_fixed_point(hyper, 1.0)
    if chi < 1.0 - EOC_TOLERANCE:
        tag = Phase.ORDERED
    elif chi > 1.0 + EOC_TOLERANCE:
        tag = Phase.CHAOTIC
    else:
        tag = Phase.EOC
    return PhaseLabel(tag, chi)


def edge_of_chaos_sigma_w_sq(activation: ActivationKind, sigma_b_sq: float,
                             bracket: tuple[float, float] = (1e-3, 20.0)) -> float:
    """Locate the sigma_w^2 where chi1(q*) crosses 1 at fixed sigma_b^2, by
    bisection to a relative width of 1e-10."""

    def excess(sw_sq: float) -> float:
        _, chi = variance_fixed_point(InitHyper(sw_sq, sigma_b_sq, activation))
        return chi - 1.0

    lo, hi = bracket
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError(f"bracket {bracket} does not straddle the phase border")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
