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
activation layer: the trace starts from a pre-activation variance q^0 (1 for
normalized data) and q_hat^0 = E[phi(sqrt(q^0) z)^2] plays the role of the
input second moment.

The per-layer multiplier chi1^l = sigma_w^2 * E[phi'(sqrt(q^l) z)^2]
controls gradient propagation: chi1 < 1 at the variance fixed point means
vanishing gradients (ordered phase), chi1 > 1 exploding gradients (chaotic
phase), and chi1 = 1 is the edge of chaos (EOC).

ReLU and erf use closed-form expectations (NumPy ufuncs); anything else
falls back to Gauss-Hermite quadrature, whose pair rule fits a large array
of correlations by one Chebyshev interpolant in c, kept across calls (see
quadrature: q_s = q_r = q^l is shared by every pair of a layer, so the pair
expectation is a function of c alone, and the fit of a layer variance serves
every sample).  The expectations are elementwise over arrays.

run_traces is the one place the recursions run.  It takes a 1-D array of
layer-0 covariances and advances all of them through the layers in one
pass, which is how ntk_theory builds whole kernel matrices, and it takes a
list of depths: the forward recursions do not depend on L, so one forward
sweep to the deepest L serves every depth (the arrays of a shallower trace
are a prefix), and the per-layer backward multipliers are computed once;
only the products from p^L = 1 down run per depth.  run_trace is its
one-depth case.  Each layer clamps its correlations c^l = q_sr^l / q^l to
[-1, 1] once, and the pair expectations take that c with q^l as the scale,
so no product q^l * q^l is formed (it would overflow long before q^l does).
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
        self.last_iterate = last_iterate
        super().__init__(f"{message} (last iterate {last_iterate!r})")


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
        return np.full(np.shape(q), 0.5)[()]
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
    return quadrature.normal_pair_expectation(_PAIR_INTEGRANDS[kind][0], q, q, c)


def _dphi_prod(kind: ActivationKind, q, c):
    """avg_dphi_prod for c already clamped to [-1, 1]."""
    if kind is ActivationKind.RELU:
        return (math.pi / 2.0 + np.arcsin(c)) / (2.0 * math.pi)
    if kind is ActivationKind.ERF:
        cov = c * q
        scale = 1.0 + 2.0 * q
        return 4.0 / math.pi / np.sqrt(scale * scale - 4.0 * cov * cov)
    return quadrature.normal_pair_expectation(_PAIR_INTEGRANDS[kind][1], q, q, c)


# ---------------------------------------------------------------------------
# Full traces.

@dataclass
class MeanFieldTrace:
    """Per-layer second moments for one input and, optionally, input pairs.

    All arrays are indexed by layer l = 0..L where L = depth (number of
    affine maps).  Entry 0 holds the virtual input layer: q[0] = q^0,
    q_hat[0] = E[phi(sqrt(q^0) z)^2].  The backward channel is defined for
    l = 1..L with p[L] = p_sr[L] = 1; p[0], p_sr[0], chi1[L] are NaN.
    chi1[l] is the gradient multiplier of the activation at layer l (the
    read-out layer has none).  Covariance arrays are None when the trace was
    run without a second input; they have shape (L + 1,) for a scalar layer-0
    covariance and (L + 1, n) for an array of n covariances, column k being
    the trace of covariance k.
    """

    hyper: InitHyper
    q: np.ndarray
    q_hat: np.ndarray
    p: np.ndarray
    chi1: np.ndarray
    q_sr: np.ndarray | None = None
    q_hat_sr: np.ndarray | None = None
    c: np.ndarray | None = None
    p_sr: np.ndarray | None = None

    @property
    def depth(self) -> int:
        return len(self.q) - 1

    @property
    def has_covariance(self) -> bool:
        return self.q_sr is not None


def _check_layer(layer: int, variance, covariance) -> None:
    """The one check per layer of the trace: the new variance (q or p) must
    be finite and positive, the new covariances (None without them) finite."""
    if not (math.isfinite(variance)
            and (covariance is None
                 or np.logical_and.reduce(np.isfinite(covariance), axis=None))):
        raise SignalOverflowError("mean-field recursion overflowed", layer=layer)
    if not variance > 0.0:
        raise ValueError(f"variance {float(variance)!r} at layer {layer} must be positive")


def _forward_sweep(hyper: InitHyper, depth: int, q0: float, q0_sr):
    """Forward recursions of run_traces: returns (q, q_hat, q_sr, q_hat_sr, c),
    the last three None when q0_sr is None.

    q0_sr may be a scalar or a 1-D array of layer-0 covariances; every
    covariance advances through the layers together with the shared
    variance channel.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (q0 > 0.0):
        raise ValueError("q0 must be positive")
    kind, sw, sb = hyper.activation, hyper.sigma_w_sq, hyper.sigma_b_sq
    L = depth
    q = np.empty(L + 1)
    q_hat = np.empty(L + 1)
    q[0] = q0
    q_sr = q_hat_sr = c = None
    if q0_sr is not None:
        q0_sr = np.asarray(q0_sr, dtype=float)
        if q0_sr.ndim > 1:
            raise ValueError("q0_sr must be a scalar or a 1-D array")
        if np.any(np.abs(q0_sr) > q0 * (1.0 + CORRELATION_SLACK)):
            raise ValueError("|q0_sr| must not exceed q0")
        shape = (L + 1,) + q0_sr.shape
        q_sr = np.empty(shape)
        q_hat_sr = np.empty(shape)
        c = np.empty(shape)
        q_sr[0] = q0_sr

    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(L + 1):
            q_l = q[l]
            q_hat[l] = avg_phi_sq(kind, q_l)
            if q_sr is not None:
                c[l] = c_l = _clamp_correlation(q_sr[l] / q_l)
                q_hat_sr[l] = _phi_prod(kind, q_l, c_l)
            if l == L:
                break
            q[l + 1] = sw * q_hat[l] + sb
            if q_sr is not None:
                q_sr[l + 1] = sw * q_hat_sr[l] + sb
            _check_layer(l + 1, q[l + 1], None if q_sr is None else q_sr[l + 1])
    return q, q_hat, q_sr, q_hat_sr, c


def _backward_sweep(hyper: InitHyper, q: np.ndarray, c, depths: list[int]) -> list:
    """Backward recursions of run_traces: (p, chi1, p_sr) for each depth in
    depths, from the forward arrays q and c (None without covariances, and
    then p_sr is None) of the deepest of them.

    The multipliers chi1^l = sigma_w^2 E[phi'^2] and sigma_w^2 E[phi'(u1)
    phi'(u2)] of layer l do not depend on the depth, so they are computed
    once; each depth L multiplies them down from p^L = p_sr^L = 1.
    """
    kind, sw = hyper.activation, hyper.sigma_w_sq
    top = max(depths)
    chi1_all = np.empty(top)
    # layer l's covariance multipliers, kept as the arrays they are computed
    # as: stacking them into one (top, n) block adds a large allocation to
    # every call, which made Theta* of 8 128 covariances (L = 4) ~25 % slower
    # in a long-running process
    chi_sr = [None] * top
    traces = []
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(top):
            chi1_all[l] = sw * avg_dphi_sq(kind, q[l])
            if c is not None and l > 0:
                chi_sr[l] = sw * _dphi_prod(kind, q[l], c[l])
        for L in depths:
            chi1 = np.full(L + 1, np.nan)
            chi1[:L] = chi1_all[:L]
            p = np.full(L + 1, np.nan)
            p[L] = 1.0
            p_sr = None
            if c is not None:
                p_sr = np.full((L + 1,) + c.shape[1:], np.nan)
                p_sr[L] = 1.0
            for l in range(L - 1, 0, -1):
                p[l] = chi1[l] * p[l + 1]
                if p_sr is not None:
                    p_sr[l] = chi_sr[l] * p_sr[l + 1]
                _check_layer(l, p[l], None if p_sr is None else p_sr[l])
            traces.append((p, chi1, p_sr))
    return traces


def run_traces(hyper: InitHyper, depths, q0: float = 1.0, q0_sr=None) -> list[MeanFieldTrace]:
    """The trace of each depth in depths (in that order, repeats allowed):
    one forward sweep of the variance/covariance recursions to the deepest,
    then the backward sweep of each depth with terminal conditions
    p^L = p_sr^L = 1.

    Each trace is bit for bit the one a separate forward sweep to its own
    depth would give; its forward arrays are views of the deepest sweep's,
    shared with the other traces.  A depth whose recursion overflows fails
    the whole call, with the layer where it overflowed.

    q0_sr is None (variance channel only), a scalar layer-0 covariance, or a
    1-D array of them; an array runs every covariance through the layers in
    one pass.  Column k of the covariance arrays equals the trace run with
    q0_sr = q0_sr[k]: bit for bit for ReLU and erf (closed forms) and for
    tanh arrays at or below the size where quadrature.normal_pair_expectation
    switches to its Chebyshev interpolant in c (34 covariances); above that,
    to ~1e-14 of the pair expectations' scale per layer.
    """
    depths = list(depths)
    if not depths or min(depths) < 1:
        raise ValueError("depths must be a non-empty list of depths >= 1")
    q, q_hat, q_sr, q_hat_sr, c = _forward_sweep(hyper, max(depths), q0, q0_sr)
    traces = []
    for L, (p, chi1, p_sr) in zip(depths, _backward_sweep(hyper, q, c, depths)):
        n = L + 1
        if q_sr is None:
            traces.append(MeanFieldTrace(hyper, q[:n], q_hat[:n], p, chi1))
        else:
            traces.append(MeanFieldTrace(hyper, q[:n], q_hat[:n], p, chi1, q_sr=q_sr[:n],
                                         q_hat_sr=q_hat_sr[:n], c=c[:n], p_sr=p_sr))
    return traces


def run_trace(hyper: InitHyper, depth: int, q0: float = 1.0, q0_sr=None) -> MeanFieldTrace:
    """The trace of one depth: run_traces(hyper, [depth], q0, q0_sr)[0]."""
    return run_traces(hyper, [depth], q0, q0_sr)[0]


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


def classify_phase(hyper: InitHyper, q0: float = 1.0,
                   tol: float = EOC_TOLERANCE) -> PhaseLabel:
    """Classify (sigma_w^2, sigma_b^2) as ordered / chaotic / EOC via chi1 at
    the variance fixed point."""
    _, chi = variance_fixed_point(hyper, q0)
    if chi < 1.0 - tol:
        tag = Phase.ORDERED
    elif chi > 1.0 + tol:
        tag = Phase.CHAOTIC
    else:
        tag = Phase.EOC
    return PhaseLabel(tag, chi)


def edge_of_chaos_sigma_w_sq(activation: ActivationKind, sigma_b_sq: float,
                             bracket: tuple[float, float] = (1e-3, 20.0),
                             rtol: float = 1e-10) -> float:
    """Locate the sigma_w^2 where chi1(q*) crosses 1 at fixed sigma_b^2, by bisection."""

    def excess(sw_sq: float) -> float:
        _, chi = variance_fixed_point(InitHyper(sw_sq, sigma_b_sq, activation))
        return chi - 1.0

    lo, hi = bracket
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError(f"bracket {bracket} does not straddle the phase border")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
