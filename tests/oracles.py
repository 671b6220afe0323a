"""Independent numerical oracles used to pin expected values.

The Gaussian-expectation oracles never touch the closed forms under test:
one-dimensional integrals go through adaptive Gauss-Kronrod quadrature of
the plain integrand (split at the ReLU kink), and the two-dimensional
product integrals are reduced with the exact conditional Gaussian moments

    E[relu(m + s Z)]        = m Phi(m/s) + s N(m/s)
    E[erf(m + s Z)]         = erf(m / sqrt(1 + 2 s^2))
    E[step(m + s Z)]        = Phi(m/s)
    E[exp(-(m + s Z)^2)]    = exp(-m^2 / (1 + 2 s^2)) / sqrt(1 + 2 s^2)

before an adaptive outer quadrature; tanh products fall back to a nested
adaptive rule.  Plain fixed-node Gauss-Hermite is NOT accurate enough for
the kinked ReLU product integrands (observed ~1e-1 relative error at strong
negative correlation with 64 nodes), which is why the tight-tolerance checks
use these oracles instead.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf as _erf
from scipy.stats import norm

from ntklab.activations import ActivationKind, dphi, phi
from ntklab.quadrature import PAIR_CHUNK, gauss_hermite_rule

logger = logging.getLogger(__name__)

_CUT = 12.0  # Gaussian mass beyond +-12 sigma is < 1e-31
_QUAD_OPTS = dict(limit=400, epsabs=1e-14, epsrel=1e-13)


def _gauss_quad(f) -> float:
    val, _ = quad(lambda z: norm.pdf(z) * f(z), -_CUT, _CUT, points=[0.0], **_QUAD_OPTS)
    return val


def avg_phi_sq_oracle(kind: ActivationKind, q: float) -> float:
    a = math.sqrt(q)
    return _gauss_quad(lambda z: phi(kind, a * z) ** 2)


def avg_dphi_sq_oracle(kind: ActivationKind, q: float) -> float:
    a = math.sqrt(q)
    return _gauss_quad(lambda z: dphi(kind, a * z) ** 2)


def _inner_mean(kind: ActivationKind, deriv: bool, m: float, s: float) -> float:
    """E[g(m + s Z)] for g = phi or phi' with Z ~ N(0,1), in closed form."""
    if kind is ActivationKind.RELU:
        if not deriv:
            return m * norm.cdf(m / s) + s * norm.pdf(m / s)
        return norm.cdf(m / s)
    if kind is ActivationKind.ERF:
        if not deriv:
            return _erf(m / math.sqrt(1.0 + 2.0 * s * s))
        den = 1.0 + 2.0 * s * s
        return 2.0 / math.sqrt(math.pi) * math.exp(-m * m / den) / math.sqrt(den)
    raise NotImplementedError


def avg_phi_prod_oracle(kind: ActivationKind, q_s: float, q_r: float, c: float,
                        deriv: bool = False) -> float:
    """E[g(u1) g(u2)] with var(u1)=q_s, var(u2)=q_r, corr(u1,u2)=c."""
    a = math.sqrt(q_s)
    b = math.sqrt(q_r)
    s2 = b * math.sqrt(max(1.0 - c * c, 0.0))
    g = dphi if deriv else phi

    if kind is ActivationKind.TANH:
        def outer(z1):
            inner, _ = quad(lambda z2: norm.pdf(z2) * g(kind, b * (c * z1 + math.sqrt(
                max(1.0 - c * c, 0.0)) * z2)), -_CUT, _CUT, **_QUAD_OPTS)
            return g(kind, a * z1) * inner
        val, _ = quad(lambda z: norm.pdf(z) * outer(z), -_CUT, _CUT, **_QUAD_OPTS)
        return val

    if s2 == 0.0:  # perfectly correlated pair
        return _gauss_quad(lambda z: g(kind, a * z) * g(kind, b * c * z))
    return _gauss_quad(
        lambda z: g(kind, a * z) * _inner_mean(kind, deriv, b * c * z, s2))


def avg_dphi_prod_oracle(kind: ActivationKind, q_s: float, q_r: float, c: float) -> float:
    return avg_phi_prod_oracle(kind, q_s, q_r, c, deriv=True)


# ---------------------------------------------------------------------------
# Parameter gradients: the exact chain rule and finite differences.

def gradient(net, x: np.ndarray) -> np.ndarray:
    """Exact flat gradient of the scalar output with respect to all
    parameters, in the layout of Mlp.flat_params (layer-major, weights
    row-major before biases)."""
    from ntklab.finite_net import backward_deltas, forward

    _, cache = forward(net, x)
    deltas = backward_deltas(net, cache)
    parts = []
    for l in range(net.depth):
        d = deltas[l][0]
        parts.append(np.outer(d, cache.activations[l][0]).ravel())
        parts.append(d)
    return np.concatenate(parts)


def finite_difference_gradient(net, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the scalar output in all parameters."""
    from ntklab.finite_net import forward

    flat = net.flat_params()
    grad = np.empty_like(flat)

    def set_params(values: np.ndarray) -> None:
        pos = 0
        for w, b in zip(net.weights, net.biases):
            w[:] = values[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            b[:] = values[pos:pos + b.size]
            pos += b.size

    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += h
        set_params(bumped)
        f_plus, _ = forward(net, x)
        bumped[i] -= 2.0 * h
        set_params(bumped)
        f_minus, _ = forward(net, x)
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    set_params(flat)
    return grad


def linear_fit_r_squared(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, R^2) of the least-squares line through (x, y)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Per-pair kernel assembly: one scalar mean-field trace per entry.

def pairwise_theta_star(hyper, depth: int, cov0: np.ndarray, m_width: float,
                        q0: float = 1.0, reference_cov: float = 0.5):
    """Theta*(X) assembled entry by entry from scalar run_trace calls, the
    reference for the one-pass theta_star_matrix."""
    from ntklab.meanfield import run_trace
    from ntklab.ntk_theory import build_theta_star, compute_kappas

    def kappas(c0):
        return compute_kappas(run_trace(hyper, depth, q0=q0, q0_sr=c0))

    n = cov0.shape[0]
    diag = kappas(q0)
    kbars = kappas(reference_cov * q0)
    kappa2 = np.zeros((n, n))
    psum2 = np.zeros((n, n))
    for s in range(n):
        for r in range(s + 1, n):
            pair = kappas(float(cov0[s, r]))
            kappa2[s, r] = kappa2[r, s] = pair.kappa2
            psum2[s, r] = psum2[r, s] = pair.p_sum_cross
    alpha = float(max(depth - 1, 1))
    return build_theta_star(np.full(n, diag.kappa1), kappa2, m_width, alpha,
                            kbars.kappa1, kbars.kappa2,
                            p_sum_diag=np.full(n, diag.p_sum_diag), p_sum_cross=psum2)


def data_independent_kappas(hyper, depth: int, reference_cov: float = 0.5,
                            q0: float = 1.0):
    """kbar1/kbar2 from the trace started at q^0 = q0 and the reference covariance."""
    from ntklab.meanfield import run_trace
    from ntklab.ntk_theory import compute_kappas

    return compute_kappas(run_trace(hyper, depth, q0=q0, q0_sr=reference_cov * q0))


def trained_output(theta, theta_x: np.ndarray, f0_x: float,
                   f0_train: np.ndarray, y: np.ndarray) -> float:
    """Output of a network trained to convergence under a constant kernel,

        f_inf(x) = f0(x) + Theta(x,X) Theta(X)^{-1} (Y - f0(X)),

    through an SPD solve (never an explicit inverse)."""
    from ntklab.ntk_theory import spd_solve

    theta = np.asarray(getattr(theta, "matrix", theta), dtype=float)
    theta_x = np.asarray(theta_x, dtype=float)
    f0_train = np.asarray(f0_train, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (theta.shape[0] == theta.shape[1] == len(theta_x) == len(f0_train) == len(y)):
        raise ValueError("inconsistent kernel/label dimensions")
    w, _ = spd_solve(theta, y - f0_train)
    return float(f0_x + theta_x @ w)


def pairwise_nngp(hyper, depth: int, cov0: np.ndarray, q0: float = 1.0) -> np.ndarray:
    """K(X) assembled entry by entry from scalar run_trace calls."""
    from ntklab.meanfield import run_trace

    n = cov0.shape[0]
    k = np.empty((n, n))
    np.fill_diagonal(k, run_trace(hyper, depth, q0=q0).q[depth])
    for s in range(n):
        for r in range(s + 1, n):
            k[s, r] = k[r, s] = run_trace(hyper, depth, q0=q0,
                                          q0_sr=float(cov0[s, r])).q_sr[depth]
    return k


# ---------------------------------------------------------------------------
# Empirical kernels from explicit gradients, and Theta^0(x, x) from full
# initializations: the references for the library's layerwise kernel and its
# rank-one variance-ratio sampler.

def naive_kernel(net, x: np.ndarray):
    """Reference Gram matrix from explicitly stacked gradient vectors."""
    from ntklab.empirical_ntk import KernelMatrix, KernelProvenance

    x = np.atleast_2d(np.asarray(x, float))
    grads = np.stack([gradient(net, row) for row in x])
    theta = grads @ grads.T
    return KernelMatrix(0.5 * (theta + theta.T),
                        KernelProvenance("empirical", seed=net.seed))


def streaming_kernel(net, x: np.ndarray):
    """Pairwise-streaming Gram matrix holding at most two gradient vectors;
    recomputes gradients per pair."""
    from ntklab.empirical_ntk import KernelMatrix, KernelProvenance

    x = np.atleast_2d(np.asarray(x, float))
    s = x.shape[0]
    theta = np.empty((s, s))
    for i in range(s):
        g_i = gradient(net, x[i])
        theta[i, i] = g_i @ g_i
        for j in range(i + 1, s):
            g_j = gradient(net, x[j])
            theta[i, j] = theta[j, i] = g_i @ g_j
    return KernelMatrix(theta, KernelProvenance("empirical", seed=net.seed))


def replicate_seeds(seed: int, n: int) -> np.ndarray:
    """Derived per-replicate seeds; deterministic in (seed, n)."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)


def full_init_theta0(widths, hyper, probe: np.ndarray, seeds) -> np.ndarray:
    """Theta^0(x, x) at the probe of one fully initialized network per seed."""
    from ntklab.empirical_ntk import self_kernel
    from ntklab.finite_net import init

    return np.array([self_kernel(init(widths, hyper, int(s)), probe) for s in seeds])


# ---------------------------------------------------------------------------
# Forward pass, deltas and full-batch gradient descent that allocate fresh
# arrays at every step: the references for the library's buffered routines,
# which must match them bit for bit.

def _reference_phi(kind: ActivationKind, u: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.RELU:
        return np.maximum(u, 0.0)
    return _erf(u) if kind is ActivationKind.ERF else np.tanh(u)


def _reference_dphi(kind: ActivationKind, u: np.ndarray) -> np.ndarray:
    if kind is ActivationKind.RELU:
        return np.where(u > 0.0, 1.0, 0.0)
    if kind is ActivationKind.ERF:
        return 2.0 / np.sqrt(np.pi) * np.exp(-np.square(u))
    return 1.0 / np.square(np.cosh(u))


def reference_forward_batch(net, x: np.ndarray):
    """(outputs, activations, preacts) of a forward pass that builds fresh arrays."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    acts, pres = [a], []
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = a @ w.T + b
            pres.append(h)
            if l < net.depth - 1:
                a = _reference_phi(net.activation, h)
                acts.append(a)
    return pres[-1][:, 0], acts, pres


def reference_backward_deltas(net, preacts) -> list:
    """delta^l = df/dh^l (S, M_l) for l = 1..L, each a fresh array."""
    d = np.ones((preacts[-1].shape[0], 1))
    deltas = [d]
    for l in range(net.depth - 1, 0, -1):
        d = (d @ net.weights[l]) * _reference_dphi(net.activation, preacts[l - 1])
        deltas.append(d)
    return deltas[::-1]


def reference_train_full_batch(net, x: np.ndarray, y: np.ndarray, cfg,
                               snapshot_steps=(), on_snapshot=None):
    """train_full_batch with an out-of-place forward pass, derivative and update."""
    from ntklab.finite_net import TrainingDivergenceError, TrainLog

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    s = len(y)
    wanted = set(int(t) for t in snapshot_steps)
    snapped: set[int] = set()

    def snapshot(step: int, force: bool = False):
        if on_snapshot is None or step in snapped:
            return
        if force or step in wanted:
            on_snapshot(step, net)
            snapped.add(step)

    snapshot(0)
    losses = np.empty(cfg.max_steps)
    best = np.inf
    stale = 0
    reason = "max_steps"
    step = 0
    for step in range(1, cfg.max_steps + 1):
        out, acts, pres = reference_forward_batch(net, x)
        loss = float(np.mean((out - y) ** 2))
        if not np.isfinite(loss):
            raise TrainingDivergenceError(step, losses[:step - 1].copy())
        losses[step - 1] = loss

        with np.errstate(over="ignore", invalid="ignore"):
            d = (2.0 / s) * (out - y)[:, None]
            for l in range(net.depth - 1, -1, -1):
                grad_w = d.T @ acts[l]
                grad_b = d.sum(axis=0)
                if l > 0:
                    d = (d @ net.weights[l]) * _reference_dphi(net.activation, pres[l - 1])
                net.weights[l] -= cfg.learning_rate * grad_w
                net.biases[l] -= cfg.learning_rate * grad_b

        snapshot(step)
        if best - loss >= cfg.early_stop_delta:
            best = loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                reason = "early_stop"
                break
    if step and losses[step - 1] > losses[0]:
        reason = "loss_rose"

    snapshot(step, force=True)
    return TrainLog(losses=losses[:step].copy(), stop_reason=reason, steps_run=step)


# ---------------------------------------------------------------------------
# The two-dimensional Gauss-Hermite rule over the full grid, with fresh
# temporaries per block: the reference for the library's buffered half-grid
# rule, which must match it to rounding.

def reference_pair_expectation(f, q_s: float, q_r: float, c, n_nodes: int = 64):
    """E[f(u1) f(u2)] over the full n x n grid, by the block loop that
    allocates u2 and f(u2) per block.

    The library's rule sums over the half grid, in another order, so this is
    a tolerance reference for it (agreement to rounding), not a bitwise one.
    It takes any f, odd, even or neither.
    """
    x, w = gauss_hermite_rule(n_nodes)
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    weighted_u1 = w * f(np.sqrt(q_s) * x)
    scale_r = np.sqrt(q_r)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, PAIR_CHUNK):
        ck = flat[start:start + PAIR_CHUNK, None, None]
        sk = np.sqrt(np.maximum(1.0 - ck * ck, 0.0))
        u2 = scale_r * (ck * x[:, None] + sk * x[None, :])
        out[start:start + PAIR_CHUNK] = ((f(u2) @ w) * weighted_u1).sum(axis=-1)
    return out.reshape(c.shape)[()]


# ---------------------------------------------------------------------------
# Trained-output variance by sampling the whole initial function f0 from the
# joint NNGP covariance: the reference for the library's exact u^T K u and its
# rank-one Monte-Carlo draw.

@dataclass(frozen=True)
class McVariance:
    variance: float
    standard_error: float
    n_samples: int

    def __float__(self) -> float:
        return self.variance


def psd_sampler(cov: np.ndarray) -> np.ndarray:
    """Factor B with B B^T = cov from eigh, clipping tiny negative eigenvalues.

    Warns when the most negative eigenvalue exceeds the PSD tolerance; raises
    if the matrix is not close to symmetric PSD at all.
    """
    from ntklab.ntk_theory import PSD_WARN_TOL

    cov = np.asarray(getattr(cov, "matrix", cov), dtype=float)
    n = cov.shape[0]
    if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
        raise ValueError("covariance must be symmetric")
    vals, vecs = np.linalg.eigh(cov)
    tol = PSD_WARN_TOL * max(float(np.trace(cov)) / n, 0.0)
    if vals[0] < -tol:
        if vals[0] < -1e-4 * max(float(np.trace(cov)) / n, 1e-300):
            raise ValueError(f"covariance strongly indefinite (lambda_min={vals[0]:.3e})")
        logger.warning("clipping negative NNGP eigenvalue %.3e", vals[0])
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


MC_CHUNK = 8192


def variance_oracle_mc(theta_star, nngp_joint, theta_x_row: np.ndarray,
                       n_samples: int, seed: int = 0) -> McVariance:
    """Monte-Carlo estimate of Var(f_inf(x)) from whole sampled f0.

    nngp_joint is the (S+1) x (S+1) output covariance of [x] + X with the
    test point FIRST.  Initial outputs f0 are sampled from it, the trained
    output is evaluated per sample, and the empirical variance is returned.
    Samples are drawn in fixed chunks by sample index from per-chunk PRNG
    streams, so the result depends only on (seed, n_samples).
    """
    from ntklab.ntk_theory import spd_solve

    theta = np.asarray(getattr(theta_star, "matrix", theta_star), dtype=float)
    joint = np.asarray(getattr(nngp_joint, "matrix", nngp_joint), dtype=float)
    s = theta.shape[0]
    if joint.shape != (s + 1, s + 1):
        raise ValueError(f"joint NNGP must be ({s + 1}, {s + 1}), got {joint.shape}")
    theta_x_row = np.asarray(theta_x_row, dtype=float)
    if len(theta_x_row) != s:
        raise ValueError("theta_x_row length must match the training sample size")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")

    v, _ = spd_solve(theta, theta_x_row)
    sampler = psd_sampler(joint)

    ss = np.random.SeedSequence(seed)
    n_chunks = (n_samples + MC_CHUNK - 1) // MC_CHUNK
    children = ss.spawn(n_chunks)
    out = np.empty(n_samples)
    pos = 0
    for child in children:
        take = min(MC_CHUNK, n_samples - pos)
        rng = np.random.Generator(np.random.Philox(child))
        z = rng.standard_normal((take, s + 1))
        f0 = z @ sampler.T
        # f_inf(x) up to the Y-dependent constant, which does not move variance
        out[pos:pos + take] = f0[:, 0] - f0[:, 1:] @ v
        pos += take
    var = float(np.var(out, ddof=1))
    # standard error of a variance estimate for ~Gaussian samples
    se = var * math.sqrt(2.0 / (n_samples - 1))
    return McVariance(variance=var, standard_error=se, n_samples=n_samples)
