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
from fractions import Fraction

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
# Single inputs, flat parameter vectors, and parameter gradients: the exact
# chain rule and finite differences.

def forward(net, x: np.ndarray):
    """Scalar output and workspace of the library's forward pass for one input vector."""
    from ntklab.finite_net import forward_batch

    out, ws = forward_batch(net, np.asarray(x, dtype=float)[None, :])
    return float(out[0]), ws


def backward_deltas(net, ws) -> list:
    """Per-layer output sensitivities delta^l = df/dh^l for the whole batch of
    a forward_batch workspace, by the library's backward pass in ws.

    Returns ws.deltas, a list indexed l = 1..L of arrays (S, M_l); the last
    entry is the constant 1 of the linear read-out.
    """
    from ntklab.finite_net import _backward_into

    ws.deltas[-1][:] = 1.0
    _backward_into(net, ws)
    return ws.deltas


def param_count(net) -> int:
    return sum(w.size + b.size for w, b in zip(net.weights, net.biases))


def flat_params(net) -> np.ndarray:
    """All parameters in one vector: layer-major, weights row-major before biases."""
    return np.concatenate([np.concatenate((w.ravel(), b))
                           for w, b in zip(net.weights, net.biases)])


def gradient(net, x: np.ndarray) -> np.ndarray:
    """Exact flat gradient of the scalar output with respect to all
    parameters, in the layout of flat_params."""
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
    flat = flat_params(net)
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
# The mean-field trace of one depth, written out layer by layer.

def reference_trace(hyper, depth: int, q0: float = 1.0, q0_sr=None) -> dict:
    """The per-layer arrays q, q_hat, p, chi1 (indexed by layer 0..depth)
    and, with q0_sr, q_sr, q_hat_sr, c, p_sr, from the recursions of the
    meanfield docstring, evaluated with the public expectations: the forward
    sweep to depth, then the backward sweep from p^L = p_sr^L = 1.  p[0],
    p_sr[0] and chi1[depth] are NaN.  The reference for meanfield's forward
    recursion, which keeps no layer's arrays."""
    from ntklab.meanfield import avg_dphi_prod, avg_dphi_sq, avg_phi_prod, avg_phi_sq

    kind, sw, sb, L = hyper.activation, hyper.sigma_w_sq, hyper.sigma_b_sq, depth
    covs = q0_sr is not None
    shape = (L + 1,) + np.shape(q0_sr)
    t = {name: np.full(L + 1, np.nan) for name in ("q", "q_hat", "p", "chi1")}
    t.update({name: np.full(shape, np.nan) if covs else None
              for name in ("q_sr", "q_hat_sr", "c", "p_sr")})
    t["q"][0] = q0
    if covs:
        t["q_sr"][0] = q0_sr
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(L + 1):
            t["q_hat"][l] = avg_phi_sq(kind, t["q"][l])
            if covs:
                t["c"][l] = np.minimum(np.maximum(t["q_sr"][l] / t["q"][l], -1.0), 1.0)
                t["q_hat_sr"][l] = avg_phi_prod(kind, t["q"][l], t["c"][l])
            if l < L:
                t["q"][l + 1] = sw * t["q_hat"][l] + sb
                if covs:
                    t["q_sr"][l + 1] = sw * t["q_hat_sr"][l] + sb
        t["p"][L] = 1.0
        if covs:
            t["p_sr"][L] = 1.0
        for l in range(L - 1, -1, -1):
            t["chi1"][l] = sw * avg_dphi_sq(kind, t["q"][l])
            if l > 0:
                t["p"][l] = t["chi1"][l] * t["p"][l + 1]
                if covs:
                    t["p_sr"][l] = sw * avg_dphi_prod(kind, t["q"][l], t["c"][l]) * t["p_sr"][l + 1]
    return t


def reference_sums(hyper, depth: int, q0: float, q0_sr) -> dict:
    """The depth sums of the reference trace, as plain sums over its layers:

        kappa1 = sum_{l=1}^{L} q_hat^{l-1} p^l / alpha,   p_sum_diag = sum_{l=1}^{L} p^l,

    kappa2 and p_sum_cross likewise from q_hat_sr and p_sr (one entry per
    covariance of q0_sr; left out when it is None), alpha = max(L - 1, 1),
    and the last layer's q and q_sr.  "terms1" and "terms2" hold
    sum |q_hat p| and sum |q_hat_sr p_sr|: the rounding of a sum of terms of
    both signs is relative to the sum of their magnitudes."""
    L = depth
    t = reference_trace(hyper, L, q0=q0, q0_sr=q0_sr)
    alpha = float(max(L - 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        diag = t["q_hat"][:L] * t["p"][1:]
        sums = dict(q=t["q"][L], kappa1=np.sum(diag) / alpha, p_sum_diag=np.sum(t["p"][1:]),
                    terms1=np.sum(np.abs(diag)))
        if q0_sr is not None:
            cross = t["q_hat_sr"][:L] * t["p_sr"][1:]
            sums.update(q_sr=t["q_sr"][L], kappa2=np.sum(cross, axis=0) / alpha,
                        p_sum_cross=np.sum(t["p_sr"][1:], axis=0),
                        terms2=np.sum(np.abs(cross), axis=0))
    return sums


# ---------------------------------------------------------------------------
# Per-pair kernel assembly: one scalar reference trace per entry.

def pairwise_theta_star(hyper, depth: int, cov0: np.ndarray, m_width: float,
                        q0: float = 1.0, reference_cov: float = 0.5):
    """Theta*(X) assembled entry by entry from the reference sums of one
    layer-0 covariance each: scale * kappa + p_sum with scale = alpha * M.
    The reference for the one-pass theta_star_matrix."""
    from ntklab.ntk_theory import ThetaStar

    n = cov0.shape[0]
    alpha = float(max(depth - 1, 1))
    scale = alpha * m_width

    matrix = np.empty((n, n))
    for s in range(n):
        for r in range(s + 1, n):
            sums = reference_sums(hyper, depth, q0, float(cov0[s, r]))
            matrix[s, r] = matrix[r, s] = scale * sums["kappa2"] + sums["p_sum_cross"]
    sums = reference_sums(hyper, depth, q0, None)  # the variance channel
    np.fill_diagonal(matrix, scale * sums["kappa1"] + sums["p_sum_diag"])
    kbar1, kbar2 = data_independent_kappas(hyper, depth, reference_cov, q0)
    return ThetaStar(matrix=matrix, scale=scale, alpha=alpha,
                     mean_kappa1=kbar1, mean_kappa2=kbar2)


def data_independent_kappas(hyper, depth: int, reference_cov: float = 0.5,
                            q0: float = 1.0):
    """(kbar1, kbar2) from the reference trace started at q^0 = q0 and the
    reference covariance."""
    sums = reference_sums(hyper, depth, q0, reference_cov * q0)
    return float(sums["kappa1"]), float(sums["kappa2"])


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


def equicorrelated_trained_variance(theta, theta_x: np.ndarray, joint) -> Fraction:
    """u^T K u, u = [1, -Theta^{-1} theta_x], in exact rational arithmetic for
    an equicorrelated sample: Theta = (d - o) I + o 11^T, theta_x = t 1 and
    K = (q - r) I + r 11^T over the S + 1 points, test point first.

    Sherman-Morrison gives Theta^{-1} theta_x = v 1 with v = t / (d - o + S o),
    so u^T K u = q - 2 S v r + v^2 (S q + S (S - 1) r), exactly, from the
    entries as stored.  Raises if the matrices are not equicorrelated.
    """
    theta = np.asarray(getattr(theta, "matrix", theta), dtype=float)
    joint = np.asarray(getattr(joint, "matrix", joint), dtype=float)
    theta_x = np.asarray(theta_x, dtype=float)
    s = len(theta_x)
    for m in (theta, joint):
        off = m[~np.eye(len(m), dtype=bool)]
        if len(set(np.diag(m).tolist())) != 1 or len(set(off.tolist())) > 1:
            raise ValueError("matrix is not equicorrelated")
    if len(set(theta_x.tolist())) != 1:
        raise ValueError("theta_x is not constant")
    d, q = Fraction(theta[0, 0]), Fraction(joint[0, 0])
    o = Fraction(theta[0, 1]) if s > 1 else Fraction(0)
    r, t = Fraction(joint[0, 1]), Fraction(theta_x[0])
    v = t / (d - o + s * o)
    return q - 2 * s * v * r + v * v * (s * q + s * (s - 1) * r)


def pairwise_nngp(hyper, depth: int, cov0: np.ndarray, q0: float = 1.0) -> np.ndarray:
    """K(X) assembled entry by entry from scalar reference traces."""
    n = cov0.shape[0]
    k = np.empty((n, n))
    np.fill_diagonal(k, reference_trace(hyper, depth, q0=q0)["q"][depth])
    for s in range(n):
        for r in range(s + 1, n):
            k[s, r] = k[r, s] = reference_trace(hyper, depth, q0=q0,
                                                q0_sr=float(cov0[s, r]))["q_sr"][depth]
    return k


# ---------------------------------------------------------------------------
# Empirical kernels from explicit gradients, and Theta^0(x, x) from full
# initializations: the references for the library's layerwise kernel and its
# rank-one variance-ratio sampler.

def naive_kernel(net, x: np.ndarray) -> np.ndarray:
    """Reference Gram matrix from explicitly stacked gradient vectors."""
    x = np.atleast_2d(np.asarray(x, float))
    grads = np.stack([gradient(net, row) for row in x])
    theta = grads @ grads.T
    return 0.5 * (theta + theta.T)


def streaming_kernel(net, x: np.ndarray) -> np.ndarray:
    """Pairwise-streaming Gram matrix holding at most two gradient vectors;
    recomputes gradients per pair."""
    x = np.atleast_2d(np.asarray(x, float))
    s = x.shape[0]
    theta = np.empty((s, s))
    for i in range(s):
        g_i = gradient(net, x[i])
        theta[i, i] = g_i @ g_i
        for j in range(i + 1, s):
            g_j = gradient(net, x[j])
            theta[i, j] = theta[j, i] = g_i @ g_j
    return theta


def replicate_seeds(seed: int, n: int) -> np.ndarray:
    """Derived per-replicate seeds; deterministic in (seed, n)."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)


def self_kernel(net, x: np.ndarray) -> float:
    """Theta(x, x) = ||grad_w f(x)||^2 for a single input, from the library's
    deltas and activations, without forming gradients."""
    _, cache = forward(net, x)
    deltas = backward_deltas(net, cache)
    total = 0.0
    for l in range(net.depth):
        d = deltas[l][0]
        a = cache.activations[l][0]
        total += float(d @ d) * (float(a @ a) + 1.0)
    return total


def full_init_theta0(widths, hyper, probe: np.ndarray, seeds) -> np.ndarray:
    """Theta^0(x, x) at the probe of one fully initialized network per seed."""
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


def reference_dphi(kind: ActivationKind, u: np.ndarray) -> np.ndarray:
    """phi'(u) as a fresh float array, 1.0/0.0 for ReLU (0.0 at the kink)."""
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
        d = (d @ net.weights[l]) * reference_dphi(net.activation, preacts[l - 1])
        deltas.append(d)
    return deltas[::-1]


def reference_train_full_batch(net, x: np.ndarray, y: np.ndarray, cfg,
                               snapshot_steps=(), on_snapshot=None, buffers=None):
    """train_full_batch with an out-of-place forward pass, derivative and
    update; it allocates its own arrays and ignores buffers.  Its snapshots
    are taken by a closure that remembers which steps it has served, so the
    library's call sequence is checked against a second formulation."""
    from ntklab.finite_net import TrainLog

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
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.mean((out - y) ** 2))
        if not np.isfinite(loss):
            return TrainLog(losses=losses[:step - 1].copy(), stop_reason="diverged",
                            steps_run=step)
        losses[step - 1] = loss

        with np.errstate(over="ignore", invalid="ignore"):
            d = (2.0 / s) * (out - y)[:, None]
            for l in range(net.depth - 1, -1, -1):
                grad_w = d.T @ acts[l]
                grad_b = d.sum(axis=0)
                if l > 0:
                    d = (d @ net.weights[l]) * reference_dphi(net.activation, pres[l - 1])
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
