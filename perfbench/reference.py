"""Independent computations the benchmark checks ntklab's outputs against.

Nothing here calls ntklab: the ReLU kernels come from the arc-cosine closed
forms evaluated over whole arrays of input covariances at once, the tanh
kernels from nested adaptive Gauss-Kronrod quadrature (scipy.integrate.quad)
of the plain integrands, the trained-output variance from the exact
Gaussian quadratic form, and gradient descent plus its kernel from explicit
per-sample gradient vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit-variance inputs: the layer-0 pre-activation variance of every point.
Q0 = 1.0


@dataclass
class Kernels:
    """Infinite-width kernel entries for unit-variance inputs.

    theta_diag/k_diag are the shared diagonal entries; theta_off/k_off and
    kappa2 hold one entry per layer-0 covariance that was asked for.
    """

    kappa1: float
    kappa2: np.ndarray
    theta_diag: float
    theta_off: np.ndarray
    k_diag: float
    k_off: np.ndarray


def _alpha(depth: int) -> float:
    # constant-width network: alpha = sum_{l=1}^{L-1} 1 * 1, and 1 for L = 1
    return float(depth - 1) if depth > 1 else 1.0


def _assemble(depth, m_width, q, q_hat, p, q_sr, q_hat_sr, p_sr) -> Kernels:
    L = depth
    alpha = _alpha(L)
    kappa1 = float(np.sum(q_hat[:L] * p[1:])) / alpha
    kappa2 = np.sum(q_hat_sr[:L] * p_sr[1:], axis=0) / alpha
    scale = alpha * m_width
    return Kernels(kappa1=kappa1, kappa2=kappa2,
                   theta_diag=scale * kappa1 + float(np.sum(p[1:])),
                   theta_off=scale * kappa2 + np.sum(p_sr[1:], axis=0),
                   k_diag=float(q[L]), k_off=q_sr[L])


def relu_kernels(sigma_w_sq: float, sigma_b_sq: float, depth: int,
                 cov0, m_width: float) -> Kernels:
    """Theta* and NNGP entries of a ReLU network for every covariance in cov0.

    All pairs advance through the layers together as one array; the
    arc-cosine identities give every Gaussian expectation in closed form.
    """
    c0 = np.asarray(cov0, dtype=float)
    L = depth
    q = np.empty(L + 1)
    q[0] = Q0
    for l in range(1, L + 1):
        q[l] = sigma_w_sq * q[l - 1] / 2.0 + sigma_b_sq
    q_hat = q / 2.0
    q_sr = np.empty((L + 1,) + c0.shape)
    q_hat_sr = np.empty_like(q_sr)
    c = np.empty_like(q_sr)
    q_sr[0] = c0 * Q0
    for l in range(L + 1):
        c[l] = np.clip(q_sr[l] / q[l], -1.0, 1.0)
        q_hat_sr[l] = q[l] / (2.0 * math.pi) * (
            np.sqrt(1.0 - c[l] ** 2) + c[l] * (math.pi / 2.0 + np.arcsin(c[l])))
        if l < L:
            q_sr[l + 1] = sigma_w_sq * q_hat_sr[l] + sigma_b_sq
    p = np.ones(L + 1)
    p_sr = np.ones_like(q_sr)
    for l in range(L - 1, 0, -1):
        p[l] = sigma_w_sq * 0.5 * p[l + 1]
        p_sr[l] = sigma_w_sq * (math.pi / 2.0 + np.arcsin(c[l])) / (2.0 * math.pi) * p_sr[l + 1]
    return _assemble(L, m_width, q, q_hat, p, q_sr, q_hat_sr, p_sr)


# ---------------------------------------------------------------------------
# tanh by adaptive quadrature

_CUT = 12.0  # standard-normal mass beyond 12 sigma is below 1e-32
_QUAD = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
_NORM = 1.0 / math.sqrt(2.0 * math.pi)


def _tanh(u: float) -> float:
    return math.tanh(u)


def _dtanh(u: float) -> float:
    return 1.0 / math.cosh(u) ** 2


def _quad(f) -> float:
    """Integral of f over [-_CUT, _CUT]; scipy.integrate is imported here, on
    first use, so that the benchmark's set-up timing does not pay for it."""
    from scipy.integrate import quad
    val, _ = quad(f, -_CUT, _CUT, **_QUAD)
    return val


def _mean_sq(f, a: float) -> float:
    """E[f(a Z)^2] for Z ~ N(0, 1)."""
    return _quad(lambda z: f(a * z) ** 2 * math.exp(-0.5 * z * z)) * _NORM


def _pair_mean(f, a: float, c: float) -> float:
    """E[f(u1) f(u2)], u1 = a z1, u2 = a (c z1 + sqrt(1 - c^2) z2)."""
    s = math.sqrt(max(1.0 - c * c, 0.0))

    def inner(z1: float) -> float:
        m = c * z1
        return _quad(lambda z2: f(a * (m + s * z2)) * math.exp(-0.5 * z2 * z2)) * _NORM

    return _quad(lambda z1: f(a * z1) * inner(z1) * math.exp(-0.5 * z1 * z1)) * _NORM


def tanh_kernels(sigma_w_sq: float, sigma_b_sq: float, depth: int,
                 c0: float, m_width: float) -> Kernels:
    """Theta* and NNGP entries of a tanh network for one input covariance c0."""
    L = depth
    q = np.empty(L + 1)
    q_hat = np.empty(L + 1)
    q[0] = Q0
    for l in range(L + 1):
        q_hat[l] = _mean_sq(_tanh, math.sqrt(q[l]))
        if l < L:
            q[l + 1] = sigma_w_sq * q_hat[l] + sigma_b_sq
    q_sr = np.empty(L + 1)
    q_hat_sr = np.empty(L + 1)
    c = np.empty(L + 1)
    q_sr[0] = c0 * Q0
    for l in range(L + 1):
        c[l] = min(1.0, max(-1.0, q_sr[l] / q[l]))
        if l == L:
            break  # q_hat_sr^L does not enter Theta* or K
        q_hat_sr[l] = _pair_mean(_tanh, math.sqrt(q[l]), c[l])
        q_sr[l + 1] = sigma_w_sq * q_hat_sr[l] + sigma_b_sq
    p = np.ones(L + 1)
    p_sr = np.ones(L + 1)
    for l in range(L - 1, 0, -1):
        p[l] = sigma_w_sq * _mean_sq(_dtanh, math.sqrt(q[l])) * p[l + 1]
        p_sr[l] = sigma_w_sq * _pair_mean(_dtanh, math.sqrt(q[l]), c[l]) * p_sr[l + 1]
    return _assemble(L, m_width, q, q_hat, p, q_sr, q_hat_sr, p_sr)


# ---------------------------------------------------------------------------
# Trained-output variance

def exact_trained_variance(theta_diag: float, theta_off: float,
                           k_diag: float, k_off: float, n_train: int) -> float:
    """Var f_inf(x) = u^T K u with u = [1, -Theta^{-1} theta_x], in closed form.

    The sample and the test point share one layer-0 covariance, so Theta is
    a I + b 11^T with theta_x = b 1, and K is (k_d - k_o) I + k_o 11^T.
    """
    a = theta_diag - theta_off
    b = theta_off
    v = b / (a + n_train * b)
    return (k_diag - k_off) * (1.0 + n_train * v * v) + k_off * (1.0 - n_train * v) ** 2


def data_independent_variance(kappa1: float, kappa2: float, k_diag: float,
                               k_off: float, n_train: int) -> tuple[float, float]:
    """(A, Var) of the data-independent approximation of Lee et al.

    Var = (1 + A^2/S)(q^L - q_sr^L) + (A - 1)^2 q_sr^L, A = S / (k1/k2 + S - 1).
    """
    s = float(n_train)
    a = s / (kappa1 / kappa2 + s - 1.0)
    return a, (1.0 + a * a / s) * (k_diag - k_off) + (a - 1.0) ** 2 * k_off


# ---------------------------------------------------------------------------
# Gradient descent and the gradient-Gram kernel of a ReLU network

def _forward(weights, biases, x):
    acts, pres = [x], []
    a = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        h = a @ w.T + b
        pres.append(h)
        if l < len(weights) - 1:
            a = np.maximum(h, 0.0)
            acts.append(a)
    return acts, pres


def _deltas(weights, pres, n):
    """d f / d h^l for every sample, from the read-out down to layer 1."""
    d = np.ones((n, 1))
    out = [d]
    for l in range(len(weights) - 1, 0, -1):
        d = (d @ weights[l]) * (pres[l - 1] > 0.0)
        out.append(d)
    return out[::-1]


def gradient_gram(weights, biases, x) -> np.ndarray:
    """Theta = G G^T from the explicit per-sample parameter gradients G."""
    acts, pres = _forward(weights, biases, x)
    n = x.shape[0]
    theta = np.zeros((n, n))
    for d, a in zip(_deltas(weights, pres, n), acts):
        g_w = (d[:, :, None] * a[:, None, :]).reshape(n, -1)
        theta += g_w @ g_w.T + d @ d.T
    return theta


def replay_drift(weights, biases, x, y, learning_rate: float, steps: int,
                 snapshot_steps) -> dict:
    """Full-batch gradient descent on mean-squared error from the given weights.

    Returns {step: ||Theta_t - Theta_0||_F / ||Theta_0||_F} at step 0, the
    snapshot steps and the last step.
    """
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    n = len(y)
    theta0 = gradient_gram(weights, biases, x)
    norm0 = np.linalg.norm(theta0)
    want = set(int(t) for t in snapshot_steps)
    drift = {0: 0.0}
    for step in range(1, steps + 1):
        acts, pres = _forward(weights, biases, x)
        resid = pres[-1][:, 0] - y
        d = (2.0 / n) * resid[:, None]
        grads = []
        for l in range(len(weights) - 1, -1, -1):
            grads.append((l, d.T @ acts[l], d.sum(axis=0)))
            if l > 0:
                d = (d @ weights[l]) * (pres[l - 1] > 0.0)
        for l, g_w, g_b in grads:
            weights[l] -= learning_rate * g_w
            biases[l] -= learning_rate * g_b
        if step in want or step == steps:
            theta = gradient_gram(weights, biases, x)
            drift[step] = float(np.linalg.norm(theta - theta0) / norm0)
    return drift
