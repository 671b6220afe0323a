"""Deterministic (infinite-width) NTK machinery built on the mean-field recursion.

For a constant-width network of depth L (input dimension and hidden widths
all M, as finite_net.layer_widths builds it), the NTK converges at
initialization to a deterministic matrix with a depth-summed structure

    Theta*(X) = alpha * M * Lambda + P,
    Lambda[s][s] = kappa1(x_s),   Lambda[s][r] = kappa2(x_s, x_r),

    kappa1(x)        = (1 / alpha) * sum_{l=1}^{L} q_hat^{l-1}(x) * p^l(x)
    kappa2(x_s, x_r) = (1 / alpha) * sum_{l=1}^{L} q_hat_sr^{l-1} * p_sr^l
    alpha            = max(L - 1, 1),

where P collects the exact bias-parameter contribution (sum_l p_sr^l per
entry, an O(1/M) relative correction that improves finite-width agreement).
Splitting Theta* into its data-independent mean and a perturbation,

    Theta* = Theta_bar * (I + eps),
    Theta_bar = alpha * M * ((kbar1 - kbar2) I + kbar2 11^T),

exposes the conditioning through the ratio kbar1/kbar2: the matrix is
well-conditioned when the ratio is large and near-degenerate as it
approaches 1.  Under constant-kernel gradient flow trained to convergence
on (X, Y) the network output is kernel regression shifted by the initial
function,

    f_inf(x) = Theta(x,X) Theta(X)^{-1} Y + f0(x) - Theta(x,X) Theta(X)^{-1} f0(X),

and, with f0 a centered Gaussian process with covariance given by the NNGP
matrix K(X) (entries q^L, q_sr^L), the data-independent variance of the
trained output is

    Var(f_inf(x)) ~= (1 + A^2/S)(qbar^L - qbar_sr^L) + (A - 1)^2 qbar_sr^L,
    A = S / (kbar1/kbar2 + (S - 1)).

Exactly, the trained output is the linear functional u^T f0 of the joint
Gaussian f0 = [f0(x), f0(X)] with covariance K (test point first),

    f_inf(x) = const + u^T f0,   u = [1, -Theta(X)^{-1} theta_x],

so Var(f_inf(x)) = u^T K u (Lee et al., arXiv:1902.06720), computed from one
SPD solve.  Its Monte-Carlo check draws the scalar sqrt(u^T K u) * g with
g ~ N(0, 1).  Sampling f0 = B z from any factor B B^T = K and forming u^T f0
gives the Gaussian (B^T u)^T z with variance |B^T u|^2 = u^T K u: the same
law, from one normal per sample instead of S + 1, with no eigendecomposition
of K and no matrix product.  The dense sampler remains as a test oracle.

Theta*(X) and K(X) have one entry point, sample_kernels.  It takes the
distinct layer-0 covariances of a sample, a symmetric integer index of each
pair's covariance in them and the position of the reference covariance,
runs one meanfield.depth_sums call over the covariances, whose kappa sums
run forward with the layers, and gathers both matrices through the index,
the diagonal from the variance channel, so both come out exactly symmetric.
theta_star_matrix indexes a layer-0 covariance matrix (np.unique, with the
reference covariance appended) and calls it; predict-variance calls it on
its joint sample of S + 1 points, every pair at the one reference
covariance, and reads Theta*(X), theta_x, K and the reference kappas from
that one result.  nngp_matrix keeps a pass of its own that runs only the
forward recursions (no phi' expectation) over the same index: taking K from
a depth_sums pass instead would cost the benchmark's Theta* + K pair, which
calls theta_star_matrix and nngp_matrix apart, +21 % (ReLU, S = 64, L = 16:
1.69 -> 2.05 ms on a 2-core machine) and +33 % (tanh, S = 24: 4.2 -> 5.6 ms).

For tanh the per-layer pair expectations of more than 34 covariances come
from a Chebyshev interpolant in c, fitted at up to 129 correlations per
layer and function (quadrature.normal_pair_expectation), so the cost of
Theta*(X) and K(X) grows with the number of distinct covariances only
through evaluating that interpolant; they agree with the per-covariance
rule to ~1e-15 of max|entry|.  A fit depends on the layer variance q^l, not
on the sample, and quadrature keeps it across calls: nngp_matrix evaluates
the fits that theta_star_matrix has just made, and another sample at the
same (sigma_w^2, sigma_b^2, q0) refits nothing where its arrays can use the
kept fits, with the same bits as a fresh fit.  ReLU and erf use closed
forms, bit for bit as before.
"""
from __future__ import annotations

import logging
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .meanfield import InitHyper, depth_sums, forward_layers

logger = logging.getLogger(__name__)

DEFAULT_REFERENCE_COV = 0.5

# Jitter ladder for symmetric positive-definite solves: multiples of trace/S.
JITTER_START = 1e-12
JITTER_MAX = 1e-4
JITTER_GROWTH = 10.0

PSD_WARN_TOL = 1e-8

# Relative shortfall of kbar1 below kbar2, or of qbar^L below qbar_sr^L,
# that predict_variance takes for rounding and treats as equality.
ORDER_RTOL = 1e-12


class IllConditionedError(Exception):
    """An SPD solve failed even at the maximum jitter level."""

    def __init__(self, message: str, jitter: float):
        self.jitter = jitter
        super().__init__(f"{message} (final jitter {jitter:.3e})")


def condition_ratio(kappa1: float, kappa2: float) -> float:
    """kappa1 / kappa2, which is kbar1 / kbar2 for a pair at the reference
    covariance; +inf when kappa2 = 0.

    A ratio near 1 means the data-independent kernel mean is close to the
    rank-one matrix kbar1 * 11^T; for a sample of size n its condition
    number is (kbar1 + (n-1) kbar2) / (kbar1 - kbar2).
    """
    if kappa2 == 0.0:
        logger.warning("kappa2 is zero; returning inf condition ratio")
        return math.inf
    return kappa1 / kappa2


# ---------------------------------------------------------------------------
# Kernel matrices.

@dataclass
class ThetaStar:
    """Deterministic NTK matrix and its mean/perturbation decomposition.

    matrix = scale * Lambda + bias-parameter sums, scale = alpha * M.
    """

    matrix: np.ndarray
    scale: float
    alpha: float
    mean_kappa1: float
    mean_kappa2: float

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def epsilon(self) -> np.ndarray | None:
        """The perturbation with matrix = theta_bar() @ (I + epsilon); None
        when kbar1 <= kbar2 makes the mean matrix singular (identical
        inputs).  An O(S^3) product, computed on first read."""
        if not self.mean_kappa1 > self.mean_kappa2:
            return None
        n = self.n_points
        inv_bar = mean_theta_inverse(self.mean_kappa1, self.mean_kappa2, n, self.scale)
        return inv_bar @ self.matrix - np.eye(n)

    def theta_bar(self) -> np.ndarray:
        n = self.n_points
        return self.scale * ((self.mean_kappa1 - self.mean_kappa2) * np.eye(n)
                             + self.mean_kappa2 * np.ones((n, n)))


@dataclass
class NngpMatrix:
    """Output covariance of the randomly initialized network: entries q^L, q_sr^L."""

    matrix: np.ndarray

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0]


def mean_theta_inverse(kappa1_bar: float, kappa2_bar: float, n: int,
                       scale: float) -> np.ndarray:
    """Closed-form inverse of the data-independent kernel mean.

    (scale * ((k1-k2) I + k2 11^T))^{-1}
        = 1/(scale (k1-k2)) * (I - k2/(k1 + (n-1) k2) * 11^T)
    """
    if kappa1_bar <= kappa2_bar:
        raise ValueError("mean kernel is singular unless kappa1_bar > kappa2_bar")
    lead = 1.0 / (scale * (kappa1_bar - kappa2_bar))
    shrink = kappa2_bar / (kappa1_bar + (n - 1) * kappa2_bar)
    return lead * (np.eye(n) - shrink * np.ones((n, n)))


def _distinct_covariances(cov0, q0: float, *extra: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct off-diagonal covariances of the layer-0
    covariance matrix cov0, together with the extra covariances, and the
    inverse of np.unique: the position of each upper-triangle pair (in
    np.triu_indices order), then of each extra covariance.

    cov0 must be symmetric with diagonal q0, both to 1e-12 of q0.
    """
    cov0 = np.asarray(cov0, dtype=float)
    tol = 1e-12 * abs(q0)
    if (cov0.ndim != 2 or cov0.shape[0] != cov0.shape[1]
            or not np.allclose(cov0, cov0.T, rtol=0.0, atol=tol)):
        raise ValueError("cov0 must be a symmetric matrix of layer-0 covariances")
    if not np.allclose(np.diag(cov0), q0, rtol=0.0, atol=tol):
        raise ValueError("diagonal of cov0 must equal q0")
    return np.unique(np.concatenate((cov0[np.triu_indices(len(cov0), 1)], extra)),
                     return_inverse=True)


def _pair_index(n: int, inverse: np.ndarray, slot: int) -> np.ndarray:
    """The symmetric n x n index of sample_kernels from the positions of
    the upper-triangle pairs, with the variance slot on the diagonal."""
    iu = np.triu_indices(n, 1)
    upper = inverse[:len(iu[0])]
    index = np.full((n, n), slot, dtype=np.intp)
    index[iu] = upper
    index.T[iu] = upper
    return index


def sample_kernels(hyper: InitHyper, depth: int, covs, index: np.ndarray, m_width: float,
                   ref: int, q0: float = 1.0) -> tuple[ThetaStar, NngpMatrix]:
    """Theta*(X), with the exact bias-parameter sums, and the NNGP matrix
    K(X) of a sample, from one depth_sums call over its distinct layer-0
    covariances covs.

    index is a symmetric integer matrix: entry (s, r) off the diagonal is
    the position in covs of the covariance of points s and r, and every
    diagonal entry is len(covs), the slot of the variance channel.  The
    data-independent kbar1/kbar2 are the kappas of the reference covariance
    covs[ref].  Both matrices are gathered through index, so they come out
    exactly symmetric.
    """
    (sums,) = depth_sums(hyper, [depth], q0, covs)
    alpha = float(max(depth - 1, 1))
    scale = alpha * m_width
    theta = np.append(scale * sums.kappa2 + sums.p_sum_cross,
                      scale * sums.kappa1 + sums.p_sum_diag)
    return (ThetaStar(matrix=theta[index], scale=scale, alpha=alpha,
                      mean_kappa1=sums.kappa1, mean_kappa2=float(sums.kappa2[ref])),
            NngpMatrix(matrix=np.append(sums.q_sr, sums.q)[index]))


def nngp_matrix(hyper: InitHyper, depth: int, cov0: np.ndarray,
                q0: float = 1.0) -> NngpMatrix:
    """NNGP matrix K with K[s][s] = q^L and K[s][r] = q_sr^L for the pairwise
    layer-0 covariances in cov0 (diagonal entries must equal q0).

    Only the forward recursions run, with no phi' expectation: the distinct
    off-diagonal covariances go through the layers together in one pass.
    """
    covs, inverse = _distinct_covariances(cov0, q0)
    with np.errstate(over="ignore", invalid="ignore"):
        for q, q_sr, *_ in forward_layers(hyper, depth, q0, covs):
            pass
    index = _pair_index(len(cov0), inverse, len(covs))
    return NngpMatrix(matrix=np.append(q_sr, q)[index])


def theta_star_matrix(hyper: InitHyper, depth: int, cov0: np.ndarray,
                      m_width: float, q0: float = 1.0,
                      reference_cov: float = DEFAULT_REFERENCE_COV) -> ThetaStar:
    """Deterministic NTK for a sample described by its layer-0 covariance
    matrix (diagonal entries must equal q0), including the exact
    bias-parameter sums: sample_kernels of its distinct off-diagonal
    covariances and the reference covariance reference_cov * q0.
    """
    covs, inverse = _distinct_covariances(cov0, q0, reference_cov * q0)
    index = _pair_index(len(cov0), inverse, len(covs))
    theta, _ = sample_kernels(hyper, depth, covs, index, m_width, inverse[-1], q0)
    return theta


# ---------------------------------------------------------------------------
# One numpy BLAS thread for the small dense algebra.
#
# On two cores, threaded LAPACK on a ~128 x 128 matrix spends more time
# waking and waiting for OpenBLAS workers than computing: the eigvalsh of the
# PSD check took ~5 ms threaded against 0.7 ms on one thread.
# trained_output_variance therefore keeps numpy's pool on one thread for the
# check, the solve and u^T K u.  spd_solve runs on numpy's LAPACK, so all of
# that algebra runs inside the block and exact_variance does not depend on
# the core count or on the thread count numpy's pool had on entry.  A
# matrix-vector product rounds the same on one thread, so u^T K u keeps its
# bits; a matrix product of S > 100 may not, which is one reason
# ThetaStar.epsilon is computed only when read.

_BLAS_LOCK = threading.RLock()


@lru_cache(maxsize=1)
def _numpy_openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles in numpy.libs, or None where numpy links another BLAS."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: the same copy
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_numpy_blas_thread():
    """Run numpy's BLAS and LAPACK on one thread inside the block, restoring
    the thread count after; a no-op where numpy's OpenBLAS is not found.
    Blocks in concurrent threads run one at a time."""
    threads = _numpy_openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _BLAS_LOCK:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


# ---------------------------------------------------------------------------
# Symmetric positive-definite solves.

def _as_matrix(obj) -> np.ndarray:
    return np.asarray(getattr(obj, "matrix", obj), dtype=float)


def spd_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve a x = b for symmetric positive-definite a via Cholesky with an
    escalating diagonal jitter ladder; returns (x, jitter_used).

    a = L L^T comes from np.linalg.cholesky and x from two solves, L y = b
    and L^T x = y, all on numpy's LAPACK, so a process that solves loads one
    OpenBLAS and one BLAS thread pool.  A NaN or inf in a or b raises
    ValueError.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("spd_solve: a and b must not contain infs or NaNs")
    n = a.shape[0]
    scale = float(np.trace(a)) / n if n else 1.0
    if scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(a + jitter * np.eye(n) if jitter else a)
            return np.linalg.solve(lower.T, np.linalg.solve(lower, b)), jitter
        except np.linalg.LinAlgError:
            pass
        if jitter == 0.0:
            jitter = JITTER_START * scale
        elif jitter < JITTER_MAX * scale:
            jitter = min(jitter * JITTER_GROWTH, JITTER_MAX * scale)
        else:
            raise IllConditionedError("SPD solve failed", jitter=jitter)


# ---------------------------------------------------------------------------
# Trained-output variance: data-independent prediction, exact u^T K u and its
# rank-one Monte-Carlo estimate.

@dataclass(frozen=True)
class VariancePrediction:
    A: float
    variance: float
    q_bar_L: float
    q_bar_sr_L: float


def predict_variance(kbar1: float, kbar2: float, q_bar_L: float, q_bar_sr_L: float,
                     n_samples: int) -> VariancePrediction:
    """Data-independent variance of the fully trained output,

        Var = (1 + A^2/S)(qbar^L - qbar_sr^L) + (A - 1)^2 qbar_sr^L,
        A = S / (kbar1/kbar2 + (S - 1)).

    Deep in the ordered phase kbar2 and qbar_sr^L round to a few ulps above
    kbar1 and qbar^L; a shortfall within ORDER_RTOL counts as equality.
    """
    ratio = condition_ratio(kbar1, kbar2)
    if ratio < 1.0 - ORDER_RTOL:
        raise ValueError(f"kappa ratio must be >= 1, got {ratio!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (q_bar_L >= q_bar_sr_L * (1.0 - ORDER_RTOL) and q_bar_sr_L >= 0.0):
        raise ValueError("require q_bar_L >= q_bar_sr_L >= 0")
    ratio, q_bar_sr_L = max(ratio, 1.0), min(q_bar_sr_L, q_bar_L)
    s = float(n_samples)
    a = 0.0 if math.isinf(ratio) else s / (ratio + (s - 1.0))
    variance = (1.0 + a * a / s) * (q_bar_L - q_bar_sr_L) + (a - 1.0) ** 2 * q_bar_sr_L
    return VariancePrediction(A=a, variance=variance,
                              q_bar_L=q_bar_L, q_bar_sr_L=q_bar_sr_L)


def _check_psd(cov: np.ndarray) -> None:
    """Check that a covariance is symmetric and close to PSD.

    Warns when the most negative eigenvalue exceeds the PSD tolerance; raises
    if the matrix is not close to symmetric PSD at all.
    """
    n = cov.shape[0]
    if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
        raise ValueError("covariance must be symmetric")
    lam_min = float(np.linalg.eigvalsh(cov)[0])
    tol = PSD_WARN_TOL * max(float(np.trace(cov)) / n, 0.0)
    if lam_min < -tol:
        if lam_min < -1e-4 * max(float(np.trace(cov)) / n, 1e-300):
            raise ValueError(f"covariance strongly indefinite (lambda_min={lam_min:.3e})")
        logger.warning("negative NNGP eigenvalue %.3e", lam_min)


@dataclass(frozen=True)
class TrainedVariance:
    """Var(f_inf(x)) = u^T K u and its rank-one Monte-Carlo estimate.

    exact is 0 where u^T K u rounds to at most eps * K[0, 0], the test
    point's NNGP variance.  jitter is the diagonal jitter of the SPD solve
    that gave u.
    """

    exact: float
    mc_variance: float
    mc_standard_error: float
    n_samples: int
    jitter: float


def trained_output_variance(theta_star, nngp_joint, theta_x_row: np.ndarray,
                            n_samples: int, seed: int = 0) -> TrainedVariance:
    """Exact variance of the fully trained output and its Monte-Carlo check.

    nngp_joint is the (S+1) x (S+1) output covariance of [x] + X with the
    test point FIRST.  u = [1, -Theta^{-1} theta_x] comes from one SPD solve,
    exact = u^T K u, and the Monte-Carlo estimate is the sample variance of
    n_samples draws sqrt(u^T K u) * g, g ~ N(0, 1) from the Philox stream of
    seed.  The PSD check, the solve and u^T K u run numpy's BLAS on one
    thread (see _one_numpy_blas_thread).
    """
    theta = _as_matrix(theta_star)
    joint = _as_matrix(nngp_joint)
    s = theta.shape[0]
    if joint.shape != (s + 1, s + 1):
        raise ValueError(f"joint NNGP must be ({s + 1}, {s + 1}), got {joint.shape}")
    theta_x_row = np.asarray(theta_x_row, dtype=float)
    if len(theta_x_row) != s:
        raise ValueError("theta_x_row length must match the training sample size")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")

    with _one_numpy_blas_thread():
        _check_psd(joint)
        v, jitter = spd_solve(theta, theta_x_row)
        u = np.concatenate(([1.0], -v))
        exact = float(u @ (joint @ u))
    # u^T K u >= 0 for a PSD K, but deep in the ordered phase it cancels to
    # within an ulp of K's scale, or below zero where K is PSD only to the
    # warn tolerance: that is rounding, and counts as 0
    if exact <= np.finfo(float).eps * joint[0, 0]:
        exact = 0.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = math.sqrt(exact) * rng.standard_normal(n_samples)
    var = float(np.var(draws, ddof=1))
    # standard error of a variance estimate for Gaussian samples
    se = var * math.sqrt(2.0 / (n_samples - 1))
    return TrainedVariance(exact=exact, mc_variance=var, mc_standard_error=se,
                           n_samples=n_samples, jitter=jitter)
