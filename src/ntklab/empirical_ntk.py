"""Empirical NTK Gram matrices and the two finite-width diagnostics.

The empirical kernel of a network at parameters w is the Gram matrix of
output gradients, Theta(x_i, x_j) = grad_w f(x_i) . grad_w f(x_j).  Because
each weight-block gradient is the outer product delta^l x^{l-1}^T, the Gram
matrix decomposes layerwise into Hadamard products of small Gram factors,

    Theta = sum_l (D_l D_l^T) * (A_{l-1} A_{l-1}^T + 11^T),

(D_l the batch of delta^l rows, A_{l-1} the batch of activations, 11^T the
bias block), which needs the activations, slopes and deltas of one
backpropagation (a finite_net.Workspace, O(S * sum_l M_l)) and two S x S
buffers instead of the S x P gradient matrix.  training_drift allocates one
Workspace per network: Theta^0, every training step and every snapshot
kernel run in it, so a snapshot allocates no per-layer array.

Diagnostics:
  * initialization variance ratio  E[Theta^0(x,x)^2] / E[Theta^0(x,x)]^2,
    estimated over independent re-initializations (>= 1, and == 1 iff the
    kernel is deterministic at initialization);
  * training drift  ||Theta^t - Theta^0||_F / ||Theta^0||_F recorded at
    snapshot steps during full-batch gradient descent; a run whose loss
    becomes non-finite returns its drift up to that step, marked diverged.

The variance ratio never draws a weight matrix.  For one input, condition
each Gaussian W^l (entries N(0, sigma_w^2 / fan_in)) on u = W^l a^{l-1}:

    u ~ N(0, sigma_w^2 |a|^2 / fan_in I),
    W^T delta = a (u . delta) / |a|^2 + (I - a a^T / |a|^2) G^T delta,

where G is a fresh copy of W, independent of the forward pass, so that
G^T delta ~ N(0, sigma_w^2 |delta|^2 / fan_in I) given delta (Hanin & Nica,
arXiv:1909.05989).  Theta^0(x,x) = sum_l |delta^l|^2 (|a^{l-1}|^2 + 1) then
has exactly the law it has under full initialization, from O(sum_l M_l)
normals per replicate instead of O(sum_l M_l M_{l-1}); replicates are rows
of (R, M) arrays.  Where a = 0 (a dead ReLU layer) the projection terms are 0.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import finite_net
from .activations import dphi, phi
from .finite_net import Mlp, TrainConfig, checked_widths
from .meanfield import InitHyper

logger = logging.getLogger(__name__)

MAX_FAILED_SEED_FRACTION = 0.01
# Replicates per PRNG stream and per row block of the variance-ratio sampler;
# at M = 64, L = 32 a block keeps ~2 MB of per-layer arrays.
REPLICATE_CHUNK = 64
# training_drift's snapshot steps, and train-drift's when the config sets none
DEFAULT_SNAPSHOT_STEPS = (0, 10, 100, 1000)


def empirical_kernel(net: Mlp, x: np.ndarray,
                     buffers: finite_net.Workspace | None = None) -> np.ndarray:
    """Gram matrix of output gradients over the batch x (S, M_0).

    The passes run in buffers, a Workspace for this network's widths and
    batch shape (allocated when None); the kernel overwrites all of it."""
    ws = finite_net.Workspace.holding(net, x, buffers)
    s = ws.output.shape[0]
    theta = np.zeros((s, s))
    d_gram, block = np.empty((s, s)), np.empty((s, s))
    finite_net._forward_into(net, ws)
    deltas = ws.deltas
    deltas[-1][:] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        finite_net._backward_into(net, ws)
        for l in range(net.depth):
            # theta += (D D^T) * (A A^T + 1), assembled in two reused buffers
            np.matmul(deltas[l], deltas[l].T, out=d_gram)
            a = ws.activations[l]
            np.matmul(a, a.T, out=block)
            block += 1.0
            block *= d_gram
            theta += block
    if not np.all(np.isfinite(theta)):
        raise FloatingPointError("empirical kernel is not finite")
    # 0.5 (theta + theta^T), symmetrized in a buffer that is free again
    sym = np.add(theta, theta.T, out=block)
    sym *= 0.5
    return sym


# ---------------------------------------------------------------------------
# Initialization variance ratio.

@dataclass
class VarianceRatioStat:
    """Moments of Theta^0(x, x) across re-initializations.

    ratio = second_moment / mean^2 >= 1 up to Monte-Carlo noise;
    standard_error is a jackknife estimate for the ratio.
    """

    ratio: float
    n_seeds: int
    mean: float
    second_moment: float
    standard_error: float
    n_failed: int = 0


def default_probe(dim: int, seed: int) -> np.ndarray:
    """Fixed unit-norm probe vector derived from the experiment seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x9e37))))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _theta0_chunk(rng: np.random.Generator, widths: tuple[int, ...], hyper: InitHyper,
                  probe: np.ndarray, n: int) -> np.ndarray:
    """Theta^0(x, x) of n independent networks, one per row, drawn from the
    rank-one conditional law of the module docstring."""
    kind = hyper.activation
    depth = len(widths) - 1
    w_scale = np.sqrt(hyper.sigma_w_sq / np.asarray(widths[:-1], dtype=float))
    b_scale = np.sqrt(hyper.sigma_b_sq)
    # Per layer only h and u = W a are kept; a = phi(h) is recomputed backward.
    pre, wa, a_sq = [], [], [np.full(n, float(probe @ probe))]
    for l in range(depth):
        u = rng.standard_normal((n, widths[l + 1])) * (w_scale[l] * np.sqrt(a_sq[l]))[:, None]
        h = u + b_scale * rng.standard_normal((n, widths[l + 1]))
        pre.append(h)
        wa.append(u)
        if l + 1 < depth:
            a = phi(kind, h)
            a_sq.append(np.einsum("ij,ij->i", a, a))
    d = np.ones((n, 1))
    theta = a_sq[-1] + 1.0
    for l in range(depth - 1, 0, -1):
        # W^T d = a (u.d)/|a|^2 + (I - P_a) G^T d with G independent of the
        # forward pass; the projection terms vanish where a = 0
        a = phi(kind, pre[l - 1])
        g = rng.standard_normal((n, widths[l])) * (
            w_scale[l] * np.sqrt(np.einsum("ij,ij->i", d, d)))[:, None]
        coef = np.divide(np.einsum("ij,ij->i", wa[l], d) - np.einsum("ij,ij->i", a, g),
                         a_sq[l], out=np.zeros(n), where=a_sq[l] > 0.0)
        d = dphi(kind, pre[l - 1]) * (g + a * coef[:, None])
        theta += np.einsum("ij,ij->i", d, d) * (a_sq[l - 1] + 1.0)
    return theta


def sample_theta0(widths: Sequence[int], hyper: InitHyper, probe: np.ndarray,
                  n_seeds: int, seed: int = 0) -> np.ndarray:
    """Theta^0(x, x) at the probe for n_seeds independent initializations.

    Replicates are drawn in chunks of REPLICATE_CHUNK rows, each chunk from
    its own Philox stream spawned from SeedSequence(seed), so the values are
    deterministic in (seed, n_seeds).  Entries that overflowed are inf or nan.
    """
    widths = checked_widths(widths)
    probe = np.asarray(probe, dtype=float)
    if probe.shape != (widths[0],):
        raise ValueError(f"probe shape {probe.shape} != ({widths[0]},)")
    streams = np.random.SeedSequence(seed).spawn(-(-n_seeds // REPLICATE_CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([
            _theta0_chunk(np.random.Generator(np.random.Philox(stream)), widths, hyper, probe,
                          min(REPLICATE_CHUNK, n_seeds - k * REPLICATE_CHUNK))
            for k, stream in enumerate(streams)])


def _jackknife_ratio_se(values: np.ndarray) -> float:
    n = len(values)
    total = values.sum()
    total_sq = (values ** 2).sum()
    loo_mean = (total - values) / (n - 1)
    loo_m2 = (total_sq - values ** 2) / (n - 1)
    loo_ratio = loo_m2 / loo_mean ** 2
    return float(np.sqrt((n - 1) / n * np.sum((loo_ratio - loo_ratio.mean()) ** 2)))


def variance_ratio_stat(values: np.ndarray) -> VarianceRatioStat:
    """Moments, ratio and jackknife SE of per-replicate Theta^0(x, x) values.

    Non-finite (overflowed) values are dropped as long as they stay under
    MAX_FAILED_SEED_FRACTION of the total; beyond that this raises.  The
    standard error is NaN below three finite values.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    failed = int(values.size - np.count_nonzero(finite))
    if failed > MAX_FAILED_SEED_FRACTION * values.size:
        raise FloatingPointError(
            f"{failed}/{values.size} replicate kernels overflowed; configuration too deep "
            "in the chaotic phase for this precision")
    if failed:
        logger.warning("dropped %d/%d overflowed replicate kernels", failed, values.size)
    values = values[finite]
    mean = float(values.mean())
    m2 = float(np.mean(values ** 2))
    ratio = m2 / mean ** 2
    # each leave-one-out sample of two values holds one, whose ratio is
    # exactly 1: no spread to estimate an error from
    se = _jackknife_ratio_se(values) if len(values) > 2 else np.nan
    return VarianceRatioStat(ratio=ratio, n_seeds=len(values), mean=mean,
                             second_moment=m2, standard_error=se, n_failed=failed)


def init_variance_ratio(widths: Sequence[int], hyper: InitHyper, probe: np.ndarray,
                        n_seeds: int, seed: int = 0) -> VarianceRatioStat:
    """E[Theta^0(x,x)^2] / E[Theta^0(x,x)]^2 over n_seeds fresh initializations."""
    if n_seeds < 2:
        raise ValueError("n_seeds must be >= 2")
    return variance_ratio_stat(sample_theta0(widths, hyper, probe, n_seeds, seed))


# ---------------------------------------------------------------------------
# Kernel drift during training.

@dataclass
class DriftStat:
    """Relative Frobenius change of the kernel at recorded training steps.

    Entries are NaN for snapshots where the kernel had already left the
    representable range (diverging chaotic runs).  A diverged run's record
    ends at its last step before the non-finite loss: stop_reason is
    "diverged" and steps_run is the step of that loss.
    """

    steps: np.ndarray
    rel_change: np.ndarray
    final_loss: float
    initial_loss: float
    stop_reason: str
    steps_run: int = 0

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"

    @property
    def final_drift(self) -> float:
        """Drift at the last snapshot with a finite kernel."""
        finite = np.isfinite(self.rel_change)
        if not finite.any():
            return float("nan")
        return float(self.rel_change[finite][-1])


def _frobenius(a: np.ndarray, out: np.ndarray | None = None) -> float:
    """||a||_F by numpy's pairwise sum; np.linalg.norm takes a BLAS dot,
    whose rounding depends on how many threads split it.  The squares go to
    out (a itself squares a in place), or to a new array when None."""
    return float(np.sqrt(np.sum(np.square(a, out=out))))


def training_drift(widths: Sequence[int], hyper: InitHyper, inputs: np.ndarray,
                   targets: np.ndarray, cfg: TrainConfig,
                   snapshot_steps: Sequence[int] = DEFAULT_SNAPSHOT_STEPS,
                   seed: int = 0) -> DriftStat:
    """Train a fresh network and record ||Theta^t - Theta^0||_F / ||Theta^0||_F
    at the requested snapshot steps and at the final step.

    A run whose loss becomes non-finite is returned as a diverged DriftStat
    holding the drift up to its last finite step; its final loss is the last
    finite one (NaN when the first loss was not finite).
    """
    net = finite_net.init(widths, hyper, seed)
    # Theta^0, every training step and every snapshot kernel run in one workspace
    ws = finite_net.Workspace.allocate(net, inputs)
    theta0 = empirical_kernel(net, inputs, buffers=ws)
    norm0 = _frobenius(theta0)
    if norm0 == 0.0:
        raise ValueError("initial kernel has zero norm")
    steps_rec: list[int] = []
    drift_rec: list[float] = []

    def on_snapshot(step: int, live_net: Mlp):
        steps_rec.append(step)
        if step == 0:
            # the initial network, whose kernel theta0 already is
            drift_rec.append(0.0)
            return
        try:
            # Theta^t - Theta^0 squared in place: one S x S temporary, and
            # no array is held through the next snapshot's kernel
            diff = np.subtract(empirical_kernel(live_net, inputs, buffers=ws), theta0)
            drift_rec.append(_frobenius(diff, out=diff) / norm0)
        except FloatingPointError:
            drift_rec.append(float("nan"))

    log = finite_net.train_full_batch(net, inputs, targets, cfg, snapshot_steps=snapshot_steps,
                                      on_snapshot=on_snapshot, buffers=ws)
    if len(log.losses):
        # step 1 evaluates the initial network
        initial_loss, final_loss = float(log.losses[0]), float(log.losses[-1])
    else:
        # no step recorded a loss (max_steps = 0, or a divergence at step 1,
        # which happens before any update): the network is the initial one
        finite_net._forward_into(net, ws)
        initial_loss = finite_net.mse_loss(ws.outputs, np.ravel(targets))
        final_loss = float("nan") if log.stop_reason == "diverged" else initial_loss
    return DriftStat(steps=np.asarray(steps_rec), rel_change=np.asarray(drift_rec),
                     final_loss=final_loss, initial_loss=initial_loss,
                     stop_reason=log.stop_reason, steps_run=log.steps_run)
