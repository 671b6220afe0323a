"""Finite-width fully-connected networks with hand-derived backpropagation.

A network of depth L applies L affine maps: widths = (M_0, M_1, ..., M_{L-1}, 1)
where M_0 is the input dimension and the last map is a linear read-out to a
scalar, so the output is the depth-L pre-activation.  Weights are drawn
W^l_ij ~ N(0, sigma_w^2 / fan_in) and biases b^l_i ~ N(0, sigma_b^2) from
per-layer counter-based PRNG streams keyed by (seed, layer), which makes
re-initialization bit-for-bit reproducible.

The scalar output's parameter gradient is computed by the exact chain

    df/dW^l_ij = delta^l_i * x^{l-1}_j,   df/db^l_i = delta^l_i,
    delta^l = phi'(h^l) * (W^{l+1}^T delta^{l+1}),   delta^L = 1,

with the ReLU derivative at 0 taken to be 0.  Training is plain full-batch
gradient descent on the mean-squared error (mean over samples) with an
early-stopping rule on the loss sequence.

One forward routine and one backward routine serve inference and
training alike.  _forward_into writes every pre-activation and activation
into the buffers of a ForwardCache; _backward_into writes every delta into
per-layer buffers, with phi'(h) in a slope buffer.  forward_batch and
backward_deltas fill fresh buffers with them.  train_full_batch allocates
the cache, the deltas and slopes and the weight and bias gradients once per
call, and each step refills them in place: matmuls with out=, then the bias
add, activation, derivative, learning-rate scaling and update, all in place.
The update runs inside the backward loop: W^l and b^l move right after
delta^{l-1} has been taken from W^l.

The buffered step is bitwise the step that builds fresh arrays
(tests/oracles.py, reference_train_full_batch): each operation runs on the
same operands in the same order, so losses, parameters, snapshot weights,
stop reasons and divergence steps all match.  The ReLU derivative is a bool
mask multiplied into delta; the cast gives exactly 1.0 and 0.0, so the
products keep their signed zeros and NaNs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .activations import ActivationKind, dphi, phi
from .meanfield import InitHyper


class TrainingDivergenceError(Exception):
    """Training produced a non-finite loss; carries the step and partial log."""

    def __init__(self, step: int, losses: np.ndarray):
        self.step = step
        self.losses = losses
        super().__init__(f"non-finite loss at step {step}")


def layer_widths(input_dim: int, width: int, depth: int) -> tuple[int, ...]:
    """Widths of a constant-width network of the given depth (affine maps)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return (input_dim,) + (width,) * (depth - 1) + (1,)


@dataclass
class Mlp:
    """A finite fully-connected network with deterministic PRNG provenance."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hyper: InitHyper
    seed: int

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    @property
    def activation(self) -> ActivationKind:
        return self.hyper.activation

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flat_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate((w.ravel(), b))
                               for w, b in zip(self.weights, self.biases)])


def checked_widths(widths: Sequence[int]) -> tuple[int, ...]:
    """Network widths as ints: an input dimension, positive sizes, scalar output."""
    widths = tuple(int(m) for m in widths)
    if len(widths) < 2:
        raise ValueError("need at least an input dimension and the output layer")
    if any(m < 1 for m in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    if widths[-1] != 1:
        raise ValueError("the final layer must map to a scalar output")
    return widths


def init(widths: Sequence[int], hyper: InitHyper, seed: int) -> Mlp:
    """Draw a network with variances sigma_w^2/fan_in and sigma_b^2."""
    widths = checked_widths(widths)
    streams = np.random.SeedSequence(seed).spawn(len(widths) - 1)
    weights, biases = [], []
    for l, child in enumerate(streams):
        fan_in, fan_out = widths[l], widths[l + 1]
        rng = np.random.Generator(np.random.Philox(child))
        weights.append(rng.standard_normal((fan_out, fan_in))
                       * np.sqrt(hyper.sigma_w_sq / fan_in))
        biases.append(rng.standard_normal(fan_out) * np.sqrt(hyper.sigma_b_sq))
    return Mlp(widths=widths, weights=weights, biases=biases, hyper=hyper, seed=seed)


@dataclass
class ForwardCache:
    """Batch activations and pre-activations kept for backpropagation.

    activations[l] is the (S, M_l) input to affine map l+1 (activations[0] is
    the raw batch); preacts[l] is the (S, M_{l+1}) pre-activation of map l+1.
    """

    activations: list[np.ndarray]
    preacts: list[np.ndarray]

    @classmethod
    def allocate(cls, net: Mlp, x: np.ndarray) -> "ForwardCache":
        """Unfilled buffers for the batch x (S, M_0), which becomes activations[0]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != net.widths[0]:
            raise ValueError(f"input dimension {x.shape[1]} != {net.widths[0]}")
        s = x.shape[0]
        return cls(activations=[x] + [np.empty((s, m)) for m in net.widths[1:-1]],
                   preacts=[np.empty((s, m)) for m in net.widths[1:]])

    @property
    def outputs(self) -> np.ndarray:
        return self.preacts[-1][:, 0]


def _forward_into(net: Mlp, cache: ForwardCache) -> None:
    """Run the network on cache.activations[0], overwriting the cache's
    pre-activations and hidden activations in place."""
    kind = net.activation
    acts, pres = cache.activations, cache.preacts
    # overflow flows through as inf/nan and is checked by the consumers
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = np.matmul(acts[l], w.T, out=pres[l])
            h += b
            if l + 1 < len(acts):
                phi(kind, h, out=acts[l + 1])


def forward_batch(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Outputs (S,) and the cache for a batch of inputs (S, M_0)."""
    cache = ForwardCache.allocate(net, x)
    _forward_into(net, cache)
    return cache.outputs, cache


def forward(net: Mlp, x: np.ndarray) -> tuple[float, ForwardCache]:
    """Scalar output and cache for a single input vector."""
    out, cache = forward_batch(net, np.asarray(x, dtype=float)[None, :])
    return float(out[0]), cache


def _backward_buffers(net: Mlp, cache: ForwardCache) -> tuple[list, list]:
    """Unfilled (deltas, slopes) for _backward_into: deltas[l] (S, M_{l+1})
    like preacts[l]; slopes hold phi'(h), as a bool mask for ReLU."""
    slope_type = bool if net.activation is ActivationKind.RELU else float
    return ([np.empty_like(h) for h in cache.preacts],
            [np.empty(h.shape, dtype=slope_type) for h in cache.preacts[:-1]])


def _backward_into(net: Mlp, cache: ForwardCache, deltas: list, slopes: list,
                   descend: Callable[[int], None] | None = None) -> None:
    """Propagate deltas[-1] down the chain in place:
    deltas[l-1] = (deltas[l] W^{l+1}) * phi'(preacts[l-1]) for l = L-1, ..., 1.

    descend(l), when given, runs for l = L-1, ..., 0 once deltas[l] is final
    and W^{l+1} is no longer read, so it may move W^{l+1} and b^{l+1}."""
    kind = net.activation
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(net.depth - 1, -1, -1):
            if l:
                np.matmul(deltas[l], net.weights[l], out=deltas[l - 1])
                deltas[l - 1] *= dphi(kind, cache.preacts[l - 1], out=slopes[l - 1])
            if descend is not None:
                descend(l)


def backward_deltas(net: Mlp, cache: ForwardCache) -> list[np.ndarray]:
    """Per-layer output sensitivities delta^l = df/dh^l for the whole batch.

    Returns a list indexed l = 1..L of arrays (S, M_l); the last entry is the
    constant 1 of the linear read-out.
    """
    deltas, slopes = _backward_buffers(net, cache)
    deltas[-1][:] = 1.0
    _backward_into(net, cache, deltas, slopes)
    return deltas


# ---------------------------------------------------------------------------
# Training.

@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent settings; defaults follow the reference
    protocol (constant learning rate 1e-5, early stop when the loss fails to
    improve by 1e-7 over 100 consecutive steps, at most 1e5 steps)."""

    learning_rate: float = 1e-5
    max_steps: int = 100_000
    early_stop_delta: float = 1e-7
    early_stop_patience: int = 100

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")


@dataclass
class TrainLog:
    losses: np.ndarray
    stop_reason: str
    steps_run: int


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((outputs - targets) ** 2))


def train_full_batch(net: Mlp, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                     snapshot_steps: Sequence[int] = (),
                     on_snapshot: Callable[[int, Mlp], None] | None = None) -> TrainLog:
    """Full-batch gradient descent on MSE = mean_s (f(x_s) - y_s)^2.

    Mutates the network in place.  on_snapshot(step, net) is invoked at each
    requested step index (0 = before any update) and after the final step.
    The stop reason is "early_stop" or "max_steps", or "loss_rose" when the
    last loss is above the step-1 loss (a finite blow-up is not convergence).
    Raises TrainingDivergenceError on a non-finite loss, with the partial
    loss log attached.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != len(y) or len(y) < 1:
        raise ValueError("need matching, non-empty inputs and targets")
    s = len(y)
    wanted = set(int(t) for t in snapshot_steps)
    snapped: set[int] = set()

    def snapshot(step: int, force: bool = False):
        if on_snapshot is None or step in snapped:
            return
        if force or step in wanted:
            on_snapshot(step, net)
            snapped.add(step)

    # Every step reuses these buffers (see the module docstring).
    cache = ForwardCache.allocate(net, x)
    out = cache.outputs
    deltas, slopes = _backward_buffers(net, cache)
    grad_w = [np.empty(w.shape) for w in net.weights]
    grad_b = [np.empty(b.shape) for b in net.biases]
    resid, resid_sq = np.empty(s), np.empty(s)
    lr = cfg.learning_rate

    def descend(l: int) -> None:
        w, b = net.weights[l], net.biases[l]
        np.matmul(deltas[l].T, cache.activations[l], out=grad_w[l])
        np.add.reduce(deltas[l], axis=0, out=grad_b[l])
        grad_w[l] *= lr
        w -= grad_w[l]
        grad_b[l] *= lr
        b -= grad_b[l]

    snapshot(0)
    losses = np.empty(cfg.max_steps)
    best = np.inf
    stale = 0
    reason = "max_steps"
    step = 0
    for step in range(1, cfg.max_steps + 1):
        _forward_into(net, cache)
        np.subtract(out, y, out=resid)
        loss = float(np.mean(np.square(resid, out=resid_sq)))
        if not np.isfinite(loss):
            raise TrainingDivergenceError(step, losses[:step - 1].copy())
        losses[step - 1] = loss

        # backprop of dL/dh^L = 2 (f - y) / S through the chain, each layer
        # stepping once the delta below has been taken from its weights
        np.multiply(resid, 2.0 / s, out=deltas[-1][:, 0])
        _backward_into(net, cache, deltas, slopes, descend)

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
