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

One forward routine and one backward routine serve inference, training and
empirical kernels alike, and both work in place in a Workspace, the one
buffer type: a network's activations, slopes and deltas for one batch, and
one weight-gradient and one bias-gradient buffer that every layer views.
_forward_into makes each hidden pre-activation h^l in the buffer of the
activation x^l, writes phi'(h^l) into a slope buffer (a bool mask for ReLU),
then lets phi overwrite h^l; no pre-activation is kept.  _backward_into
writes every delta into its own buffer, multiplying in the stored slopes.

train_full_batch refills its Workspace at each step with in-place
operations and moves W^l and b^l inside the backward loop, right after
delta^{l-1} has been taken from W^l, so no two layers' gradients are alive
at once.  Nothing in the Workspace outlives a step, so the same buffers serve
kernel snapshots between steps (empirical_ntk.training_drift).  A non-finite
loss ends a run as "diverged", an outcome returned like any other.

The in-place step is bitwise the step that builds fresh arrays
(tests/oracles.py, reference_train_full_batch): each operation runs on the
same operands in the same order, so losses, parameters, snapshot weights,
stop reasons and divergence steps all match.  The ReLU slope is a bool
mask multiplied into delta; the cast gives exactly 1.0 and 0.0, so the
products keep their signed zeros and NaNs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .activations import ActivationKind, dphi, phi
from .meanfield import InitHyper


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


def _batch(net: Mlp, x: np.ndarray) -> np.ndarray:
    """x as a float batch (S, M_0) for net; a float64 2-d x is not copied."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.widths[0]:
        raise ValueError(f"input dimension {x.shape[1]} != {net.widths[0]}")
    return x


@dataclass
class Workspace:
    """Every buffer one network needs to run, train and take its kernel on a
    batch.

    activations[l] is the (S, M_l) input to affine map l+1 (activations[0] is
    the raw batch); slopes[l] holds phi'(h^{l+1}) of the same shape as
    activations[l+1], a bool mask for ReLU; output is the (S, 1) read-out.
    No pre-activation is kept: each is made in its activation buffer, and
    phi overwrites it there once its slope is taken.  deltas[l] (S, M_{l+1})
    is df/dh^{l+1}.  grad_w[l] and grad_b[l] are views of one weight-gradient
    and one bias-gradient buffer, shared by all layers: a layer's gradient is
    dead once that layer has stepped.  No buffer holds data from one training
    step, or one kernel, to the next.
    """

    activations: list[np.ndarray]
    slopes: list[np.ndarray]
    output: np.ndarray
    deltas: list[np.ndarray]
    grad_w: list[np.ndarray]
    grad_b: list[np.ndarray]

    @classmethod
    def allocate(cls, net: Mlp, x: np.ndarray) -> "Workspace":
        """Unfilled buffers for the batch x (S, M_0), which becomes activations[0]."""
        x = _batch(net, x)
        s, hidden = x.shape[0], net.widths[1:-1]
        slope_type = bool if net.activation is ActivationKind.RELU else float
        activations = [x] + [np.empty((s, m)) for m in hidden]
        slopes = [np.empty((s, m), dtype=slope_type) for m in hidden]
        output = np.empty((s, 1))
        w_buf = np.empty(max(w.size for w in net.weights))
        b_buf = np.empty(max(b.size for b in net.biases))
        return cls(activations=activations, slopes=slopes, output=output,
                   deltas=[np.empty((s, m)) for m in net.widths[1:]],
                   grad_w=[w_buf[:w.size].reshape(w.shape) for w in net.weights],
                   grad_b=[b_buf[:b.size] for b in net.biases])

    @classmethod
    def holding(cls, net: Mlp, x: np.ndarray, buffers: "Workspace | None") -> "Workspace":
        """buffers with x as the input batch, or a fresh workspace for x."""
        if buffers is None:
            return cls.allocate(net, x)
        x = _batch(net, x)
        if x.shape != buffers.activations[0].shape:
            raise ValueError(f"batch shape {x.shape} != the workspace's "
                             f"{buffers.activations[0].shape}")
        buffers.activations[0] = x
        return buffers

    @property
    def outputs(self) -> np.ndarray:
        return self.output[:, 0]


def _forward_into(net: Mlp, ws: Workspace) -> None:
    """Run the network on ws.activations[0], overwriting the workspace's
    activations, slopes and output in place: each hidden pre-activation is
    made in its activation buffer, its slope taken, then phi applied in place."""
    kind = net.activation
    acts, slopes = ws.activations, ws.slopes
    # overflow flows through as inf/nan and is checked by the consumers
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            hidden = l + 1 < len(acts)
            h = np.matmul(acts[l], w.T, out=acts[l + 1] if hidden else ws.output)
            h += b
            if hidden:
                dphi(kind, h, out=slopes[l])
                phi(kind, h, out=h)


def forward_batch(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, Workspace]:
    """Outputs (S,) and the workspace of a forward pass over a batch of inputs
    (S, M_0); its deltas and gradients are left unfilled."""
    ws = Workspace.allocate(net, x)
    _forward_into(net, ws)
    return ws.outputs, ws


def _backward_into(net: Mlp, ws: Workspace,
                   descend: Callable[[int], None] | None = None) -> None:
    """Propagate ws.deltas[-1] down the chain in place:
    deltas[l-1] = (deltas[l] W^{l+1}) * slopes[l-1] for l = L-1, ..., 1.

    descend(l), when given, runs for l = L-1, ..., 0 once deltas[l] is final
    and W^{l+1} is no longer read, so it may move W^{l+1} and b^{l+1}."""
    deltas = ws.deltas
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(net.depth - 1, -1, -1):
            if l:
                np.matmul(deltas[l], net.weights[l], out=deltas[l - 1])
                deltas[l - 1] *= ws.slopes[l - 1]
            if descend is not None:
                descend(l)


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
    """The finite losses of a run, in step order, why it stopped and how many
    steps it ran.  A "diverged" run's last step is the one whose loss was not
    finite; that loss is not in the log, and the step made no update."""

    losses: np.ndarray
    stop_reason: str
    steps_run: int


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error; inf or nan where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean((outputs - targets) ** 2))


def train_full_batch(net: Mlp, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                     snapshot_steps: Sequence[int] = (),
                     on_snapshot: Callable[[int, Mlp], None] | None = None,
                     buffers: Workspace | None = None) -> TrainLog:
    """Full-batch gradient descent on MSE = mean_s (f(x_s) - y_s)^2.

    Mutates the network in place.  on_snapshot(step, net) is invoked at each
    requested step index (0 = before any update) and, unless the run
    diverged, after the final step when that step was not requested.
    Every step runs in buffers, a Workspace for this network and batch
    (allocated when None); on_snapshot may use them too, since each step
    overwrites them before it reads them.
    The stop reason is "early_stop" or "max_steps", "loss_rose" when the
    last loss is above the step-1 loss (a finite blow-up is not convergence),
    or "diverged" when a loss is not finite, which ends the run at that step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != len(y) or len(y) < 1:
        raise ValueError("need matching, non-empty inputs and targets")
    s = len(y)
    wanted = set(int(t) for t in snapshot_steps) if on_snapshot is not None else set()

    ws = Workspace.holding(net, x, buffers)
    out, deltas = ws.outputs, ws.deltas
    resid, resid_sq = np.empty(s), np.empty(s)
    lr = cfg.learning_rate

    def descend(l: int) -> None:
        grad_w, grad_b = ws.grad_w[l], ws.grad_b[l]
        np.matmul(deltas[l].T, ws.activations[l], out=grad_w)
        np.add.reduce(deltas[l], axis=0, out=grad_b)
        grad_w *= lr
        net.weights[l] -= grad_w
        grad_b *= lr
        net.biases[l] -= grad_b

    if 0 in wanted:
        on_snapshot(0, net)
    losses = np.empty(cfg.max_steps)
    best = np.inf
    stale = 0
    reason = "max_steps"
    step = 0
    for step in range(1, cfg.max_steps + 1):
        _forward_into(net, ws)
        # an overflowing loss is an outcome, reported as "diverged"
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(out, y, out=resid)
            loss = float(np.mean(np.square(resid, out=resid_sq)))
        if not np.isfinite(loss):
            return TrainLog(losses=losses[:step - 1].copy(), stop_reason="diverged",
                            steps_run=step)
        losses[step - 1] = loss

        # backprop of dL/dh^L = 2 (f - y) / S through the chain, each layer
        # stepping once the delta below has been taken from its weights
        np.multiply(resid, 2.0 / s, out=deltas[-1][:, 0])
        _backward_into(net, ws, descend)

        if step in wanted:
            on_snapshot(step, net)
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

    if on_snapshot is not None and step not in wanted:
        on_snapshot(step, net)
    return TrainLog(losses=losses[:step].copy(), stop_reason=reason, steps_run=step)
