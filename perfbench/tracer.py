"""Per-layer tracing of ntklab from outside the package.

`Tracer.install` replaces each public function listed in TARGETS by a
wrapper in every ntklab module namespace that binds it (sweeps and
ntk_theory import names directly, so patching the defining module alone
would miss their calls).  Each wrapped call records one span: the function,
the span that was open when it started (its parent), the benchmark
operation it belongs to, and its start and end times.  Spans live in flat
in-memory arrays and are written out once, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.  Hooks count
work at the same boundaries: normals drawn, flops computed from array
shapes, training steps, replicates, jittered solves, CSV bytes and distinct
mean-field traces.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _bound(fn):
    """Argument binder for fn: (args, kwargs) -> {name: value} with defaults."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _hashable(value):
    if isinstance(value, np.ndarray):
        return tuple(value.ravel().tolist())
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


# Hooks: hook(tracer, arguments, result, error) with arguments bound by name.

def _init_hook(t, a, result, err):
    if err is None:
        w = [int(m) for m in a["widths"]]
        t.count("finite_net.init.normals", sum(i * o + o for i, o in zip(w[:-1], w[1:])))


def _forward_hook(t, a, result, err):
    x = np.atleast_2d(np.asarray(a["x"]))
    w = a["net"].widths
    t.count("finite_net.forward_batch.flop",
            sum(2 * x.shape[0] * i * o for i, o in zip(w[:-1], w[1:])))


def _train_hook(t, a, result, err):
    if err is None:
        t.count("finite_net.train_full_batch.steps", result.steps_run)
    elif hasattr(err, "step"):
        t.count("finite_net.train_full_batch.steps", err.step)


def _ratio_hook(t, a, result, err):
    t.count("empirical_ntk.init_variance_ratio.replicates", int(a["n_seeds"]))
    if err is None:
        t.count("empirical_ntk.init_variance_ratio.dropped", result.n_failed)


def _drift_hook(t, a, result, err):
    if err is not None or getattr(result, "diverged", False):
        t.count("empirical_ntk.training_drift.diverged", 1)


def _trace_hook(t, a, result, err):
    t.trace_keys.add(tuple((k, _hashable(v)) for k, v in a.items()))


def _solve_hook(t, a, result, err):
    if err is None and result[1] > 0.0:
        t.count("ntk_theory.spd_solve.jittered", 1)


def _csv_hook(t, a, result, err):
    path = Path(a["path"])
    if err is None and path.exists():
        t.count("data_io.write_csv.bytes", path.stat().st_size)


# (module, attribute, hook); the span name is "<module>.<attribute>".
TARGETS = (
    ("activations", "phi", None),
    ("activations", "dphi", None),
    ("quadrature", "normal_expectation", None),
    ("quadrature", "normal_pair_expectation", None),
    ("meanfield", "run_trace", _trace_hook),
    ("meanfield", "forward_covariance_step", None),
    ("meanfield", "backward_covariance_step", None),
    ("meanfield", "classify_phase", None),
    ("ntk_theory", "theta_star_matrix", None),
    ("ntk_theory", "nngp_matrix", None),
    ("ntk_theory", "build_theta_star", None),
    ("ntk_theory", "variance_oracle_mc", None),
    ("ntk_theory", "spd_solve", _solve_hook),
    ("finite_net", "init", _init_hook),
    ("finite_net", "forward_batch", _forward_hook),
    ("finite_net", "backward_deltas", None),
    ("finite_net", "train_full_batch", _train_hook),
    ("empirical_ntk", "self_kernel", None),
    ("empirical_ntk", "init_variance_ratio", _ratio_hook),
    ("empirical_ntk", "empirical_kernel", None),
    ("empirical_ntk", "training_drift", _drift_hook),
    ("data_io", "write_csv", _csv_hook),
    ("data_io", "RecordStore.append", None),
    ("sweeps", "run_experiment", None),
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a, _ in TARGETS)

# Per-layer metrics: name -> (unit, better).  Values are per round.
_STATS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower"),
    "normals": ("count", "lower"), "dropped": ("count", "lower"),
    "diverged": ("count", "lower"), "jittered": ("count", "lower"),
    "bytes": ("B", "lower"), "gflop_per_s": ("GFLOP/s", "higher"),
    "steps_per_s": ("1/s", "higher"), "replicates_per_s": ("1/s", "higher"),
    "distinct_ratio": ("ratio", "higher"),
}
_REPORTED = (
    ("finite_net.init", ("calls", "normals", "self_s")),
    ("finite_net.forward_batch", ("calls", "self_s", "gflop_per_s")),
    ("finite_net.backward_deltas", ("calls", "self_s")),
    ("finite_net.train_full_batch", ("self_s", "steps_per_s")),
    ("activations.phi", ("calls", "self_s")),
    ("activations.dphi", ("calls", "self_s")),
    ("empirical_ntk.self_kernel", ("calls", "self_s")),
    ("empirical_ntk.init_variance_ratio", ("replicates_per_s", "dropped")),
    ("empirical_ntk.empirical_kernel", ("calls", "self_s")),
    ("empirical_ntk.training_drift", ("diverged",)),
    ("meanfield.run_trace", ("calls", "self_s", "distinct_ratio")),
    ("meanfield.forward_covariance_step", ("calls", "self_s")),
    ("meanfield.backward_covariance_step", ("calls", "self_s")),
    ("meanfield.classify_phase", ("self_s",)),
    ("quadrature.normal_expectation", ("calls", "self_s")),
    ("quadrature.normal_pair_expectation", ("calls", "self_s")),
    ("ntk_theory.theta_star_matrix", ("s",)),
    ("ntk_theory.nngp_matrix", ("s",)),
    ("ntk_theory.build_theta_star", ("self_s",)),
    ("ntk_theory.variance_oracle_mc", ("self_s",)),
    ("ntk_theory.spd_solve", ("calls", "self_s", "jittered")),
    ("data_io.write_csv", ("self_s", "bytes")),
    ("data_io.RecordStore.append", ("calls", "self_s")),
    ("sweeps.run_experiment", ("self_s",)),
)
PER_LAYER = {f"{span}.{stat}": _STATS[stat] for span, stats in _REPORTED for stat in stats}
PER_LAYER["trace.overhead_s"] = ("s", "lower")


class Tracer:
    """Span recorder; install() before a traced pass, uninstall() after."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.trace_keys: set = set()
        self._patches: list = []

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ntklab" or n.startswith("ntklab.")]
        for fid, (modname, attr, hook) in enumerate(TARGETS):
            owner = importlib.import_module(f"ntklab.{modname}")
            *outer, name = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if not callable(original):
                continue  # gone from the program: its metrics read 0
            wrapper = self._wrap(fid, original, hook)
            if outer:
                self._patch(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, fid, fn, hook):
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        bind = _bound(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if hook is not None:
                    hook(tracer, bind(args, kwargs), None, err)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if hook is not None:
                hook(tracer, bind(args, kwargs), result, None)
            return result
        return traced

    # -- reduction ----------------------------------------------------------

    def mark(self) -> int:
        """Start a new pass: clear counters; returns the first span index."""
        self.counters = {}
        self.trace_keys = set()
        return len(self.start)

    def per_layer(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since mark() returned first."""
        fid = np.frombuffer(self.fid, dtype=np.intc)[first:]
        parent = np.frombuffer(self.parent, dtype=np.intc)[first:]
        dur = (np.frombuffer(self.end, dtype=float)[first:]
               - np.frombuffer(self.start, dtype=float)[first:])
        child = np.zeros(len(dur))
        inner = parent >= first
        np.add.at(child, parent[inner] - first, dur[inner])
        n = len(TARGETS)
        calls = np.bincount(fid, minlength=n)
        incl = np.bincount(fid, weights=dur, minlength=n)
        self_s = np.bincount(fid, weights=dur - child, minlength=n)
        span = {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, name in enumerate(SPAN_NAMES)}
        c = self.counters

        def rate(num, den):
            return float(num) / den if den > 0.0 else 0.0

        out = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            name, stat = metric.rsplit(".", 1)
            n_calls, inclusive, own = span[name]
            if stat == "calls":
                out[metric] = n_calls
            elif stat == "self_s":
                out[metric] = own
            elif stat == "s":
                out[metric] = inclusive
            elif stat == "gflop_per_s":
                out[metric] = rate(c.get(f"{name}.flop", 0), own) / 1e9
            elif stat == "steps_per_s":
                out[metric] = rate(c.get(f"{name}.steps", 0), inclusive)
            elif stat == "replicates_per_s":
                out[metric] = rate(c.get(f"{name}.replicates", 0), inclusive)
            elif stat == "distinct_ratio":
                out[metric] = rate(len(self.trace_keys), n_calls)
            else:
                out[metric] = c.get(metric, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as parallel arrays (names indexed by fid)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, names=np.array(SPAN_NAMES),
                 fid=np.frombuffer(self.fid, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 op=np.frombuffer(self.op, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
        os.replace(tmp, path)
