"""Configurable experiment sweeps behind the command-line front end.

Every experiment is one entry of SWEEPS, and one loop, run_experiment, runs
them all.  An entry gives four things:

  coords      the grid axes, outermost first: the cells, grid(cfg), are the
              Cartesian product of the configured lists of these axes;
  config      the config fields that every cell runs with;
  setup(cfg)  the per-sweep work (data, training settings), returning a cell
              function (cell, seed) -> (stats, rows for each CSV);
  csvs        the name and header of each long-format CSV it writes.

A cell's record params are the activation, its value of each axis and the
config fields; each CSV row is the cell's row over those params, read off
by header name.  run_experiment validates the config once, derives one
PRNG seed per cell from the master seed (cell_seeds), and runs and times
the cells in grid order in its own process.  Once they have taken
SERIAL_BUDGET_S, and the cells left would take as long again at their mean
time, it runs the rest on min(usable cores // cfg.threads, cells left)
forked worker processes, when that is at least 2, and takes their results
in grid order.  It appends each cell's RunRecord as its result
arrives, before any CSV is written, so a sweep that fails part way leaves
a queryable audit trail.  Every process of the sweep runs numpy's BLAS on
cfg.threads threads, the only thread pool its arithmetic uses.

Every record's stats carry a status: "ok", or "diverged" when a trained
network of the cell (a train-drift replicate, a predict-variance network)
reached a non-finite loss.  Divergence is a result, not an error: training
returns it like any other stop reason, and the cell still writes its rows.
A cell that raises is recorded too, with the same params and status
"overflow" or "error", before the exception ends the sweep: no later cell
is recorded, and workers still running are killed.  So is a cell whose
worker died (status "error").  Given (config, seed) the output bytes are
identical across runs and hosts at a given threads, whether or not
workers ran.
"""
from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from .activations import ActivationKind
from .meanfield import InitHyper, SignalOverflowError, avg_phi_prod, avg_phi_sq, classify_phase, \
    depth_sums
from .ntk_theory import _numpy_blas_threads, predict_variance, sample_index, sample_kernels, \
    trained_output_variance
from .finite_net import TrainConfig, init, layer_widths, train_full_batch, forward_batch
from .empirical_ntk import DEFAULT_SNAPSHOT_STEPS, default_probe, init_variance_ratio, \
    training_drift
from .data_io import RecordStore, RunRecord, code_identity, synthetic_dataset, \
    write_csv, gram_anchored_inputs

class ConfigError(Exception):
    """Invalid sweep configuration (reported as exit code 1 by the CLI)."""


@dataclass
class SweepConfig:
    """Grid specification for one experiment.

    Defaults mirror the reference protocol where one exists: widths
    {50, 100, 200, 500} for variance heatmaps, the (1,1)/(1.5,1)/(2,0)/(3,1)
    hyperparameter quartet for depth-to-width curves, learning rate 1e-5 and
    the 1e-7/100-step early-stopping rule for training runs.
    """

    experiment: str = "phase-diagram"
    activation: str = "relu"
    sigma_w_sq: list = field(default_factory=lambda: [1.0, 1.5, 2.0, 2.5, 3.0])
    sigma_b_sq: list = field(default_factory=lambda: [1.0])
    depths: list = field(default_factory=lambda: [2, 4, 8, 16, 32])
    widths: list = field(default_factory=lambda: [64])
    covariances: list = field(default_factory=lambda: [0.0, 0.5, 0.9])
    n_seeds: int = 200
    sample_count: int = 128
    input_dim: int | None = None
    train_steps: int = 2000
    learning_rate: float = 1e-5
    snapshot_steps: list | None = None   # None: DEFAULT_SNAPSHOT_STEPS up to train_steps
    reference_cov: float = 0.5
    mc_samples: int = 100_000
    train_seeds: int = 0           # >0 adds end-to-end trained-network variance
    seed: int = 0
    threads: int = 1
    out_dir: str = "out"

    @classmethod
    def from_yaml(cls, path, base: "SweepConfig | None" = None) -> "SweepConfig":
        """The config in a YAML file; fields it leaves out come from base
        (the defaults when None)."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
        except yaml.YAMLError as err:
            raise ConfigError(f"cannot parse {path}: {err}") from None
        return cls.from_mapping(raw, base)

    @classmethod
    def from_mapping(cls, raw: dict, base: "SweepConfig | None" = None) -> "SweepConfig":
        """Build a config from a mapping, checking each value against its
        field's declared type; fields it leaves out come from base (the
        defaults when None).  Numbers are read with float() where floats
        are expected, because YAML 1.1 reads a number such as 1e-5 (no dot)
        as a string."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {raw!r}")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        typed = {key: _typed(key, fields[key].type, value) for key, value in raw.items()}
        return cls(**typed) if base is None else replace(base, **typed)

    def override(self, assignments: Sequence[str]) -> "SweepConfig":
        """Apply key=value overrides (values parsed as YAML scalars/lists)."""
        data = {}
        for item in assignments:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            if key not in self.__dataclass_fields__:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = yaml.safe_load(value)
        return SweepConfig.from_mapping(data, self)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENT_KINDS}")
        try:
            ActivationKind.from_name(self.activation)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        empty = [key for key in ("sigma_w_sq", "sigma_b_sq", "depths", "widths")
                 if not getattr(self, key)]
        if self.experiment == "kappa-curves" and not self.covariances:
            empty.append("covariances")
        if empty:
            raise ConfigError(f"{', '.join(empty)} must not be empty")
        try:
            for sw in self.sigma_w_sq:
                for sb in self.sigma_b_sq:
                    self.hyper(sw, sb)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"invalid hyperparameter grid: {err}") from None
        for key in ("depths", "widths"):
            fractional = [v for v in getattr(self, key) if not float(v).is_integer()]
            if fractional:
                raise ConfigError(f"{key} must be whole numbers, got {fractional}")
        if any(int(d) < 1 for d in self.depths):
            raise ConfigError("depths must be >= 1")
        if any(int(m) < 1 for m in self.widths):
            raise ConfigError("widths must be >= 1")
        if any(not 0.0 <= float(c) <= 1.0 for c in self.covariances):
            raise ConfigError("covariances must lie in [0, 1]")
        if not 0.0 <= self.reference_cov <= 1.0:
            raise ConfigError(f"reference_cov must lie in [0, 1], got {self.reference_cov}")
        if self.sample_count < 1:
            raise ConfigError("sample_count must be >= 1")
        if self.train_steps < 0:
            raise ConfigError("train_steps must be >= 0")
        if not self.learning_rate >= 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.n_seeds < 2:
            raise ConfigError("n_seeds must be >= 2")
        if self.experiment == "init-variance" and self.n_seeds < 3:
            # a leave-one-out sample of two values holds one, whose ratio is 1
            raise ConfigError("init-variance needs n_seeds >= 3 for a jackknife standard error")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be >= 2")
        if self.train_seeds == 1 or self.train_seeds < 0:
            raise ConfigError("train_seeds must be 0 or >= 2 (a variance over seeds)")
        if self.input_dim is not None and self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1 or null, got {self.input_dim}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.experiment == "train-drift" and self.snapshot_steps is not None:
            fractional = [t for t in self.snapshot_steps if not float(t).is_integer()]
            if fractional:
                raise ConfigError(f"snapshot_steps must be whole numbers, got {fractional}")
            outside = [t for t in self.snapshot_steps if not 0 <= int(t) <= self.train_steps]
            if outside:
                raise ConfigError(f"snapshot_steps {outside} lie outside "
                                  f"[0, train_steps={self.train_steps}]")
        if (self.experiment == "predict-variance" and self.train_seeds > 0
                and int(min(self.widths)) < self.sample_count + 1):
            # the trained-network inputs are S + 1 points with a prescribed
            # Gram matrix in dimension M, for every width M
            raise ConfigError(f"predict-variance with train_seeds > 0 needs "
                              f"widths >= sample_count + 1 = {self.sample_count + 1}, "
                              f"got {self.widths}")

    def hyper(self, sw: float, sb: float) -> InitHyper:
        return InitHyper(float(sw), float(sb), ActivationKind.from_name(self.activation))

    def snapshots(self) -> list[int]:
        """The train-drift snapshot steps: the configured ones, or the
        defaults that fit in train_steps (so a short run needs no hand-set
        list), plus step 0 and the final step."""
        steps = self.snapshot_steps
        if steps is None:
            steps = [t for t in DEFAULT_SNAPSHOT_STEPS if t <= self.train_steps]
        return sorted(set(int(t) for t in steps) | {0, self.train_steps})

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, max_steps=self.train_steps)


_TYPE_NAMES = {"str": "a string", "int": "an integer", "int | None": "an integer or null",
               "float": "a number", "list": "a list of numbers",
               "list | None": "a list of numbers or null"}


def _typed(key: str, kind: str, value):
    """value as config field `key` of declared type `kind`, or a ConfigError
    naming the key."""
    def number(v):
        if isinstance(v, str):  # YAML 1.1 reads 1e-5 (no dot) as a string
            return float(v)
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return v
        raise TypeError

    try:
        if kind == "float":
            return float(number(value))
        if kind.startswith("list") and isinstance(value, list):
            return [number(v) for v in value]
        if kind == "str" and isinstance(value, str):
            return value
        if kind.endswith("| None") and value is None:
            return value
        if kind.startswith("int") and isinstance(value, int) and not isinstance(value, bool):
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def cell_seeds(master_seed: int, n_cells: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(n_cells, dtype=np.uint64)


# A cell function maps (cell, cell seed) to the cell's record stats and,
# for each of the sweep's CSVs, its rows: mappings from column name to value
# that need not repeat the record params.
CellFn = Callable[[tuple, int], tuple[dict, tuple[list[dict], ...]]]


@dataclass(frozen=True)
class Sweep:
    coords: tuple                           # grid axes (record param names), outermost first
    config: tuple                           # config fields recorded as params
    setup: Callable[[SweepConfig], CellFn]  # per-sweep work, then the cell function
    csvs: tuple                             # (file name, header) per CSV


# the config list and value type of each grid axis
_AXES = {"sigma_w_sq": ("sigma_w_sq", float), "sigma_b_sq": ("sigma_b_sq", float),
         "depth": ("depths", int), "width": ("widths", int)}


@dataclass
class SweepOutput:
    records: list
    csv_paths: list


def grid(cfg: SweepConfig) -> list:
    """The cells of cfg's sweep, in record and CSV order: one value of each
    axis of Sweep.coords, the last axis varying fastest."""
    axes = (_AXES[name] for name in SWEEPS[cfg.experiment].coords)
    return list(itertools.product(*([kind(v) for v in getattr(cfg, key)] for key, kind in axes)))


def _failure_stats(err: Exception) -> dict:
    """Record stats of a cell that raised err."""
    overflow = isinstance(err, (SignalOverflowError, FloatingPointError))
    stats = dict(status="overflow" if overflow else "error", error_class=type(err).__name__)
    if getattr(err, "layer", None) is not None:
        stats["layer"] = err.layer
    return stats


def _outcomes(runs) -> dict:
    """Record stats of a cell's trained runs (TrainLogs or DriftStats): the
    count of each stop reason and, when any run diverged, status "diverged",
    the number that did and the step at which each stopped."""
    steps = [r.steps_run for r in runs if r.stop_reason == "diverged"]
    stats = dict(status="diverged", n_diverged=len(steps), divergence_steps=steps) if steps else {}
    return dict(stats, stop_reasons=dict(Counter(r.stop_reason for r in runs)))


# Seconds of cells that a sweep runs in its own process before it hands the
# rest to worker processes: a shorter sweep would spend more on forking than
# the workers save.
SERIAL_BUDGET_S = 0.1


def _usable_cores() -> int:
    """The cores this process may run on (taskset limits them)."""
    return len(os.sched_getaffinity(0))


def _timed(run_cell: CellFn, cell: tuple, seed: int) -> tuple:
    """(run_cell's (stats, rows), or the exception it raised; its seconds)."""
    t0 = time.perf_counter()
    try:
        outcome = run_cell(cell, seed)
    except Exception as err:  # noqa: BLE001 - run_experiment records and re-raises it
        outcome = err
    return outcome, time.perf_counter() - t0


_worker_cell: CellFn | None = None   # the sweep's cell function, in a worker process


def _start_worker(run_cell: CellFn) -> None:
    global _worker_cell
    _worker_cell = run_cell


def _run_in_worker(cell: tuple, seed: int) -> tuple:
    return _timed(_worker_cell, cell, seed)


def _in_workers(run_cell: CellFn, cells: list, seeds: list, n_workers: int):
    """Yield _timed of each cell, in order, from n_workers forked worker
    processes, which inherit run_cell and this process's numpy BLAS thread
    count.  A cell whose result cannot be had, because a worker died, yields
    the error (BrokenProcessPool) and the seconds waited for it.  When the
    generator finishes or is closed, every worker is killed and reaped: cells
    still running are not waited for."""
    import multiprocessing  # lazily: a sweep that stays in-process does not load it
    from concurrent.futures import ProcessPoolExecutor

    # fork: the workers inherit run_cell, a closure over the sweep's set-up
    # that cannot be pickled, and start in milliseconds; the executor forks
    # them all before it starts its own thread
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(run_cell,))
    try:
        futures = [pool.submit(_run_in_worker, cell, seed) for cell, seed in zip(cells, seeds)]
        for future in futures:
            t0 = time.perf_counter()
            try:
                result = future.result()
            except Exception as err:  # noqa: BLE001 - recorded as the cell's failure
                result = err, time.perf_counter() - t0
            yield result
    finally:
        # the executor reaps killed workers and fails their futures; it has
        # no public handle on its workers before Python 3.14's kill_workers()
        for worker in list(pool._processes.values()):
            worker.kill()
        pool.shutdown(cancel_futures=True)


def _cell_results(run_cell: CellFn, cells: list, seeds: list, threads: int):
    """Yield _timed(run_cell, cell, seed) of each cell in grid order.  Cells
    run in this process until they have taken SERIAL_BUDGET_S; the rest run
    in min(usable cores // threads, cells left) worker processes when that is
    at least 2 and the cells left, at the mean time of those run so far,
    would take SERIAL_BUDGET_S again (few short cells run slower in workers
    than here, by the cost of forking)."""
    spent = 0.0
    for i, (cell, seed) in enumerate(zip(cells, seeds)):
        left = len(cells) - i
        n_workers = min(_usable_cores() // threads, left)
        if (spent >= SERIAL_BUDGET_S and n_workers >= 2
                and spent * left >= SERIAL_BUDGET_S * i):
            yield from _in_workers(run_cell, cells[i:], seeds[i:], n_workers)
            return
        result = _timed(run_cell, cell, seed)
        spent += result[1]
        yield result


def run_experiment(cfg: SweepConfig) -> SweepOutput:
    """Run every cell of cfg's grid (see _cell_results), append each cell's
    RunRecord in grid order as its result arrives, then write the sweep's
    CSVs.  Every process runs numpy's BLAS on cfg.threads threads.  A cell
    that raises is recorded with _failure_stats, then its exception
    propagates and no later cell is recorded.  A CSV column that neither the
    params nor the cell's row supplies raises KeyError."""
    cfg.validate()
    sweep = SWEEPS[cfg.experiment]
    out_dir = Path(cfg.out_dir)
    store = RecordStore(out_dir / "records.jsonl")

    def record(params, stats, elapsed):
        rec = RunRecord(kind=cfg.experiment, params=params, stats=stats, seed=cfg.seed,
                        wall_clock_s=round(elapsed, 6), code_version=code_identity())
        store.append(rec)
        return rec

    records, tables = [], [[] for _ in sweep.csvs]
    paths = [out_dir / name for name, _ in sweep.csvs]
    with _numpy_blas_threads(cfg.threads):
        cells = grid(cfg)
        run_cell = sweep.setup(cfg)
        config = {name: getattr(cfg, name) for name in sweep.config}
        seeds = [int(seed) for seed in cell_seeds(cfg.seed, len(cells))]
        with closing(_cell_results(run_cell, cells, seeds, cfg.threads)) as results:
            for cell, (outcome, elapsed) in zip(cells, results):
                params = dict(activation=cfg.activation, **dict(zip(sweep.coords, cell)),
                              **config)
                if isinstance(outcome, Exception):
                    record(params, _failure_stats(outcome), elapsed)
                    raise outcome
                stats, rows = outcome
                records.append(record(params, {"status": "ok", **stats}, elapsed))
                for table, (_, header), cell_rows in zip(tables, sweep.csvs, rows):
                    table.extend([{**params, **row}[name] for name in header]
                                 for row in cell_rows)
        for path, (_, header), table in zip(paths, sweep.csvs, tables):
            write_csv(path, header, table)
    return SweepOutput(records=records, csv_paths=paths)


# ---------------------------------------------------------------------------
# phase-diagram: chi1 fixed-point values and phase labels over the
# (sigma_w^2, sigma_b^2) grid.

def _phase_diagram(cfg: SweepConfig) -> CellFn:
    def run(cell, _seed):
        sb, sw = cell
        label = classify_phase(cfg.hyper(sw, sb))
        stats = dict(chi1_fixed_point=label.chi1_fixed_point, phase=label.tag.value)
        return stats, ([stats],)
    return run


# ---------------------------------------------------------------------------
# init-variance: kernel variance ratio over (sigma_b^2, width, depth,
# sigma_w^2), written as a heatmap and as depth-to-width curves.

def _init_variance(cfg: SweepConfig) -> CellFn:
    def run(cell, seed):
        sb, M, L, sw = cell
        dim = cfg.input_dim or M
        probe = default_probe(dim, seed)
        stat = init_variance_ratio(layer_widths(dim, M, L), cfg.hyper(sw, sb),
                                   probe, cfg.n_seeds, seed=seed)
        stats = dict(ratio=stat.ratio, standard_error=stat.standard_error,
                     mean=stat.mean, n_failed=stat.n_failed)
        return stats, ([stats], [dict(stats, depth_over_width=L / M)])
    return run


# ---------------------------------------------------------------------------
# train-drift: final kernel drift and final loss over (sigma_b^2, width,
# depth, sigma_w^2), plus per-step curves.
#
# A replicate whose loss becomes non-finite is kept: its curve runs up to the
# divergence, and its cell's record has status "diverged", n_diverged and the
# step at which each diverged replicate stopped.  Every record counts its
# replicates' stop reasons.  Heatmap columns average the replicates that
# finished (NaN when none did).

def _train_drift(cfg: SweepConfig) -> CellFn:
    tc = cfg.train_config()
    snaps = cfg.snapshots()

    def run(cell, seed):
        sb, M, L, sw = cell
        dim = cfg.input_dim or M
        data = synthetic_dataset(cfg.sample_count, dim, seed=cfg.seed)
        reps = [training_drift(layer_widths(dim, M, L), cfg.hyper(sw, sb), data.inputs,
                               data.targets, tc, snapshot_steps=snaps, seed=seed + k)
                for k in range(cfg.n_seeds)]
        finished = [r for r in reps if not r.diverged]
        drift, final_loss, initial_loss = (
            float(np.mean([getattr(r, name) for r in finished])) if finished else float("nan")
            for name in ("final_drift", "final_loss", "initial_loss"))
        stats = dict(_outcomes(reps), final_drift=drift, final_loss=final_loss,
                     initial_loss=initial_loss)
        curves = [dict(replicate=rep_idx, step=int(step), rel_change=float(rel))
                  for rep_idx, rep in enumerate(reps)
                  for step, rel in zip(rep.steps, rep.rel_change)]
        return stats, ([stats], curves)
    return run


# ---------------------------------------------------------------------------
# kappa-curves: kappa2(L) and kappa1/kappa2(L) for the configured covariances,
# one cell per (sigma_w^2, sigma_b^2).

def _kappa_curves(cfg: SweepConfig) -> CellFn:
    covs = np.asarray(cfg.covariances, dtype=float)
    depths = [int(L) for L in cfg.depths]

    def run(cell, _seed):
        sw, sb = cell
        hyper = cfg.hyper(sw, sb)
        # one forward pass carries every covariance to the deepest depth
        sums = depth_sums(hyper, depths, 1.0, covs)
        rows = []
        for k, c0 in enumerate(covs):
            for L, pair in zip(depths, sums):
                kappa2 = float(pair.kappa2[k])
                ratio = pair.kappa1 / kappa2 if kappa2 else float("inf")
                rows.append(dict(covariance=float(c0), depth=L, kappa1=pair.kappa1,
                                 kappa2=kappa2, kappa_ratio=ratio))
        return dict(rows=len(rows)), (rows,)
    return run


# ---------------------------------------------------------------------------
# predict-variance: data-independent trained-output variance against the
# exact u^T K u and its Monte-Carlo estimate (and, when train_seeds > 0,
# against end-to-end trained wide networks).

def _trained_network_stats(hyper: InitHyper, depth: int, m_width: int, s: int,
                           c0: float, tc: TrainConfig, n_nets: int, seed: int) -> dict:
    """Record stats of n_nets trained finite networks: the output variance
    on a held-out point (trained_variance), its standard error
    (trained_standard_error), the median final loss and _outcomes of their
    training logs.

    The training inputs and the test point all share the layer-0 covariance
    c0, realized exactly through a Gram-anchored input construction.  Every
    network's stop reason is counted.  A network whose loss becomes
    non-finite is counted as diverged and left out of the variance, which
    is NaN when fewer than two networks finished.
    """
    kind = hyper.activation
    q_hat0 = avg_phi_sq(kind, 1.0)
    q_hat0_sr = avg_phi_prod(kind, 1.0, c0)
    dim = m_width
    gram = np.full((s + 1, s + 1), dim * q_hat0_sr)
    np.fill_diagonal(gram, dim * q_hat0)
    points = gram_anchored_inputs(gram, dim, seed=seed)
    x_test, x_train = points[0], points[1:]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x7a11))))
    y = rng.uniform(0.0, 1.0, size=s)
    logs, outs, losses = [], [], []
    for k in range(n_nets):
        net = init(layer_widths(dim, m_width, depth), hyper, seed + 1000 + k)
        log = train_full_batch(net, x_train, y, tc)
        logs.append(log)
        if log.stop_reason == "diverged":
            continue
        losses.append(log.losses[-1])
        out, _ = forward_batch(net, x_test[None, :])
        outs.append(out[0])
    nan = float("nan")
    trained = float(np.var(outs, ddof=1)) if len(outs) > 1 else nan
    trained_se = trained * math.sqrt(2.0 / (len(outs) - 1)) if len(outs) > 1 else nan
    return dict(trained_variance=trained, trained_standard_error=trained_se,
                median_final_loss=float(np.median(losses)) if losses else nan,
                **_outcomes(logs))


def _predict_variance(cfg: SweepConfig) -> CellFn:
    s = int(cfg.sample_count)
    c0 = float(cfg.reference_cov)
    # the joint sample [x] + X, indexed once per sweep: s + 1 points of
    # variance 1, every pair at c0, which is also the reference slot ref
    cov0 = np.full((s + 1, s + 1), c0)
    np.fill_diagonal(cov0, 1.0)
    covs, index, (ref,) = sample_index(cov0, 1.0, c0)

    def run(cell, seed):
        sb, M, sw, L = cell
        hyper = cfg.hyper(sw, sb)
        # one depth_sums pass of the one covariance gives the joint Theta*,
        # whose corner is Theta*(X) and whose first row is theta_x, the
        # joint NNGP matrix K, kbar1/kbar2, qbar^L and qbar_sr^L
        theta, joint = sample_kernels(hyper, L, covs, index, M, ref)
        pred = predict_variance(theta.mean_kappa1, theta.mean_kappa2, joint.matrix[0, 0],
                                joint.matrix[0, 1], s)
        var = trained_output_variance(theta.matrix[1:, 1:], joint, theta.matrix[0, 1:],
                                      cfg.mc_samples, seed=seed)
        stats = dict(A=pred.A, predicted_variance=pred.variance, exact_variance=var.exact,
                     mc_variance=var.mc_variance, mc_standard_error=var.mc_standard_error,
                     rel_gap=(abs(pred.variance - var.exact) / var.exact if var.exact > 0.0
                              else math.nan),
                     spd_jitter=var.jitter)
        if cfg.train_seeds > 0:
            stats.update(_trained_network_stats(hyper, L, M, s, c0, cfg.train_config(),
                                                cfg.train_seeds, cfg.seed))
        return stats, ([{"trained_variance": "", "trained_standard_error": "", **stats}],)
    return run


_COORDS = ("activation", "sigma_w_sq", "sigma_b_sq")

SWEEPS = {
    "phase-diagram": Sweep(
        coords=("sigma_b_sq", "sigma_w_sq"),
        config=(),
        setup=_phase_diagram,
        csvs=(("phase_diagram.csv", _COORDS + ("chi1_fixed_point", "phase")),)),
    "init-variance": Sweep(
        coords=("sigma_b_sq", "width", "depth", "sigma_w_sq"),
        config=("n_seeds",),
        setup=_init_variance,
        csvs=(("init_variance_heatmap.csv",
               _COORDS + ("depth", "width", "ratio", "standard_error")),
              ("init_variance_lm_curves.csv",
               _COORDS + ("width", "depth", "depth_over_width", "ratio")))),
    "train-drift": Sweep(
        coords=("sigma_b_sq", "width", "depth", "sigma_w_sq"),
        config=("sample_count", "learning_rate", "train_steps", "n_seeds"),
        setup=_train_drift,
        csvs=(("train_drift_heatmap.csv",
               _COORDS + ("depth", "width", "final_drift", "final_loss", "initial_loss")),
              ("train_drift_curves.csv",
               _COORDS + ("depth", "width", "replicate", "step", "rel_change")))),
    "kappa-curves": Sweep(
        coords=("sigma_w_sq", "sigma_b_sq"),
        config=("covariances", "depths"),
        setup=_kappa_curves,
        csvs=(("kappa_curves.csv", _COORDS + ("covariance", "depth", "kappa1", "kappa2",
                                              "kappa_ratio")),)),
    "predict-variance": Sweep(
        coords=("sigma_b_sq", "width", "sigma_w_sq", "depth"),
        config=("sample_count", "reference_cov", "mc_samples"),
        setup=_predict_variance,
        csvs=(("predict_variance.csv",
               _COORDS + ("depth", "width", "sample_count", "A", "predicted_variance",
                          "exact_variance", "mc_variance", "mc_standard_error",
                          "trained_variance", "trained_standard_error")),)),
}

EXPERIMENT_KINDS = tuple(SWEEPS)
