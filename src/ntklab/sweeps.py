"""Configurable experiment sweeps behind the command-line front end.

Every sweep expands a hyperparameter grid into a deterministic list of cells,
derives one PRNG seed per cell from the master seed, optionally fans the
cells out over a thread pool, writes one RunRecord per cell (before any CSV,
so partial failures leave a queryable audit trail), and emits long-format
CSV grids.  Given (config, seed) the output bytes are identical across runs
and thread counts.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import yaml

from . import __version__
from .activations import ActivationKind
from .meanfield import InitHyper, classify_phase, run_trace
from .ntk_theory import compute_kappas, nngp_matrix, predict_variance, \
    theta_star_matrix, trained_output_variance
from .finite_net import TrainConfig, TrainingDivergenceError, init, layer_widths, \
    train_full_batch, forward_batch
from .empirical_ntk import default_probe, init_variance_ratio, training_drift
from .data_io import RecordStore, RunRecord, synthetic_dataset, write_csv, \
    gram_anchored_inputs
from .meanfield import avg_phi_prod, avg_phi_sq

EXPERIMENT_KINDS = ("phase-diagram", "init-variance", "train-drift", "kappa-curves",
                    "predict-variance")


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
    snapshot_steps: list = field(default_factory=lambda: [0, 10, 100, 1000])
    reference_cov: float = 0.5
    mc_samples: int = 100_000
    train_seeds: int = 0           # >0 adds end-to-end trained-network variance
    seed: int = 0
    threads: int = 1
    out_dir: str = "out"

    @classmethod
    def from_yaml(cls, path) -> "SweepConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as err:
            raise ConfigError(f"cannot parse {path}: {err}") from None
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: dict) -> "SweepConfig":
        """Build a config from a mapping; float fields are read with float(),
        because YAML 1.1 reads a number such as 1e-5 (no dot) as a string."""
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        for key, value in raw.items():
            if fields[key].type in (float, "float"):
                try:
                    raw[key] = float(value)
                except (TypeError, ValueError):
                    raise ConfigError(f"{key} must be a number, got {value!r}") from None
        return cls(**raw)

    def override(self, assignments: Sequence[str]) -> "SweepConfig":
        """Apply key=value overrides (values parsed as YAML scalars/lists)."""
        data = asdict(self)
        for item in assignments:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            if key not in data:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = yaml.safe_load(value)
        return SweepConfig.from_mapping(data)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENT_KINDS}")
        try:
            ActivationKind.from_name(self.activation)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        try:
            for sw in self.sigma_w_sq:
                for sb in self.sigma_b_sq:
                    InitHyper(float(sw), float(sb), self.kind)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"invalid hyperparameter grid: {err}") from None
        if any(int(d) < 1 for d in self.depths):
            raise ConfigError("depths must be >= 1")
        if any(int(m) < 1 for m in self.widths):
            raise ConfigError("widths must be >= 1")
        if any(not 0.0 <= float(c) <= 1.0 for c in self.covariances):
            raise ConfigError("covariances must lie in [0, 1]")
        if self.n_seeds < 2:
            raise ConfigError("n_seeds must be >= 2")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be >= 2")
        if self.train_seeds == 1 or self.train_seeds < 0:
            raise ConfigError("train_seeds must be 0 or >= 2 (a variance over seeds)")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.experiment == "train-drift":
            outside = [t for t in self.snapshot_steps if not 0 <= int(t) <= self.train_steps]
            if outside:
                raise ConfigError(f"snapshot_steps {outside} lie outside "
                                  f"[0, train_steps={self.train_steps}]")
        if (self.experiment == "predict-variance" and self.train_seeds > 0
                and int(self.widths[0]) < self.sample_count + 1):
            # the trained-network inputs are S + 1 points with a prescribed
            # Gram matrix in dimension widths[0]
            raise ConfigError(f"predict-variance with train_seeds > 0 needs "
                              f"widths[0] >= sample_count + 1 = {self.sample_count + 1}, "
                              f"got {self.widths[0]}")

    @property
    def kind(self) -> ActivationKind:
        return ActivationKind.from_name(self.activation)

    def hyper(self, sw: float, sb: float) -> InitHyper:
        return InitHyper(float(sw), float(sb), self.kind)

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, max_steps=self.train_steps)


def cell_seeds(master_seed: int, n_cells: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(n_cells, dtype=np.uint64)


def _run_cells(cells: list, worker: Callable, threads: int) -> Iterator:
    """Yield worker results in input order, each as soon as it and every
    earlier cell are done, so callers can record cells as they finish."""
    if threads <= 1:
        for c in cells:
            yield worker(c)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(worker, cells)


@dataclass
class SweepOutput:
    records: list
    csv_paths: list


def _store(cfg: SweepConfig) -> RecordStore:
    return RecordStore(Path(cfg.out_dir) / "records.jsonl")


def _record(store: RecordStore, kind: str, params: dict, stats: dict,
            seed: int, elapsed: float) -> RunRecord:
    rec = RunRecord(kind=kind, params=params, stats=stats, seed=int(seed),
                    wall_clock_s=round(elapsed, 6), code_version=__version__)
    store.append(rec)
    return rec


# ---------------------------------------------------------------------------
# phase-diagram

def run_phase_diagram(cfg: SweepConfig) -> SweepOutput:
    """chi1 fixed-point values and phase labels over the (sigma_w^2, sigma_b^2) grid."""
    cfg.validate()
    store = _store(cfg)
    cells = [(float(sw), float(sb)) for sb in cfg.sigma_b_sq for sw in cfg.sigma_w_sq]

    def worker(cell):
        sw, sb = cell
        t0 = time.perf_counter()
        label = classify_phase(cfg.hyper(sw, sb))
        return cell, label, time.perf_counter() - t0

    rows, records = [], []
    for (sw, sb), label, elapsed in _run_cells(cells, worker, cfg.threads):
        params = dict(activation=cfg.activation, sigma_w_sq=sw, sigma_b_sq=sb)
        stats = dict(chi1_fixed_point=label.chi1_fixed_point, phase=label.tag.value)
        records.append(_record(store, "phase-diagram", params, stats, cfg.seed, elapsed))
        rows.append([cfg.activation, sw, sb, label.chi1_fixed_point, label.tag.value])
    csv_path = Path(cfg.out_dir) / "phase_diagram.csv"
    write_csv(csv_path, ["activation", "sigma_w_sq", "sigma_b_sq",
                         "chi1_fixed_point", "phase"], rows)
    return SweepOutput(records=records, csv_paths=[csv_path])


# ---------------------------------------------------------------------------
# init-variance

def run_init_variance(cfg: SweepConfig) -> SweepOutput:
    """Kernel variance ratio over (sigma_w^2, depth) plus depth-to-width curves."""
    cfg.validate()
    store = _store(cfg)
    sb = float(cfg.sigma_b_sq[0])
    heat_cells = [(float(sw), int(L), int(M))
                  for M in cfg.widths for L in cfg.depths for sw in cfg.sigma_w_sq]
    seeds = cell_seeds(cfg.seed, len(heat_cells))

    def worker(args):
        (sw, L, M), cell_seed = args
        t0 = time.perf_counter()
        dim = cfg.input_dim or M
        probe = default_probe(dim, int(cell_seed))
        stat = init_variance_ratio(layer_widths(dim, M, L), cfg.hyper(sw, sb),
                                   probe, cfg.n_seeds, seed=int(cell_seed))
        return (sw, L, M), stat, time.perf_counter() - t0

    rows, curve_rows, records = [], [], []
    for (sw, L, M), stat, elapsed in _run_cells(list(zip(heat_cells, seeds)),
                                                worker, cfg.threads):
        params = dict(activation=cfg.activation, sigma_w_sq=sw, sigma_b_sq=sb,
                      depth=L, width=M, n_seeds=cfg.n_seeds)
        stats = dict(ratio=stat.ratio, standard_error=stat.standard_error,
                     mean=stat.mean, n_failed=stat.n_failed)
        records.append(_record(store, "init-variance", params, stats, cfg.seed, elapsed))
        rows.append([cfg.activation, sw, sb, L, M, stat.ratio, stat.standard_error])
        curve_rows.append([cfg.activation, sw, sb, M, L, L / M, stat.ratio])
    heat_path = Path(cfg.out_dir) / "init_variance_heatmap.csv"
    write_csv(heat_path, ["activation", "sigma_w_sq", "sigma_b_sq", "depth",
                          "width", "ratio", "standard_error"], rows)
    curve_path = Path(cfg.out_dir) / "init_variance_lm_curves.csv"
    write_csv(curve_path, ["activation", "sigma_w_sq", "sigma_b_sq", "width",
                           "depth", "depth_over_width", "ratio"], curve_rows)
    return SweepOutput(records=records, csv_paths=[heat_path, curve_path])


# ---------------------------------------------------------------------------
# train-drift

def run_train_drift(cfg: SweepConfig) -> SweepOutput:
    """Final kernel drift and final loss over (sigma_w^2, depth), plus per-step curves.

    A replicate whose loss becomes non-finite is kept: its curve runs up to
    the divergence, and its cell's record has status "diverged", n_diverged
    and the step at which each diverged replicate stopped.  Heatmap columns
    average the replicates that finished (NaN when none did).
    """
    cfg.validate()
    store = _store(cfg)
    sb = float(cfg.sigma_b_sq[0])
    M = int(cfg.widths[0])
    dim = cfg.input_dim or M
    data = synthetic_dataset(cfg.sample_count, dim, seed=cfg.seed)
    cells = [(float(sw), int(L)) for L in cfg.depths for sw in cfg.sigma_w_sq]
    seeds = cell_seeds(cfg.seed, len(cells))
    tc = cfg.train_config()
    snaps = sorted(set(int(t) for t in cfg.snapshot_steps) | {0, cfg.train_steps})

    def worker(args):
        (sw, L), cell_seed = args
        t0 = time.perf_counter()
        reps, divergence_steps = [], []
        for k in range(cfg.n_seeds):
            try:
                reps.append(training_drift(layer_widths(dim, M, L), cfg.hyper(sw, sb),
                                           data.inputs, data.targets, tc,
                                           snapshot_steps=snaps,
                                           seed=int(cell_seed) + k))
            except TrainingDivergenceError as err:
                # a diverging replicate is a result: keep its curve up to the blow-up
                reps.append(err.partial)
                divergence_steps.append(err.step)
        return (sw, L), reps, divergence_steps, time.perf_counter() - t0

    rows, curve_rows, records = [], [], []
    for (sw, L), reps, divergence_steps, elapsed in _run_cells(list(zip(cells, seeds)),
                                                               worker, cfg.threads):
        # the heatmap averages finished replicates only: NaN where none finished
        finished = [r for r in reps if not r.diverged]
        drift, final_loss, initial_loss = (
            float(np.mean([getattr(r, name) for r in finished])) if finished else float("nan")
            for name in ("final_drift", "final_loss", "initial_loss"))
        params = dict(activation=cfg.activation, sigma_w_sq=sw, sigma_b_sq=sb,
                      depth=L, width=M, sample_count=cfg.sample_count,
                      learning_rate=cfg.learning_rate, steps=cfg.train_steps,
                      n_seeds=cfg.n_seeds)
        stats = dict(status="diverged" if divergence_steps else "ok",
                     n_diverged=len(divergence_steps), divergence_steps=divergence_steps,
                     final_drift=drift, final_loss=final_loss, initial_loss=initial_loss)
        records.append(_record(store, "train-drift", params, stats, cfg.seed, elapsed))
        rows.append([cfg.activation, sw, sb, L, M, drift, final_loss, initial_loss])
        for rep_idx, rep in enumerate(reps):
            for step, rel in zip(rep.steps, rep.rel_change):
                curve_rows.append([cfg.activation, sw, sb, L, M, rep_idx,
                                   int(step), float(rel)])
    heat_path = Path(cfg.out_dir) / "train_drift_heatmap.csv"
    write_csv(heat_path, ["activation", "sigma_w_sq", "sigma_b_sq", "depth", "width",
                          "final_drift", "final_loss", "initial_loss"], rows)
    curve_path = Path(cfg.out_dir) / "train_drift_curves.csv"
    write_csv(curve_path, ["activation", "sigma_w_sq", "sigma_b_sq", "depth", "width",
                           "replicate", "step", "rel_change"], curve_rows)
    return SweepOutput(records=records, csv_paths=[heat_path, curve_path])


# ---------------------------------------------------------------------------
# kappa-curves

def run_kappa_curves(cfg: SweepConfig) -> SweepOutput:
    """kappa2(L) and kappa1/kappa2(L) for the configured covariances and hypers."""
    cfg.validate()
    store = _store(cfg)
    rows, records = [], []
    covs = np.asarray(cfg.covariances, dtype=float)
    for sw in cfg.sigma_w_sq:
        for sb in cfg.sigma_b_sq:
            hyper = cfg.hyper(sw, sb)
            t0 = time.perf_counter()
            # one trace per depth carries every covariance
            pairs = [compute_kappas(run_trace(hyper, int(L), q0=1.0, q0_sr=covs))
                     for L in cfg.depths]
            for k, c0 in enumerate(covs):
                for L, pair in zip(cfg.depths, pairs):
                    kappa2 = float(pair.kappa2[k])
                    ratio = pair.kappa1 / kappa2 if kappa2 else float("inf")
                    rows.append([cfg.activation, float(sw), float(sb), float(c0),
                                 int(L), pair.kappa1, kappa2, ratio])
            params = dict(activation=cfg.activation, sigma_w_sq=float(sw),
                          sigma_b_sq=float(sb), covariances=list(cfg.covariances),
                          depths=[int(d) for d in cfg.depths])
            records.append(_record(store, "kappa-curves", params,
                                   dict(rows=len(cfg.covariances) * len(cfg.depths)),
                                   cfg.seed, time.perf_counter() - t0))
    csv_path = Path(cfg.out_dir) / "kappa_curves.csv"
    write_csv(csv_path, ["activation", "sigma_w_sq", "sigma_b_sq", "covariance",
                         "depth", "kappa1", "kappa2", "kappa_ratio"], rows)
    return SweepOutput(records=records, csv_paths=[csv_path])


# ---------------------------------------------------------------------------
# predict-variance

def _trained_outputs(hyper: InitHyper, depth: int, m_width: int, s: int,
                     c0: float, tc: TrainConfig, n_nets: int,
                     seed: int) -> tuple[np.ndarray, list]:
    """Outputs on a held-out point of n_nets trained finite networks, and
    their training logs.

    The training inputs and the test point all share the layer-0 covariance
    c0, realized exactly through a Gram-anchored input construction.
    """
    kind = hyper.activation
    q_hat0 = avg_phi_sq(kind, 1.0)
    q_hat0_sr = avg_phi_prod(kind, 1.0, 1.0, c0)
    dim = m_width
    gram = np.full((s + 1, s + 1), dim * q_hat0_sr)
    np.fill_diagonal(gram, dim * q_hat0)
    points = gram_anchored_inputs(gram, dim, seed=seed)
    x_test, x_train = points[0], points[1:]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x7a11))))
    y = rng.uniform(0.0, 1.0, size=s)
    outs = np.empty(n_nets)
    logs = []
    for k in range(n_nets):
        net = init(layer_widths(dim, m_width, depth), hyper, seed + 1000 + k)
        logs.append(train_full_batch(net, x_train, y, tc))
        out, _ = forward_batch(net, x_test[None, :])
        outs[k] = out[0]
    return outs, logs


def run_predict_variance(cfg: SweepConfig) -> SweepOutput:
    """Data-independent trained-output variance against the exact u^T K u and
    its Monte-Carlo estimate (and, when train_seeds > 0, against end-to-end
    trained wide networks)."""
    cfg.validate()
    store = _store(cfg)
    sb = float(cfg.sigma_b_sq[0])
    M = int(cfg.widths[0])
    s = int(cfg.sample_count)
    c0 = float(cfg.reference_cov)
    cells = [(float(sw), int(L)) for sw in cfg.sigma_w_sq for L in cfg.depths]
    rows, records = [], []
    for (sw, L), cell_seed in zip(cells, cell_seeds(cfg.seed, len(cells))):
        hyper = cfg.hyper(sw, sb)
        t0 = time.perf_counter()
        # every pair, the test point included, shares the reference
        # covariance, so one trace gives kbar1/kbar2, qbar^L and qbar_sr^L
        ref_trace = run_trace(hyper, L, q0=1.0, q0_sr=c0)
        kbars = compute_kappas(ref_trace)
        q_bar, q_bar_sr = float(ref_trace.q[L]), float(ref_trace.q_sr[L])
        pred = predict_variance(kbars, q_bar, q_bar_sr, s)

        cov0 = np.full((s, s), c0)
        np.fill_diagonal(cov0, 1.0)
        theta = theta_star_matrix(hyper, L, cov0, M, reference_cov=c0)
        joint_cov0 = np.full((s + 1, s + 1), c0)
        np.fill_diagonal(joint_cov0, 1.0)
        joint = nngp_matrix(hyper, L, joint_cov0)
        theta_x = np.full(s, theta.scale * kbars.kappa2 + kbars.p_sum_cross)
        var = trained_output_variance(theta, joint, theta_x, cfg.mc_samples,
                                      seed=int(cell_seed))
        stats = dict(A=pred.A, predicted=pred.variance, exact=var.exact,
                     mc=var.mc_variance, mc_se=var.mc_standard_error,
                     rel_gap=abs(pred.variance - var.exact) / var.exact,
                     spd_jitter=var.jitter)
        trained = trained_se = ""
        if cfg.train_seeds > 0:
            outs, logs = _trained_outputs(hyper, L, M, s, c0, cfg.train_config(),
                                          cfg.train_seeds, cfg.seed)
            trained = float(np.var(outs, ddof=1))
            trained_se = trained * math.sqrt(2.0 / (len(outs) - 1))
            stats.update(trained=trained, trained_se=trained_se,
                         stop_reasons=dict(Counter(log.stop_reason for log in logs)),
                         median_final_loss=float(np.median([log.losses[-1] for log in logs])))
        params = dict(activation=cfg.activation, sigma_w_sq=sw,
                      sigma_b_sq=sb, depth=L, width=M, sample_count=s,
                      reference_cov=c0, mc_samples=cfg.mc_samples)
        records.append(_record(store, "predict-variance", params, stats,
                               cfg.seed, time.perf_counter() - t0))
        rows.append([cfg.activation, sw, sb, L, M, s, pred.A, pred.variance,
                     var.exact, var.mc_variance, var.mc_standard_error,
                     trained, trained_se])
    csv_path = Path(cfg.out_dir) / "predict_variance.csv"
    write_csv(csv_path, ["activation", "sigma_w_sq", "sigma_b_sq", "depth", "width",
                         "sample_count", "A", "predicted_variance", "exact_variance",
                         "mc_variance", "mc_standard_error", "trained_variance",
                         "trained_standard_error"], rows)
    return SweepOutput(records=records, csv_paths=[csv_path])


RUNNERS = {
    "phase-diagram": run_phase_diagram,
    "init-variance": run_init_variance,
    "train-drift": run_train_drift,
    "kappa-curves": run_kappa_curves,
    "predict-variance": run_predict_variance,
}


def run_experiment(cfg: SweepConfig) -> SweepOutput:
    cfg.validate()
    return RUNNERS[cfg.experiment](cfg)
