"""The benchmark's three workloads: their inputs, operations and output checks.

A workload is prepared from one seed (input generation and config
validation, the set-up that setup_s times), then runs a fixed list of
operations: CLI sweeps through ntklab.cli.main, which count toward sweep_s,
and infinite-width kernel builds through the public API, which count toward
theta_star_s.  check() tests every operation that did not fail against
reference.py or against a property the method must have.

Program calls go through module attributes (`p.ntk_theory.theta_star_matrix`)
at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference

WIDTH = 64      # hidden width M and input dimension of every network
THREADS = "1"   # CLI --threads on every sweep


@dataclass
class Result:
    failed: bool
    value: Any = None
    detail: str = ""


@dataclass
class Op:
    name: str
    metric: str                      # "sweep_s" or "theta_star_s"
    run: Callable[[Path], Result]


@dataclass
class Plan:
    """Inputs of one round, all made from its seed."""

    seed: int
    argv: dict = field(default_factory=dict)      # op name -> CLI arguments
    samples: dict = field(default_factory=dict)   # sample name -> layer-0 covariances


def _sets(**fields) -> list[str]:
    out = []
    for key, value in fields.items():
        out += ["--set", f"{key}={json.dumps(value)}"]
    return out


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(actual, expected, rtol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    atol = rtol * float(np.max(np.abs(expected))) * 1e-3
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= rtol * np.abs(expected) + atol))


def _unit_sample(p, count: int, seed: int) -> np.ndarray:
    """Layer-0 covariances of `count` unit-norm synthetic inputs."""
    x = p.data_io.synthetic_dataset(count, WIDTH, seed=seed).inputs
    return x @ x.T


class Workload:
    name = ""

    def __init__(self, program):
        self.p = program

    # -- inputs -------------------------------------------------------------

    def prepare(self, seed: int) -> Plan:
        raise NotImplementedError

    def validate(self, plan: Plan) -> None:
        """Config validation as the CLI does it; raises ConfigError."""
        cli = self.p.cli
        for argv in plan.argv.values():
            cli.load_config(cli.build_parser().parse_args(argv))

    # -- operations ---------------------------------------------------------

    def ops(self, plan: Plan) -> list[Op]:
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> Callable[[Path], Result]:
        def run(out: Path) -> Result:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.p.cli.main(argv + ["--out-dir", str(out)])
            return Result(failed=rc != 0, value=out, detail=f"exit {rc}: {err.getvalue().strip()}")
        return run

    def _kernels(self, cells, activation: str, cov0) -> Callable[[Path], Result]:
        """Theta*(X) and K(X) for each (sigma_w^2, sigma_b^2, depth) cell."""
        def run(out: Path) -> Result:
            p = self.p
            kind = p.activations.ActivationKind.from_name(activation)
            value = {}
            for sw, sb, depth in cells:
                hyper = p.meanfield.InitHyper(sw, sb, kind)
                theta = p.ntk_theory.theta_star_matrix(hyper, depth, cov0, WIDTH)
                k = p.ntk_theory.nngp_matrix(hyper, depth, cov0)
                value[(sw, sb, depth)] = (np.asarray(theta.matrix), np.asarray(k.matrix))
            return Result(failed=False, value=value)
        return run

    # -- checks -------------------------------------------------------------

    def check(self, plan: Plan, results: dict, full: bool) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def _check_relu(kernels: dict, cov0: np.ndarray) -> list[str]:
        """Every Theta* and K entry against the vectorised arc-cosine recursion."""
        errors = []
        n = cov0.shape[0]
        iu = np.triu_indices(n, 1)
        for (sw, sb, depth), (theta, k) in kernels.items():
            ref = reference.relu_kernels(sw, sb, depth, cov0[iu], WIDTH)
            for label, got, diag, off in (("Theta*", theta, ref.theta_diag, ref.theta_off),
                                          ("K", k, ref.k_diag, ref.k_off)):
                want = np.empty((n, n))
                want[iu] = off
                want.T[iu] = off
                np.fill_diagonal(want, diag)
                if not _close(got, want, 1e-9):
                    errors.append(f"ReLU {label} at sw={sw} sb={sb} L={depth} differs from "
                                  f"the arc-cosine recursion (max rel "
                                  f"{np.max(np.abs(got / want - 1.0)):.3e})")
        return errors

    @staticmethod
    def _check_spd(kernels: dict) -> list[str]:
        errors = []
        for cell, mats in kernels.items():
            for label, m in zip(("Theta*", "K"), mats):
                if not np.array_equal(m, m.T):
                    errors.append(f"{label} at {cell} is not symmetric")
                    continue
                try:
                    np.linalg.cholesky(m)
                except np.linalg.LinAlgError:
                    errors.append(f"{label} at {cell} is not positive definite")
        return errors


# ---------------------------------------------------------------------------

class InitVariance(Workload):
    """Theta^0(x,x) variance ratio over ordered, EOC and chaotic sigma_w^2."""

    name = "init-variance"
    SIGMA_W_SQ = (1.0, 2.0, 2.5, 3.0)
    SIGMA_B_SQ = 1.0
    DEPTHS = (2, 8, 32)
    N_SEEDS = 100
    PROBES = 24          # points of the infinite-width reference sample
    NEAR_ONE = 1.25      # sigma_w^2 = 1 ratios stay at or below this
    SEPARATION = 5.0     # chaotic minus ordered ratio, in ordered-cell SEs

    def prepare(self, seed):
        plan = Plan(seed)
        plan.argv["sweep"] = ["init-variance", "--threads", THREADS, "--seed", str(seed)] + _sets(
            sigma_w_sq=list(self.SIGMA_W_SQ), sigma_b_sq=[self.SIGMA_B_SQ],
            depths=list(self.DEPTHS), widths=[WIDTH], n_seeds=self.N_SEEDS)
        self.validate(plan)
        plan.samples["probes"] = _unit_sample(self.p, self.PROBES, seed)
        return plan

    def _cells(self):
        return [(sw, self.SIGMA_B_SQ, L) for L in self.DEPTHS for sw in self.SIGMA_W_SQ]

    def ops(self, plan):
        return [Op("sweep", "sweep_s", self._cli(plan.argv["sweep"])),
                Op("theory", "theta_star_s",
                   self._kernels(self._cells(), "relu", plan.samples["probes"]))]

    def check(self, plan, results, full):
        errors = []
        sweep = results["sweep"]
        if not sweep.failed:
            errors += self._check_sweep(sweep.value)
        theory = results["theory"]
        if not theory.failed:
            errors += self._check_relu(theory.value, plan.samples["probes"])
        return errors

    def _check_sweep(self, out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "init_variance_heatmap.csv")
        cells = {(float(r["sigma_w_sq"]), int(r["depth"])):
                 (float(r["ratio"]), float(r["standard_error"])) for r in rows}
        want = {(sw, L) for sw, _, L in self._cells()}
        if set(cells) != want or len(rows) != len(want):
            return [f"init-variance heatmap holds cells {sorted(cells)}, expected {sorted(want)}"]
        records = _read_records(out / "records.jsonl")
        if len(records) != len(want):
            errors.append(f"init-variance wrote {len(records)} records for {len(want)} cells")
        for rec in records:
            if rec["stats"].get("n_failed") != 0:
                errors.append(f"init-variance dropped seeds at {rec['params']}")
        for (sw, L), (ratio, se) in sorted(cells.items()):
            if not ratio >= 1.0 - 1e-12:
                errors.append(f"ratio {ratio} < 1 at sw={sw} L={L}")
            if not (math.isfinite(se) and se > 0.0):
                errors.append(f"standard error {se} not finite and positive at sw={sw} L={L}")
            if sw == 1.0 and not ratio <= self.NEAR_ONE:
                errors.append(f"ordered ratio {ratio} above {self.NEAR_ONE} at L={L}")
        deep = max(self.DEPTHS)
        r1, se1 = cells[(1.0, deep)]
        for sw in self.SIGMA_W_SQ:
            if sw > 2.0:
                ratio, _ = cells[(sw, deep)]
                if not ratio - r1 > self.SEPARATION * se1:
                    errors.append(f"chaotic ratio {ratio} at sw={sw} L={deep} does not exceed "
                                  f"the sw=1 ratio {r1} by {self.SEPARATION} SE ({se1})")
        return errors


# ---------------------------------------------------------------------------

class TrainDrift(Workload):
    """Kernel drift under full-batch gradient descent, plus one diverging cell."""

    name = "train-drift"
    SIGMA_W_SQ = (1.0, 2.0, 2.5)
    SIGMA_B_SQ = 1.0
    DEPTHS = (2, 8, 16)
    SAMPLES = 128
    N_SEEDS = 2
    STEPS = 100
    SNAPSHOTS = (0, 10, 50, 100)
    # The CLI default; not passed with --set, because YAML reads "1e-05" as a string.
    LEARNING_RATE = 1e-5
    # The chaotic cell fails on every seed; it runs on a fixed seed so that it
    # fails the same way in every round.
    CHAOTIC = dict(sigma_w_sq=[3.0], depths=[32])
    CHAOTIC_SEED = 0
    THEORY_CELL = (2.0, 1.0, 4)   # EOC sigma_w^2

    def _argv(self, seed: int, **grid) -> list[str]:
        return ["train-drift", "--threads", THREADS, "--seed", str(seed)] + _sets(
            sigma_b_sq=[self.SIGMA_B_SQ], widths=[WIDTH], sample_count=self.SAMPLES,
            n_seeds=self.N_SEEDS, train_steps=self.STEPS,
            snapshot_steps=list(self.SNAPSHOTS), **grid)

    def prepare(self, seed):
        plan = Plan(seed)
        plan.argv["sweep"] = self._argv(seed, sigma_w_sq=list(self.SIGMA_W_SQ),
                                        depths=list(self.DEPTHS))
        plan.argv["chaotic"] = self._argv(self.CHAOTIC_SEED, **self.CHAOTIC)
        self.validate(plan)
        plan.samples["train"] = _unit_sample(self.p, self.SAMPLES, seed)
        return plan

    def ops(self, plan):
        chaotic = self._cli(plan.argv["chaotic"])

        def run_chaotic(out: Path) -> Result:
            res = chaotic(out)
            sw, depth = self.CHAOTIC["sigma_w_sq"][0], self.CHAOTIC["depths"][0]
            recorded = any(r["params"].get("sigma_w_sq") == sw and r["params"].get("depth") == depth
                           for r in _read_records(out / "records.jsonl"))
            if not recorded:
                res.failed = True
                res.detail += "; no record for the cell"
            return res

        return [Op("sweep", "sweep_s", self._cli(plan.argv["sweep"])),
                Op("chaotic", "sweep_s", run_chaotic),
                Op("theory", "theta_star_s",
                   self._kernels([self.THEORY_CELL], "relu", plan.samples["train"]))]

    def check(self, plan, results, full):
        errors = []
        sweep = results["sweep"]
        if not sweep.failed:
            errors += self._check_sweep(sweep.value)
            if full:
                errors += self._check_replay(plan, sweep.value)
        theory = results["theory"]
        if not theory.failed:
            errors += self._check_relu(theory.value, plan.samples["train"])
        return errors

    def _check_sweep(self, out: Path) -> list[str]:
        errors = []
        heat = {(float(r["sigma_w_sq"]), int(r["depth"])): r
                for r in _read_csv(out / "train_drift_heatmap.csv")}
        want = {(sw, L) for L in self.DEPTHS for sw in self.SIGMA_W_SQ}
        if set(heat) != want:
            return [f"train-drift heatmap holds cells {sorted(heat)}, expected {sorted(want)}"]
        for (sw, L), r in sorted(heat.items()):
            if not float(r["final_loss"]) < float(r["initial_loss"]):
                errors.append(f"final loss {r['final_loss']} not below initial "
                              f"{r['initial_loss']} at sw={sw} L={L}")
        lo, hi = min(self.DEPTHS), max(self.DEPTHS)
        for sw in self.SIGMA_W_SQ:
            shallow = float(heat[(sw, lo)]["final_drift"])
            deep = float(heat[(sw, hi)]["final_drift"])
            if not deep > shallow:
                errors.append(f"drift at L={hi} ({deep}) not above L={lo} ({shallow}) at sw={sw}")
        curves = self._read_curves(out)
        if len(curves) != len(want) * self.N_SEEDS:
            errors.append(f"train-drift curves hold {len(curves)} replicates")
        for key, points in sorted(curves.items()):
            if points[0] != (0, 0.0):
                errors.append(f"drift at step 0 is {points[0]} for {key}")
            if not all(math.isfinite(v) for _, v in points[1:]) or len(points) < 2:
                errors.append(f"non-finite or missing drift snapshots for {key}")
        return errors

    @staticmethod
    def _read_curves(out: Path) -> dict:
        """(sigma_w^2, depth, replicate) -> [(step, drift), ...] in file order."""
        curves = {}
        for r in _read_csv(out / "train_drift_curves.csv"):
            key = (float(r["sigma_w_sq"]), int(r["depth"]), int(r["replicate"]))
            curves.setdefault(key, []).append((int(r["step"]), float(r["rel_change"])))
        return curves

    def _check_replay(self, plan: Plan, out: Path) -> list[str]:
        """Replay one replicate with plain NumPy from the same init weights."""
        p = self.p
        cells = [(sw, L) for L in self.DEPTHS for sw in self.SIGMA_W_SQ]
        idx = plan.seed % len(cells)
        rep = (plan.seed // len(cells)) % self.N_SEEDS
        sw, L = cells[idx]
        seed = int(p.sweeps.cell_seeds(plan.seed, len(cells))[idx]) + rep
        hyper = p.meanfield.InitHyper(sw, self.SIGMA_B_SQ, p.activations.ActivationKind.RELU)
        net = p.finite_net.init(p.finite_net.layer_widths(WIDTH, WIDTH, L), hyper, seed)
        data = p.data_io.synthetic_dataset(self.SAMPLES, WIDTH, seed=plan.seed)
        curve = dict(self._read_curves(out).get((sw, L, rep), []))
        if not curve:
            return [f"no drift curve for replicate {rep} of sw={sw} L={L}"]
        drift = reference.replay_drift(net.weights, net.biases, data.inputs, data.targets,
                                       self.LEARNING_RATE, max(curve), self.SNAPSHOTS)
        if sorted(drift) != sorted(curve):
            return [f"replayed snapshot steps {sorted(drift)} != {sorted(curve)}"]
        steps = sorted(curve)
        if not _close([curve[t] for t in steps], [drift[t] for t in steps], 1e-6):
            return [f"drift of replicate {rep} at sw={sw} L={L} {curve} differs from the "
                    f"plain-NumPy replay {drift}"]
        return []


# ---------------------------------------------------------------------------

class InfiniteWidth(Workload):
    """Mean-field theory: phase diagram, kappa curves, trained-output variance,
    and Theta*/K of samples whose pairwise covariances are all distinct."""

    name = "infinite-width"
    PV_SIGMA_W_SQ = (1.0, 2.0, 3.0)
    PV_DEPTHS = (4, 32)
    PV_SAMPLES = 128          # predict-variance default sample_count
    PV_MC_SAMPLES = 50_000
    RELU_CELL = (2.0, 1.0, 16)
    RELU_SAMPLES = 64
    TANH_CELL = (1.5, 0.1, 16)
    TANH_SAMPLES = 24
    MC_SIGMAS = 5.0           # |mc - exact| bound in mc_standard_error
    TANH_RTOL = 1e-7          # 64-node Gauss-Hermite against adaptive quadrature

    def prepare(self, seed):
        plan = Plan(seed)
        base = ["--threads", THREADS, "--seed", str(seed)]
        plan.argv["phase-diagram"] = ["phase-diagram"] + base
        plan.argv["kappa-curves"] = ["kappa-curves"] + base
        plan.argv["predict-variance"] = ["predict-variance"] + base + _sets(
            sigma_w_sq=list(self.PV_SIGMA_W_SQ), depths=list(self.PV_DEPTHS),
            widths=[WIDTH], sample_count=self.PV_SAMPLES, mc_samples=self.PV_MC_SAMPLES)
        self.validate(plan)
        plan.samples["relu"] = _unit_sample(self.p, self.RELU_SAMPLES, seed)
        plan.samples["tanh"] = _unit_sample(self.p, self.TANH_SAMPLES, seed)
        return plan

    def ops(self, plan):
        ops = [Op(name, "sweep_s", self._cli(plan.argv[name]))
               for name in ("phase-diagram", "kappa-curves", "predict-variance")]
        ops.append(Op("theta-relu", "theta_star_s",
                      self._kernels([self.RELU_CELL], "relu", plan.samples["relu"])))
        ops.append(Op("theta-tanh", "theta_star_s",
                      self._kernels([self.TANH_CELL], "tanh", plan.samples["tanh"])))
        return ops

    def check(self, plan, results, full):
        errors = []
        checks = {"phase-diagram": self._check_phase, "kappa-curves": self._check_kappa,
                  "predict-variance": self._check_variance}
        for name, fn in checks.items():
            if not results[name].failed:
                errors += fn(results[name].value)
        relu = results["theta-relu"]
        if not relu.failed:
            errors += self._check_relu(relu.value, plan.samples["relu"])
            errors += self._check_spd(relu.value)
        tanh = results["theta-tanh"]
        if not tanh.failed:
            errors += self._check_spd(tanh.value)
            if full:
                errors += self._check_tanh(plan, tanh.value)
        return errors

    @staticmethod
    def _check_phase(out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "phase_diagram.csv")
        if not rows:
            return ["phase diagram is empty"]
        for r in rows:
            sw, chi = float(r["sigma_w_sq"]), float(r["chi1_fixed_point"])
            if r["activation"] != "relu" or not math.isclose(chi, sw / 2.0, rel_tol=1e-12):
                errors.append(f"ReLU chi1 {chi} != sigma_w^2/2 at sw={sw}")
            want = "ordered" if sw < 2.0 else "chaotic" if sw > 2.0 else "eoc"
            if r["phase"] != want:
                errors.append(f"phase {r['phase']} at sw={sw}, expected {want}")
        return errors

    @staticmethod
    def _check_kappa(out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "kappa_curves.csv")
        if not rows:
            return ["kappa curves are empty"]
        for r in rows:
            sw, sb, c0, L = (float(r["sigma_w_sq"]), float(r["sigma_b_sq"]),
                             float(r["covariance"]), int(r["depth"]))
            ref = reference.relu_kernels(sw, sb, L, c0, WIDTH)
            got = [float(r["kappa1"]), float(r["kappa2"]), float(r["kappa_ratio"])]
            want = [ref.kappa1, float(ref.kappa2), ref.kappa1 / float(ref.kappa2)]
            if not _close(got, want, 1e-9):
                errors.append(f"kappa1, kappa2, ratio {got} != {want} at sw={sw} c0={c0} L={L}")
        return errors

    def _check_variance(self, out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "predict_variance.csv")
        if len(rows) != len(self.PV_SIGMA_W_SQ) * len(self.PV_DEPTHS):
            return [f"predict-variance holds {len(rows)} cells"]
        for r in rows:
            sw, sb, L, s = (float(r["sigma_w_sq"]), float(r["sigma_b_sq"]), int(r["depth"]),
                            int(r["sample_count"]))
            ref = reference.relu_kernels(sw, sb, L, 0.5, WIDTH)
            k2, t_off, k_off = float(ref.kappa2), float(ref.theta_off), float(ref.k_off)
            a, pred = reference.data_independent_variance(ref.kappa1, k2, ref.k_diag, k_off, s)
            if not _close([float(r["A"]), float(r["predicted_variance"])], [a, pred], 1e-9):
                errors.append(f"A, predicted {r['A']}, {r['predicted_variance']} != {a}, {pred} "
                              f"at sw={sw} L={L}")
            exact = reference.exact_trained_variance(ref.theta_diag, t_off, ref.k_diag, k_off, s)
            mc, se = float(r["mc_variance"]), float(r["mc_standard_error"])
            if not abs(mc - exact) <= self.MC_SIGMAS * se:
                errors.append(f"mc_variance {mc} is {abs(mc - exact) / se:.1f} SE from the exact "
                              f"u^T K u {exact} at sw={sw} L={L}")
        return errors

    def _check_tanh(self, plan: Plan, kernels: dict) -> list[str]:
        """One seed-chosen pair and the diagonal against adaptive quadrature."""
        cov0 = plan.samples["tanh"]
        n = cov0.shape[0]
        rng = np.random.default_rng(plan.seed)
        s, r = sorted(rng.choice(n, size=2, replace=False).tolist())
        sw, sb, L = self.TANH_CELL
        theta, k = kernels[self.TANH_CELL]
        ref = reference.tanh_kernels(sw, sb, L, float(cov0[s, r]), WIDTH)
        got = [theta[s, r], k[s, r], theta[s, s], k[s, s]]
        want = [float(ref.theta_off), float(ref.k_off), ref.theta_diag, ref.k_diag]
        if not _close(got, want, self.TANH_RTOL):
            return [f"tanh Theta*/K entries {got} at ({s}, {r}) != quadrature {want}"]
        return []


WORKLOADS = {w.name: w for w in (InitVariance, TrainDrift, InfiniteWidth)}


def run_op(op: Op, out: Path) -> Result:
    """Run one operation; an exception from the program counts as a failure."""
    try:
        return op.run(out)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        return Result(failed=True, detail=traceback.format_exc(limit=3))
