import csv
import importlib
import inspect
import json
import math
import multiprocessing
import os
import pickle
import pkgutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ntklab
from ntklab import finite_net, sweeps
from ntklab.activations import ActivationKind
from ntklab.cli import build_parser, load_config, main
from ntklab.data_io import IdxFormatError, RecordStore, _csv_cell, code_identity
from ntklab.empirical_ntk import training_drift
from ntklab.meanfield import CorrelationDomainError, FixedPointDivergenceError, InitHyper, \
    MeanFieldError, SignalOverflowError
from ntklab.ntk_theory import IllConditionedError, _numpy_openblas_threads, predict_variance, \
    sample_index, sample_kernels, trained_output_variance
from ntklab.sweeps import EXPERIMENT_KINDS, ConfigError, SweepConfig, grid
from oracles import data_independent_kappas, equicorrelated_trained_variance, \
    reference_sums, reference_train_full_batch

SRC = Path(__file__).resolve().parents[1] / "src"


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _run(argv, out):
    return main(argv + ["--out-dir", str(out)])


@pytest.fixture(autouse=True)
def no_stray_processes():
    """No worker process outlives the test that started it."""
    yield
    assert multiprocessing.active_children() == []


class TestValidation:
    def test_predict_variance_rejects_too_few_dimensions_for_trained_nets(self, tmp_path):
        out = tmp_path / "out"
        # default widths [64] cannot hold sample_count + 1 = 129 Gram-anchored points
        assert _run(["predict-variance", "--set", "train_seeds=2"], out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["init-variance", "train-drift"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_rejects_input_dim_below_one(self, tmp_path, capsys, experiment, value):
        # 0 ran at dimension M, -2 failed with a NumPy error after the run began
        out = tmp_path / "out"
        assert _run([experiment, "--set", f"input_dim={value}"], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "input_dim" in err
        assert not out.exists()

    def test_predict_variance_accepts_enough_dimensions(self):
        cfg = SweepConfig(experiment="predict-variance", train_seeds=2,
                          widths=[9], sample_count=8)
        cfg.validate()

    @pytest.mark.parametrize("key, value", [("train_seeds", 1), ("train_seeds", -1),
                                            ("mc_samples", 1)])
    def test_variance_over_one_draw_rejected(self, key, value):
        cfg = SweepConfig(experiment="predict-variance", widths=[9], sample_count=8,
                          **{key: value})
        with pytest.raises(ConfigError, match=key):
            cfg.validate()

    def test_init_variance_needs_three_seeds_for_an_error_bar(self, tmp_path, capsys):
        # two replicates ran and reported a ratio with a rounding-level error bar
        out = tmp_path / "out"
        argv = ["init-variance", "--set", "depths=[2]", "--set", "sigma_w_sq=[2.0]",
                "--set", "widths=[4]", "--set", "n_seeds=2", "--set", "input_dim=3"]
        assert _run(argv, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "n_seeds" in err
        assert not out.exists()
        SweepConfig(experiment="init-variance", n_seeds=3).validate()
        # train-drift replicates need no error bar
        SweepConfig(experiment="train-drift", n_seeds=2).validate()

    def test_snapshot_steps_outside_training_rejected(self, tmp_path):
        cfg = SweepConfig(experiment="train-drift", train_steps=20,
                          snapshot_steps=[0, 10, 100])
        with pytest.raises(ConfigError, match="snapshot_steps"):
            cfg.validate()
        with pytest.raises(ConfigError, match="snapshot_steps"):
            SweepConfig(experiment="train-drift", snapshot_steps=[-1, 0]).validate()
        # a list set by hand is checked even when it equals the defaults
        with pytest.raises(ConfigError, match="snapshot_steps"):
            SweepConfig(experiment="train-drift", train_steps=20,
                        snapshot_steps=list(sweeps.DEFAULT_SNAPSHOT_STEPS)).validate()
        out = tmp_path / "out"
        assert _run(["train-drift", "--set", "train_steps=20",
                     "--set", "snapshot_steps=[0,100]"], out) == 1
        assert not out.exists()

    def test_default_snapshot_steps_fit_default_training(self):
        cfg = SweepConfig(experiment="train-drift")
        cfg.validate()
        assert cfg.snapshots() == [0, 10, 100, 1000, 2000]
        # one default, training_drift's, serves the sweep
        default = inspect.signature(training_drift).parameters["snapshot_steps"].default
        assert sweeps.DEFAULT_SNAPSHOT_STEPS is default == (0, 10, 100, 1000)

    def test_default_snapshot_steps_are_cut_to_short_training(self, tmp_path):
        cfg = SweepConfig(experiment="train-drift", train_steps=20)
        cfg.validate()
        assert cfg.snapshots() == [0, 10, 20]
        out = tmp_path / "out"
        argv = ["train-drift", "--set", "n_seeds=2", "--set", "train_steps=20",
                "--set", "sigma_w_sq=[1.0]", "--set", "depths=[2]", "--set", "sample_count=8"]
        assert _run(argv, out) == 0
        assert {int(r["step"]) for r in _rows(out / "train_drift_curves.csv")} == {0, 10, 20}
        (rec,) = RecordStore(out / "records.jsonl")
        assert rec.stats["stop_reasons"] == {"max_steps": 2}

    def test_float_overrides_read_as_numbers(self):
        # YAML 1.1 reads 1e-5 (no dot) as the string "1e-5"
        cfg = SweepConfig().override(["learning_rate=1e-5", "reference_cov=3e-1"])
        assert cfg.learning_rate == 1e-5 and isinstance(cfg.learning_rate, float)
        assert cfg.reference_cov == 0.3 and isinstance(cfg.reference_cov, float)

    def test_non_numeric_float_override_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rate"):
            SweepConfig().override(["learning_rate=fast"])
        with pytest.raises(ConfigError, match="reference_cov"):
            SweepConfig().override(["reference_cov=[0.5]"])
        out = tmp_path / "out"
        assert _run(["train-drift", "--set", "learning_rate=fast"], out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["train-drift", "--set", "widths=[]", "--set", "n_seeds=2", "--set", "train_steps=10",
          "--set", "snapshot_steps=[0]"], "widths"),
        (["predict-variance", "--set", "sample_count=0", "--set", "depths=[2]",
          "--set", "sigma_w_sq=[2.0]"], "sample_count"),
        (["phase-diagram", "--set", "sigma_w_sq=[]"], "sigma_w_sq"),
        (["init-variance", "--set", "sigma_b_sq=[]"], "sigma_b_sq"),
        (["kappa-curves", "--set", "depths=[]"], "depths"),
        (["kappa-curves", "--set", "covariances=[]"], "covariances"),
        (["train-drift", "--set", "train_steps=-1"], "train_steps"),
        (["train-drift", "--set", "learning_rate=-0.001"], "learning_rate"),
        (["predict-variance", "--set", "reference_cov=1.5"], "reference_cov"),
        (["predict-variance", "--set", "reference_cov=-0.1"], "reference_cov"),
        (["kappa-curves", "--set", "sigma_w_sq=[2.0]", "--set", "depths=[2.5,3.9]"], "depths"),
        (["init-variance", "--set", "widths=[8,16.5]", "--set", "n_seeds=2"], "widths"),
        (["train-drift", "--set", "snapshot_steps=[0,2.7]", "--set", "train_steps=3",
          "--set", "n_seeds=2", "--set", "sample_count=8"], "snapshot_steps"),
        # every width must hold the trained networks' sample_count + 1 points
        (["predict-variance", "--set", "train_seeds=2", "--set", "widths=[9,4]",
          "--set", "sample_count=8"], "widths"),
    ])
    def test_infeasible_grid_is_a_config_error(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert _run(argv, out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and key in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-drift", "--set", "widths=[8,16]", "--set", "n_seeds=2",
         "--set", "train_steps=3", "--set", "sample_count=8"],
        ["train-drift", "--set", "sigma_b_sq=[0.5,1.0]", "--set", "n_seeds=2",
         "--set", "train_steps=3", "--set", "sample_count=8"],
        ["predict-variance", "--set", "widths=[9,16]", "--set", "sample_count=8"],
        ["predict-variance", "--set", "sigma_b_sq=[0.5,1.0]", "--set", "sample_count=8"],
        ["init-variance", "--set", "sigma_b_sq=[0.5,1.0]", "--set", "n_seeds=3"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2].partition('=')[0]}")
    def test_every_value_of_a_multi_valued_axis_runs(self, tmp_path, argv):
        cfg = load_config(build_parser().parse_args(argv))
        coords = sweeps.SWEEPS[argv[0]].coords
        out = tmp_path / "out"
        assert _run(argv, out) == 0
        records = list(RecordStore(out / "records.jsonl"))
        assert [tuple(r.params[k] for k in coords) for r in records] == grid(cfg)
        for name, _ in sweeps.SWEEPS[argv[0]].csvs:
            rows = _rows(out / name)
            assert {float(r["sigma_b_sq"]) for r in rows} == set(map(float, cfg.sigma_b_sq))
            if "width" in coords:
                assert {int(r["width"]) for r in rows} == set(map(int, cfg.widths))

    def test_feasible_edges_accepted(self):
        SweepConfig(sample_count=1, train_steps=0, learning_rate=0.0,
                    reference_cov=1.0).validate()
        SweepConfig(reference_cov=0.0).validate()
        SweepConfig(depths=[2.0, 3], widths=[8.0]).validate()  # whole-valued floats
        # only kappa-curves reads the covariances
        SweepConfig(experiment="phase-diagram", covariances=[]).validate()


class TestOutDirPrecedence:
    """--out-dir, then --set out_dir= or the config file's out_dir, then
    NTKLAB_DATA_DIR, then the default "out"."""

    @staticmethod
    def out_dir(argv):
        return load_config(build_parser().parse_args(["phase-diagram"] + argv)).out_dir

    @staticmethod
    def config_file(tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return str(path)

    def test_flag_beats_set_file_and_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTKLAB_DATA_DIR", "A")
        cfg = self.config_file(tmp_path, "out_dir: C\n")
        assert self.out_dir(["--config", cfg, "--set", "out_dir=B", "--out-dir", "D"]) == "D"

    def test_set_and_file_beat_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTKLAB_DATA_DIR", "A")
        cfg = self.config_file(tmp_path, "out_dir: C\n")
        assert self.out_dir(["--set", "out_dir=B"]) == "B"
        assert self.out_dir(["--set", "out_dir=out"]) == "out"
        assert self.out_dir(["--config", cfg]) == "C"
        assert self.out_dir(["--config", cfg, "--set", "out_dir=B"]) == "B"
        monkeypatch.chdir(tmp_path)
        assert main(["phase-diagram", "--set", "sigma_w_sq=[1.0]", "--set", "out_dir=B"]) == 0
        assert (tmp_path / "B" / "records.jsonl").exists() and not (tmp_path / "A").exists()

    def test_environment_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTKLAB_DATA_DIR", "A")
        assert self.out_dir([]) == "A"
        assert self.out_dir(["--config", self.config_file(tmp_path, "depths: [2]\n")]) == "A"

    def test_empty_environment_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTKLAB_DATA_DIR", "")
        assert self.out_dir([]) == "out"
        monkeypatch.chdir(tmp_path)
        assert main(["phase-diagram", "--set", "sigma_w_sq=[1.0]"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NTKLAB_DATA_DIR", raising=False)
        assert self.out_dir([]) == "out"
        assert self.out_dir(["--config", self.config_file(tmp_path, "depths: [2]\n")]) == "out"


def test_records_carry_the_code_identity(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _run(["phase-diagram", "--set", "sigma_w_sq=[1.0,2.0]"], out) == 0
    versions = [rec.code_version for out in outs for rec in RecordStore(out / "records.jsonl")]
    assert versions == [code_identity()] * 4


class TestConfigTypes:
    @pytest.mark.parametrize("override, key", [
        ("out_dir=2024", "out_dir"), ("activation=1", "activation"),
        ("n_seeds=abc", "n_seeds"), ("n_seeds=2.5", "n_seeds"), ("seed=true", "seed"),
        ("depths=3", "depths"), ("depths=[2,a]", "depths"), ("input_dim=2.5", "input_dim"),
        ("learning_rate=true", "learning_rate"), ("sigma_w_sq={a: 1}", "sigma_w_sq"),
    ])
    def test_mistyped_override_is_a_config_error(self, tmp_path, capsys, override, key):
        out = tmp_path / "out"
        assert _run(["init-variance", "--set", override], out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and key in captured.err
        assert captured.out == "" and not out.exists()

    def test_mistyped_config_file_is_a_config_error(self, tmp_path, capsys):
        for text in ("depths: 3\n", "- depths\n"):
            path = tmp_path / "cfg.yaml"
            path.write_text(text)
            assert _run(["init-variance", "--config", str(path)], tmp_path / "out") == 1
            assert capsys.readouterr().err.startswith("config error: ")

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys):
        # a directory raised IsADirectoryError, a non-UTF-8 file UnicodeDecodeError
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("out_dir: caf\xe9\n".encode("latin-1"))
        for path in (tmp_path, latin1):
            assert _run(["init-variance", "--config", str(path)], tmp_path / "out") == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot read ") and str(path) in err
        assert _run(["init-variance", "--config", str(tmp_path / "no.yaml")],
                    tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("config error: config file not found: ")

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--set", "seed=-1"]])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, argv):
        # SeedSequence rejected it after the run began, with exit 2
        out = tmp_path / "out"
        assert _run(["phase-diagram"] + argv, out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and "seed" in captured.err
        assert captured.out == "" and not out.exists()

    def test_typed_values_accepted(self):
        cfg = SweepConfig().override(["input_dim=null", "sigma_w_sq=[1, 2.5, 3e-1]",
                                      "depths=[2,4]"])
        assert cfg.input_dim is None and cfg.depths == [2, 4]
        assert cfg.sigma_w_sq == [1, 2.5, 0.3]  # YAML 1.1 reads 3e-1 as a string
        assert SweepConfig().override(["input_dim=5"]).input_dim == 5

    @pytest.mark.parametrize("out_dir", ["yes", "2024"])
    def test_out_dir_flag_taken_as_given(self, tmp_path, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        assert main(["phase-diagram", "--set", "sigma_w_sq=[1.0]", "--out-dir", out_dir,
                     "--seed", "3", "--threads", "2"]) == 0
        (rec,) = RecordStore(tmp_path / out_dir / "records.jsonl")
        assert rec.seed == 3


def test_tanh_phase_diagram_at_edge_of_chaos_without_bias(tmp_path):
    out = tmp_path / "out"
    argv = ["phase-diagram", "--set", "activation=tanh", "--set", "sigma_b_sq=[0.0]",
            "--set", "sigma_w_sq=[1.0]"]
    assert _run(argv, out) == 0
    rows = _rows(out / "phase_diagram.csv")
    assert [(r["phase"], float(r["chi1_fixed_point"])) for r in rows] == [("eoc", 1.0)]


def test_kappa_curves_match_the_reference_sums(tmp_path):
    out = tmp_path / "out"
    argv = ["kappa-curves", "--set", "activation=erf", "--set", "sigma_w_sq=[1.0,3.0]",
            "--set", "covariances=[0.0,0.5,0.9]", "--set", "depths=[2,7]"]
    assert _run(argv, out) == 0
    rows = _rows(out / "kappa_curves.csv")
    expected = [(sw, c0, L) for sw in (1.0, 3.0) for c0 in (0.0, 0.5, 0.9) for L in (2, 7)]
    assert [(float(r["sigma_w_sq"]), float(r["covariance"]), int(r["depth"]))
            for r in rows] == expected
    for r, (sw, c0, L) in zip(rows, expected):
        # kappa > 0 here, so the sums' rounding is relative to kappa itself
        ref = reference_sums(InitHyper(sw, 1.0, ActivationKind.ERF), L, 1.0, c0)
        assert float(r["kappa1"]) == pytest.approx(ref["kappa1"], rel=1e-14)
        assert float(r["kappa2"]) == pytest.approx(ref["kappa2"], rel=1e-14)
        assert float(r["kappa_ratio"]) == float(r["kappa1"]) / float(r["kappa2"])


def test_predict_variance_prediction_from_the_reference_sums(tmp_path):
    out = tmp_path / "out"
    argv = ["predict-variance", "--set", "sigma_w_sq=[1.5]", "--set", "depths=[3]",
            "--set", "sample_count=6", "--set", "mc_samples=4000"]
    assert _run(argv, out) == 0
    (row,) = _rows(out / "predict_variance.csv")
    hyper = InitHyper(1.5, 1.0, ActivationKind.RELU)
    ref = reference_sums(hyper, 3, 1.0, 0.5)
    pred = predict_variance(*data_independent_kappas(hyper, 3, reference_cov=0.5),
                            float(ref["q"]), float(ref["q_sr"]), 6)
    assert float(row["A"]) == pytest.approx(pred.A, rel=1e-14)
    assert float(row["predicted_variance"]) == pytest.approx(pred.variance, rel=1e-14)
    mc, se = float(row["mc_variance"]), float(row["mc_standard_error"])
    assert math.isfinite(mc) and abs(mc - pred.variance) < 0.5 * pred.variance
    assert se > 0.0


def _joint_kernels(hyper, depth, s, c0=0.5, m_width=64):
    """sample_kernels as a predict-variance cell calls it: the joint sample
    [x] + X of s + 1 points, every pair at c0."""
    cov0 = np.full((s + 1, s + 1), c0)
    np.fill_diagonal(cov0, 1.0)
    covs, index, (ref,) = sample_index(cov0, 1.0, c0)
    return sample_kernels(hyper, depth, covs, index, m_width, ref)


def test_predict_variance_cell_builds_its_kernels_in_one_call(monkeypatch):
    calls = []
    real = sweeps.sample_kernels

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sweeps, "sample_kernels", spy)
    cfg = SweepConfig(experiment="predict-variance", sample_count=6, mc_samples=100)
    run = sweeps.SWEEPS["predict-variance"].setup(cfg)
    for cell in ((1.0, 64, 1.5, 3), (1.0, 64, 2.0, 8)):
        run(cell, 0)
    assert len(calls) == 2
    for (hyper, depth, covs, index, m_width, ref), (sw, L) in zip(calls, ((1.5, 3), (2.0, 8))):
        assert (hyper.sigma_w_sq, depth, m_width, ref) == (sw, L, 64, 0)
        np.testing.assert_array_equal(covs, [0.5])
        np.testing.assert_array_equal(index, np.eye(7))


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_predict_variance_kernels_are_the_equicorrelated_theory_kernels(kind):
    # the cell's one sample_kernels call gives Theta*(X), theta_x and K bit
    # for bit as theta_star_matrix and nngp_matrix give them on the
    # equicorrelated layer-0 matrices
    from ntklab.ntk_theory import nngp_matrix, theta_star_matrix

    c0, m_width = 0.5, 64
    for L in (1, 4, 32):
        hyper = InitHyper(2.0, 0.5, kind)
        for s in (2, 128):
            theta, joint = _joint_kernels(hyper, L, s, c0, m_width)
            cov0 = np.full((s + 1, s + 1), c0)
            np.fill_diagonal(cov0, 1.0)
            want = theta_star_matrix(hyper, L, cov0[1:, 1:], m_width, reference_cov=c0)
            np.testing.assert_array_equal(theta.matrix[1:, 1:], want.matrix)
            assert (theta.scale, theta.mean_kappa1, theta.mean_kappa2) == \
                (want.scale, want.mean_kappa1, want.mean_kappa2)
            # the test point's row of Theta* over the joint sample
            np.testing.assert_array_equal(
                theta.matrix[0, 1:],
                theta_star_matrix(hyper, L, cov0, m_width, reference_cov=c0).matrix[0, 1:])
            np.testing.assert_array_equal(joint.matrix, nngp_matrix(hyper, L, cov0).matrix)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_predict_variance_exact_is_the_rational_u_k_u(kind):
    # u^T K u of the cell's kernels against the same quantity in exact
    # rational arithmetic: the solve and the products lose only rounding on
    # the scale of K[0,0], also where u^T K u cancels to ~1e-13 of it
    for sb in (0.1, 1.0):
        for sw in (1.0, 2.0, 3.0):
            for L in (1, 4, 32):
                for s in (2, 128):
                    theta, joint = _joint_kernels(InitHyper(sw, sb, kind), L, s)
                    theta_x = theta.matrix[0, 1:]
                    var = trained_output_variance(theta.matrix[1:, 1:], joint, theta_x, 100)
                    true = equicorrelated_trained_variance(theta.matrix[1:, 1:], theta_x, joint)
                    assert var.jitter == 0.0
                    assert abs(Fraction(var.exact) - true) <= \
                        Fraction(1e-13) * Fraction(joint.matrix[0, 0]), (sw, sb, L, s)


@pytest.mark.parametrize("activation,sw,depth", [("erf", 0.5, 32), ("tanh", 0.5, 32),
                                                 ("relu", 1.5, 128)])
def test_deep_ordered_predict_variance_cells_finish(tmp_path, activation, sw, depth):
    # kbar2 and qbar_sr^L round one ulp above kbar1 and qbar^L in these
    # cells, and u^T K u rounds to within an ulp of K[0, 0] (ReLU: below
    # zero), which counts as an exact variance of 0 with no relative gap
    out = tmp_path / "out"
    argv = ["predict-variance", "--set", f"activation={activation}",
            "--set", f"sigma_w_sq=[{sw}]", "--set", f"depths=[{depth}]",
            "--set", "mc_samples=1000"]
    assert _run(argv, out) == 0
    (rec,) = RecordStore(out / "records.jsonl")
    assert rec.stats["status"] == "ok" and rec.stats["predicted_variance"] >= 0.0
    assert (rec.stats["exact_variance"], rec.stats["mc_variance"],
            rec.stats["mc_standard_error"]) == (0.0, 0.0, 0.0)
    assert math.isnan(rec.stats["rel_gap"])
    (row,) = _rows(out / "predict_variance.csv")
    assert float(row["exact_variance"]) == 0.0


def test_predict_variance_leaves_scipy_unloaded():
    # ReLU and tanh cells, with and without trained networks, need no scipy:
    # its import would load a second OpenBLAS with its own thread pool
    base = ["predict-variance", "--set", "sigma_w_sq=[1.5]", "--set", "depths=[3]",
            "--set", "widths=[9]", "--set", "sample_count=8", "--set", "mc_samples=1000",
            "--set", "train_steps=20"]
    code = ("import sys, tempfile\n"
            "from ntklab.cli import main\n"
            f"base = {base!r}\n"
            "for act in ('relu', 'tanh'):\n"
            "    for seeds in (0, 2):\n"
            "        with tempfile.TemporaryDirectory() as out:\n"
            "            argv = base + ['--set', f'activation={act}',\n"
            "                           '--set', f'train_seeds={seeds}', '--out-dir', out]\n"
            "            if main(argv) != 0:\n"
            "                raise SystemExit(argv)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_predict_variance_reports_exact_variance_and_per_cell_mc_seeds(tmp_path):
    argv = ["predict-variance", "--set", "sigma_w_sq=[1.5,2.5]", "--set", "depths=[3]",
            "--set", "sample_count=6", "--set", "mc_samples=4000"]
    assert _run(argv, tmp_path / "first") == 0
    assert _run(argv, tmp_path / "second") == 0
    csv_bytes = (tmp_path / "first" / "predict_variance.csv").read_bytes()
    assert csv_bytes == (tmp_path / "second" / "predict_variance.csv").read_bytes()
    rows = _rows(tmp_path / "first" / "predict_variance.csv")
    records = list(RecordStore(tmp_path / "first" / "records.jsonl"))
    ratios = []
    for row, rec in zip(rows, records):
        exact, mc, se = (float(row[k]) for k in ("exact_variance", "mc_variance",
                                                  "mc_standard_error"))
        assert abs(mc - exact) <= 5.0 * se
        assert rec.stats["exact_variance"] == exact and rec.stats["spd_jitter"] == 0.0
        pred = float(row["predicted_variance"])
        assert rec.stats["rel_gap"] == abs(pred - exact) / exact
        assert row["trained_variance"] == row["trained_standard_error"] == ""
        ratios.append(mc / exact)
    # one Monte-Carlo stream per cell: with a shared stream both ratios would
    # be the same chi-square draw up to rounding
    assert abs(ratios[0] - ratios[1]) > 1e-6


def test_predict_variance_records_trained_network_convergence(tmp_path):
    argv = ["predict-variance", "--set", "train_seeds=3", "--set", "widths=[9]",
            "--set", "sample_count=8", "--set", "sigma_w_sq=[2.0]", "--set", "depths=[3]",
            "--set", "mc_samples=2000", "--set", "train_steps=50"]
    assert _run(argv, tmp_path) == 0
    (row,) = _rows(tmp_path / "predict_variance.csv")
    (rec,) = RecordStore(tmp_path / "records.jsonl")
    trained, se = float(row["trained_variance"]), float(row["trained_standard_error"])
    assert se == pytest.approx(trained * math.sqrt(2.0 / 2), rel=1e-15)
    assert rec.stats["trained_variance"] == trained
    assert rec.stats["trained_standard_error"] == se
    assert rec.stats["stop_reasons"] == {"max_steps": 3}
    assert math.isfinite(rec.stats["median_final_loss"]) and rec.stats["median_final_loss"] > 0


def test_diverging_train_drift_cell_is_recorded(tmp_path):
    out = tmp_path / "out"
    argv = ["train-drift", "--set", "sigma_w_sq=[3.0]", "--set", "depths=[32]",
            "--set", "n_seeds=2", "--set", "train_steps=20", "--set", "snapshot_steps=[0,10]"]
    assert _run(argv, out) == 0
    (rec,) = RecordStore(out / "records.jsonl")
    assert rec.stats["status"] == "diverged"
    assert rec.stats["n_diverged"] == 2
    assert all(0 < step <= 20 for step in rec.stats["divergence_steps"])
    assert rec.stats["stop_reasons"] == {"diverged": 2}
    # no replicate finished, so the heatmap holds no drift, not the partial's 0.0
    (row,) = _rows(out / "train_drift_heatmap.csv")
    assert math.isnan(float(row["final_drift"]))
    # the partial curves up to the divergence are kept
    curves = _rows(out / "train_drift_curves.csv")
    assert {(r["replicate"], r["step"], r["rel_change"]) for r in curves
            if r["step"] == "0"} == {("0", "0", "0.0"), ("1", "0", "0.0")}


def test_init_variance_writes_heatmap_and_depth_to_width_curves(tmp_path):
    assert "lm-curves" not in EXPERIMENT_KINDS
    out = tmp_path / "out"
    argv = ["init-variance", "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,8]",
            "--set", "widths=[16]", "--set", "n_seeds=20"]
    assert _run(argv, out) == 0
    heat = _rows(out / "init_variance_heatmap.csv")
    curves = _rows(out / "init_variance_lm_curves.csv")
    assert [(r["sigma_w_sq"], r["depth"]) for r in heat] == \
        [("1.0", "2"), ("3.0", "2"), ("1.0", "8"), ("3.0", "8")]
    assert [r["ratio"] for r in curves] == [r["ratio"] for r in heat]
    assert all(float(r["ratio"]) >= 1.0 for r in heat)
    assert len(list(RecordStore(out / "records.jsonl"))) == 4


def test_cells_recorded_before_a_later_cell_fails(tmp_path, monkeypatch):
    real = sweeps.init_variance_ratio
    calls = []

    def fail_on_second_cell(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("cell failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(sweeps, "init_variance_ratio", fail_on_second_cell)
    out = tmp_path / "out"
    argv = ["init-variance", "--set", "sigma_w_sq=[1.0,2.0,3.0]", "--set", "depths=[2]",
            "--set", "widths=[8]", "--set", "n_seeds=10"]
    assert _run(argv, out) == 2
    # the cell that finished, then the one that raised; none after it
    ok, failed = RecordStore(out / "records.jsonl")
    assert ok.params["sigma_w_sq"] == 1.0 and ok.stats["status"] == "ok"
    # the failed cell carries the config it ran with, as the ok cell does
    assert failed.params == dict(activation="relu", sigma_w_sq=2.0, sigma_b_sq=1.0, depth=2,
                                 width=8, n_seeds=10)
    assert failed.params.keys() == ok.params.keys()
    assert failed.stats == dict(status="error", error_class="RuntimeError")


OVERFLOWING_KAPPA_CURVES = ["kappa-curves", "--set", "sigma_w_sq=[1.0,3.0]",
                            "--set", "depths=[2,3000]"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_cell_is_recorded(tmp_path, capsys, threads):
    out = tmp_path / "out"
    argv = OVERFLOWING_KAPPA_CURVES + ["--threads", threads]
    assert _run(argv, out) == 2
    assert "mean-field recursion overflowed (layer 1733)" in capsys.readouterr().err
    ok, overflow = RecordStore(out / "records.jsonl")
    assert ok.params["sigma_w_sq"] == 1.0 and ok.stats["status"] == "ok"
    assert overflow.params == dict(activation="relu", sigma_w_sq=3.0, sigma_b_sq=1.0,
                                   covariances=[0.0, 0.5, 0.9], depths=[2, 3000])
    assert overflow.stats == dict(status="overflow", error_class="SignalOverflowError",
                                  layer=1733)
    assert not (out / "kappa_curves.csv").exists()


@pytest.mark.parametrize("argv, csv_names", [
    # includes the chaotic cell sigma_w^2 = 3, L = 32, whose replicates diverge
    (["train-drift", "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,32]",
      "--set", "n_seeds=2", "--set", "train_steps=20", "--set", "snapshot_steps=[0,5,20]"],
     ["train_drift_heatmap.csv", "train_drift_curves.csv"]),
    (["predict-variance", "--set", "train_seeds=3", "--set", "widths=[9]",
      "--set", "sample_count=8", "--set", "sigma_w_sq=[1.0,2.0]", "--set", "depths=[3]",
      "--set", "mc_samples=2000", "--set", "train_steps=200", "--set", "learning_rate=1e-2"],
     ["predict_variance.csv"]),
])
def test_csv_bytes_identical_across_reruns_and_training_steps(tmp_path, monkeypatch, argv,
                                                              csv_names):
    assert _run(argv, tmp_path / "first") == 0
    assert _run(argv, tmp_path / "second") == 0
    # the same sweep trained by the allocating reference step
    monkeypatch.setattr(finite_net, "train_full_batch", reference_train_full_batch)
    monkeypatch.setattr(sweeps, "train_full_batch", reference_train_full_batch)
    assert _run(argv, tmp_path / "reference") == 0
    for name in csv_names:
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()
        assert first == (tmp_path / "reference" / name).read_bytes()
    if argv[0] == "train-drift":
        status = {rec.params["sigma_w_sq"]: rec.stats["status"]
                  for rec in RecordStore(tmp_path / "first" / "records.jsonl")
                  if rec.params["depth"] == 32}
        assert status == {1.0: "ok", 3.0: "diverged"}


DIVERGING_PREDICT_VARIANCE = [
    "predict-variance", "--set", "widths=[9]", "--set", "sample_count=8",
    "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[3,16]", "--set", "learning_rate=1.0",
    "--set", "train_steps=200", "--set", "mc_samples=2000"]


def test_diverging_trained_network_is_recorded(tmp_path):
    assert _run(DIVERGING_PREDICT_VARIANCE + ["--set", "train_seeds=2"], tmp_path / "two") == 0
    rows = _rows(tmp_path / "two" / "predict_variance.csv")
    records = list(RecordStore(tmp_path / "two" / "records.jsonl"))
    assert len(rows) == len(records) == 4
    by_cell = {(r.params["sigma_w_sq"], r.params["depth"]): r for r in records}
    # one of the two networks at sigma_w^2 = 3, L = 16 diverges: no variance over one
    rec = by_cell[3.0, 16]
    assert rec.stats["status"] == "diverged"
    assert rec.stats["n_diverged"] == 1 and rec.stats["divergence_steps"] == [3]
    # the network that finished blew up to a finite loss: not converged
    assert rec.stats["stop_reasons"] == {"loss_rose": 1, "diverged": 1}
    for cell in ((1.0, 3), (3.0, 3)):
        # median final losses ~4e3 and ~9e37
        assert by_cell[cell].stats["stop_reasons"] == {"loss_rose": 2}
    assert math.isnan(rec.stats["trained_variance"])
    assert math.isnan(rec.stats["trained_standard_error"])
    assert (rows[3]["trained_variance"], rows[3]["trained_standard_error"]) == ("nan", "nan")
    assert by_cell[1.0, 16].stats["status"] == "ok"
    assert "n_diverged" not in by_cell[1.0, 16].stats
    # with a third network, which diverges at sigma_w^2 = 1, L = 16, that cell's
    # variance is over the two networks that finished, the same two as above
    assert _run(DIVERGING_PREDICT_VARIANCE + ["--set", "train_seeds=3"], tmp_path / "three") == 0
    rec3 = {(r.params["sigma_w_sq"], r.params["depth"]): r
            for r in RecordStore(tmp_path / "three" / "records.jsonl")}[1.0, 16]
    assert rec3.stats["status"] == "diverged" and rec3.stats["n_diverged"] == 1
    assert rec3.stats["trained_variance"] == by_cell[1.0, 16].stats["trained_variance"]


# small grids of every experiment, by test id
SWEEP_CASES = {
    "phase-diagram": ["phase-diagram", "--set", "sigma_w_sq=[1.0,2.0,3.0]",
                      "--set", "sigma_b_sq=[0.5,1.0]"],
    "kappa-curves": ["kappa-curves", "--set", "sigma_w_sq=[1.0,2.0]",
                     "--set", "sigma_b_sq=[0.5,1.0]", "--set", "depths=[2,5]"],
    "init-variance": ["init-variance", "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,4]",
                      "--set", "widths=[8,16]", "--set", "n_seeds=10"],
    "init-variance-sigma_b_sq": ["init-variance", "--set", "sigma_b_sq=[0.5,1.0]",
                                 "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,4]",
                                 "--set", "widths=[8]", "--set", "n_seeds=10"],
    "train-drift": ["train-drift", "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,32]",
                    "--set", "n_seeds=2", "--set", "train_steps=20",
                    "--set", "snapshot_steps=[0,5,20]"],
    "train-drift-widths": ["train-drift", "--set", "widths=[8,16]",
                           "--set", "sigma_w_sq=[1.0,3.0]", "--set", "depths=[2,4]",
                           "--set", "n_seeds=2", "--set", "train_steps=20",
                           "--set", "snapshot_steps=[0,5,20]"],
    "predict-variance": DIVERGING_PREDICT_VARIANCE + ["--set", "train_seeds=2"],
}


def test_every_csv_names_every_grid_axis():
    # rows that differ only in one axis stay apart when that axis has many values
    for kind, sweep in sweeps.SWEEPS.items():
        for name, header in sweep.csvs:
            assert set(sweep.coords) <= set(header), (kind, name)


@pytest.mark.parametrize("argv", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
def test_csv_columns_read_the_record_values(tmp_path, argv):
    # a column that is a record param reads the cell's param; in a CSV of one
    # row per cell, every other column but the derived L/M reads the stat of
    # its name
    sweep = sweeps.SWEEPS[argv[0]]
    assert _run(argv, tmp_path) == 0
    records = list(RecordStore(tmp_path / "records.jsonl"))
    for name, header in sweep.csvs:
        rows = _rows(tmp_path / name)
        by_cell = {}
        for row in rows:
            by_cell.setdefault(tuple(row[k] for k in sweep.coords), []).append(row)
        assert len(by_cell) == len(records), name
        one_per_cell = len(rows) == len(records)
        for rec in records:
            params = [c for c in header if c in rec.params]
            stats = [c for c in header if c in rec.stats and c not in rec.params]
            if one_per_cell:
                assert set(header) - set(params) - set(stats) <= {"depth_over_width"}, name
            for row in by_cell[tuple(_csv_cell(rec.params[k]) for k in sweep.coords)]:
                assert [row[c] for c in params] == [_csv_cell(rec.params[c]) for c in params]
                if one_per_cell:
                    assert [row[c] for c in stats] == [_csv_cell(rec.stats[c]) for c in stats]


def test_a_column_no_row_supplies_is_a_key_error(tmp_path, monkeypatch):
    # a row is read off by header name, so a column cannot go missing quietly
    sweep = sweeps.SWEEPS["phase-diagram"]
    monkeypatch.setitem(sweeps.SWEEPS, "phase-diagram", replace(
        sweep, setup=lambda cfg: lambda cell, seed: ({}, ([{"chi1_fixed_point": 1.0}],))))
    cfg = SweepConfig(sigma_w_sq=[1.0], out_dir=str(tmp_path))
    with pytest.raises(KeyError, match="phase"):
        sweeps.run_experiment(cfg)
    assert not (tmp_path / "phase_diagram.csv").exists()


@pytest.mark.parametrize("argv", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
def test_one_record_per_grid_cell_and_bytes_independent_of_threads(tmp_path, capsys, argv):
    cell_keys = sweeps.SWEEPS[argv[0]].coords
    cells = grid(load_config(build_parser().parse_args(argv)))
    statuses = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert _run(argv + ["--threads", threads], out) == 0
        assert capsys.readouterr().out.startswith(f"{argv[0]}: {len(cells)} grid cells -> ")
        records = list(RecordStore(out / "records.jsonl"))
        assert [tuple(r.params[k] for k in cell_keys) for r in records] == cells
        statuses[threads] = [r.stats["status"] for r in records]
        assert set(statuses[threads]) <= {"ok", "diverged"}
    assert statuses["1"] == statuses["2"]
    names = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert names and names == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, restored after the test."""
    threads = _numpy_openblas_threads()
    if threads is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    get, set_ = threads
    before = get()
    yield threads
    set_(before)


# the smallest sweeps found whose CSV bytes differed between runs entered
# at one and at two BLAS threads when the run kept the count it found
WIDE_SWEEPS = [
    ["train-drift", "--set", "widths=[129]", "--set", "sigma_w_sq=[1.0]", "--set", "depths=[2]",
     "--set", "n_seeds=2", "--set", "train_steps=5", "--seed", "3"],
    ["predict-variance", "--set", "widths=[129]", "--set", "train_seeds=2",
     "--set", "sigma_w_sq=[1.0]", "--set", "depths=[2]", "--set", "mc_samples=100",
     "--set", "train_steps=5"],
]


@pytest.mark.parametrize("argv", WIDE_SWEEPS, ids=[a[0] for a in WIDE_SWEEPS])
def test_bytes_do_not_depend_on_the_entry_blas_thread_count(tmp_path, blas_threads, argv):
    get, set_ = blas_threads
    for n in (1, 2):
        set_(n)
        assert _run(argv, tmp_path / str(n)) == 0
        assert get() == n
    names = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_cells_run_on_the_configured_blas_threads(tmp_path, monkeypatch, blas_threads, threads):
    get, set_ = blas_threads
    entry = 3 - threads
    set_(entry)
    seen = []
    real = sweeps.classify_phase
    monkeypatch.setattr(sweeps, "classify_phase",
                        lambda hyper: (seen.append(get()), real(hyper))[1])
    argv = ["phase-diagram", "--set", "sigma_w_sq=[1.0,2.0]", "--threads", str(threads)]
    assert _run(argv, tmp_path) == 0
    assert seen == [threads, threads]
    assert get() == entry


def test_blas_thread_count_restored_after_a_raising_run(tmp_path, blas_threads):
    get, set_ = blas_threads
    for threads in (1, 2):
        set_(3 - threads)
        argv = OVERFLOWING_KAPPA_CURVES + ["--threads", str(threads)]
        assert _run(argv, tmp_path / str(threads)) == 2
        assert get() == 3 - threads


@pytest.fixture
def workers(monkeypatch):
    """Sweeps hand every cell to worker processes, on a host of 4 usable
    cores; yields the worker counts of the pools that ran."""
    counts = []
    real = sweeps._in_workers

    def counted(run_cell, cells, seeds, n_workers):
        counts.append(n_workers)
        return real(run_cell, cells, seeds, n_workers)

    monkeypatch.setattr(sweeps, "SERIAL_BUDGET_S", 0.0)
    monkeypatch.setattr(sweeps, "_usable_cores", lambda: 4)
    monkeypatch.setattr(sweeps, "_in_workers", counted)
    yield counts


def _records(out):
    """The records of a run, without their wall-clock times."""
    lines = (out / "records.jsonl").read_text().splitlines()
    return [{k: v for k, v in json.loads(line).items() if k != "wall_clock_s"} for line in lines]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
def test_workers_write_the_bytes_of_an_in_process_run(tmp_path, monkeypatch, workers, argv,
                                                      threads):
    n_cells = len(grid(load_config(build_parser().parse_args(argv))))
    argv = argv + ["--threads", threads]
    monkeypatch.setattr(sweeps, "SERIAL_BUDGET_S", math.inf)
    assert _run(argv, tmp_path / "in-process") == 0
    monkeypatch.setattr(sweeps, "SERIAL_BUDGET_S", 0.0)
    assert _run(argv, tmp_path / "workers") == 0
    assert workers == [min(4 // int(threads), n_cells)]
    names = sorted(p.name for p in (tmp_path / "in-process").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "workers").glob("*.csv"))
    for name in names:
        assert (tmp_path / "in-process" / name).read_bytes() == \
            (tmp_path / "workers" / name).read_bytes()
    assert _records(tmp_path / "in-process") == _records(tmp_path / "workers")


def test_long_sweep_runs_its_remaining_cells_in_workers(tmp_path, monkeypatch, workers):
    cells = grid(load_config(build_parser().parse_args(SWEEP_CASES["train-drift"])))
    monkeypatch.setattr(sweeps, "SERIAL_BUDGET_S", 1e-9)
    assert _run(SWEEP_CASES["train-drift"], tmp_path) == 0
    # the first cell takes the budget in-process; the other three share 4 cores
    assert workers == [min(4, len(cells) - 1)] == [3]


def _pid_cell(cfg):
    """A phase-diagram cell that records the process it ran in and its
    numpy BLAS thread count."""
    threads = _numpy_openblas_threads()

    def run(cell, _seed):
        stats = dict(pid=os.getpid(), blas_threads=threads and threads[0]())
        return stats, ([dict(chi1_fixed_point=1.0, phase="eoc")],)
    return run


@pytest.mark.parametrize("threads", [1, 2])
def test_workers_run_on_the_configured_blas_threads(tmp_path, monkeypatch, blas_threads,
                                                    workers, threads):
    get, set_ = blas_threads
    entry = 3 - threads
    set_(entry)
    monkeypatch.setitem(sweeps.SWEEPS, "phase-diagram",
                        replace(sweeps.SWEEPS["phase-diagram"], setup=_pid_cell))
    argv = ["phase-diagram", "--set", "sigma_w_sq=[1.0,2.0,3.0]", "--threads", str(threads)]
    assert _run(argv, tmp_path) == 0
    assert workers == [min(4 // threads, 3)]
    stats = [rec.stats for rec in RecordStore(tmp_path / "records.jsonl")]
    assert [s["blas_threads"] for s in stats] == [threads] * 3
    assert os.getpid() not in {s["pid"] for s in stats}
    # the parent's count is restored after the run
    assert get() == entry


@pytest.mark.parametrize("cores, threads, sigma_w_sq", [
    (1, 1, "[1.0,2.0,3.0]"), (2, 2, "[1.0,2.0,3.0]"), (3, 2, "[1.0,2.0,3.0]"),
    (4, 1, "[1.0]"),   # one cell left
])
def test_sweep_stays_in_process_without_two_workers(tmp_path, monkeypatch, workers, cores,
                                                    threads, sigma_w_sq):
    monkeypatch.setattr(sweeps, "_usable_cores", lambda: cores)
    monkeypatch.setitem(sweeps.SWEEPS, "phase-diagram",
                        replace(sweeps.SWEEPS["phase-diagram"], setup=_pid_cell))
    argv = ["phase-diagram", "--set", f"sigma_w_sq={sigma_w_sq}", "--threads", str(threads)]
    assert _run(argv, tmp_path) == 0
    assert workers == []
    assert {rec.stats["pid"] for rec in RecordStore(tmp_path / "records.jsonl")} == \
        {os.getpid()}


@pytest.mark.parametrize("n_cells, pools", [(5, []), (6, [3])])
def test_workers_start_only_for_as_much_work_again(tmp_path, monkeypatch, workers, n_cells,
                                                   pools):
    # every cell reads 0.04 s: the budget of 0.1 s is spent after three, and
    # the cells left must take 0.1 s again at that rate
    real = sweeps._timed
    monkeypatch.setattr(sweeps, "_timed", lambda *args: (real(*args)[0], 0.04))
    monkeypatch.setattr(sweeps, "SERIAL_BUDGET_S", 0.1)
    monkeypatch.setitem(sweeps.SWEEPS, "phase-diagram",
                        replace(sweeps.SWEEPS["phase-diagram"], setup=_pid_cell))
    sigma_w_sq = [1.0 + k for k in range(n_cells)]
    assert _run(["phase-diagram", "--set", f"sigma_w_sq={sigma_w_sq}"], tmp_path) == 0
    assert workers == pools
    pids = [rec.stats["pid"] for rec in RecordStore(tmp_path / "records.jsonl")]
    assert pids[:3] == [os.getpid()] * 3
    assert (os.getpid() in pids[3:]) == (not pools)


def test_cell_raising_in_a_worker_is_recorded(tmp_path, monkeypatch, blas_threads, workers):
    real = sweeps.init_variance_ratio

    def fail_at_sigma_w_sq_2(widths, hyper, *args, **kwargs):
        if hyper.sigma_w_sq == 2.0:
            raise RuntimeError("cell failed")
        if hyper.sigma_w_sq == 3.0:
            time.sleep(60)  # still running when the sweep fails
        return real(widths, hyper, *args, **kwargs)

    get, _ = blas_threads
    before = get()
    monkeypatch.setattr(sweeps, "init_variance_ratio", fail_at_sigma_w_sq_2)
    out = tmp_path / "out"
    argv = ["init-variance", "--set", "sigma_w_sq=[1.0,2.0,3.0,4.0]", "--set", "depths=[2]",
            "--set", "widths=[8]", "--set", "n_seeds=10"]
    t0 = time.perf_counter()
    assert _run(argv, out) == 2
    # the sweep did not wait for the sleeping cell
    assert time.perf_counter() - t0 < 30.0
    assert workers == [4]
    # the cell that finished, then the one that raised; none after it
    ok, failed = RecordStore(out / "records.jsonl")
    assert ok.params["sigma_w_sq"] == 1.0 and ok.stats["status"] == "ok"
    assert failed.params == dict(activation="relu", sigma_w_sq=2.0, sigma_b_sq=1.0, depth=2,
                                 width=8, n_seeds=10)
    assert failed.stats == dict(status="error", error_class="RuntimeError")
    assert not (out / "init_variance_heatmap.csv").exists()
    assert get() == before


def test_overflow_in_a_worker_is_recorded_with_its_layer(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert _run(OVERFLOWING_KAPPA_CURVES, out) == 2
    assert workers == [2]
    assert "mean-field recursion overflowed (layer 1733)" in capsys.readouterr().err
    ok, overflow = RecordStore(out / "records.jsonl")
    assert ok.stats["status"] == "ok"
    assert overflow.stats == dict(status="overflow", error_class="SignalOverflowError",
                                  layer=1733)


def test_killed_worker_fails_the_sweep(tmp_path):
    # the first cell's worker is killed: its cell is recorded as an error and
    # the run exits 2 instead of waiting for a result that never comes
    out = tmp_path / "out"
    argv = ["phase-diagram", "--set", "sigma_w_sq=[1.0,2.0,3.0]", "--out-dir", str(out)]
    code = ("import multiprocessing, os, signal\n"
            "from ntklab import sweeps\n"
            "from ntklab.cli import main\n"
            "sweeps.SERIAL_BUDGET_S, sweeps._usable_cores = 0.0, lambda: 2\n"
            "parent, real = os.getpid(), sweeps.classify_phase\n"
            "def classify(hyper):\n"
            "    if os.getpid() != parent and hyper.sigma_w_sq == 1.0:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(hyper)\n"
            "sweeps.classify_phase = classify\n"
            f"code = main({argv!r})\n"
            "print(multiprocessing.active_children())\n"
            "raise SystemExit(code)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("runtime error: ")
    assert proc.stdout.splitlines()[-1] == "[]"
    (rec,) = RecordStore(out / "records.jsonl")
    assert rec.params["sigma_w_sq"] == 1.0
    assert rec.stats == dict(status="error", error_class="BrokenProcessPool")


# an instance of every exception class of the library, by class name
LIBRARY_ERRORS = {
    "ConfigError": ConfigError("bad grid"),
    "IdxFormatError": IdxFormatError("bad magic"),
    "MeanFieldError": MeanFieldError("failed"),
    "SignalOverflowError": SignalOverflowError("overflowed", layer=7),
    "CorrelationDomainError": CorrelationDomainError("left [-1, 1]"),
    "FixedPointDivergenceError": FixedPointDivergenceError("no fixed point", last_iterate=2.5),
    "IllConditionedError": IllConditionedError("SPD solve failed", jitter=1e-4),
}


def test_every_library_exception_survives_a_pickle_round_trip():
    # a cell's exception crosses from a worker process to the sweep's
    modules = [importlib.import_module(f"ntklab.{info.name}")
               for info in pkgutil.iter_modules(ntklab.__path__)]
    classes = {obj.__name__ for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == m.__name__}
    assert classes == set(LIBRARY_ERRORS)
    back = {name: pickle.loads(pickle.dumps(err)) for name, err in LIBRARY_ERRORS.items()}
    for name, err in LIBRARY_ERRORS.items():
        assert type(back[name]) is type(err)
        assert (str(back[name]), back[name].args, vars(back[name])) == \
            (str(err), err.args, vars(err))
    assert back["SignalOverflowError"].layer == 7
    assert str(back["SignalOverflowError"]) == "overflowed (layer 7)"
    assert back["IllConditionedError"].jitter == 1e-4
    assert str(back["IllConditionedError"]) == "SPD solve failed (final jitter 1.000e-04)"
    assert back["FixedPointDivergenceError"].last_iterate == 2.5
    assert str(back["FixedPointDivergenceError"]) == "no fixed point (last iterate 2.5)"
