"""Timings and peak memory of finite-network training, and timings of the SPD
solve, with pytest-benchmark.

Not part of the test suite (the file name does not match test_*.py); run it
from the root of a checkout with

    PYTHONPATH=src python -m pytest tests/bench_finite_net.py -p no:cacheprovider \
        --benchmark-json=<file>

It measures four things:

  - train_full_batch of a fresh ReLU network (sigma_w^2 = 2, sigma_b^2 = 1)
    of width M = 64 for 100 full-batch steps on S = 128 unit-norm inputs,
    at depths L = 2, 8 and 16; the time per step is the time / 100;
  - training_drift of the same networks and data, with kernel snapshots at
    steps 0, 10, 50 and 100, as one train-drift replicate runs them;
  - the peak resident memory that one training_drift call adds, in a fresh
    interpreter: ReLU (2, 1), L = 16, 20 steps, snapshots at 0, 10 and 20,
    at (S, M) = (128, 64), (2048, 64) and (256, 512); extra_info holds the
    child's peak RSS and its growth during the call, in MB; the timing is
    of the whole child process;
  - spd_solve of Theta*(X) for S = 128 unit-norm inputs (ReLU, L = 16)
    against one of its rows, at the BLAS thread count the process starts
    with and inside the one-numpy-thread block that trained_output_variance
    runs it in.

All use only names that exist since the buffered training step and the
BLAS block took a thread count (init, train_full_batch, training_drift,
spd_solve, _numpy_blas_threads), so the same file times every commit
since; before that the block was _one_numpy_blas_thread().
"""
import os
import subprocess
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import pytest

from ntklab import ntk_theory
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.empirical_ntk import training_drift
from ntklab.finite_net import TrainConfig, init, layer_widths, train_full_batch
from ntklab.meanfield import InitHyper

WIDTH = 64
SAMPLES = 128
STEPS = 100
HYPER = InitHyper(2.0, 1.0, ActivationKind.RELU)


@pytest.mark.parametrize("depth", [2, 8, 16])
def test_train_full_batch(benchmark, depth):
    data = synthetic_dataset(SAMPLES, WIDTH, seed=0)
    cfg = TrainConfig(max_steps=STEPS)
    widths = layer_widths(WIDTH, WIDTH, depth)

    def fresh_net():
        return (init(widths, HYPER, seed=1), data.inputs, data.targets, cfg), {}

    benchmark.extra_info["steps"] = STEPS
    log = benchmark.pedantic(train_full_batch, setup=fresh_net, rounds=15)
    assert log.steps_run == STEPS


@pytest.mark.parametrize("depth", [2, 8, 16])
def test_training_drift(benchmark, depth):
    data = synthetic_dataset(SAMPLES, WIDTH, seed=0)
    cfg = TrainConfig(max_steps=STEPS)
    widths = layer_widths(WIDTH, WIDTH, depth)

    def drift():
        return training_drift(widths, HYPER, data.inputs, data.targets, cfg,
                              snapshot_steps=(0, 10, 50, STEPS), seed=1)

    benchmark.extra_info["steps"] = STEPS
    stat = benchmark.pedantic(drift, rounds=10)
    assert list(stat.steps) == [0, 10, 50, STEPS]


# The child builds its data before it first reads its peak, so the growth is
# training_drift's own peak: the network, its workspace, the kernels' S x S
# arrays and temporaries.  The peak is VmHWM (Linux), the high-water mark of
# the child's own address space; ru_maxrss would start from the RSS of the
# process that forked it.
_PEAK_CHILD = """
import sys
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.empirical_ntk import training_drift
from ntklab.finite_net import TrainConfig, layer_widths
from ntklab.meanfield import InitHyper

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

s, m = int(sys.argv[1]), int(sys.argv[2])
data = synthetic_dataset(s, m, seed=0)
before = peak_mb()
stat = training_drift(layer_widths(m, m, 16), InitHyper(2.0, 1.0, ActivationKind.RELU),
                      data.inputs, data.targets, TrainConfig(max_steps=20),
                      snapshot_steps=(0, 10, 20), seed=1)
after = peak_mb()
print(after, after - before, *stat.rel_change.tolist())
"""


@pytest.mark.parametrize("samples, width", [(128, 64), (2048, 64), (256, 512)])
def test_training_drift_peak_rss(benchmark, samples, width):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def child():
        out = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(samples), str(width)],
                             env=env, check=True, capture_output=True, text=True).stdout
        return [float(v) for v in out.split()]

    peak_mb, growth_mb, *drift = benchmark.pedantic(child, rounds=1)
    benchmark.extra_info["peak_rss_mb"] = peak_mb
    benchmark.extra_info["peak_growth_mb"] = growth_mb
    benchmark.extra_info["drift"] = drift
    assert len(drift) == 3 and drift[0] == 0.0


@pytest.mark.parametrize("threads", ["default", "one"])
def test_spd_solve(benchmark, threads):
    x = synthetic_dataset(SAMPLES, WIDTH, seed=0).inputs
    theta = ntk_theory.theta_star_matrix(HYPER, 16, x @ x.T, WIDTH).matrix
    block = partial(ntk_theory._numpy_blas_threads, 1) if threads == "one" else nullcontext

    def solve():
        with block():
            return ntk_theory.spd_solve(theta, theta[0])

    _, jitter = benchmark(solve)
    assert jitter == 0.0
