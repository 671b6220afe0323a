"""Timings of finite-network training and the SPD solve with pytest-benchmark.

Not part of the test suite (the file name does not match test_*.py); run it
from the root of a checkout with

    PYTHONPATH=src python -m pytest tests/bench_finite_net.py -p no:cacheprovider \
        --benchmark-json=<file>

It times two things:

  - train_full_batch of a fresh ReLU network (sigma_w^2 = 2, sigma_b^2 = 1)
    of width M = 64 for 100 full-batch steps on S = 128 unit-norm inputs,
    at depths L = 2, 8 and 16; the time per step is the time / 100;
  - spd_solve of Theta*(X) for S = 128 unit-norm inputs (ReLU, L = 16)
    against one of its rows, at the BLAS thread count the process starts
    with and inside the one-numpy-thread block that trained_output_variance
    runs it in.

Both use only names that exist since the buffered training step and the
one-numpy-thread block (init, train_full_batch, spd_solve,
_one_numpy_blas_thread), so the same file times earlier commits too.
"""
from contextlib import nullcontext

import pytest

from ntklab import ntk_theory
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
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


@pytest.mark.parametrize("threads", ["default", "one"])
def test_spd_solve(benchmark, threads):
    x = synthetic_dataset(SAMPLES, WIDTH, seed=0).inputs
    theta = ntk_theory.theta_star_matrix(HYPER, 16, x @ x.T, WIDTH).matrix
    block = ntk_theory._one_numpy_blas_thread if threads == "one" else nullcontext

    def solve():
        with block():
            return ntk_theory.spd_solve(theta, theta[0])

    _, jitter = benchmark(solve)
    assert jitter == 0.0
