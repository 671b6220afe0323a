"""Timings of the mean-field layer with pytest-benchmark.

Not part of the test suite (the file name does not match test_*.py); run it
from the root of a checkout with

    PYTHONPATH=src python -m pytest tests/bench_meanfield.py -p no:cacheprovider \
        --benchmark-json=<file>

It times three things, each on its own inputs:

  - one run_trace of depth TRACE_DEPTH at 1 (a scalar), 3 and 277 layer-0
    covariances: the predict-variance reference trace, the default
    kappa-curves covariances and the 276 pairs of a 24-point sample plus the
    reference covariance; the time per layer is the time / TRACE_DEPTH;
  - one cell of the default kappa-curves sweep and one predict-variance cell
    (S = 128, L = 32, 50 000 Monte-Carlo samples), through the cell
    functions the CLI runs;
  - Theta*(X) plus K(X) of a 24-point sample of unit-norm rows;
  - tanh Theta*(X) plus K(X), L = 16, on a fresh sample each round, with
    quadrature's Chebyshev fits kept from earlier rounds (warm) or dropped
    before each round (cold): 24 points at the infinite-width benchmark's
    cell (1.5, 0.1), and 12 points at (4, 1), whose fits need degree 128 or
    256, more than an array of a 12-point sample's covariances can use.

Every benchmark uses only names that have existed since the one-loop trace
(run_trace, theta_star_matrix, nngp_matrix, sweeps.SWEEPS), and the fit
cache is looked up with getattr, so the same file times earlier commits too.
"""
import itertools

import numpy as np
import pytest

from ntklab import quadrature
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.meanfield import InitHyper, run_trace
from ntklab.ntk_theory import nngp_matrix, theta_star_matrix
from ntklab.sweeps import SWEEPS, SweepConfig

TRACE_DEPTH = 32
HYPER = {"relu": (2.0, 1.0), "tanh": (1.5, 0.1)}


def _hyper(name):
    sw, sb = HYPER[name]
    return InitHyper(sw, sb, ActivationKind.from_name(name))


def _sample_covariances(n, seed=0):
    x = synthetic_dataset(n, 64, seed=seed).inputs
    return x @ x.T


@pytest.mark.parametrize("activation", list(HYPER))
@pytest.mark.parametrize("n_covs", [1, 3, 277])
def test_run_trace(benchmark, activation, n_covs):
    if n_covs == 1:
        q0_sr = 0.5
    elif n_covs == 3:
        q0_sr = np.array([0.0, 0.5, 0.9])
    else:
        cov = _sample_covariances(24)
        q0_sr = np.append(cov[np.triu_indices(24, 1)], 0.5)
    benchmark.extra_info["layers"] = TRACE_DEPTH
    benchmark(run_trace, _hyper(activation), TRACE_DEPTH, 1.0, q0_sr)


@pytest.mark.parametrize("experiment,cell", [("kappa-curves", (2.0, 1.0)),
                                             ("predict-variance", (2.0, 32))])
def test_sweep_cell(benchmark, experiment, cell):
    cfg = SweepConfig(experiment=experiment, sample_count=128, mc_samples=50_000)
    run = SWEEPS[experiment].setup(cfg)
    benchmark(run, cell, 0)


@pytest.mark.parametrize("activation", list(HYPER))
def test_theta_star_and_nngp(benchmark, activation):
    cov0 = _sample_covariances(24)
    hyper = _hyper(activation)

    def kernels():
        return theta_star_matrix(hyper, 16, cov0, 64), nngp_matrix(hyper, 16, cov0)

    benchmark(kernels)


FRESH_CELLS = {"s24": (1.5, 0.1, 24), "s12-deep-fits": (4.0, 1.0, 12)}


@pytest.mark.parametrize("fits", ["warm", "cold"])
@pytest.mark.parametrize("cell", list(FRESH_CELLS))
def test_tanh_kernels_of_fresh_samples(benchmark, cell, fits):
    sw, sb, size = FRESH_CELLS[cell]
    hyper = InitHyper(sw, sb, ActivationKind.TANH)
    seeds = itertools.count(1)
    fit_cache = getattr(quadrature, "_FITS", None)

    def fresh_sample():
        if fits == "cold" and fit_cache is not None:
            fit_cache.clear()
        return (_sample_covariances(size, next(seeds)),), {}

    def kernels(cov0):
        return theta_star_matrix(hyper, 16, cov0, 64), nngp_matrix(hyper, 16, cov0)

    benchmark.pedantic(kernels, setup=fresh_sample, rounds=60, warmup_rounds=1)
