"""Timings of the mean-field layer with pytest-benchmark.

Not part of the test suite (the file name does not match test_*.py); run it
from the root of a checkout with

    PYTHONPATH=src python -m pytest tests/bench_meanfield.py -p no:cacheprovider \
        --benchmark-json=<file>

It times these things, each on its own inputs:

  - one meanfield.depth_sums of depth TRACE_DEPTH at 1, 3 and 277 layer-0
    covariances: the predict-variance reference covariance, the default
    kappa-curves covariances and the 276 pairs of a 24-point sample plus the
    reference covariance; the time per layer is the time / TRACE_DEPTH;
  - one cell of the default kappa-curves sweep and one predict-variance cell
    (S = 128, L = 32, 50 000 Monte-Carlo samples), through the cell
    functions the CLI runs;
  - Theta*(X) plus K(X), L = 16, of samples of 24, 64, 512 and 1024
    unit-norm rows, and the peak resident memory of a fresh interpreter
    that builds them at S = 1024;
  - tanh Theta*(X) plus K(X), L = 16, on a fresh sample each round, with
    quadrature's Chebyshev fits kept from earlier rounds (warm) or dropped
    before each round (cold): 24 points at the infinite-width benchmark's
    cell (1.5, 0.1), and 12 points at (4, 1), whose fits need degree 128 or
    256, more than an array of a 12-point sample's covariances can use.

Apart from the depth_sums timings and the sweep cells, which are skipped
where meanfield.depth_sums or sweeps.grid (the cells of a sweep's config)
does not exist, every benchmark uses only names that have existed since
the one-loop trace (theta_star_matrix, nngp_matrix), and the fit cache is
cleared through quadrature._fit.cache_clear, or quadrature._FITS.clear on
trees that kept their fits in a _FitCache, so the same file times earlier
commits too.
"""
import itertools
import subprocess
import sys

import numpy as np
import pytest

from ntklab import meanfield, quadrature, sweeps
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.meanfield import InitHyper
from ntklab.ntk_theory import nngp_matrix, theta_star_matrix

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
def test_depth_sums(benchmark, activation, n_covs):
    depth_sums = getattr(meanfield, "depth_sums", None)
    if depth_sums is None:
        pytest.skip("no meanfield.depth_sums in this commit")
    if n_covs == 1:
        q0_sr = np.array([0.5])
    elif n_covs == 3:
        q0_sr = np.array([0.0, 0.5, 0.9])
    else:
        cov = _sample_covariances(24)
        q0_sr = np.append(cov[np.triu_indices(24, 1)], 0.5)
    benchmark.extra_info["layers"] = TRACE_DEPTH
    benchmark(depth_sums, _hyper(activation), [TRACE_DEPTH], 1.0, q0_sr)


@pytest.mark.parametrize("experiment,overrides", [("kappa-curves", {}),
                                                  ("predict-variance", {"depths": [32]})],
                         ids=["kappa-curves", "predict-variance"])
def test_sweep_cell(benchmark, experiment, overrides):
    grid = getattr(sweeps, "grid", None)
    if grid is None:
        pytest.skip("no sweeps.grid in this commit")
    # the one cell of a one-cell grid, so it has the shape the sweep expects
    cfg = sweeps.SweepConfig(experiment=experiment, sigma_w_sq=[2.0], sigma_b_sq=[1.0],
                             sample_count=128, mc_samples=50_000, **overrides)
    (cell,) = grid(cfg)
    run = sweeps.SWEEPS[experiment].setup(cfg)
    benchmark(run, cell, 0)


@pytest.mark.parametrize("activation", list(HYPER))
@pytest.mark.parametrize("size", [24, 64, 512, 1024])
def test_theta_star_and_nngp(benchmark, activation, size):
    cov0 = _sample_covariances(size)
    hyper = _hyper(activation)

    def kernels():
        return theta_star_matrix(hyper, 16, cov0, 64), nngp_matrix(hyper, 16, cov0)

    if size <= 64:
        benchmark(kernels)
    else:  # ~0.1 to 3 s a call
        benchmark.pedantic(kernels, rounds=5, warmup_rounds=1)


PEAK_RSS_CHILD = """
import resource, sys
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.meanfield import InitHyper
from ntklab.ntk_theory import nngp_matrix, theta_star_matrix
x = synthetic_dataset(1024, 64, seed=0).inputs
hyper = InitHyper(*{hyper}, ActivationKind.from_name({activation!r}))
theta_star_matrix(hyper, 16, x @ x.T, 64), nngp_matrix(hyper, 16, x @ x.T)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


@pytest.mark.parametrize("activation", list(HYPER))
def test_peak_rss_s1024(benchmark, activation):
    # a fresh interpreter per round: ru_maxrss is the peak of the whole process
    code = PEAK_RSS_CHILD.format(hyper=HYPER[activation], activation=activation)
    peaks = []

    def child():
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True).stdout
        peaks.append(float(out.split()[-1]))

    benchmark.pedantic(child, rounds=3)
    benchmark.extra_info["peak_rss_mb"] = peaks


FRESH_CELLS = {"s24": (1.5, 0.1, 24), "s12-deep-fits": (4.0, 1.0, 12)}


@pytest.mark.parametrize("fits", ["warm", "cold"])
@pytest.mark.parametrize("cell", list(FRESH_CELLS))
def test_tanh_kernels_of_fresh_samples(benchmark, cell, fits):
    sw, sb, size = FRESH_CELLS[cell]
    hyper = InitHyper(sw, sb, ActivationKind.TANH)
    seeds = itertools.count(1)
    # None on a tree that keeps no fits
    clear_fits = (getattr(getattr(quadrature, "_fit", None), "cache_clear", None)
                  or getattr(getattr(quadrature, "_FITS", None), "clear", None))

    def fresh_sample():
        if fits == "cold" and clear_fits is not None:
            clear_fits()
        return (_sample_covariances(size, next(seeds)),), {}

    def kernels(cov0):
        return theta_star_matrix(hyper, 16, cov0, 64), nngp_matrix(hyper, 16, cov0)

    benchmark.pedantic(kernels, setup=fresh_sample, rounds=60, warmup_rounds=1)
