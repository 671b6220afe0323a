import numpy as np
import pytest

from ntklab.activations import ActivationKind, dphi, phi
from ntklab.quadrature import DEFAULT_NODES, CHEB_DEGREES, FIT_CACHE_SIZE, PAIR_CHUNK, \
    _FITS, _FitCache, _chebyshev_fit, _evaluate_in_x, _half_grid_rule, gauss_hermite_rule, \
    normal_expectation, normal_pair_expectation

TANH = ActivationKind.TANH
IN_PLACE = {"tanh-in-place": lambda u: phi(TANH, u, out=u),
            "dtanh-in-place": lambda u: dphi(TANH, u, out=u)}


def test_rule_integrates_gaussian_moments_exactly():
    x, w = gauss_hermite_rule(64)
    assert np.isclose(w.sum(), 1.0, rtol=1e-13)
    assert abs(np.dot(w, x)) < 1e-14
    assert np.isclose(np.dot(w, x ** 2), 1.0, rtol=1e-13)
    assert np.isclose(np.dot(w, x ** 4), 3.0, rtol=1e-12)


def test_normal_expectation_scaling():
    # E[(a Z)^2] = a^2
    assert np.isclose(normal_expectation(lambda u: u ** 2, scale=3.0), 9.0, rtol=1e-12)


@pytest.mark.parametrize("c", [-0.8, 0.0, 0.5, 1.0])
def test_pair_expectation_reproduces_gaussian_correlation(c):
    # E[u1 u2] = c * sqrt(q_s q_r) for any correlation
    val = normal_pair_expectation(lambda u: u, 2.0, 0.5, c)
    assert np.isclose(val, c, rtol=1e-12, atol=1e-13)


def test_pair_expectation_smooth_function_matches_oracle():
    from oracles import avg_phi_prod_oracle
    from ntklab.activations import ActivationKind

    val = normal_pair_expectation(np.tanh, 1.0, 1.0, 0.5)
    ref = avg_phi_prod_oracle(ActivationKind.TANH, 1.0, 1.0, 0.5)
    assert np.isclose(val, ref, rtol=1e-8)


def test_pair_expectation_array_entries_equal_scalar_calls():
    # 37 correlations span three blocks of the direct rule; each entry must
    # not depend on its block
    c = np.linspace(-1.0, 1.0, 37)
    vals = _half_grid_rule(np.tanh, 1.3, 0.7, DEFAULT_NODES, c.size)(c)
    assert vals.shape == c.shape
    for ck, v in zip(c, vals):
        assert v == normal_pair_expectation(np.tanh, 1.3, 0.7, ck)


def test_normal_expectation_array_of_scales():
    scales = np.array([0.5, 1.0, 3.0])
    vals = normal_expectation(lambda u: u ** 2, scales)
    assert np.allclose(vals, scales ** 2, rtol=1e-12)


@pytest.mark.parametrize("name", ["tanh-in-place", "dtanh-in-place", "np.tanh", "identity"])
def test_buffered_pair_rule_matches_full_grid(name):
    # The half-grid rule sums in another order than the full-grid block loop,
    # so they agree to rounding: within 1e-14 of the Cauchy-Schwarz scale
    # sqrt(E f(u1)^2 E f(u2)^2), which bounds |E f(u1) f(u2)|.
    from oracles import reference_pair_expectation
    from ntklab.activations import ActivationKind, dphi, phi

    tanh = ActivationKind.TANH
    f = {"tanh-in-place": lambda u: phi(tanh, u, out=u),
         "dtanh-in-place": lambda u: dphi(tanh, u, out=u),
         "np.tanh": np.tanh, "identity": lambda u: u}[name]
    # 40 correlations: the ends, zero, and two full blocks and a partial one
    c = np.concatenate([[-1.0, 0.0, 1.0], np.linspace(-1.0, 1.0, 37)])
    for n_nodes in (63, 64):
        for q_s, q_r in [(1.3, 0.7), (0.2, 4.0), (9.0, 9.0)]:
            scale = _cauchy_schwarz_scale(f, q_s, q_r, n_nodes)
            got = normal_pair_expectation(f, q_s, q_r, c, n_nodes)
            want = reference_pair_expectation(f, q_s, q_r, c, n_nodes)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
            assert abs(normal_pair_expectation(f, q_s, q_r, 0.3, n_nodes)
                       - reference_pair_expectation(f, q_s, q_r, 0.3, n_nodes)) <= 1e-14 * scale


@pytest.mark.parametrize("f", [np.exp, lambda u: u + 1.0], ids=["exp", "shifted-identity"])
def test_pair_rule_rejects_an_integrand_neither_odd_nor_even(f):
    with pytest.raises(ValueError, match="odd or an even"):
        normal_pair_expectation(f, 1.0, 1.0, 0.5)


def test_pair_rule_allocates_one_block_buffer():
    import tracemalloc

    from ntklab.activations import ActivationKind
    from ntklab.meanfield import avg_phi_prod
    from ntklab.quadrature import DEFAULT_NODES, PAIR_CHUNK

    # the 276 pairs of a 24-point sample: 18 blocks of correlations
    c = np.linspace(-0.9, 0.95, 276)
    avg_phi_prod(ActivationKind.TANH, 1.2, c)  # warm the cached Gauss-Hermite rule
    block = PAIR_CHUNK * DEFAULT_NODES * DEFAULT_NODES * 8
    _FITS.clear()  # so that the measured call fits too
    tracemalloc.start()
    try:
        avg_phi_prod(ActivationKind.TANH, 1.2, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block


def test_pair_expectation_of_clamped_correlations_allocates_no_copy():
    # avg_phi_prod clamps its correlations to [-1, 1]; an array already inside
    # is handed to the pair rule as it is, so the call peaks where the rule
    # alone does, not one array of the 32 640 correlations higher
    import tracemalloc

    from ntklab.meanfield import avg_phi_prod

    c = np.linspace(-0.9, 0.95, 32640)
    peaks = []
    for call in (lambda: normal_pair_expectation(IN_PLACE["tanh-in-place"], 1.2, 1.2, c),
                 lambda: avg_phi_prod(TANH, 1.2, c)):
        call()  # warm the cached Gauss-Hermite rule
        _FITS.clear()  # so that the measured call fits too
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.02 * peaks[0]


def test_interpolated_pair_rule_allocates_a_few_arrays_of_the_input_size():
    # the 32 640 pairs of a 256-point sample: the Clenshaw loop reuses three
    # buffers and the output, however high the fitted degree
    import tracemalloc

    from ntklab.quadrature import PAIR_CHUNK

    c = np.linspace(-0.9, 0.95, 32640)
    block = PAIR_CHUNK * (DEFAULT_NODES // 2) * DEFAULT_NODES * 8
    for f in IN_PLACE.values():
        for q in (0.3, 4.0):  # fitted at degree 32, and 128 or 256
            normal_pair_expectation(f, q, q, c)  # warm the cached Gauss-Hermite rule
            _FITS.clear()  # so that the measured call fits too
            tracemalloc.start()
            try:
                normal_pair_expectation(f, q, q, c)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < block + 4.5 * c.nbytes


def _cauchy_schwarz_scale(f, q_s, q_r, n_nodes=DEFAULT_NODES):
    """sqrt(E f(u1)^2 E f(u2)^2), which bounds |E f(u1) f(u2)|."""
    return np.sqrt(normal_expectation(lambda u: f(u) ** 2, np.sqrt(q_s), n_nodes)
                   * normal_expectation(lambda u: f(u) ** 2, np.sqrt(q_r), n_nodes))


# the ends, zero, a cluster 1 - 10^-k at c -> 1, and enough correlations
# (more than twice the largest node count, 257) for every fit degree
LARGE_C = np.concatenate([[-1.0, 0.0, 1.0], 1.0 - 10.0 ** -np.arange(1.0, 17.0),
                          np.linspace(-1.0, 1.0, 521)])


@pytest.mark.parametrize("name", sorted(IN_PLACE))
@pytest.mark.parametrize("q_s,q_r", [(q, q) for q in (0.01, 0.3, 1.0, 2.0, 4.0, 9.0, 16.0)]
                         + [(0.7, 1.9)])
def test_interpolated_pair_rule_matches_direct_rule(name, q_s, q_r):
    # the Chebyshev interpolant in c against the direct half-grid rule at
    # every correlation, within 1e-13 of the Cauchy-Schwarz scale; up to
    # q = 16 the tail converges within 257 nodes, so the interpolant is used
    f = IN_PLACE[name]
    direct = _half_grid_rule(f, q_s, q_r, DEFAULT_NODES, LARGE_C.size)
    assert _chebyshev_fit(direct) is not None
    got = normal_pair_expectation(f, q_s, q_r, LARGE_C)
    want = direct(LARGE_C)
    assert np.max(np.abs(got - want)) <= 1e-13 * _cauchy_schwarz_scale(f, q_s, q_r)


@pytest.mark.parametrize("name", sorted(IN_PLACE))
@pytest.mark.parametrize("q", [0.3, 4.0])
def test_interpolant_is_exactly_even_or_odd(name, q):
    # x = 2 c^2 - 1 rounds the same for c and -c
    f = IN_PLACE[name]
    c = np.concatenate([LARGE_C, np.random.default_rng(3).uniform(-1.0, 1.0, 4000)])
    c = np.concatenate([c, -c])
    vals = normal_pair_expectation(f, q, q, c)
    odd = _half_grid_rule(f, q, q, DEFAULT_NODES, 1).odd
    assert odd == (name == "tanh-in-place")
    assert np.array_equal(vals[c.size // 2:], -vals[:c.size // 2] if odd else vals[:c.size // 2])


@pytest.mark.parametrize("odd", [False, True])
def test_evaluation_in_x_matches_chebval(odd):
    # the half-degree series in x = 2 c^2 - 1 against numpy's chebval of the
    # full series in c with the other parity's coefficients zero
    rng = np.random.default_rng(5)
    half = rng.standard_normal(40) * 0.8 ** np.arange(40)
    full = np.zeros(2 * half.size)
    full[int(odd)::2] = half
    c = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 1000)])
    want = np.polynomial.chebyshev.chebval(c, full)
    assert np.max(np.abs(_evaluate_in_x(half, c, odd) - want)) <= 1e-14 * np.abs(half).sum()


def test_correlations_outside_the_unit_interval_take_the_direct_rule():
    # the interpolant lives on [-1, 1]; an array reaching outside is not fitted
    f = IN_PLACE["tanh-in-place"]
    c = np.append(LARGE_C, 1.5)
    got = normal_pair_expectation(f, 0.3, 0.3, c)
    assert np.array_equal(got, _half_grid_rule(f, 0.3, 0.3, DEFAULT_NODES, c.size)(c))


def test_nan_variance_gives_nan_on_a_large_array():
    for f in IN_PLACE.values():
        assert np.isnan(normal_pair_expectation(f, np.nan, np.nan, LARGE_C)).all()
        assert np.isnan(normal_pair_expectation(f, 1.0, np.nan, LARGE_C)).all()


def test_arrays_up_to_the_threshold_equal_scalar_calls():
    # at most twice the first node count, the direct rule runs bit for bit,
    # even where a fit would converge (q = 0.01 converges at degree 16)
    f = IN_PLACE["tanh-in-place"]
    threshold = 2 * (CHEB_DEGREES[0] + 1)
    c = np.linspace(-1.0, 1.0, threshold)
    vals = normal_pair_expectation(f, 0.01, 0.01, c)
    for ck, v in zip(c, vals):
        assert v == normal_pair_expectation(f, 0.01, 0.01, ck)
    _, degree = _chebyshev_fit(_half_grid_rule(f, 0.01, 0.01, DEFAULT_NODES, threshold + 1))
    assert degree == CHEB_DEGREES[0]


class TestFitCache:
    """The Chebyshev fits kept across calls give the bits of a fresh fit, and
    only where a fresh fit would have been used."""

    @pytest.mark.parametrize("name", sorted(IN_PLACE))
    @pytest.mark.parametrize("q", [0.3, 4.0])
    def test_warm_calls_equal_cold_calls(self, name, q):
        f = IN_PLACE[name]
        _, degree = _chebyshev_fit(_half_grid_rule(f, q, q, DEFAULT_NODES, PAIR_CHUNK))
        nodes = degree + 1
        above = np.linspace(-0.97, 0.99, 2 * nodes + 1)
        at = np.linspace(-0.97, 0.99, 2 * nodes)
        outside = np.append(above, 1.5)
        with_nan = np.append(above, np.nan)
        direct = {"at": at, "outside": outside, "nan": with_nan}
        calls = {"above": above, **direct}
        cold = {}
        for key, c in calls.items():
            _FITS.clear()
            cold[key] = normal_pair_expectation(f, q, q, c)
        # warm: the fit made by the call above
        _FITS.clear()
        normal_pair_expectation(f, q, q, above)
        assert len(_FITS) == 1
        for key, c in calls.items():
            assert np.array_equal(normal_pair_expectation(f, q, q, c), cold[key],
                                  equal_nan=True), key
        # the arrays the fit does not serve take the direct rule
        for key, c in direct.items():
            rule = _half_grid_rule(f, q, q, DEFAULT_NODES, c.size)
            assert np.array_equal(cold[key], rule(c), equal_nan=True), key
        rule = _half_grid_rule(f, q, q, DEFAULT_NODES, above.size)
        coeffs, _ = _chebyshev_fit(rule)
        assert np.array_equal(cold["above"], _evaluate_in_x(coeffs, above, rule.odd))
        # the warm calls above and at looked the fit up; an array outside
        # [-1, 1] or holding a NaN never does
        assert _FITS.hits == 2

    def test_a_miss_fits_only_as_far_as_the_array_can_use(self):
        # an array of 67 correlations can use degree 32 at most: a cold call
        # runs the rule at the 17 nodes up to degree 32 and at its own
        # entries, as an uncached call would, and keeps a fit only if it
        # converged by then
        blocks = []

        def f(u):
            if u.ndim == 3:  # a block of correlations of the pair rule
                blocks.append(len(u))
            return phi(TANH, u, out=u)

        small = np.linspace(-0.97, 0.99, 2 * (32 + 1) + 1)
        _FITS.clear()
        cold = normal_pair_expectation(f, 4.0, 4.0, small)  # converges at 128 or 256
        assert sum(blocks) == 32 // 2 + 1 + small.size
        assert _FITS.misses == 1 and len(_FITS) == 0
        normal_pair_expectation(f, 4.0, 4.0, LARGE_C)  # the fit to convergence, kept
        assert _FITS.misses == 2 and len(_FITS) == 1
        blocks.clear()
        assert np.array_equal(normal_pair_expectation(f, 4.0, 4.0, small), cold)
        assert sum(blocks) == small.size and _FITS.hits == 1
        normal_pair_expectation(f, 0.3, 0.3, small)  # converges at degree 32, kept
        assert _FITS.misses == 3 and len(_FITS) == 2

    def test_concurrent_lookups_lose_no_update(self):
        # more threads than cores, switching often, on a cache smaller than
        # the variances they cycle through: every lookup is counted once, the
        # cache never outgrows its bound, and each fit has the serial bits
        import sys
        import threading

        f = IN_PLACE["tanh-in-place"]
        qs = [0.05 * (k + 1) for k in range(8)]
        want = {q: _chebyshev_fit(_half_grid_rule(f, q, q, DEFAULT_NODES, PAIR_CHUNK))
                for q in qs}
        cache = _FitCache(maxsize=3)
        size = 2 * (CHEB_DEGREES[-1] + 1) + 1
        wrong, sizes = [], []

        def work(shift):
            for k in range(40):
                q = qs[(k + shift) % len(qs)]
                (coeffs, _, degree), _ = cache.fit(f, q, q, DEFAULT_NODES, size)
                if degree != want[q][1] or not np.array_equal(coeffs, want[q][0]):
                    wrong.append(q)
                sizes.append(len(cache))

        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and max(sizes) <= 3
        assert cache.hits + cache.misses == 4 * 40

    def test_zero_dimensional_variances_share_the_fit_of_scalars(self):
        f = IN_PLACE["tanh-in-place"]
        _FITS.clear()
        want = normal_pair_expectation(f, 0.3, 0.3, LARGE_C)
        got = normal_pair_expectation(f, np.array(0.3), np.array(0.3), LARGE_C)
        assert np.array_equal(got, want)
        assert len(_FITS) == 1

    def test_the_cache_holds_only_coefficients(self):
        import gc
        import tracemalloc

        f = IN_PLACE["tanh-in-place"]
        c = np.linspace(-1.0, 1.0, 2 * (CHEB_DEGREES[-1] + 1) + 1)
        normal_pair_expectation(f, 16.0, 16.0, c)  # warm the cached Gauss-Hermite rule
        _FITS.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            # q up to 16 fits at degree 128 or 256: the largest entries
            for q in np.linspace(4.0, 16.0, FIT_CACHE_SIZE + 8):
                normal_pair_expectation(f, q, q, c)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(_FITS) == FIT_CACHE_SIZE
        assert after - before < FIT_CACHE_SIZE * 2048
