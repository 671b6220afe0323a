import numpy as np
import pytest

from ntklab.quadrature import gauss_hermite_rule, normal_expectation, normal_pair_expectation


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
    # 37 correlations span three blocks; each entry must not depend on its block
    c = np.linspace(-1.0, 1.0, 37)
    vals = normal_pair_expectation(np.tanh, 1.3, 0.7, c)
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
            scale = np.sqrt(normal_expectation(lambda u: f(u) ** 2, np.sqrt(q_s), n_nodes)
                            * normal_expectation(lambda u: f(u) ** 2, np.sqrt(q_r), n_nodes))
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
    avg_phi_prod(ActivationKind.TANH, 1.2, 1.2, c)  # warm the cached rule
    block = PAIR_CHUNK * DEFAULT_NODES * DEFAULT_NODES * 8
    tracemalloc.start()
    try:
        avg_phi_prod(ActivationKind.TANH, 1.2, 1.2, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block
