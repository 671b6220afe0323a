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
