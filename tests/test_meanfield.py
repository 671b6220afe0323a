import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntklab.activations import ActivationKind
from ntklab.meanfield import (
    CorrelationDomainError,
    InitHyper,
    Phase,
    SignalOverflowError,
    avg_dphi_prod,
    avg_dphi_sq,
    avg_phi_prod,
    avg_phi_sq,
    classify_phase,
    edge_of_chaos_sigma_w_sq,
    run_trace,
    variance_fixed_point,
)

RELU = ActivationKind.RELU
ERF = ActivationKind.ERF
TANH = ActivationKind.TANH

# Values pinned by the independent adaptive-quadrature oracle (tests/oracles.py)
# at authoring time.
ERF_AVG_PHI_SQ_Q1 = 0.4645590543975401          # E[erf(z)^2]
ERF_CHI1_SW1_Q1 = 0.5694100347337416            # (2/pi)/sqrt(5/4)
ERF_EOC_BORDER_SB1 = 2.7183813523354585         # chi1(q*) = 1 crossing at sigma_b^2 = 1

# erf (3,1) trace at depth 20, q0 = 1, q0_sr = 0.5 (oracle recursion).
ERF31_L20 = dict(
    q1=2.39367716319262,
    q20=2.9605538852200315,
    q_sr1=1.6490406878163564,
    q_sr20=2.7404219726585892,
    p1=3.774380633934982,
    p_sr1=0.035704450774069064,
)


def hyper(sw, sb, kind=RELU):
    return InitHyper(sw, sb, kind)


class TestInitHyper:
    def test_rejects_nonpositive_weight_variance(self):
        with pytest.raises(ValueError):
            InitHyper(0.0, 1.0, RELU)
        with pytest.raises(ValueError):
            InitHyper(-1.0, 1.0, RELU)

    def test_rejects_negative_bias_variance(self):
        with pytest.raises(ValueError):
            InitHyper(1.0, -0.1, RELU)


class TestForwardRecursion:
    def test_relu_eoc_identity(self):
        # q = (sigma_w^2 / 2) q_prev + sigma_b^2; at (2, 0) the map is the identity
        trace = run_trace(hyper(2.0, 0.0), 1)
        assert trace.q[1] == 1.0
        assert trace.q_hat[0] == 0.5

    def test_relu_eoc_fixed_point_iterates(self):
        assert np.all(run_trace(hyper(2.0, 0.0), 50).q == 1.0)

    def test_erf_value_against_quadrature_oracle(self):
        trace = run_trace(hyper(1.0, 1.0, ERF), 1)
        assert trace.q_hat[0] == pytest.approx(ERF_AVG_PHI_SQ_Q1, rel=1e-12)
        assert trace.q[1] == pytest.approx(1.0 + ERF_AVG_PHI_SQ_Q1, rel=1e-12)
        # equals the arctan closed form
        assert trace.q[1] == pytest.approx(
            2.0 / math.pi * math.atan(1.0 / math.sqrt(1.25)) + 1.0, rel=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            run_trace(hyper(1.0, 0.0), 1, q0=0.0)
        with pytest.raises(ValueError):
            variance_fixed_point(hyper(1.0, 0.5), q0=0.0)
        # q = 0.005^l underflows to 0 near layer 141; so does p = 0.005^(L-l)
        with pytest.raises(ValueError, match="positive"):
            run_trace(hyper(0.01, 0.0), 200)
        with pytest.raises(ValueError, match="positive"):
            run_trace(hyper(0.01, 1.0), 200)

    def test_relu_full_correlation_collapses_to_variance_map(self):
        for q0 in (0.25, 1.0, 4.0):
            trace = run_trace(hyper(1.7, 0.3), 1, q0=q0, q0_sr=q0)
            assert trace.q_sr[1] == pytest.approx(trace.q[1], abs=1e-12)

    def test_relu_orthogonal_inputs(self):
        # (2/2pi) * 1 * (1 + 0 + 0) = 1/pi, cross-checked by the 2-D quadrature oracle
        trace = run_trace(hyper(2.0, 0.0), 1, q0_sr=0.0)
        assert trace.q_sr[1] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert trace.q_hat_sr[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_erf_full_correlation_collapses(self):
        trace = run_trace(hyper(1.0, 1.0, ERF), 1, q0_sr=1.0)
        assert trace.q_sr[1] == pytest.approx(trace.q[1], abs=1e-12)

    def test_correlation_domain_error(self):
        with pytest.raises(CorrelationDomainError):
            avg_phi_prod(RELU, 1.0, 1.0, 1.5)

    def test_clamps_tiny_violation(self):
        trace = run_trace(hyper(1.0, 0.0), 1, q0_sr=1.0 + 1e-12)
        assert trace.c[0] == 1.0
        assert trace.q_sr[1] == pytest.approx(trace.q[1], abs=1e-12)
        assert avg_phi_prod(RELU, 1.0, 1.0, 1.0 + 1e-12) == avg_phi_prod(RELU, 1.0, 1.0, 1.0)


class TestBackwardRecursion:
    def test_relu_chi1_is_half_weight_variance(self):
        for q0 in (0.1, 1.0, 7.0):
            trace = run_trace(hyper(2.0, 0.0), 2, q0=q0)
            assert np.all(trace.chi1[:2] == 1.0)  # EOC independent of sigma_b^2 and q
            trace = run_trace(hyper(3.0, 1.0), 2, q0=q0)
            assert np.all(trace.chi1[:2] == 1.5)

    def test_erf_chi1_value(self):
        assert run_trace(hyper(1.0, 0.0, ERF), 2).chi1[0] == pytest.approx(
            ERF_CHI1_SW1_Q1, rel=1e-12)

    # at c = 1 the error-covariance factor E[phi'(u1) phi'(u2)] is the
    # variance factor E[phi'(sqrt(q) z)^2]; inside a trace c reaches 1 only to
    # rounding, where arcsin amplifies it, so the check is on the expectations
    def test_relu_full_correlation_matches_variance_channel(self):
        assert avg_dphi_prod(RELU, 2.0, 2.0, 1.0) == pytest.approx(avg_dphi_sq(RELU, 2.0),
                                                                   abs=1e-12)

    def test_relu_orthogonal(self):
        # (2/2pi)(pi/2) = 1/2
        assert 2.0 * avg_dphi_prod(RELU, 1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_erf_full_correlation_matches_variance_channel(self):
        assert avg_dphi_prod(ERF, 1.5, 1.5, 1.0) == pytest.approx(avg_dphi_sq(ERF, 1.5),
                                                                  abs=1e-12)


# Collapse of the covariance channel onto the variance channel at c = 1,
# over random hyperparameters and scales (all activation kinds).
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.2, 4.0),
    sb=st.floats(0.0, 2.0),
    q=st.floats(1e-3, 16.0),
)
def test_covariance_collapse_property(kind, sw, sb, q):
    trace = run_trace(InitHyper(sw, sb, kind), 1, q0=q, q0_sr=q)
    assert trace.q_sr[1] == pytest.approx(trace.q[1], rel=1e-12, abs=1e-12)
    assert trace.q_hat_sr[0] == pytest.approx(trace.q_hat[0], rel=1e-12, abs=1e-12)
    assert sw * avg_dphi_prod(kind, q, q, 1.0) == pytest.approx(
        sw * avg_dphi_sq(kind, q), rel=1e-12, abs=1e-12)


# run_trace at depth 2 against the recursion written out by hand from the
# Gaussian expectations: every array bit for bit.
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.2, 4.0),
    sb=st.floats(0.0, 2.0),
    q0=st.floats(1e-2, 8.0),
    c0=st.floats(-1.0, 1.0),
)
def test_depth_two_trace_is_the_hand_recursion(kind, sw, sb, q0, c0):
    def clamp(c):
        return min(max(c, -1.0), 1.0)

    q0_sr = c0 * q0
    q_hat0 = avg_phi_sq(kind, q0)
    q1 = sw * q_hat0 + sb
    q_hat_sr0 = avg_phi_prod(kind, q0, q0, q0_sr / np.sqrt(q0 * q0))
    q_sr1 = sw * q_hat_sr0 + sb
    q_hat1 = avg_phi_sq(kind, q1)
    q2 = sw * q_hat1 + sb
    q_hat_sr1 = avg_phi_prod(kind, q1, q1, q_sr1 / np.sqrt(q1 * q1))
    q_sr2 = sw * q_hat_sr1 + sb
    c2 = clamp(q_sr2 / q2)
    chi1_1 = sw * avg_dphi_sq(kind, q1)
    want = dict(
        q=[q0, q1, q2],
        q_hat=[q_hat0, q_hat1, avg_phi_sq(kind, q2)],
        chi1=[sw * avg_dphi_sq(kind, q0), chi1_1, np.nan],
        p=[np.nan, chi1_1 * 1.0, 1.0],
        q_sr=[q0_sr, q_sr1, q_sr2],
        q_hat_sr=[q_hat_sr0, q_hat_sr1, avg_phi_prod(kind, q2, q2, c2)],
        c=[clamp(q0_sr / q0), clamp(q_sr1 / q1), c2],
        p_sr=[np.nan, sw * avg_dphi_prod(kind, q1, q1, clamp(q_sr1 / q1)) * 1.0, 1.0],
    )
    trace = run_trace(InitHyper(sw, sb, kind), 2, q0=q0, q0_sr=q0_sr)
    for name, values in want.items():
        np.testing.assert_array_equal(getattr(trace, name),
                                      np.array(values, dtype=float), err_msg=name)


class TestRunTrace:
    def test_relu_eoc_all_ones(self):
        trace = run_trace(hyper(2.0, 0.0), 10)
        assert np.allclose(trace.q, 1.0)
        assert np.allclose(trace.chi1[:10], 1.0)
        assert np.allclose(trace.p[1:], 1.0)
        assert math.isnan(trace.p[0]) and math.isnan(trace.chi1[10])

    def test_relu_ordered_backward_decay(self):
        # chi1 = 1/2 everywhere, so p^l = 2^{-(L-l)}
        L = 8
        trace = run_trace(hyper(1.0, 1.0), L)
        for l in range(1, L + 1):
            assert trace.p[l] == pytest.approx(0.5 ** (L - l), rel=1e-12)

    def test_chain_rule_between_p_and_chi1(self):
        trace = run_trace(hyper(1.4, 0.6, ERF), 12)
        for l in range(1, 12):
            assert trace.p[l] == pytest.approx(trace.p[l + 1] * trace.chi1[l], rel=1e-12)

    def test_erf_chaotic_regression_fixture(self):
        trace = run_trace(hyper(3.0, 1.0, ERF), 20, q0=1.0, q0_sr=0.5)
        assert trace.q[1] == pytest.approx(ERF31_L20["q1"], rel=1e-12)
        assert trace.q[20] == pytest.approx(ERF31_L20["q20"], rel=1e-12)
        assert trace.q_sr[1] == pytest.approx(ERF31_L20["q_sr1"], rel=1e-12)
        assert trace.q_sr[20] == pytest.approx(ERF31_L20["q_sr20"], rel=1e-12)
        assert trace.p[1] == pytest.approx(ERF31_L20["p1"], rel=1e-12)
        assert trace.p_sr[1] == pytest.approx(ERF31_L20["p_sr1"], rel=1e-12)

    def test_rejects_bad_initial_covariance(self):
        with pytest.raises(ValueError):
            run_trace(hyper(1.0, 1.0), 3, q0=1.0, q0_sr=1.5)

    def test_overflow_identifies_layer(self):
        with pytest.raises(SignalOverflowError) as err:
            run_trace(hyper(9.0, 0.0), 800)
        assert err.value.layer is not None

    def test_tanh_trace_finite(self):
        trace = run_trace(hyper(1.5, 0.5, TANH), 15, q0=1.0, q0_sr=0.3)
        assert np.all(np.isfinite(trace.q))
        assert np.all(np.isfinite(trace.p[1:]))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.3, 3.0),
    sb=st.floats(0.0, 1.5),
    c0=st.floats(-1.0, 1.0),
    depth=st.integers(1, 12),
)
def test_correlation_boundedness_property(kind, sw, sb, c0, depth):
    trace = run_trace(InitHyper(sw, sb, kind), depth, q0=1.0, q0_sr=c0)
    assert np.all(np.abs(trace.c) <= 1.0 + 1e-9)
    assert np.all(np.abs(trace.q_sr[1:]) <= trace.q[1:] * (1.0 + 1e-9))


class TestClassifyPhase:
    def test_relu_phases(self):
        assert classify_phase(hyper(2.0, 0.0)).tag is Phase.EOC
        assert classify_phase(hyper(2.0, 1.3)).tag is Phase.EOC
        assert classify_phase(hyper(3.0, 1.0)).tag is Phase.CHAOTIC
        assert classify_phase(hyper(1.0, 1.0)).tag is Phase.ORDERED

    def test_relu_eoc_independent_of_bias(self):
        for sb in np.linspace(0.0, 2.0, 9):
            label = classify_phase(hyper(2.0, float(sb)))
            assert label.tag is Phase.EOC
            assert label.chi1_fixed_point == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    def test_monotone_phase_transition(self, kind):
        order = {Phase.ORDERED: 0, Phase.EOC: 1, Phase.CHAOTIC: 2}
        codes = [order[classify_phase(InitHyper(sw, 1.0, kind)).tag]
                 for sw in np.linspace(0.4, 6.0, 57)]
        assert codes == sorted(codes)
        assert codes[0] == 0 and codes[-1] == 2

    def test_erf_border_matches_oracle_bisection(self):
        border = edge_of_chaos_sigma_w_sq(ERF, 1.0, bracket=(0.5, 3.0))
        assert border == pytest.approx(ERF_EOC_BORDER_SB1, abs=1e-8)
        assert classify_phase(hyper(border - 0.01, 1.0, ERF)).tag is Phase.ORDERED
        assert classify_phase(hyper(border + 0.01, 1.0, ERF)).tag is Phase.CHAOTIC

    def test_relu_border_is_two(self):
        assert edge_of_chaos_sigma_w_sq(RELU, 0.7) == pytest.approx(2.0, rel=1e-9)

    def test_fixed_point_value_erf(self):
        q_star, chi = variance_fixed_point(hyper(1.0, 1.0, ERF))
        q_mapped = run_trace(hyper(1.0, 1.0, ERF), 1, q0=q_star).q[1]
        assert q_mapped == pytest.approx(q_star, rel=1e-10)
        assert chi < 1.0


def test_tanh_edge_of_chaos_without_bias():
    # q -> 0 only algebraically at sigma_w^2 = 1, sigma_b^2 = 0; the q* = 0
    # fixed point is read off directly with chi1 = sigma_w^2 tanh'(0)^2 = 1
    label = classify_phase(InitHyper(1.0, 0.0, TANH))
    assert label.tag is Phase.EOC
    assert label.chi1_fixed_point == 1.0
    q_star, chi = variance_fixed_point(InitHyper(0.5, 0.0, ERF))
    assert q_star == 0.0
    assert chi == pytest.approx(0.5 * 4.0 / math.pi, rel=1e-15)


def _unit_norm_covariances(n, seed):
    from ntklab.data_io import synthetic_dataset

    x = synthetic_dataset(n, 16, seed=seed).inputs
    cov = x @ x.T
    return cov[np.triu_indices(n, 1)]


class TestArrayTrace:
    @pytest.mark.parametrize("kind,sw,sb", [(RELU, 2.0, 0.5), (ERF, 3.0, 1.0),
                                            (TANH, 1.5, 0.1)])
    def test_each_column_is_the_scalar_trace(self, kind, sw, sb):
        covs = _unit_norm_covariances(7, seed=11)
        h = InitHyper(sw, sb, kind)
        trace = run_trace(h, 9, q0_sr=covs)
        assert trace.q_sr.shape == (10, len(covs))
        for k, c0 in enumerate(covs):
            ref = run_trace(h, 9, q0_sr=float(c0))
            for name in ("q", "q_hat", "p", "chi1"):
                np.testing.assert_array_equal(getattr(trace, name), getattr(ref, name))
            for name in ("q_sr", "q_hat_sr", "c", "p_sr"):
                np.testing.assert_array_equal(getattr(trace, name)[:, k], getattr(ref, name))

    def test_correlation_domain_error_on_array_input(self):
        with pytest.raises(CorrelationDomainError):
            avg_phi_prod(RELU, 1.0, 1.0, np.array([0.2, 1.5, 0.3]))
        with pytest.raises(CorrelationDomainError):
            avg_dphi_prod(TANH, 1.0, 1.0, np.array([-1.2, 0.0]))

    def test_overflow_on_array_input_identifies_layer(self):
        with pytest.raises(SignalOverflowError) as scalar:
            run_trace(hyper(9.0, 0.0), 800, q0_sr=0.5)
        with pytest.raises(SignalOverflowError) as array:
            run_trace(hyper(9.0, 0.0), 800, q0_sr=np.array([0.1, 0.5, 0.9]))
        assert array.value.layer is not None
        assert array.value.layer == scalar.value.layer

    def test_rejects_two_dimensional_covariances(self):
        with pytest.raises(ValueError):
            run_trace(hyper(1.0, 1.0), 3, q0_sr=np.full((2, 2), 0.5))
