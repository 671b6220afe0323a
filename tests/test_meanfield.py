import math
import warnings

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
    _clamp_correlation,
    classify_phase,
    depth_sums,
    edge_of_chaos_sigma_w_sq,
    forward_layers,
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

# erf (3,1) recursion at depths 1 and 20, q0 = 1, q0_sr = 0.5 (oracle recursion).
ERF31_L20 = dict(
    q1=2.39367716319262,
    q20=2.9605538852200315,
    q_sr1=1.6490406878163564,
    q_sr20=2.7404219726585892,
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


def layers(h, depth, q0=1.0, q0_sr=()):
    """The yields of forward_layers, one (q, q_sr, c, q_hat, q_hat_sr) per layer."""
    return list(forward_layers(h, depth, q0, np.asarray(q0_sr, dtype=float)))


def one(h, depth, q0=1.0, q0_sr=()):
    """depth_sums at one depth."""
    (sums,) = depth_sums(h, [depth], q0, np.asarray(q0_sr, dtype=float))
    return sums


class TestForwardRecursion:
    def test_relu_eoc_identity(self):
        # q = (sigma_w^2 / 2) q_prev + sigma_b^2; at (2, 0) the map is the identity
        ((q1, _, _, q_hat0, _),) = layers(hyper(2.0, 0.0), 1)
        assert q1 == 1.0
        assert q_hat0 == 0.5

    def test_relu_eoc_fixed_point_iterates(self):
        assert all(layer[0] == 1.0 for layer in layers(hyper(2.0, 0.0), 50))

    def test_erf_value_against_quadrature_oracle(self):
        ((q1, _, _, q_hat0, _),) = layers(hyper(1.0, 1.0, ERF), 1)
        assert q_hat0 == pytest.approx(ERF_AVG_PHI_SQ_Q1, rel=1e-12)
        assert q1 == pytest.approx(1.0 + ERF_AVG_PHI_SQ_Q1, rel=1e-12)
        # equals the arctan closed form
        assert q1 == pytest.approx(
            2.0 / math.pi * math.atan(1.0 / math.sqrt(1.25)) + 1.0, rel=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            layers(hyper(1.0, 0.0), 1, q0=0.0)
        with pytest.raises(ValueError):
            variance_fixed_point(hyper(1.0, 0.5), q0=0.0)
        # q = 0.005^l underflows to 0 near layer 141
        with pytest.raises(ValueError, match="positive"):
            one(hyper(0.01, 0.0), 200)

    def test_vanishing_multipliers_leave_the_sums_finite(self):
        # with sigma_b^2 = 1 only p^l = 0.005^(L - l) underflows, and the sums
        # that run forward never form it: B^L = 1 + 0.005 + 0.005^2 + ...
        sums = one(hyper(0.01, 1.0), 200, q0_sr=[0.5])
        assert sums.p_sum_diag == pytest.approx(1.0 / 0.995, rel=1e-14)
        assert sums.p_sum_cross[0] == pytest.approx(1.0 / 0.995, rel=1e-14)

    def test_relu_full_correlation_collapses_to_variance_map(self):
        for q0 in (0.25, 1.0, 4.0):
            ((q1, q_sr1, *_),) = layers(hyper(1.7, 0.3), 1, q0=q0, q0_sr=[q0])
            assert q_sr1[0] == pytest.approx(q1, abs=1e-12)

    def test_relu_orthogonal_inputs(self):
        # (2/2pi) * 1 * (1 + 0 + 0) = 1/pi, cross-checked by the 2-D quadrature oracle
        ((_, q_sr1, _, _, q_hat_sr0),) = layers(hyper(2.0, 0.0), 1, q0_sr=[0.0])
        assert q_sr1[0] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert q_hat_sr0[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_erf_full_correlation_collapses(self):
        ((q1, q_sr1, *_),) = layers(hyper(1.0, 1.0, ERF), 1, q0_sr=[1.0])
        assert q_sr1[0] == pytest.approx(q1, abs=1e-12)

    def test_correlation_domain_error(self):
        with pytest.raises(CorrelationDomainError):
            avg_phi_prod(RELU, 1.0, 1.5)

    def test_clamp_passes_an_in_range_array_uncopied(self):
        c = np.array([-1.0, -0.0, 0.0, 0.3, 1.0])
        assert _clamp_correlation(c) is c
        # otherwise it is min/max clamping, bit for bit: NaN passes, -0.0 stays
        for c in (np.array([np.nan, -0.0, 0.5]), np.array([1.0 + 1e-12, -0.0, -1.0 - 1e-10]),
                  np.array(-0.0), np.array(np.nan)):
            want = np.minimum(np.maximum(c, -1.0), 1.0)
            np.testing.assert_array_equal(_clamp_correlation(c).view(np.int64),
                                          want.view(np.int64))

    def test_clamps_tiny_violation(self):
        ((q1, q_sr1, _, _, q_hat_sr0),) = layers(hyper(1.0, 0.0), 1, q0_sr=[1.0 + 1e-12])
        assert q_hat_sr0[0] == avg_phi_prod(RELU, 1.0, 1.0)  # taken at c^0 = 1
        assert q_sr1[0] == pytest.approx(q1, abs=1e-12)
        assert avg_phi_prod(RELU, 1.0, 1.0 + 1e-12) == avg_phi_prod(RELU, 1.0, 1.0)


class TestGradientMultipliers:
    def test_relu_chi1_is_half_weight_variance(self):
        for q in (0.1, 1.0, 7.0):
            assert 2.0 * avg_dphi_sq(RELU, q) == 1.0  # EOC independent of sigma_b^2 and q
            assert 3.0 * avg_dphi_sq(RELU, q) == 1.5
        np.testing.assert_array_equal(avg_dphi_sq(RELU, np.array([0.1, 7.0])), [0.5, 0.5])

    def test_erf_chi1_value(self):
        assert avg_dphi_sq(ERF, 1.0) == pytest.approx(ERF_CHI1_SW1_Q1, rel=1e-12)

    # at c = 1 the error-covariance factor E[phi'(u1) phi'(u2)] is the
    # variance factor E[phi'(sqrt(q) z)^2]; inside the recursion c reaches 1
    # only to rounding, where arcsin amplifies it, so the check is on the
    # expectations
    def test_relu_full_correlation_matches_variance_channel(self):
        assert avg_dphi_prod(RELU, 2.0, 1.0) == pytest.approx(avg_dphi_sq(RELU, 2.0),
                                                                   abs=1e-12)

    def test_relu_orthogonal(self):
        # (2/2pi)(pi/2) = 1/2
        assert 2.0 * avg_dphi_prod(RELU, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_erf_full_correlation_matches_variance_channel(self):
        assert avg_dphi_prod(ERF, 1.5, 1.0) == pytest.approx(avg_dphi_sq(ERF, 1.5),
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
    ((q1, q_sr1, _, q_hat0, q_hat_sr0),) = layers(InitHyper(sw, sb, kind), 1, q0=q, q0_sr=[q])
    assert q_sr1[0] == pytest.approx(q1, rel=1e-12, abs=1e-12)
    assert q_hat_sr0[0] == pytest.approx(q_hat0, rel=1e-12, abs=1e-12)
    assert sw * avg_dphi_prod(kind, q, 1.0) == pytest.approx(
        sw * avg_dphi_sq(kind, q), rel=1e-12, abs=1e-12)


# The recursion at depth 2 against the one written out by hand from the
# Gaussian expectations: every layer and every depth sum bit for bit.
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.2, 4.0),
    sb=st.floats(0.0, 2.0),
    q0=st.floats(1e-2, 8.0),
    c0=st.floats(-1.0, 1.0),
)
def test_depth_two_is_the_hand_recursion(kind, sw, sb, q0, c0):
    def clamp(c):
        return min(max(c, -1.0), 1.0)

    q0_sr = c0 * q0
    q_hat0 = avg_phi_sq(kind, q0)
    q1 = sw * q_hat0 + sb
    q_hat_sr0 = avg_phi_prod(kind, q0, q0_sr / np.sqrt(q0 * q0))
    q_sr1 = sw * q_hat_sr0 + sb
    c1 = clamp(q_sr1 / q1)
    q_hat1 = avg_phi_sq(kind, q1)
    q2 = sw * q_hat1 + sb
    q_hat_sr1 = avg_phi_prod(kind, q1, c1)
    q_sr2 = sw * q_hat_sr1 + sb
    chi1 = sw * avg_dphi_sq(kind, q1)
    chi1_sr = sw * avg_dphi_prod(kind, q1, c1)
    h = InitHyper(sw, sb, kind)
    want = [(q1, q_sr1, c1, q_hat0, q_hat_sr0), (q2, q_sr2, clamp(q_sr2 / q2), q_hat1, q_hat_sr1)]
    for got, values in zip(layers(h, 2, q0=q0, q0_sr=[q0_sr]), want):
        np.testing.assert_array_equal(np.hstack(got), np.array(values, dtype=float))
    # T^2 = q_hat^0 p^1 + q_hat^1 p^2 and B^2 = p^1 + p^2, p^1 = chi^1, p^2 = 1
    sums = one(h, 2, q0=q0, q0_sr=[q0_sr])
    got = [sums.q, sums.q_sr[0], sums.kappa1, sums.kappa2[0], sums.p_sum_diag,
           sums.p_sum_cross[0]]
    np.testing.assert_array_equal(got, [q2, q_sr2, q_hat0 * chi1 + q_hat1,
                                        q_hat_sr0 * chi1_sr + q_hat_sr1, chi1 + 1.0,
                                        chi1_sr + 1.0])


class TestDepthSums:
    def test_relu_eoc_hand_values(self):
        # q^l = 1, q_hat^l = 1/2 and p^l = 1 for every layer
        L = 10
        sums = one(hyper(2.0, 0.0), L, q0_sr=[1.0])
        assert sums.q == 1.0
        assert sums.kappa1 == pytest.approx(0.5 * L / (L - 1), rel=1e-15)
        assert sums.p_sum_diag == L
        assert sums.kappa2[0] == pytest.approx(sums.kappa1, rel=1e-12)

    def test_relu_ordered_backward_decay(self):
        # chi1 = 1/2 everywhere, so p^l = 2^{-(L-l)} and B^L = 2 - 2^{1-L}, exactly
        L = 8
        assert one(hyper(1.0, 1.0), L).p_sum_diag == 2.0 - 2.0 ** (1 - L)

    def test_full_correlation_makes_kappas_equal(self):
        sums = one(InitHyper(1.3, 0.4, ERF), 7, q0_sr=[1.0])
        assert sums.kappa2[0] == pytest.approx(sums.kappa1, rel=1e-10)
        assert sums.p_sum_cross[0] == pytest.approx(sums.p_sum_diag, rel=1e-10)

    def test_erf_chaotic_regression_fixture(self):
        h = hyper(3.0, 1.0, ERF)
        first, last = depth_sums(h, [1, 20], 1.0, np.array([0.5]))
        assert first.q == pytest.approx(ERF31_L20["q1"], rel=1e-12)
        assert last.q == pytest.approx(ERF31_L20["q20"], rel=1e-12)
        assert first.q_sr[0] == pytest.approx(ERF31_L20["q_sr1"], rel=1e-12)
        assert last.q_sr[0] == pytest.approx(ERF31_L20["q_sr20"], rel=1e-12)

    def test_rejects_bad_initial_covariance(self):
        with pytest.raises(ValueError):
            one(hyper(1.0, 1.0), 3, q0=1.0, q0_sr=[1.5])

    def test_overflow_identifies_layer(self):
        with pytest.raises(SignalOverflowError) as err:
            one(hyper(9.0, 0.0), 800)
        assert err.value.layer is not None

    def test_covariance_channel_overflows_where_the_variance_does(self):
        # q^l = (5e5)^l overflows at layer 55; the pair expectations take q as
        # their scale, so the covariance channel does not overflow at q > 1.3e154
        # (layer 29), where the product q * q would; T and B stay below q
        h = hyper(1e6, 0.0)
        for q0_sr in ([], [0.5], [0.1, 0.5, 0.9]):
            with pytest.raises(SignalOverflowError) as err:
                one(h, 60, q0_sr=q0_sr)
            assert err.value.layer == 55
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = one(h, 28, q0_sr=[0.5])
        for name in ("q", "q_sr", "kappa1", "kappa2", "p_sum_diag", "p_sum_cross"):
            assert np.all(np.isfinite(getattr(sums, name))), name
        assert sums.q > 1e159 and sums.kappa2[0] > 0.0

    def test_tanh_sums_finite(self):
        sums = one(hyper(1.5, 0.5, TANH), 15, q0=1.0, q0_sr=[0.3])
        for name in ("q", "q_sr", "kappa1", "kappa2", "p_sum_diag", "p_sum_cross"):
            assert np.all(np.isfinite(getattr(sums, name))), name


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.3, 3.0),
    sb=st.floats(0.0, 1.5),
    c0=st.floats(-1.0, 1.0),
    depth=st.integers(1, 12),
)
def test_correlation_boundedness_property(kind, sw, sb, c0, depth):
    for q, q_sr, c, _, _ in layers(InitHyper(sw, sb, kind), depth, q0=1.0, q0_sr=[c0]):
        assert np.all(np.abs(c) <= 1.0 + 1e-9)
        assert np.all(np.abs(q_sr) <= q * (1.0 + 1e-9))


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
        ((q_mapped, *_),) = layers(hyper(1.0, 1.0, ERF), 1, q0=q_star)
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


class TestArrayCovariances:
    @pytest.mark.parametrize("kind,sw,sb", [(RELU, 2.0, 0.5), (ERF, 3.0, 1.0),
                                            (TANH, 1.5, 0.1)])
    def test_each_column_is_the_one_covariance_recursion(self, kind, sw, sb):
        covs = _unit_norm_covariances(7, seed=11)
        h = InitHyper(sw, sb, kind)
        got = depth_sums(h, [9, 4], 1.0, covs)
        for k, c0 in enumerate(covs):
            for sums, ref in zip(got, depth_sums(h, [9, 4], 1.0, covs[k:k + 1])):
                for name in ("q", "kappa1", "p_sum_diag"):
                    assert getattr(sums, name) == getattr(ref, name), name
                for name in ("q_sr", "kappa2", "p_sum_cross"):
                    assert getattr(sums, name)[k] == getattr(ref, name)[0], name

    def test_tanh_columns_above_the_fit_threshold_match_one_covariance(self):
        # 300 covariances take the Chebyshev-interpolated pair rule, one
        # covariance the direct one: the columns agree to rounding, not bitwise
        covs = _unit_norm_covariances(25, seed=5)
        h = InitHyper(1.5, 0.1, TANH)
        sums = one(h, 9, q0_sr=covs)
        for k in range(0, len(covs), 23):
            ref = one(h, 9, q0_sr=covs[k:k + 1])
            for name in ("q_sr", "kappa2", "p_sum_cross"):
                np.testing.assert_allclose(getattr(sums, name)[k], getattr(ref, name)[0],
                                           rtol=1e-13, atol=1e-14)

    def test_correlation_domain_error_on_array_input(self):
        with pytest.raises(CorrelationDomainError):
            avg_phi_prod(RELU, 1.0, np.array([0.2, 1.5, 0.3]))
        with pytest.raises(CorrelationDomainError):
            avg_dphi_prod(TANH, 1.0, np.array([-1.2, 0.0]))

    def test_overflow_on_array_input_identifies_layer(self):
        with pytest.raises(SignalOverflowError) as one_cov:
            one(hyper(9.0, 0.0), 800, q0_sr=[0.5])
        with pytest.raises(SignalOverflowError) as array:
            one(hyper(9.0, 0.0), 800, q0_sr=[0.1, 0.5, 0.9])
        assert array.value.layer is not None
        assert array.value.layer == one_cov.value.layer

    def test_overflow_names_the_first_non_finite_layer(self):
        # q overflows in the deepest layers (ReLU at 9, 0), or T and B do
        # (erf at 1e100 keeps q bounded while chi ~ 1e50): the call fails at
        # the first layer whose q, T or B is not finite, found here from the
        # reference trace's plain sums, and every depth list reaching it fails
        from oracles import reference_sums

        for h, depths in ((hyper(9.0, 0.0), [3, 800, 5]),
                          (hyper(1e100, 0.0, ERF), [4, 12, 20, 2])):
            for q0_sr in ([], [0.1, 0.5, 0.9]):
                covs = np.array(q0_sr)
                first = next(
                    L for L in range(1, max(depths) + 1)
                    if not all(np.all(np.isfinite(v))
                               for v in reference_sums(h, L, 1.0, covs).values()))
                with pytest.raises(SignalOverflowError) as got:
                    depth_sums(h, depths, 1.0, covs)
                assert got.value.layer == first
                assert str(got.value) == f"mean-field recursion overflowed (layer {first})"
        with pytest.raises(SignalOverflowError):  # erf: T and B, not q
            one(hyper(1e100, 0.0, ERF), 12)
        assert math.isfinite(layers(hyper(1e100, 0.0, ERF), 12)[-1][0])

    def test_rejects_bad_depths(self):
        for depths in ([], [3, 0], [-1]):
            with pytest.raises(ValueError):
                depth_sums(hyper(1.0, 1.0), depths, 1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            layers(hyper(1.0, 1.0), 0)

    def test_rejects_covariances_that_are_not_one_dimensional(self):
        for q0_sr in (np.full((2, 2), 0.5), 0.5):
            with pytest.raises(ValueError, match="1-D"):
                depth_sums(hyper(1.0, 1.0), [3], 1.0, q0_sr)


# depth_sums against the reference trace's plain sums at each depth: the
# forward recursion is bit for bit the reference's (q, q_sr), and its depth
# sums round differently from a sum over layers, so they agree to 1e-14 of
# the sum of the terms' magnitudes.  Each depth of a call is bit for bit the
# call at that depth alone.  Covariance arrays are empty, of one entry, or on
# both sides of the tanh pair rule's Chebyshev-fit threshold (34).
@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([RELU, ERF, TANH]),
    sw=st.floats(0.3, 4.0),
    sb=st.floats(0.0, 1.5),
    depths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    n_covs=st.sampled_from([0, 1, 3, 40]),
)
def test_depth_sums_are_the_reference_sums(kind, sw, sb, depths, n_covs):
    from oracles import reference_sums

    h = InitHyper(sw, sb, kind)
    covs = 1.3 * np.linspace(-0.7, 0.95, n_covs)
    got = depth_sums(h, depths, 1.3, covs)
    assert len(got) == len(depths)
    for L, sums in zip(depths, got):
        (alone,) = depth_sums(h, [L], 1.3, covs)
        for name in ("q", "q_sr", "kappa1", "kappa2", "p_sum_diag", "p_sum_cross"):
            np.testing.assert_array_equal(getattr(sums, name), getattr(alone, name))
        ref = reference_sums(h, L, 1.3, covs)
        alpha = max(L - 1, 1)
        assert sums.q == ref["q"]
        np.testing.assert_array_equal(sums.q_sr, ref["q_sr"])
        assert abs(sums.kappa1 - ref["kappa1"]) <= 1e-14 * ref["terms1"] / alpha
        assert np.all(np.abs(sums.kappa2 - ref["kappa2"]) <= 1e-14 * ref["terms2"] / alpha)
        np.testing.assert_allclose(sums.p_sum_diag, ref["p_sum_diag"], rtol=1e-14, atol=0)
        np.testing.assert_allclose(sums.p_sum_cross, ref["p_sum_cross"], rtol=1e-14, atol=0)
