import math

import numpy as np
import pytest

from scipy.stats import ks_2samp

from oracles import data_independent_kappas, pairwise_nngp, pairwise_theta_star, \
    psd_sampler, reference_sums, reference_trace, trained_output, variance_oracle_mc
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.meanfield import InitHyper, depth_sums, edge_of_chaos_sigma_w_sq
from ntklab.ntk_theory import (
    IllConditionedError,
    condition_ratio,
    mean_theta_inverse,
    nngp_matrix,
    predict_variance,
    sample_kernels,
    spd_solve,
    theta_star_matrix,
    trained_output_variance,
)

RELU = ActivationKind.RELU
ERF = ActivationKind.ERF
TANH = ActivationKind.TANH

# erf (3,1), depth 10, M = 1000, layer-0 covariances {0, 0.5, 0.9}: pipeline
# regression fixture.  Cross-checked at authoring time against the mean
# empirical kernel of 60 width-1000 networks (max relative gap 3.0%, within
# the 5% finite-width budget).
THETA3_FIXTURE = np.array([
    [8593.214528529104, 1982.9713900449758, 2419.8396311910233],
    [1982.9713900449758, 8593.214528529104, 4290.87797494334],
    [2419.8396311910233, 4290.87797494334, 8593.214528529104],
])
THETA3_COV0 = np.array([
    [1.0, 0.0, 0.5],
    [0.0, 1.0, 0.9],
    [0.5, 0.9, 1.0],
])


class TestDataIndependentKappas:
    def test_ordered_ratio_approaches_one_from_above(self):
        ratios = []
        for depth in (5, 10, 20, 30):
            kbar1, kbar2 = data_independent_kappas(InitHyper(1.0, 1.0, ERF), depth,
                                                   reference_cov=0.5)
            ratios.append(kbar1 / kbar2)
        assert all(r > 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1.001


class TestConditionRatio:
    def test_equal_kappas_give_one(self):
        assert condition_ratio(2.0, 2.0) == 1.0

    def test_zero_kappa2_gives_inf(self):
        assert math.isinf(condition_ratio(2.0, 0.0))

    def test_chaotic_ratio_grows_with_depth(self):
        ratios = [condition_ratio(*data_independent_kappas(InitHyper(3.0, 1.0, ERF), d))
                  for d in (4, 8, 16, 32)]
        assert ratios == sorted(ratios)


class TestThetaStar:
    def test_single_point(self):
        hyper = InitHyper(3.0, 1.0, ERF)
        theta = theta_star_matrix(hyper, 4, [[1.0]], m_width=100.0)
        ref = reference_sums(hyper, 4, 1.0, None)
        assert theta.matrix.shape == (1, 1) and theta.scale == 300.0
        assert theta.matrix[0, 0] == pytest.approx(300.0 * ref["kappa1"] + ref["p_sum_diag"],
                                                   rel=1e-14)
        # the bias sums are all of the perturbation of a single point
        assert theta.epsilon[0, 0] == pytest.approx(
            ref["p_sum_diag"] / (300.0 * theta.mean_kappa1), rel=1e-12)

    def test_identical_inputs_rank_one(self):
        # every covariance at q0, the reference too: ReLU's kappa2 at c = 1
        # is its kappa1 bit for bit
        n = 4
        theta = theta_star_matrix(InitHyper(2.0, 1.0, RELU), 3, np.ones((n, n)), 50.0,
                                  reference_cov=1.0)
        assert theta.mean_kappa1 == theta.mean_kappa2
        assert np.all(theta.matrix == theta.matrix[0, 0])
        assert np.linalg.matrix_rank(theta.matrix) == 1
        assert theta.epsilon is None  # mean matrix singular, perturbation undefined

    def test_pipeline_regression_fixture(self):
        theta = theta_star_matrix(InitHyper(3.0, 1.0, ERF), 10, THETA3_COV0, 1000.0)
        assert np.allclose(theta.matrix, THETA3_FIXTURE, rtol=1e-12)

    def test_rejects_a_diagonal_other_than_q0(self):
        # the covariances of q0 = 4, passed with the default q0 = 1
        hyper, cov0 = InitHyper(3.0, 1.0, ERF), 4.0 * THETA3_COV0
        for build in (lambda **q0: theta_star_matrix(hyper, 10, cov0, 1000.0, **q0),
                      lambda **q0: nngp_matrix(hyper, 10, cov0, **q0)):
            with pytest.raises(ValueError, match="diagonal of cov0 must equal q0"):
                build()
            build(q0=4.0)

    def test_layer0_check_is_relative_to_q0(self):
        # at q0 = 1e-9 an absolute tolerance of 1e-8 would take the
        # covariances of q0 = 3e-9 for those of q0 = 1e-9
        hyper, cov0 = InitHyper(2.0, 0.0, RELU), [[3e-9, 1e-9], [1e-9, 3e-9]]
        for build in (lambda: nngp_matrix(hyper, 4, cov0, q0=1e-9),
                      lambda: theta_star_matrix(hyper, 4, cov0, 64.0, q0=1e-9)):
            with pytest.raises(ValueError, match="diagonal of cov0 must equal q0"):
                build()
        asym = [[1e-9, 1e-9], [1.001e-9, 1e-9]]
        with pytest.raises(ValueError, match="symmetric"):
            nngp_matrix(hyper, 4, asym, q0=1e-9)
        nngp_matrix(hyper, 4, [[3e-9, 1e-9], [1e-9, 3e-9]], q0=3e-9)

    def test_peak_memory_does_not_grow_with_depth(self):
        # 19 900 distinct covariances: one layer's array of them is 159 kB,
        # and the depth sums keep none per layer
        import tracemalloc

        cov0 = _unit_norm_cov0(200, 64)
        peaks = []
        for depth in (4, 64):
            tracemalloc.start()
            theta_star_matrix(InitHyper(2.0, 1.0, RELU), depth, cov0, 64.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16_000, peaks

    def test_assembly_keeps_the_bits_of_the_copying_assembly(self):
        # sample_kernels against the assembly that copied kappa2 and
        # p_sum_cross into matrices, set their diagonals and symmetrized:
        # the gather through a symmetric index gives the same bits with no
        # symmetrizing pass, also for 276 covariances, where tanh takes its
        # pair expectations from the Chebyshev fit
        def copying(sums, off, m_width, alpha):
            lam = sums.kappa2[off]
            np.fill_diagonal(lam, sums.kappa1)
            corr = sums.p_sum_cross[off]
            np.fill_diagonal(corr, sums.p_sum_diag)
            matrix = (alpha * m_width) * lam + corr
            return 0.5 * (matrix + matrix.T)

        rng = np.random.default_rng(7)
        for kind in (RELU, ERF, TANH):
            hyper = InitHyper(2.0, 0.5, kind)
            for n, n_covs in ((1, 1), (2, 1), (5, 3), (33, 40), (24, 276)):
                covs = np.sort(rng.uniform(-1.0, 1.0, n_covs))
                off = np.triu(rng.integers(0, n_covs, (n, n)), 1)
                off += off.T  # diagonal 0, which copying overwrites
                index = off.copy()
                np.fill_diagonal(index, n_covs)  # the variance slot
                ref = int(rng.integers(0, n_covs))
                theta, k = sample_kernels(hyper, 6, covs, index, 64.0, ref)
                (sums,) = depth_sums(hyper, [6], 1.0, covs)
                assert theta.matrix.tobytes() == copying(sums, off, 64.0, 5.0).tobytes()
                want_k = sums.q_sr[off]
                np.fill_diagonal(want_k, sums.q)
                assert k.matrix.tobytes() == want_k.tobytes()
                assert (theta.scale, theta.alpha, theta.mean_kappa1, theta.mean_kappa2) == \
                    (320.0, 5.0, sums.kappa1, sums.kappa2[ref])

    def test_mean_plus_perturbation_reconstructs(self):
        theta = theta_star_matrix(InitHyper(3.0, 1.0, ERF), 10, THETA3_COV0, 1000.0)
        recon = theta.theta_bar() @ (np.eye(3) + theta.epsilon)
        assert np.allclose(recon, theta.matrix, rtol=1e-10)

    def test_symmetry_and_lambda_structure(self):
        theta = theta_star_matrix(InitHyper(1.0, 1.0, ERF), 6, THETA3_COV0, 64.0)
        assert np.allclose(theta.matrix, theta.matrix.T, atol=1e-12)
        # off-diagonal entries are scale * kappa2 + bias sums, strictly below diagonal
        assert np.all(np.diag(theta.matrix) >= theta.matrix.max(axis=1) - 1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_mean_inverse_woodbury_identity(n):
    for k1, k2 in [(2.0, 1.0), (5.0, 0.2), (1.01, 1.0), (10.0, 9.5)]:
        scale = 37.0
        mean = scale * ((k1 - k2) * np.eye(n) + k2 * np.ones((n, n)))
        inv = mean_theta_inverse(k1, k2, n, scale)
        assert np.allclose(inv @ mean, np.eye(n), atol=1e-10)


class TestNngp:
    def test_single_point(self):
        k = nngp_matrix(InitHyper(1.0, 1.0, ERF), 5, np.array([[1.0]]))
        assert k.matrix[0, 0] == reference_trace(InitHyper(1.0, 1.0, ERF), 5)["q"][5]

    @pytest.mark.parametrize("kind,sw,sb,n", [(RELU, 2.0, 1.0, 12), (ERF, 3.0, 1.0, 10),
                                              (TANH, 1.5, 0.1, 6), (TANH, 1.5, 0.1, 24)])
    def test_entries_are_the_forward_recursion_bit_for_bit(self, kind, sw, sb, n):
        # the last layer of the reference trace over the same array of distinct
        # covariances, which is the forward recursion K was built from before
        # the depth sums ran forward too (tanh: 15 covariances, and 276 above
        # the Chebyshev-fit threshold)
        cov0 = _unit_norm_cov0(n, 32)
        hyper = InitHyper(sw, sb, kind)
        iu = np.triu_indices(n, 1)
        covs, inverse = np.unique(cov0[iu], return_inverse=True)
        ref = reference_trace(hyper, 16, q0=1.0, q0_sr=covs)
        k = nngp_matrix(hyper, 16, cov0).matrix
        np.testing.assert_array_equal(k[iu], ref["q_sr"][16][inverse])
        np.testing.assert_array_equal(k.T[iu], ref["q_sr"][16][inverse])
        np.testing.assert_array_equal(np.diag(k), np.full(n, ref["q"][16]))

    def test_evaluates_no_phi_prime_expectation(self, monkeypatch):
        from ntklab import meanfield

        def forbidden(*args):
            raise AssertionError("phi' expectation evaluated")

        monkeypatch.setattr(meanfield, "avg_dphi_sq", forbidden)
        monkeypatch.setattr(meanfield, "_dphi_prod", forbidden)
        monkeypatch.setattr(meanfield, "dphi", forbidden)
        cov0 = _unit_norm_cov0(24, 64)
        for kind in (RELU, ERF, TANH):
            nngp_matrix(InitHyper(1.5, 0.1, kind), 16, cov0)
        with pytest.raises(AssertionError, match="phi'"):
            theta_star_matrix(InitHyper(1.5, 0.1, RELU), 16, cov0, 64.0)

    def test_relu_eoc_diagonal_is_one_any_depth(self):
        cov0 = np.array([[1.0, 0.3], [0.3, 1.0]])
        for depth in (1, 3, 10, 25):
            k = nngp_matrix(InitHyper(2.0, 0.0, RELU), depth, cov0)
            assert np.allclose(np.diag(k.matrix), 1.0, rtol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, 0.8, size=(6, 6))
        cov0 = (base + base.T) / 2
        np.fill_diagonal(cov0, 1.0)
        k = nngp_matrix(InitHyper(1.5, 0.5, ERF), 8, cov0).matrix
        eigmin = np.linalg.eigvalsh(k).min()
        assert eigmin >= -1e-8 * np.trace(k) / len(k)


class TestSpdSolve:
    def test_plain_solve_no_jitter(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        x, jitter = spd_solve(a, np.array([1.0, 2.0]))
        assert jitter == 0.0
        assert np.allclose(a @ x, [1.0, 2.0])

    def test_jitter_escalation_on_singular_matrix(self):
        a = np.ones((3, 3))  # rank one
        x, jitter = spd_solve(a, np.ones(3))
        assert jitter > 0.0
        assert np.all(np.isfinite(x))

    def test_raises_on_hopeless_matrix(self):
        a = -np.eye(2)
        with pytest.raises(IllConditionedError):
            spd_solve(a, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_non_finite_input_raises(self, bad, where):
        # unchecked, a NaN passes the Cholesky factorization and returns NaNs,
        # and an inf in a climbs the jitter ladder to IllConditionedError
        a, b = np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
        if where == "a":
            a[1, 0] = a[0, 1] = bad
        else:
            b[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            spd_solve(a, b)


class TestTrainedOutput:
    def test_interpolates_training_points(self):
        theta = theta_star_matrix(InitHyper(3.0, 1.0, ERF), 10, THETA3_COV0, 1000.0)
        y = np.array([0.3, -1.2, 0.7])
        f0 = np.array([0.11, -0.45, 0.9])
        for s in range(3):
            out = trained_output(theta.matrix, theta.matrix[s], f0[s], f0, y)
            assert out == pytest.approx(y[s], rel=1e-10)

    def test_zero_initial_function_is_kernel_regression(self):
        theta = np.array([[2.0, 0.5], [0.5, 1.5]])
        y = np.array([1.0, -1.0])
        theta_x = np.array([0.7, 0.2])
        expect = theta_x @ np.linalg.solve(theta, y)
        out = trained_output(theta, theta_x, 0.0, np.zeros(2), y)
        assert out == pytest.approx(expect, rel=1e-12)

    def test_two_point_hand_inverse(self):
        # 2x2 system inverted by hand: [[a, b], [b, a]]^{-1} = 1/(a^2-b^2) [[a, -b], [-b, a]]
        a, b = 3.0, 1.0
        theta = np.array([[a, b], [b, a]])
        y = np.array([2.0, -1.0])
        f0 = np.array([0.5, 0.25])
        f0_x = -0.3
        theta_x = np.array([1.2, 0.4])
        inv = np.array([[a, -b], [-b, a]]) / (a * a - b * b)
        expect = f0_x + theta_x @ inv @ (y - f0)
        out = trained_output(theta, theta_x, f0_x, f0, y)
        assert out == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestPredictVariance:
    def test_ratio_one_limit(self):
        pred = predict_variance(2.0, 2.0, q_bar_L=3.0, q_bar_sr_L=1.0, n_samples=8)
        assert pred.A == 1.0
        assert pred.variance == pytest.approx((1.0 + 1.0 / 8.0) * 2.0)

    def test_infinite_ratio_limit(self):
        pred = predict_variance(2.0, 0.0, q_bar_L=3.0, q_bar_sr_L=1.0, n_samples=8)
        assert pred.A == 0.0
        assert pred.variance == 3.0  # exactly q_bar_L

    def test_fixture_values(self):
        q_bar, q_bar_sr = 2.9605538852200315, 2.7404219726585892
        pred = predict_variance(5.0, 1.0, q_bar, q_bar_sr, n_samples=128)
        assert pred.A == pytest.approx(128.0 / 132.0, rel=1e-15)
        # independent algebraic expansion of the same quantity
        a = pred.A
        expanded = (q_bar - 2 * a * q_bar_sr
                    + a * a * (q_bar / 128 + (1 - 1 / 128) * q_bar_sr))
        assert pred.variance == pytest.approx(expanded, rel=1e-12)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError, match="kappa ratio"):
            predict_variance(1.0, 2.0, 1.0, 0.5, 4)

    def test_rounding_shortfall_counts_as_equality(self):
        # deep in the ordered phase kbar2 and qbar_sr^L round an ulp above
        # kbar1 and qbar^L; beyond 1e-12 of them the order still fails
        above = np.nextafter(2.0, 3.0)
        pred = predict_variance(2.0, above, 2.0, above, 8)
        assert (pred.A, pred.variance, pred.q_bar_sr_L) == (1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="kappa ratio"):
            predict_variance(2.0, 2.0 * (1.0 + 1e-11), 2.0, 1.0, 8)
        with pytest.raises(ValueError, match="q_bar_L"):
            predict_variance(2.0, 1.0, 2.0, 2.0 * (1.0 + 1e-11), 8)


class TestVarianceOracleMc:
    def test_zero_nngp_gives_zero_variance(self):
        theta = np.eye(3)
        joint = np.zeros((4, 4))
        mc = variance_oracle_mc(theta, joint, np.zeros(3), 2000, seed=1)
        assert mc.variance == 0.0

    def test_single_training_point_closed_form(self):
        # f_inf(x) = f0(x) - (t(x,x1)/t(x1,x1)) f0(x1): Gaussian with variance
        # k_xx - 2 v k_x1x + v^2 k_x1x1 computable from the 2x2 joint NNGP.
        theta = np.array([[2.0]])
        theta_x = np.array([0.8])
        joint = np.array([[1.5, 0.6], [0.6, 1.1]])
        v = 0.8 / 2.0
        expect = 1.5 - 2 * v * 0.6 + v * v * 1.1
        mc = variance_oracle_mc(theta, joint, theta_x, 200_000, seed=7)
        assert abs(mc.variance - expect) <= 3.0 * mc.standard_error

    def test_matches_trained_output_pathwise(self):
        # the vectorized sampler must agree with trained_output evaluated per sample
        rng = np.random.default_rng(3)
        theta = np.array([[2.0, 0.3, 0.1], [0.3, 1.8, 0.2], [0.1, 0.2, 2.2]])
        theta_x = np.array([0.5, 0.4, 0.3])
        y = rng.normal(size=3)
        v = np.linalg.solve(theta, theta_x)
        for _ in range(5):
            f0 = rng.normal(size=4)  # [x] + X
            full = trained_output(theta, theta_x, f0[0], f0[1:], y)
            const = theta_x @ np.linalg.solve(theta, y)
            assert full == pytest.approx(const + f0[0] - f0[1:] @ v, rel=1e-10)

    def test_rounding_level_exact_counts_as_zero(self):
        # u = [1, -1]: u^T K u = 2 - 2 K[0, 1], which rounds below zero when
        # K[0, 1] is an ulp above K[0, 0], and counts as 0
        up = np.nextafter(1.0, 2.0)
        joint = np.array([[1.0, up], [up, 1.0]])
        var = trained_output_variance(np.eye(1), joint, np.ones(1), 100, seed=0)
        assert (var.exact, var.mc_variance) == (0.0, 0.0)
        joint[0, 1] = joint[1, 0] = 1.0 - 1e-14
        var = trained_output_variance(np.eye(1), joint, np.ones(1), 100, seed=0)
        assert var.exact == pytest.approx(2e-14, rel=1e-2)

    def test_deterministic_in_seed(self):
        theta = np.array([[2.0, 0.5], [0.5, 2.0]])
        joint = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.5], [0.4, 0.5, 1.0]])
        a = variance_oracle_mc(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        b = variance_oracle_mc(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        assert a.variance == b.variance

    def test_rejects_wrong_joint_shape(self):
        with pytest.raises(ValueError):
            variance_oracle_mc(np.eye(2), np.eye(2), np.ones(2), 1000)


def _unit_norm_cov0(n, dim, seed=None):
    x = synthetic_dataset(n, dim, seed=n if seed is None else seed).inputs
    return x @ x.T


def _shared_covariance_cell(hyper, depth, s, c0=0.5, m_width=64.0):
    """Theta*, joint K (test point first) and theta_x of a predict-variance
    cell: S training points and the test point, all pairs at covariance c0."""
    joint_cov0 = np.full((s + 1, s + 1), c0)
    np.fill_diagonal(joint_cov0, 1.0)
    theta = theta_star_matrix(hyper, depth, joint_cov0[1:, 1:], m_width, reference_cov=c0)
    joint = nngp_matrix(hyper, depth, joint_cov0).matrix
    # the test point's row of Theta* over the joint sample
    theta_x = theta_star_matrix(hyper, depth, joint_cov0, m_width, reference_cov=c0).matrix[0, 1:]
    return theta, joint, theta_x


def _phase_hypers():
    """Ordered, edge-of-chaos and chaotic sigma_w^2 for each activation."""
    for kind, sb in ((RELU, 1.0), (ERF, 0.1), (TANH, 0.1)):
        eoc = 2.0 if kind is RELU else edge_of_chaos_sigma_w_sq(kind, sb)
        for sw in (0.5 * eoc, eoc, 2.0 * eoc):
            yield InitHyper(sw, sb, kind)


class TestTrainedOutputVariance:
    """Exact u^T K u and its rank-one Monte-Carlo draw, pinned to the dense
    f0 sampler of the oracle."""

    def test_single_training_point_closed_form(self):
        theta = np.array([[2.0]])
        theta_x = np.array([0.8])
        joint = np.array([[1.5, 0.6], [0.6, 1.1]])
        v = 0.8 / 2.0
        expect = 1.5 - 2 * v * 0.6 + v * v * 1.1
        var = trained_output_variance(theta, joint, theta_x, 200_000, seed=7)
        assert var.exact == pytest.approx(expect, rel=1e-15)
        assert abs(var.mc_variance - expect) <= 3.0 * var.mc_standard_error
        assert var.n_samples == 200_000 and var.jitter == 0.0

    @pytest.mark.parametrize("depth", [4, 32])
    def test_exact_equals_oracle_factorization(self, depth):
        # u^T K u against |B^T u|^2 with B B^T = K from the oracle's eigh
        # factor.  Both are sums of O(S^2) products, so they agree to
        # rounding on the scale |u|^T |K| |u|; in the deep ordered phase
        # u^T K u itself is ~1e-11 of that scale.
        for hyper in _phase_hypers():
            theta, joint, theta_x = _shared_covariance_cell(hyper, depth, 16)
            var = trained_output_variance(theta, joint, theta_x, 100, seed=0)
            v, jitter = spd_solve(theta, theta_x)
            u = np.concatenate(([1.0], -v))
            oracle = float(np.sum((psd_sampler(joint).T @ u) ** 2))
            scale = float(np.abs(u) @ np.abs(joint) @ np.abs(u))
            assert abs(var.exact - oracle) <= 1e-12 * scale, hyper
            assert var.jitter == jitter

    def test_rank_one_draw_has_the_oracle_law(self):
        # the Monte-Carlo variance over 200 seeds, rank-one draw against the
        # dense sampler: same scaled chi-square law at small S and n
        theta, joint, theta_x = _shared_covariance_cell(InitHyper(2.0, 1.0, ERF), 3, 6)
        n = 40
        fast = [trained_output_variance(theta, joint, theta_x, n, seed=k).mc_variance
                for k in range(200)]
        dense = [variance_oracle_mc(theta, joint, theta_x, n, seed=10_000 + k).variance
                 for k in range(200)]
        assert ks_2samp(fast, dense).pvalue > 0.01

    def test_one_ulp_change_of_k_does_not_move_mc(self):
        # every covariance equal: K has a degenerate eigenspace whose eigh
        # basis flips with one-ulp changes of K; the rank-one draw does not
        # factor K, so mc moves only with u^T K u
        theta, joint, theta_x = _shared_covariance_cell(InitHyper(2.0, 1.0, ERF), 3, 16)
        bumped = joint.copy()
        bumped[2, 5] = bumped[5, 2] = np.nextafter(joint[2, 5], np.inf)
        a = trained_output_variance(theta, joint, theta_x, 5000, seed=3)
        b = trained_output_variance(theta, bumped, theta_x, 5000, seed=3)
        assert abs(b.mc_variance - a.mc_variance) <= 1e-12 * a.mc_variance

    def test_zero_nngp_gives_zero_variance(self):
        var = trained_output_variance(np.eye(3), np.zeros((4, 4)), np.zeros(3), 2000, seed=1)
        assert var.exact == 0.0 and var.mc_variance == 0.0

    def test_deterministic_in_seed(self):
        theta = np.array([[2.0, 0.5], [0.5, 2.0]])
        joint = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.5], [0.4, 0.5, 1.0]])
        a = trained_output_variance(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        b = trained_output_variance(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        c = trained_output_variance(theta, joint, np.array([0.6, 0.6]), 10_000, seed=12)
        assert a == b
        assert c.mc_variance != a.mc_variance and c.exact == a.exact

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="joint NNGP"):
            trained_output_variance(np.eye(2), np.eye(2), np.ones(2), 1000)
        with pytest.raises(ValueError, match="theta_x_row"):
            trained_output_variance(np.eye(2), np.eye(3), np.ones(3), 1000)
        with pytest.raises(ValueError, match="n_samples"):
            trained_output_variance(np.eye(2), np.eye(3), np.ones(2), 1)
        asym = np.eye(3)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            trained_output_variance(np.eye(2), asym, np.ones(2), 1000)

    def test_psd_thresholds(self, caplog):
        # the warn and raise thresholds of the oracle's sampler, on eigvalsh
        theta = np.eye(2)
        slightly = np.diag([1.0, 1.0, -1e-6])
        with caplog.at_level("WARNING", logger="ntklab.ntk_theory"):
            trained_output_variance(theta, slightly, np.zeros(2), 100)
        assert "negative NNGP eigenvalue" in caplog.text
        with pytest.raises(ValueError, match="strongly indefinite"):
            trained_output_variance(theta, np.diag([1.0, 1.0, -1e-3]), np.zeros(2), 100)
        with pytest.raises(ValueError, match="strongly indefinite"):
            psd_sampler(np.diag([1.0, 1.0, -1e-3]))


@pytest.mark.parametrize("kind,sw,sb,n", [(RELU, 2.0, 1.0, 12), (ERF, 3.0, 0.5, 12),
                                          (TANH, 1.5, 0.1, 24)])
def test_sample_kernels_of_a_spread_joint_sample(kind, sw, sb, n):
    # a test point and n - 1 training points, every pair at its own
    # covariance (tanh: 276, above the 34 of the Chebyshev-fit threshold):
    # K of the depth_sums pass, bit for bit that of nngp_matrix's
    # forward-only pass, and Theta* and K exactly symmetric
    cov0 = _unit_norm_cov0(n, 64)
    hyper = InitHyper(sw, sb, kind)
    iu = np.triu_indices(n, 1)
    covs, inverse = np.unique(np.append(cov0[iu], 0.5), return_inverse=True)
    assert len(covs) == n * (n - 1) // 2 + 1
    index = np.full((n, n), len(covs))
    index[iu] = index.T[iu] = inverse[:-1]
    theta, k = sample_kernels(hyper, 16, covs, index, 64.0, inverse[-1])
    np.testing.assert_array_equal(k.matrix, nngp_matrix(hyper, 16, cov0).matrix)
    for m in (theta.matrix, k.matrix):
        assert np.array_equal(m, m.T)


class TestOnePassAgainstPerPairAssembly:
    """theta_star_matrix/nngp_matrix (one array-valued recursion over the
    distinct covariances) against the per-pair double loop of scalar
    reference traces and their plain depth sums."""

    @pytest.mark.parametrize("kind,sw,sb,depth,n", [
        (RELU, 2.0, 1.0, 16, 12), (RELU, 3.0, 0.2, 5, 9),
        (ERF, 3.0, 1.0, 10, 10), (TANH, 1.5, 0.1, 8, 6)])
    def test_random_unit_norm_sample(self, kind, sw, sb, depth, n):
        x = synthetic_dataset(n, 32, seed=n).inputs
        cov0 = x @ x.T
        hyper = InitHyper(sw, sb, kind)
        theta = theta_star_matrix(hyper, depth, cov0, 64.0)
        ref = pairwise_theta_star(hyper, depth, cov0, 64.0)
        np.testing.assert_allclose(theta.matrix, ref.matrix, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref.matrix)))
        assert theta.mean_kappa1 == pytest.approx(ref.mean_kappa1, rel=1e-14)
        assert theta.mean_kappa2 == pytest.approx(ref.mean_kappa2, rel=1e-14)
        k = nngp_matrix(hyper, depth, cov0)
        np.testing.assert_allclose(k.matrix, pairwise_nngp(hyper, depth, cov0),
                                   rtol=1e-13, atol=0)

    def test_repeated_covariances(self):
        # repeated points give repeated (and unit) covariances; the scatter
        # back through the unique index must put each value in every place
        x = synthetic_dataset(4, 8, seed=2).inputs
        x = np.vstack([x, x[:2]])
        cov0 = x @ x.T
        hyper = InitHyper(1.5, 0.5, ERF)
        theta = theta_star_matrix(hyper, 4, cov0, 32.0, reference_cov=0.3)
        ref = pairwise_theta_star(hyper, 4, cov0, 32.0, reference_cov=0.3)
        np.testing.assert_allclose(theta.matrix, ref.matrix, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref.matrix)))
        assert theta.mean_kappa2 == pytest.approx(ref.mean_kappa2, rel=1e-14)


@pytest.mark.parametrize("sw,sb", [(1.5, 0.1), (0.8, 0.0)], ids=["sb0.1", "ordered-sb0"])
def test_tanh_kernels_with_half_grid_rule_match_full_grid(monkeypatch, sw, sb):
    # tanh Theta*(X) and K(X) through the half-grid pair rule against the
    # same build with the rule replaced by the full-grid block loop
    from oracles import reference_pair_expectation
    from ntklab import quadrature

    x = synthetic_dataset(24, 64, seed=24).inputs
    cov0 = x @ x.T
    hyper = InitHyper(sw, sb, TANH)
    theta = theta_star_matrix(hyper, 16, cov0, 64.0).matrix
    k = nngp_matrix(hyper, 16, cov0).matrix
    monkeypatch.setattr(quadrature, "normal_pair_expectation", reference_pair_expectation)
    theta_ref = theta_star_matrix(hyper, 16, cov0, 64.0).matrix
    k_ref = nngp_matrix(hyper, 16, cov0).matrix
    for got, want in ((theta, theta_ref), (k, k_ref)):
        assert not np.array_equal(got, want)  # the replaced rule was used
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-13 * np.max(np.abs(want)))


def test_tanh_kernels_are_the_same_with_a_warm_fit_cache():
    # the benchmark's tanh cell on fresh samples: every fit after the first
    # sample's comes from quadrature's cache, with the bits of a fresh fit
    from ntklab.quadrature import _FITS

    hyper = InitHyper(1.5, 0.1, TANH)

    def kernels(seed):
        x = synthetic_dataset(24, 64, seed=seed).inputs
        cov0 = x @ x.T
        return theta_star_matrix(hyper, 16, cov0, 64.0).matrix, nngp_matrix(hyper, 16, cov0).matrix

    cold = []
    for seed in (0, 1):
        _FITS.clear()
        cold.append(kernels(seed))
    _FITS.clear()
    warm = [kernels(seed) for seed in (0, 1, 0)]
    # theta_star_matrix fits phi at layers 0..15 and phi' at layers 1..15;
    # nngp_matrix and the later samples find all of them
    assert _FITS.misses == 16 + 15 and len(_FITS) == 31
    for got, want in zip(warm, cold + cold[:1]):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOneNumpyBlasThread:
    """The small dense algebra runs numpy's OpenBLAS on one thread, with the
    same bits, and leaves the thread count as it found it."""

    @pytest.fixture
    def threads(self):
        from ntklab import ntk_theory

        threads = ntk_theory._numpy_openblas_threads()
        if threads is None:
            pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
        return threads

    def test_trained_output_variance_solves_on_one_thread(self, threads, monkeypatch):
        from ntklab import ntk_theory

        get, _ = threads
        before = get()
        seen = []
        real = ntk_theory.spd_solve
        monkeypatch.setattr(ntk_theory, "spd_solve",
                            lambda a, b: (seen.append(get()), real(a, b))[1])
        trained_output_variance(np.eye(2) * 2.0, np.eye(3), np.ones(2), 100)
        assert seen == [1]
        assert get() == before

    def test_trained_output_variance_bits_do_not_depend_on_the_entry_thread_count(
            self, threads):
        # at S = 128 a solve on numpy's two-thread pool rounds differently
        # from one on one thread; the block makes the entry count irrelevant
        get, set_ = threads
        before = get()
        theta, joint, theta_x = _shared_covariance_cell(InitHyper(1.0, 1.0, RELU), 32, 128)
        got = []
        try:
            for n in (1, 2):
                set_(n)
                got.append(trained_output_variance(theta, joint, theta_x, 1000, seed=5))
        finally:
            set_(before)
        assert got[0] == got[1]

    def test_u_k_u_keeps_its_bits(self, threads):
        from ntklab.ntk_theory import _one_numpy_blas_thread

        for n in (25, 129, 257):
            rng = np.random.default_rng(n)
            a, u = rng.standard_normal((n, n)), rng.standard_normal(n)
            outside = u @ (a @ u)
            with _one_numpy_blas_thread():
                assert u @ (a @ u) == outside

    def test_thread_count_restored_after_an_error(self, threads):
        from ntklab.ntk_theory import _one_numpy_blas_thread

        get, _ = threads
        before = get()
        with pytest.raises(RuntimeError):
            with _one_numpy_blas_thread():
                raise RuntimeError("inside")
        assert get() == before

    def test_concurrent_blocks_restore_the_thread_count(self, threads):
        # without the lock, one thread can save another's 1 and restore it last;
        # 4 x 200 blocks missed that in 5 of 5 runs, 4 x 2000 caught it in 4 of 5
        import sys
        import threading

        from ntklab.ntk_theory import _one_numpy_blas_thread

        get, _ = threads
        before = get()
        inside = []

        def worker():
            for _ in range(5000):
                with _one_numpy_blas_thread():
                    inside.append(get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(inside) == 20_000 and set(inside) == {1}
        assert get() == before
