import math

import numpy as np
import pytest

from scipy.stats import ks_2samp

from oracles import data_independent_kappas, pairwise_nngp, pairwise_theta_star, \
    psd_sampler, trained_output, variance_oracle_mc
from ntklab.activations import ActivationKind
from ntklab.data_io import synthetic_dataset
from ntklab.meanfield import InitHyper, edge_of_chaos_sigma_w_sq, run_trace
from ntklab.ntk_theory import (
    IllConditionedError,
    KappaPair,
    build_theta_star,
    compute_kappas,
    condition_ratio,
    mean_theta_inverse,
    nngp_matrix,
    predict_variance,
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


class TestComputeKappas:
    def test_full_correlation_makes_kappas_equal(self):
        trace = run_trace(InitHyper(1.3, 0.4, ERF), 7, q0=1.0, q0_sr=1.0)
        pair = compute_kappas(trace)
        assert pair.kappa2 == pytest.approx(pair.kappa1, rel=1e-10)
        assert pair.p_sum_cross == pytest.approx(pair.p_sum_diag, rel=1e-10)

    def test_relu_eoc_hand_value(self):
        # q_hat^l = 1/2 and p^l = 1 for every layer, so kappa1 = (L/2) / (L-1);
        # at L = 5 that is 5/8.
        trace = run_trace(InitHyper(2.0, 0.0, RELU), 5, q0=1.0, q0_sr=1.0)
        pair = compute_kappas(trace)
        assert pair.kappa1 == pytest.approx(0.625, rel=1e-14)

    def test_requires_covariance_channel(self):
        with pytest.raises(ValueError):
            compute_kappas(run_trace(InitHyper(2.0, 0.0, RELU), 5))

    def test_ordered_ratio_approaches_one_from_above(self):
        ratios = []
        for depth in (5, 10, 20, 30):
            pair = data_independent_kappas(InitHyper(1.0, 1.0, ERF), depth,
                                           reference_cov=0.5)
            ratios.append(pair.kappa1 / pair.kappa2)
        assert all(r > 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1.001


class TestConditionRatio:
    def test_equal_kappas_give_one(self):
        pair = KappaPair(2.0, 2.0, 1.0, 1.0)
        assert condition_ratio(pair) == 1.0

    def test_zero_kappa2_gives_inf(self):
        pair = KappaPair(2.0, 0.0, 1.0, 1.0)
        assert math.isinf(condition_ratio(pair))

    def test_chaotic_ratio_grows_with_depth(self):
        ratios = [condition_ratio(data_independent_kappas(InitHyper(3.0, 1.0, ERF), d))
                  for d in (4, 8, 16, 32)]
        assert ratios == sorted(ratios)


class TestThetaStar:
    def test_single_point(self):
        theta = build_theta_star([2.5], np.zeros((1, 1)), m_width=100.0, alpha=3.0,
                                 kappa1_bar=2.5, kappa2_bar=1.0)
        assert theta.matrix.shape == (1, 1)
        assert theta.matrix[0, 0] == pytest.approx(300.0 * 2.5)
        assert theta.epsilon[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_inputs_rank_one(self):
        n = 4
        theta = build_theta_star([3.0] * n, np.full((n, n), 3.0), m_width=50.0,
                                 alpha=2.0, kappa1_bar=3.0, kappa2_bar=3.0)
        assert np.allclose(theta.matrix, 100.0 * 3.0)
        assert np.linalg.matrix_rank(theta.matrix) == 1
        assert theta.epsilon is None  # mean matrix singular, perturbation undefined

    def test_pipeline_regression_fixture(self):
        theta = theta_star_matrix(InitHyper(3.0, 1.0, ERF), 10, THETA3_COV0, 1000.0)
        assert np.allclose(theta.matrix, THETA3_FIXTURE, rtol=1e-12)

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
        trace = run_trace(InitHyper(1.0, 1.0, ERF), 5)
        assert k.matrix[0, 0] == pytest.approx(trace.q[5], rel=1e-14)

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
        pair = KappaPair(2.0, 2.0, 1.0, 1.0)
        pred = predict_variance(pair, q_bar_L=3.0, q_bar_sr_L=1.0, n_samples=8)
        assert pred.A == 1.0
        assert pred.variance == pytest.approx((1.0 + 1.0 / 8.0) * 2.0)

    def test_infinite_ratio_limit(self):
        pair = KappaPair(2.0, 0.0, 1.0, 1.0)
        pred = predict_variance(pair, q_bar_L=3.0, q_bar_sr_L=1.0, n_samples=8)
        assert pred.A == 0.0
        assert pred.variance == 3.0  # exactly q_bar_L

    def test_fixture_values(self):
        pair = KappaPair(5.0, 1.0, 1.0, 1.0)
        q_bar, q_bar_sr = 2.9605538852200315, 2.7404219726585892
        pred = predict_variance(pair, q_bar, q_bar_sr, n_samples=128)
        assert pred.A == pytest.approx(128.0 / 132.0, rel=1e-15)
        # independent algebraic expansion of the same quantity
        a = pred.A
        expanded = (q_bar - 2 * a * q_bar_sr
                    + a * a * (q_bar / 128 + (1 - 1 / 128) * q_bar_sr))
        assert pred.variance == pytest.approx(expanded, rel=1e-12)

    def test_rejects_ratio_below_one(self):
        pair = KappaPair(1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_variance(pair, 1.0, 0.5, 4)


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

    def test_deterministic_in_seed(self):
        theta = np.array([[2.0, 0.5], [0.5, 2.0]])
        joint = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.5], [0.4, 0.5, 1.0]])
        a = variance_oracle_mc(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        b = variance_oracle_mc(theta, joint, np.array([0.6, 0.6]), 10_000, seed=11)
        assert a.variance == b.variance

    def test_rejects_wrong_joint_shape(self):
        with pytest.raises(ValueError):
            variance_oracle_mc(np.eye(2), np.eye(2), np.ones(2), 1000)


def _shared_covariance_cell(hyper, depth, s, c0=0.5, m_width=64.0):
    """Theta*, joint K (test point first) and theta_x of a predict-variance
    cell: S training points and the test point, all pairs at covariance c0."""
    cov0 = np.full((s, s), c0)
    np.fill_diagonal(cov0, 1.0)
    theta = theta_star_matrix(hyper, depth, cov0, m_width, reference_cov=c0)
    kbars = compute_kappas(run_trace(hyper, depth, q0=1.0, q0_sr=c0))
    joint_cov0 = np.full((s + 1, s + 1), c0)
    np.fill_diagonal(joint_cov0, 1.0)
    joint = nngp_matrix(hyper, depth, joint_cov0).matrix
    theta_x = np.full(s, theta.scale * kbars.kappa2 + kbars.p_sum_cross)
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


class TestOnePassAgainstPerPairAssembly:
    """theta_star_matrix/nngp_matrix (one array-valued trace over the distinct
    covariances) against the per-pair double loop of scalar traces."""

    @pytest.mark.parametrize("kind,sw,sb,depth,n", [
        (RELU, 2.0, 1.0, 16, 12), (RELU, 3.0, 0.2, 5, 9),
        (ERF, 3.0, 1.0, 10, 10), (TANH, 1.5, 0.1, 8, 6)])
    def test_random_unit_norm_sample(self, kind, sw, sb, depth, n):
        x = synthetic_dataset(n, 32, seed=n).inputs
        cov0 = x @ x.T
        hyper = InitHyper(sw, sb, kind)
        theta = theta_star_matrix(hyper, depth, cov0, 64.0)
        ref = pairwise_theta_star(hyper, depth, cov0, 64.0)
        np.testing.assert_allclose(theta.matrix, ref.matrix, rtol=1e-13, atol=0)
        np.testing.assert_allclose(theta.kappa2, ref.kappa2, rtol=1e-13, atol=0)
        assert theta.mean_kappa1 == ref.mean_kappa1
        assert theta.mean_kappa2 == pytest.approx(ref.mean_kappa2, rel=1e-13)
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
        np.testing.assert_allclose(theta.matrix, ref.matrix, rtol=1e-13, atol=0)
        assert theta.mean_kappa2 == pytest.approx(ref.mean_kappa2, rel=1e-13)


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
    # theta_star_matrix fits phi at layers 0..16 and phi' at layers 1..15;
    # nngp_matrix and the later samples find all of them
    assert _FITS.misses == 17 + 15 and len(_FITS) == 32
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
