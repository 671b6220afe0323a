import copy
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ntklab.activations import ActivationKind
from ntklab import empirical_ntk
from ntklab.empirical_ntk import (
    DriftStat,
    _theta0_chunk,
    default_probe,
    empirical_kernel,
    init_variance_ratio,
    sample_theta0,
    training_drift,
    variance_ratio_stat,
)
from ntklab.finite_net import TrainConfig, Workspace, forward_batch, init, layer_widths, \
    mse_loss, train_full_batch
from ntklab.meanfield import InitHyper
from oracles import backward_deltas, full_init_theta0, naive_kernel, \
    reference_backward_deltas, reference_forward_batch, reference_trace, replicate_seeds, \
    self_kernel, streaming_kernel

RELU = ActivationKind.RELU
ERF = ActivationKind.ERF
TANH = ActivationKind.TANH


@pytest.fixture
def erf_net():
    return init((7, 11, 9, 1), InitHyper(1.3, 0.6, ERF), 42)


@pytest.fixture
def batch():
    return np.random.default_rng(1).standard_normal((5, 7))


class TestEmpiricalKernel:
    def test_linear_single_layer_closed_form(self):
        # f = Wx + b: Theta(x, x') = x.x' + 1 regardless of the parameter values
        net = init((4, 1), InitHyper(1.0, 1.0, RELU), 0)
        x = np.random.default_rng(2).standard_normal((6, 4))
        theta = empirical_kernel(net, x)
        assert np.allclose(theta, x @ x.T + 1.0, rtol=1e-12)

    def test_single_input_is_gradient_norm(self, erf_net):
        from oracles import gradient

        x = np.random.default_rng(3).standard_normal(7)
        theta = empirical_kernel(erf_net, x[None, :])
        g = gradient(erf_net, x)
        assert theta[0, 0] == pytest.approx(float(g @ g), rel=1e-12)
        assert self_kernel(erf_net, x) == pytest.approx(float(g @ g), rel=1e-12)

    def test_layerwise_equals_naive_and_streaming(self, erf_net, batch):
        fast = empirical_kernel(erf_net, batch)
        slow = naive_kernel(erf_net, batch)
        stream = streaming_kernel(erf_net, batch)
        assert np.allclose(fast, slow, rtol=1e-12)
        assert np.allclose(fast, stream, rtol=1e-12)

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    def test_bitwise_equals_out_of_place_passes_and_assembly(self, kind, batch):
        net = init((7, 11, 9, 1), InitHyper(1.3, 0.6, kind), 42)
        _, acts, pres = reference_forward_batch(net, batch)
        theta = np.zeros((len(batch), len(batch)))
        for d, a in zip(reference_backward_deltas(net, pres), acts):
            theta += (d @ d.T) * (a @ a.T + 1.0)
        want = 0.5 * (theta + theta.T)
        assert empirical_kernel(net, batch).tobytes() == want.tobytes()

    def test_gram_properties(self, erf_net, batch):
        theta = empirical_kernel(erf_net, batch)
        assert np.allclose(theta, theta.T, atol=1e-12)
        eigmin = float(np.linalg.eigvalsh(theta).min())
        assert eigmin >= -1e-8 * np.trace(theta) / len(theta)


class TestInitVarianceRatio:
    def test_constant_stub_kernel_gives_ratio_one(self):
        stat = variance_ratio_stat(np.full(50, 7.5))
        assert stat.ratio == pytest.approx(1.0, abs=1e-14)
        assert stat.standard_error == pytest.approx(0.0, abs=1e-14)

    def test_no_standard_error_from_two_values(self):
        # each leave-one-out sample of two values holds one, whose ratio is 1:
        # the jackknife would report a zero error bar
        stat = variance_ratio_stat([1.0, 3.0])
        assert stat.ratio == 1.25 and stat.n_seeds == 2
        assert np.isnan(stat.standard_error)
        three = variance_ratio_stat([1.0, 3.0, 2.0])
        assert np.isfinite(three.standard_error) and three.standard_error > 0.0

    def test_ratio_at_least_one_within_noise(self):
        probe = default_probe(16, 3)
        stat = init_variance_ratio(layer_widths(16, 32, 4), InitHyper(1.5, 0.5, ERF),
                                   probe, n_seeds=120, seed=3)
        assert stat.ratio >= 1.0 - 3.0 * stat.standard_error
        assert stat.n_failed == 0

    def test_overflow_seeds_hard_error_when_frequent(self):
        # every third replicate overflows
        flaky = np.where(np.arange(1, 31) % 3 == 0, np.inf, 1.0)
        with pytest.raises(FloatingPointError):
            variance_ratio_stat(flaky)

    def test_replicate_seeds_deterministic(self):
        assert np.array_equal(replicate_seeds(5, 10), replicate_seeds(5, 10))
        assert not np.array_equal(replicate_seeds(5, 10), replicate_seeds(6, 10))

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            init_variance_ratio((4, 8, 1), InitHyper(1.0, 0.0, RELU), np.ones(4), 1)


class _CoupledDraws:
    """Stands in for the sampler's Generator and returns, in the order the
    sampler asks for them, the standardized u = W a, b and G^T delta of real
    networks.  G = W + z a^T differs from W only along a, so the conditional
    identity W^T delta = a (u.delta)/|a|^2 + (I - P_a) G^T delta holds exactly
    and the sampler must reproduce each network's Theta(x, x); dropping either
    projection term would leave a (z.delta) behind."""

    def __init__(self, nets, x):
        rng = np.random.default_rng(0)
        draws = []
        for net in nets:
            _, cache = forward_batch(net, x[None, :])
            deltas = backward_deltas(net, cache)
            sw, sb = net.hyper.sigma_w_sq, net.hyper.sigma_b_sq
            fwd, bwd = [], []
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                a = cache.activations[l][0]
                scale = np.sqrt(sw / w.shape[1])
                fwd += [w @ a / (scale * np.linalg.norm(a)), b / np.sqrt(sb)]
                if l > 0:
                    d = deltas[l][0]
                    g = w + np.outer(rng.standard_normal(w.shape[0]), a)
                    bwd.insert(0, g.T @ d / (scale * np.linalg.norm(d)))
            draws.append(fwd + bwd)
        self._queue = [np.stack(rows) for rows in zip(*draws)]

    def standard_normal(self, shape):
        out = self._queue.pop(0)
        assert out.shape == shape
        return out


class TestRankOneSampler:
    def test_coupled_draws_reproduce_full_networks(self):
        widths = layer_widths(5, 7, 4)
        x = default_probe(5, 2)
        for kind in (RELU, ERF, TANH):
            hyper = InitHyper(1.7, 0.3, kind)
            nets = [init(widths, hyper, seed) for seed in range(3)]
            theta = _theta0_chunk(_CoupledDraws(nets, x), widths, hyper, x, len(nets))
            expected = [self_kernel(net, x) for net in nets]
            assert theta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind,sigma_b_sq,sigma_w_sq", [
        (RELU, 0.5, 1.0), (RELU, 0.5, 2.0), (RELU, 0.5, 3.0),   # ordered, EOC, chaotic
        (TANH, 0.0, 0.5), (TANH, 0.0, 1.0), (TANH, 0.0, 3.0),
    ])
    def test_same_law_as_full_initialization(self, kind, sigma_b_sq, sigma_w_sq):
        widths = layer_widths(12, 12, 6)
        hyper = InitHyper(sigma_w_sq, sigma_b_sq, kind)
        x = default_probe(12, 1)
        full = full_init_theta0(widths, hyper, x, replicate_seeds(1, 400))
        fast = sample_theta0(widths, hyper, x, 4000, seed=2)
        assert ks_2samp(full, fast).pvalue > 0.01

    def test_dead_relu_width_one(self):
        # width-1 ReLU layers without bias are dead half the time: |a| = 0
        widths = (3, 1, 1, 1)
        hyper = InitHyper(2.0, 0.0, RELU)
        x = default_probe(3, 4)
        fast = sample_theta0(widths, hyper, x, 2000, seed=5)
        assert np.all(np.isfinite(fast))
        full = full_init_theta0(widths, hyper, x, replicate_seeds(6, 400))
        # a dead first layer leaves only the read-out bias: Theta = 1
        assert np.mean(fast == 1.0) == pytest.approx(np.mean(full == 1.0), abs=0.08)
        assert ks_2samp(full, fast).pvalue > 0.01

    def test_single_layer_is_deterministic(self):
        # f = w.x + b: Theta(x, x) = |x|^2 + 1 for every draw
        x = default_probe(6, 0) * 2.0
        stat = init_variance_ratio((6, 1), InitHyper(1.3, 0.7, TANH), x, n_seeds=150, seed=8)
        assert stat.ratio == pytest.approx(1.0, abs=1e-14)
        assert stat.standard_error == pytest.approx(0.0, abs=1e-14)
        assert stat.mean == pytest.approx(5.0, rel=1e-14)

    def test_bitwise_deterministic_in_seed_and_count(self):
        widths = layer_widths(8, 8, 5)
        hyper = InitHyper(2.0, 1.0, RELU)
        x = default_probe(8, 3)
        a = sample_theta0(widths, hyper, x, 150, seed=9)
        assert a.shape == (150,)
        assert np.array_equal(a, sample_theta0(widths, hyper, x, 150, seed=9))
        assert not np.array_equal(a, sample_theta0(widths, hyper, x, 150, seed=10))
        assert init_variance_ratio(widths, hyper, x, 150, seed=9) == \
            init_variance_ratio(widths, hyper, x, 150, seed=9)

    def test_rejects_probe_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="probe"):
            sample_theta0((4, 8, 1), InitHyper(1.0, 0.0, RELU), np.ones(5), 10)


class TestTrainingDrift:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x = rng.standard_normal((6, 5))
        self.x /= np.linalg.norm(self.x, axis=1, keepdims=True)
        self.y = rng.uniform(size=6)
        self.widths = layer_widths(5, 12, 3)
        self.hyper = InitHyper(1.2, 0.4, ERF)

    def test_zero_steps_gives_zero_drift(self):
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=1e-2, max_steps=0),
                              snapshot_steps=(0,), seed=1)
        assert list(stat.steps) == [0]
        assert stat.rel_change[0] == 0.0

    def test_zero_learning_rate_drift_identically_zero(self):
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=0.0, max_steps=40),
                              snapshot_steps=(0, 10, 40), seed=1)
        assert np.allclose(stat.rel_change, 0.0)

    def test_requested_snapshots_recorded_in_order(self):
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=1e-2, max_steps=30),
                              snapshot_steps=(0, 5, 20, 30), seed=2)
        assert list(stat.steps) == [0, 5, 20, 30]
        assert np.all(np.isfinite(stat.rel_change))
        assert stat.rel_change[0] == 0.0
        assert stat.final_drift == stat.rel_change[-1]

    def test_snapshot_purity(self):
        # the drift recorded at a step must not depend on which other steps
        # were requested
        a = training_drift(self.widths, self.hyper, self.x, self.y,
                           TrainConfig(learning_rate=1e-2, max_steps=25),
                           snapshot_steps=(0, 10, 25), seed=3)
        b = training_drift(self.widths, self.hyper, self.x, self.y,
                           TrainConfig(learning_rate=1e-2, max_steps=25),
                           snapshot_steps=(0, 3, 10, 17, 25), seed=3)
        drift_a = dict(zip(a.steps.tolist(), a.rel_change.tolist()))
        drift_b = dict(zip(b.steps.tolist(), b.rel_change.tolist()))
        for step in (0, 10, 25):
            assert drift_a[step] == drift_b[step]

    def test_initial_kernel_computed_once(self, monkeypatch):
        calls = []

        def counted(net, x, buffers=None):
            calls.append(net)
            return empirical_kernel(net, x, buffers)

        monkeypatch.setattr(empirical_ntk, "empirical_kernel", counted)
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=1e-2, max_steps=30),
                              snapshot_steps=(0, 10, 30), seed=2)
        # the initial network's kernel and the snapshots at steps 10 and 30
        assert len(calls) == 3
        assert list(stat.steps) == [0, 10, 30] and stat.rel_change[0] == 0.0

    @pytest.mark.parametrize("steps", [0, 1, 30])
    def test_initial_loss_is_the_initial_networks_loss(self, steps):
        net = init(self.widths, self.hyper, 5)
        want = mse_loss(forward_batch(net, self.x)[0], self.y)
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=1e-2, max_steps=steps),
                              snapshot_steps=(0,), seed=5)
        assert stat.initial_loss == want
        if steps == 0:
            assert stat.final_loss == want

    def test_initial_loss_with_column_targets(self):
        # targets of shape (S, 1) give the same initial loss with and without steps
        stats = [training_drift(self.widths, self.hyper, self.x, self.y[:, None],
                                TrainConfig(learning_rate=1e-2, max_steps=steps),
                                snapshot_steps=(0,), seed=5) for steps in (0, 3)]
        assert stats[0].initial_loss == stats[1].initial_loss

    def test_initial_loss_when_step_one_diverges(self):
        y = self.y.copy()
        y[0] = np.inf  # the kernel is finite, the first loss is not
        stat = training_drift(self.widths, self.hyper, self.x, y,
                              TrainConfig(learning_rate=1e-2, max_steps=10),
                              snapshot_steps=(0,), seed=5)
        assert stat.diverged and stat.stop_reason == "diverged"
        assert stat.steps_run == 1
        assert stat.initial_loss == np.inf
        assert np.isnan(stat.final_loss)  # no step recorded a finite loss
        assert list(stat.steps) == [0] and list(stat.rel_change) == [0.0]

    def test_drift_bits_do_not_depend_on_blas_threads(self):
        # a 128 x 128 kernel is past the size at which OpenBLAS splits a dot
        # product over threads
        from ntklab.ntk_theory import _numpy_openblas_threads

        threads = _numpy_openblas_threads()
        if threads is None:
            pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
        get, set_ = threads
        rng = np.random.default_rng(12)
        x = rng.standard_normal((128, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.uniform(size=128)
        before = get()
        drifts = []
        try:
            for n in (1, 2):
                set_(n)
                # a BLAS dot rounds differently on 1 and 2 threads for about a
                # third of such kernels: 2 seeds x 8 steps catch it
                drifts.append(np.concatenate([
                    training_drift(self.widths, self.hyper, x, y,
                                   TrainConfig(learning_rate=1e-2, max_steps=8),
                                   snapshot_steps=range(9), seed=seed).rel_change
                    for seed in (6, 7)]))
        finally:
            set_(before)
        assert np.all(drifts[1][1:9] > 0.0)
        assert np.array_equal(drifts[0], drifts[1])

    def test_snapshot_kernels_are_the_kernels_of_the_parameters_at_that_step(self,
                                                                            monkeypatch):
        seen = []

        def recorded(net, batch, buffers=None):
            theta = empirical_kernel(net, batch, buffers)
            seen.append((copy.deepcopy(net), theta))
            return theta

        monkeypatch.setattr(empirical_ntk, "empirical_kernel", recorded)
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=5e-2, max_steps=30),
                              snapshot_steps=(0, 3, 10, 30), seed=2)
        assert len(seen) == 4  # Theta^0, then steps 3, 10 and 30
        for net, theta in seen:
            assert theta.tobytes() == empirical_kernel(net, self.x).tobytes()
        theta0 = seen[0][1]
        norm0 = np.sqrt(np.sum(np.square(theta0)))
        assert stat.rel_change.tolist() == [0.0] + [
            np.sqrt(np.sum(np.square(theta - theta0))) / norm0 for _, theta in seen[1:]]

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    def test_snapshots_allocate_no_per_layer_arrays(self, monkeypatch, kind):
        # a per-layer array holds S x M floats; a kernel's own arrays are S x S
        s, m = 32, 1024
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((s, m)) / np.sqrt(m), rng.uniform(size=s)
        peaks = []

        def measured(net, batch, buffers=None):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            theta = empirical_kernel(net, batch, buffers)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return theta

        monkeypatch.setattr(empirical_ntk, "empirical_kernel", measured)
        tracemalloc.start()
        try:
            training_drift(layer_widths(m, m, 3), InitHyper(1.5, 0.5, kind), x, y,
                           TrainConfig(learning_rate=1e-2, max_steps=4),
                           snapshot_steps=(0, 2, 4), seed=3)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        assert max(peaks) < s * m * 8

    def test_drift_grows_with_training(self):
        stat = training_drift(self.widths, self.hyper, self.x, self.y,
                              TrainConfig(learning_rate=5e-2, max_steps=200),
                              snapshot_steps=(0, 10, 200), seed=4)
        assert stat.rel_change[1] > 0.0
        assert stat.rel_change[2] > stat.rel_change[1]
        assert stat.final_loss < stat.initial_loss


@pytest.mark.parametrize("kind, sigma_w_sq, cfg", [
    (RELU, 2.0, TrainConfig(learning_rate=1e-2, max_steps=40)),
    (ERF, 1.2, TrainConfig(learning_rate=1e-2, max_steps=500, early_stop_delta=1e-2,
                           early_stop_patience=5)),
    (TANH, 1.2, TrainConfig(learning_rate=1e-4, max_steps=30)),
    (RELU, 3.0, TrainConfig(learning_rate=1e6, max_steps=500)),
])
def test_snapshot_kernels_in_the_workspace_do_not_perturb_training(kind, sigma_w_sq, cfg):
    rng = np.random.default_rng(14)
    x, y = 10.0 * rng.standard_normal((12, 6)), rng.uniform(-1.0, 1.0, size=12)
    widths = layer_widths(6, 10, 4)

    def train(snapshots: bool):
        net = init(widths, InitHyper(sigma_w_sq, 0.5, kind), 4)
        ws = Workspace.allocate(net, x)
        kernels = []

        def on_snapshot(step, live):
            try:
                kernels.append(empirical_kernel(live, x, buffers=ws))
            except FloatingPointError:
                kernels.append(None)

        log = train_full_batch(net, x, y, cfg, snapshot_steps=range(cfg.max_steps),
                               on_snapshot=on_snapshot if snapshots else None, buffers=ws)
        outcome = (log.losses.tobytes(), log.stop_reason, log.steps_run)
        params = [p.tobytes() for p in net.weights + net.biases]
        return outcome, params, len(kernels)

    with_snapshots, without = train(True), train(False)
    assert with_snapshots[2] >= 2 and without[2] == 0
    assert with_snapshots[:2] == without[:2]


class TestGradientVarianceScaling:
    def test_first_layer_weight_gradient_moments(self):
        # E[(df/dW^1_ij)^2] over seeds ~ p^1 q_hat^0 / M_1 at square first layer
        hyper = InitHyper(1.0, 1.0, RELU)
        L, M = 3, 500
        trace = reference_trace(hyper, L)
        probe = default_probe(M, 77) * np.sqrt(M * trace["q_hat"][0])
        total = 0.0
        n_seeds = 60
        for seed in range(n_seeds):
            net = init(layer_widths(M, M, L), hyper, 9000 + seed)
            _, cache = forward_batch(net, probe[None, :])
            d1 = backward_deltas(net, cache)[0][0]
            # mean over (i, j) of (delta_i x_j)^2 = |delta|^2 |x|^2 / (M1 M0)
            total += float(d1 @ d1) * float(probe @ probe) / (M * M)
        observed = total / n_seeds
        predicted = trace["p"][1] * trace["q_hat"][0] / M
        assert observed == pytest.approx(predicted, rel=0.10)


def test_drift_stat_final_drift_skips_non_finite():
    stat = DriftStat(steps=np.array([0, 1, 2]),
                     rel_change=np.array([0.0, 3.5, np.nan]),
                     final_loss=1.0, initial_loss=2.0, stop_reason="diverged")
    assert stat.diverged and stat.final_drift == 3.5
