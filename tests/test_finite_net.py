import tracemalloc

import numpy as np
import pytest

from ntklab.activations import ActivationKind
from ntklab.finite_net import (
    Mlp,
    TrainConfig,
    Workspace,
    _forward_into,
    forward_batch,
    init,
    layer_widths,
    mse_loss,
    train_full_batch,
)
from ntklab.meanfield import InitHyper, edge_of_chaos_sigma_w_sq
from oracles import backward_deltas, finite_difference_gradient, flat_params, forward, \
    gradient, param_count, reference_backward_deltas, reference_dphi, \
    reference_forward_batch, reference_train_full_batch

RELU = ActivationKind.RELU
ERF = ActivationKind.ERF
TANH = ActivationKind.TANH


def small_net(kind=ERF, seed=0, widths=(5, 8, 8, 1), sw=1.4, sb=0.4):
    return init(widths, InitHyper(sw, sb, kind), seed)


class TestInit:
    def test_shapes(self):
        net = init((7, 16, 12, 1), InitHyper(2.0, 1.0, RELU), 3)
        assert [w.shape for w in net.weights] == [(16, 7), (12, 16), (1, 12)]
        assert [b.shape for b in net.biases] == [(16,), (12,), (1,)]
        assert net.depth == 3

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            init((5, 0, 1), InitHyper(1.0, 0.0, RELU), 0)
        with pytest.raises(ValueError):
            init((5, 4, 2), InitHyper(1.0, 0.0, RELU), 0)  # non-scalar output
        with pytest.raises(ValueError):
            init((5,), InitHyper(1.0, 0.0, RELU), 0)

    def test_weight_variance_law_of_large_numbers(self):
        # 1000 x 1000 first layer: ~1e6 entries, variance sigma_w^2 / fan_in to 1%
        sw = 1.7
        net = init((1000, 1000, 1), InitHyper(sw, 0.5, RELU), 11)
        observed = float(np.var(net.weights[0]))
        assert observed == pytest.approx(sw / 1000.0, rel=0.01)
        assert float(np.var(net.biases[0])) == pytest.approx(0.5, rel=0.1)

    def test_same_seed_reproduces_bitwise(self):
        a = init((30, 40, 1), InitHyper(1.0, 1.0, TANH), 123)
        b = init((30, 40, 1), InitHyper(1.0, 1.0, TANH), 123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seed_differs(self):
        a = init((30, 40, 1), InitHyper(1.0, 1.0, TANH), 123)
        b = init((30, 40, 1), InitHyper(1.0, 1.0, TANH), 124)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_layer_widths_helper(self):
        assert layer_widths(784, 256, 4) == (784, 256, 256, 256, 1)
        assert layer_widths(10, 99, 1) == (10, 1)


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        net = small_net()
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        out, _ = forward(net, np.ones(5))
        assert out == 0.0

    def test_single_linear_layer_is_dot_product(self):
        net = init((6, 1), InitHyper(1.0, 1.0, RELU), 5)
        x = np.arange(6, dtype=float)
        out, _ = forward(net, x)
        assert out == pytest.approx((net.weights[0] @ x + net.biases[0]).item())

    def test_batch_matches_single(self):
        net = small_net(TANH, seed=2)
        xs = np.random.default_rng(0).standard_normal((4, 5))
        batch_out, _ = forward_batch(net, xs)
        singles = [forward(net, row)[0] for row in xs]
        assert np.allclose(batch_out, singles, rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_net(), np.ones(4))


class TestGradient:
    def test_linear_layer_gradient_is_input_and_one(self):
        net = init((6, 1), InitHyper(1.0, 1.0, RELU), 5)
        x = np.linspace(-1.0, 1.0, 6)
        g = gradient(net, x)
        assert np.allclose(g[:6], x)
        assert g[6] == 1.0

    @pytest.mark.parametrize("kind", [ERF, TANH, RELU])
    def test_matches_finite_differences(self, kind):
        net = small_net(kind, seed=7, widths=(4, 9, 6, 1))
        x = np.random.default_rng(1).standard_normal(4)
        g = gradient(net, x)
        g_fd = finite_difference_gradient(net, x)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(g_fd)), 1e-8)
        assert np.max(np.abs(g - g_fd) / denom) < 1e-5

    def test_relu_kink_uses_zero_convention(self):
        # engineer h = 0 exactly in the hidden layer: that unit must contribute
        # zero gradient to its incoming weights
        net = init((2, 2, 1), InitHyper(1.0, 0.0, RELU), 0)
        net.weights[0][:] = np.array([[1.0, -1.0], [1.0, 1.0]])
        net.biases[0][:] = 0.0
        net.weights[1][:] = np.array([[1.0, 1.0]])
        net.biases[1][:] = 0.0
        x = np.array([1.0, 1.0])  # h_0 = 0 exactly, h_1 = 2
        assert np.array_equal(net.weights[0] @ x + net.biases[0], [0.0, 2.0])
        _, cache = forward(net, x)
        # the slope at the kink is 0, and phi(0) = 0 replaced the pre-activation
        assert cache.slopes[0].dtype == bool
        assert cache.slopes[0].tolist() == [[False, True]]
        assert cache.activations[1].tolist() == [[0.0, 2.0]]
        g = gradient(net, x)
        # layout: W1 (4), b1 (2), W2 (2), b2 (1); row 0 of W1 gets delta=0
        assert np.allclose(g[0:2], 0.0)
        assert g[4] == 0.0  # bias of the kinked unit
        assert not np.allclose(g[2:4], 0.0)

    def test_layout_matches_param_count(self):
        net = small_net()
        assert gradient(net, np.zeros(5)).shape == (param_count(net),)


class TestTraining:
    def test_perfect_fit_early_stops_without_moving(self):
        net = small_net(ERF, seed=3, widths=(3, 6, 1))
        x = np.random.default_rng(2).standard_normal((4, 3))
        y, _ = forward_batch(net, x)  # targets equal current outputs
        before = flat_params(net)
        log = train_full_batch(net, x, y, TrainConfig(learning_rate=0.1, max_steps=5000))
        assert log.stop_reason == "early_stop"
        # constant loss: the patience window fills right after the first step
        assert log.steps_run == TrainConfig().early_stop_patience + 1
        assert np.allclose(flat_params(net), before, atol=1e-12)
        assert np.allclose(log.losses, 0.0, atol=1e-25)

    def test_finite_blow_up_is_not_convergence(self):
        # lr 1 overshoots: the loss grows to ~1e50 and stays finite; such a run
        # stops as loss_rose, neither at max_steps nor as an early stop
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((12, 6)), rng.uniform(-1.0, 1.0, size=12)
        log = train_full_batch(small_net(ERF, seed=5, widths=(6, 8, 8, 1)), x, y,
                               TrainConfig(learning_rate=1.0, max_steps=30))
        assert log.stop_reason == "loss_rose" and log.steps_run == 30
        assert np.isfinite(log.losses[-1]) and log.losses[-1] > 1e40 * log.losses[0]
        log = train_full_batch(small_net(ERF, seed=5, widths=(6, 8, 8, 1)), x, y,
                               TrainConfig(learning_rate=1.0, max_steps=500,
                                           early_stop_patience=10))
        assert log.stop_reason == "loss_rose" and log.steps_run == 11

    def test_convex_quadratic_monotone_decrease(self):
        # single weight, single input: classic 1-d least squares
        net = init((1, 1), InitHyper(1.0, 0.0, RELU), 0)
        net.biases[0][:] = 0.0
        x = np.array([[2.0]])
        y = np.array([3.0])
        log = train_full_batch(net, x, y, TrainConfig(learning_rate=0.05, max_steps=200))
        assert np.all(np.diff(log.losses) <= 1e-15)
        assert log.losses[-1] < log.losses[0]

    def test_zero_learning_rate_keeps_parameters(self):
        net = small_net(TANH, seed=4)
        x = np.random.default_rng(3).standard_normal((6, 5))
        y = np.zeros(6)
        before = flat_params(net)
        train_full_batch(net, x, y, TrainConfig(learning_rate=0.0, max_steps=120))
        assert np.array_equal(flat_params(net), before)

    def test_divergence_is_returned_with_step(self):
        net = small_net(RELU, seed=5, widths=(3, 8, 8, 1), sw=3.0, sb=1.0)
        x = np.random.default_rng(4).standard_normal((5, 3)) * 10
        y = np.zeros(5)
        log = train_full_batch(net, x, y, TrainConfig(learning_rate=1e6, max_steps=500))
        assert log.stop_reason == "diverged"
        assert 1 <= log.steps_run < 500
        # the log holds the finite losses before the step whose loss was not
        assert len(log.losses) == log.steps_run - 1
        assert np.all(np.isfinite(log.losses))

    def test_training_log_deterministic(self):
        def run():
            net = small_net(ERF, seed=6)
            x = np.random.default_rng(5).standard_normal((8, 5))
            y = np.random.default_rng(6).uniform(size=8)
            return train_full_batch(net, x, y, TrainConfig(learning_rate=1e-2,
                                                           max_steps=150)).losses

        assert np.array_equal(run(), run())

    def test_snapshot_steps_fire_once_each(self):
        net = small_net(ERF, seed=8)
        x = np.random.default_rng(7).standard_normal((4, 5))
        y = np.zeros(4)
        seen = []
        train_full_batch(net, x, y, TrainConfig(learning_rate=1e-3, max_steps=50),
                         snapshot_steps=(0, 10, 50),
                         on_snapshot=lambda step, _net: seen.append(step))
        assert seen == [0, 10, 50]

    def test_zero_steps(self):
        net = small_net()
        x = np.random.default_rng(8).standard_normal((3, 5))
        seen = []
        log = train_full_batch(net, x, np.zeros(3),
                               TrainConfig(learning_rate=1.0, max_steps=0),
                               on_snapshot=lambda step, _net: seen.append(step))
        assert log.steps_run == 0
        assert seen == [0]


def _bits(a) -> tuple:
    """dtype, shape and raw bytes: equal only for bitwise-identical arrays,
    signed zeros and NaN payloads included."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _param_bits(net) -> list:
    return [_bits(p) for p in net.weights + net.biases]


def _train_both(make_net, x, y, cfg, snapshot_steps=(0, 5, 17)):
    """(log, final parameters, parameters at each snapshot) of the library
    step and of the allocating reference, each on a fresh copy of the net;
    the log as (loss bits, stop reason, steps run)."""
    runs = []
    for train in (train_full_batch, reference_train_full_batch):
        net = make_net()
        seen = []
        log = train(net, x, y, cfg, snapshot_steps=snapshot_steps,
                    on_snapshot=lambda step, live: seen.append((step, _param_bits(live))))
        runs.append(((_bits(log.losses), log.stop_reason, log.steps_run), _param_bits(net),
                     seen))
    return runs


class TestBufferedStepMatchesAllocatingStep:
    """train_full_batch reuses its buffers; every result must equal, bit for
    bit, the step that allocates fresh arrays (oracles.reference_train_full_batch)."""

    SIGMA_B_SQ = 0.5

    @staticmethod
    def _data(seed=0, s=12, dim=6):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((s, dim)), rng.uniform(-1.0, 1.0, size=s)

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    @pytest.mark.parametrize("phase, factor", [("ordered", 0.5), ("eoc", 1.0),
                                               ("chaotic", 2.0)])
    def test_losses_parameters_and_snapshots(self, kind, phase, factor):
        sw = factor * edge_of_chaos_sigma_w_sq(kind, self.SIGMA_B_SQ)
        x, y = self._data()
        cfg = TrainConfig(learning_rate=1e-2, max_steps=40)
        lib, ref = _train_both(
            lambda: init((6, 16, 16, 16, 16, 1), InitHyper(sw, self.SIGMA_B_SQ, kind), 3),
            x, y, cfg)
        assert lib[0][1] == "max_steps"
        assert [step for step, _ in lib[2]] == [0, 5, 17, 40]
        assert lib == ref

    def test_relu_kink_and_signed_zeros(self):
        # zero input rows with zero biases put pre-activations exactly on the
        # kink; dead units send -0.0 and 0.0 deltas back
        x, y = self._data(seed=1)
        x[::3] = 0.0

        def make_net():
            net = init((6, 10, 10, 1), InitHyper(2.0, 0.0, RELU), 4)
            for b in net.biases:
                b[:] = 0.0
            return net

        lib, ref = _train_both(make_net, x, y, TrainConfig(learning_rate=5e-2, max_steps=25))
        assert lib == ref

    def test_early_stopping_run(self):
        x, y = self._data(seed=2)
        cfg = TrainConfig(learning_rate=1e-2, max_steps=500, early_stop_delta=1e-2,
                          early_stop_patience=5)
        lib, ref = _train_both(lambda: small_net(ERF, seed=5, widths=(6, 8, 8, 1)), x, y, cfg)
        assert lib[0][1] == "early_stop" and lib[0][2] < 500
        assert lib == ref

    def test_rising_loss_run(self):
        x, y = self._data(seed=4)
        cfg = TrainConfig(learning_rate=1.0, max_steps=30)
        lib, ref = _train_both(lambda: small_net(RELU, seed=5, widths=(6, 8, 8, 1)), x, y, cfg)
        assert lib[0][1] == "loss_rose"
        assert lib == ref

    def test_zero_steps(self):
        x, y = self._data(seed=3)
        lib, ref = _train_both(lambda: small_net(TANH, seed=6, widths=(6, 8, 1)), x, y,
                               TrainConfig(learning_rate=1.0, max_steps=0))
        assert lib[0][2] == 0 and [step for step, _ in lib[2]] == [0]
        assert lib == ref

    def _diverging(self, snapshot_steps):
        x, y = self._data(seed=4)
        cfg = TrainConfig(learning_rate=1e6, max_steps=500)
        return _train_both(lambda: small_net(RELU, seed=5, widths=(6, 8, 8, 1), sw=3.0,
                                             sb=1.0), 10.0 * x, np.zeros(len(y)), cfg,
                           snapshot_steps)

    def test_diverging_run(self):
        lib, ref = self._diverging((0, 5, 17))
        (loss_bits, reason, steps), _, seen = lib
        assert reason == "diverged" and steps >= 2
        assert loss_bits[1] == (steps - 1,)
        assert [step for step, _ in seen] == [t for t in (0, 5, 17) if t < steps]
        assert lib == ref

    def test_diverged_run_takes_no_final_snapshot(self):
        # a run that ends unrequested is snapshotted at its last step, unless
        # that step's loss was not finite: the log is the oracle's, bit for bit
        lib, ref = self._diverging((0,))
        assert lib[0][1] == "diverged"
        assert [step for step, _ in lib[2]] == [0]
        assert lib == ref

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    def test_forward_and_deltas_match_allocating_passes(self, kind):
        net = small_net(kind, seed=7, widths=(6, 9, 7, 1))
        x, _ = self._data(seed=5)
        out, cache = forward_batch(net, x)
        ref_out, ref_acts, ref_pres = reference_forward_batch(net, x)
        assert _bits(out) == _bits(ref_out)
        # the read-out pre-activation is kept; each hidden one was overwritten
        # by its activation, after its slope was taken from it
        assert _bits(cache.output) == _bits(ref_pres[-1])
        assert [_bits(a) for a in cache.activations] == [_bits(a) for a in ref_acts]
        assert [_bits(np.multiply(1.0, m)) for m in cache.slopes] == \
            [_bits(reference_dphi(kind, h)) for h in ref_pres[:-1]]
        # forward_batch's workspace is the one training runs in: a workspace
        # refilled after other use gives the same bits
        assert isinstance(cache, Workspace)
        ws = Workspace.allocate(net, x)
        for buf in ws.activations[1:] + ws.slopes + [ws.output]:
            buf[...] = np.nan if buf.dtype.kind == "f" else True
        _forward_into(net, ws)
        assert _bits(ws.output) == _bits(cache.output)
        assert [_bits(a) for a in ws.activations] == [_bits(a) for a in cache.activations]
        assert [_bits(m) for m in ws.slopes] == [_bits(m) for m in cache.slopes]
        assert [_bits(d) for d in backward_deltas(net, cache)] == \
            [_bits(d) for d in reference_backward_deltas(net, ref_pres)]

    @pytest.mark.parametrize("kind", [RELU, ERF, TANH])
    def test_slopes_at_the_kink_and_at_overflow(self, kind):
        # pre-activations 0, +-tiny, large enough that cosh overflows, and inf
        # and nan: slopes and activations are the reference's, bit for bit
        net = init((1, 3, 1), InitHyper(1.0, 0.0, kind), 0)
        net.weights[0][:] = [[1.0], [-1.0], [1e3]]
        net.biases[0][:] = 0.0
        x = np.array([[0.0], [-0.0], [5e-324], [-3.0], [0.7], [400.0], [np.inf],
                      [-np.inf], [np.nan]])
        _, cache = forward_batch(net, x)
        _, ref_acts, ref_pres = reference_forward_batch(net, x)
        (slope,) = cache.slopes
        assert slope.dtype == (bool if kind is RELU else np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_dphi(kind, ref_pres[0])
        assert _bits(np.multiply(1.0, slope)) == _bits(want)
        assert _bits(cache.activations[1]) == _bits(ref_acts[1])


def test_training_holds_only_activations_slopes_deltas_and_one_gradient():
    # the peak a training run adds is its workspace: per hidden layer an
    # activation, a ReLU mask and a delta, plus the output delta, one
    # weight-gradient and one bias-gradient buffer, and S-sized vectors
    s, m, depth, steps = 128, 64, 32, 3
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((s, m)), rng.uniform(size=s)
    net = init(layer_widths(m, m, depth), InitHyper(2.0, 1.0, RELU), 1)
    layer = s * m * 8
    workspace = (depth - 1) * (layer + s * m + layer) + s * 8 + (m * m + m) * 8
    vectors = 3 * s * 8 + steps * 8  # output, residual and its square; the loss log
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log = train_full_batch(net, x, y, TrainConfig(learning_rate=1e-3, max_steps=steps))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert log.steps_run == steps
    assert workspace <= peak
    # slack for Python objects and NumPy's 64 KiB ufunc buffer (the bias add)
    assert peak <= workspace + vectors + 128 * 1024


def test_mse_loss_mean_over_samples():
    assert mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5
