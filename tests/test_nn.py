import contextlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug import nn as nn_module
from cellaug.nn import (
    DenseNetwork,
    LayerSpec,
    NonFiniteError,
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    forward_with_cache,
    init_network,
    network_from_dict,
    network_to_dict,
    sgd_step,
    train,
)
from cellaug.vae import build_vae, stack_vaes
from reference_engine import one_hot, softmax_cross_entropy, squared_error


def finite_difference_check(net, x, targets, loss_fn, h=1e-5):
    """Worst relative error between analytic and central-difference grads."""
    out, cache = forward_with_cache(net, x)
    _, d_out = loss_fn(out, targets)
    grads, _ = backward(net, cache, d_out)
    worst = 0.0
    for layer in range(len(net.weights)):
        for arr, grad in ((net.weights[layer], grads.weights[layer]),
                          (net.biases[layer], grads.biases[layer])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp, _ = loss_fn(forward(net, x), targets)
                arr[ix] = orig - h
                lm, _ = loss_fn(forward(net, x), targets)
                arr[ix] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - grad[ix]) / max(abs(fd), abs(grad[ix]), 1e-8)
                worst = max(worst, rel)
    return worst


def reference_train(net, inputs, targets, loss_fn, cfg, checked=False, steps=None):
    """nn.train as the calls of the primitives that it fuses, one step at a time,
    in the dtype of net and inputs. Checked, it raises nn.train's
    TrainingDiverged on a non-finite loss or learning rate times gradient,
    and, as nn.train, leaves the activations unchecked.
    Each step appends its (epoch, first row) to the list `steps` if given."""
    layer = nn_module._layer
    unchecked = mock.patch.object(nn_module, "_layer",
                                  lambda a, w, b, kind, name: layer(a, w, b, kind, None))
    rng = np.random.default_rng(cfg.seed)
    n = inputs.shape[0]
    trace = []
    with unchecked if checked else contextlib.nullcontext():
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                if steps is not None:
                    steps.append((epoch, start))
                idx = order[start : start + cfg.batch_size]
                out, cache = forward_with_cache(net, inputs[idx], train_mode=True, rng=rng)
                loss, d_out = loss_fn(out, targets[idx])
                if checked and not math.isfinite(loss):
                    trace.append(loss)
                    raise TrainingDiverged(f"loss diverged at epoch {epoch}", trace)
                grads, _ = backward(net, cache, d_out)
                if checked and not all(np.isfinite(cfg.learning_rate * g).all()
                                       for g in grads.weights + grads.biases):
                    raise TrainingDiverged(f"update diverged at epoch {epoch}", trace)
                sgd_step(net, grads, cfg.learning_rate)
                total += loss * idx.size
            trace.append(total / n)
    return net, trace


def train_loss(probs, targets):
    """softmax_cross_entropy with the loss that nn.train reports: the mean
    float64 log of the target probabilities, floored at 1e-300."""
    _, grad = softmax_cross_entropy(probs, targets)
    p = probs[targets == 1].astype(np.float64)
    return float(-np.log(np.maximum(p, 1e-300)).sum() / p.size), grad


def float32_reference_train(net, inputs, labels, cfg, checked=False, steps=None):
    """reference_train on a float32 copy of net, inputs and one-hot targets,
    as nn.train computes; checked, with nn.train's loss and checks, so that
    its trace and error are nn.train's bit for bit."""
    net32 = DenseNetwork(net.layers, [w.astype(np.float32) for w in net.weights],
                         [b.astype(np.float32) for b in net.biases], net.dropout_rate)
    targets = one_hot(labels, net.output_dim).astype(np.float32)
    return reference_train(net32, inputs.astype(np.float32), targets,
                           train_loss if checked else softmax_cross_entropy, cfg, checked, steps)


def assert_same_parameters(got, want):
    """The float64 parameters of `got` hold exactly the values of `want`'s."""
    for g, w in zip(got.weights + got.biases, want.weights + want.biases):
        assert g.dtype == np.float64
        assert np.array_equal(g, w)


class TestInit:
    def test_same_seed_identical(self):
        specs = [LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")]
        n1, n2 = init_network(specs, 5), init_network(specs, 5)
        for a, b in zip(n1.weights, n2.weights):
            assert np.array_equal(a, b)
        assert all(np.all(b == 0.0) for b in n1.biases)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="mismatched dims"):
            init_network([LayerSpec(3, 4, "tanh"), LayerSpec(5, 2, "linear")], 0)

    def test_softmax_only_final(self):
        with pytest.raises(ValueError, match="softmax"):
            init_network([LayerSpec(3, 4, "softmax"), LayerSpec(4, 2, "linear")], 0)

    def test_every_maker_refuses_a_weight_count_mismatch(self, monkeypatch):
        """Direct construction, network_from_dict and stack_vaes refuse a
        network that lost its last weight and bias; init_network, whose
        weights follow its specs, runs the same check."""
        specs = [LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")]
        net = init_network(specs, 0)
        data = network_to_dict(net)
        del data["weights"][-1], data["biases"][-1]
        models = [build_vae(3, seed, location_id=seed) for seed in range(2)]
        del models[1].encoder.weights[-1], models[1].encoder.biases[-1]
        for make in (lambda: DenseNetwork(specs, net.weights[:-1], net.biases[:-1]),
                     lambda: network_from_dict(data),
                     lambda: stack_vaes(models)):
            with pytest.raises(ValueError, match=r"counts differ: \(2, 1, 1\)"):
                make()
        checked = []
        check = DenseNetwork.__post_init__
        monkeypatch.setattr(DenseNetwork, "__post_init__",
                            lambda self: checked.append(len(self.weights)) or check(self))
        init_network(specs, 0)
        assert checked == [2]

    def test_glorot_bounds(self):
        net = init_network([LayerSpec(10, 20, "relu")], 1)
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(net.weights[0]) <= limit)


class TestForward:
    def test_zero_net_uniform_softmax(self):
        net = init_network([LayerSpec(3, 4, "softmax")], 0)
        net.weights[0][:] = 0.0
        out = forward(net, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(out, 0.25)

    def test_identity_linear_layer(self):
        net = init_network([LayerSpec(3, 3, "linear")], 0)
        net.weights[0][:] = np.eye(3)
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(forward(net, x), x)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(2)
        net = init_network([LayerSpec(5, 7, "relu"), LayerSpec(7, 4, "softmax")], 3)
        out = forward(net, rng.normal(0, 3, (20, 5)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0.0)

    def test_dimension_mismatch(self):
        net = init_network([LayerSpec(3, 2, "linear")], 0)
        with pytest.raises(ValueError, match="input shape"):
            forward(net, np.zeros(4))

    def test_softmax_shift_overflow_is_silent(self):
        # logits of 1e308 and -1e308: the shift overflows to -inf, exp gives 0
        net = DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[1e308, -1e308]])],
                           [np.zeros(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = forward(net, np.array([1.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_non_finite_activation_detected(self):
        net = init_network([LayerSpec(2, 2, "linear")], 0)
        net.weights[0][:] = 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                forward(net, np.array([1e10, 1e10]))


class TestBackward:
    def test_finite_difference_small_net(self):
        net = init_network([LayerSpec(3, 5, "tanh"), LayerSpec(5, 2, "softmax")], 0)
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (4, 3))
        t = one_hot(rng.integers(0, 2, 4), 2)
        assert finite_difference_check(net, x, t, softmax_cross_entropy) < 1e-4

    def test_zero_loss_grad_gives_zero_grads(self):
        net = init_network([LayerSpec(3, 4, "sigmoid"), LayerSpec(4, 2, "linear")], 0)
        out, cache = forward_with_cache(net, np.ones((2, 3)))
        grads, d_in = backward(net, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)
        assert np.all(d_in == 0.0)

    def test_softmax_cross_entropy_logit_gradient(self):
        # the fused head: the loss hands (o - t) / n to backward, which
        # passes it through the softmax as the gradient at the logits
        net = init_network([LayerSpec(3, 4, "softmax")], 2)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (6, 3))
        t = one_hot(rng.integers(0, 4, 6), 4)
        out, cache = forward_with_cache(net, x)
        _, d_out = softmax_cross_entropy(out, t)
        assert np.array_equal(d_out, (out - t) / 6)
        grads, _ = backward(net, cache, d_out)
        assert np.allclose(grads.biases[0], np.sum(out - t, axis=0) / 6, atol=1e-15)
        assert np.allclose(grads.weights[0], x.T @ (out - t) / 6, atol=1e-15)

    def test_saturated_softmax_row_keeps_exact_gradient(self):
        # logit gap 800: the target's probability underflows to 0, yet the
        # logit gradient is still (p - t) / n and the loss stays finite
        net = DenseNetwork([LayerSpec(1, 2, "softmax")], [np.zeros((1, 2))],
                           [np.array([0.0, 800.0])])
        t = one_hot(np.array([0]), 2)
        out, cache = forward_with_cache(net, np.zeros((1, 1)))
        assert out[0, 0] == 0.0
        loss, d_out = softmax_cross_entropy(out, t)
        assert loss == pytest.approx(-np.log(1e-300))
        grads, _ = backward(net, cache, d_out)
        assert np.array_equal(grads.biases[0], [-1.0, 1.0])


class TestSgd:
    def test_zero_learning_rate(self):
        net = init_network([LayerSpec(2, 2, "linear")], 0)
        before = [w.copy() for w in net.weights]
        out, cache = forward_with_cache(net, np.ones((1, 2)))
        grads, _ = backward(net, cache, np.ones_like(out))
        sgd_step(net, grads, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_scalar_update(self):
        net = DenseNetwork([LayerSpec(1, 1, "linear")], [np.array([[1.0]])], [np.array([0.0])])
        from cellaug.nn import Gradients
        sgd_step(net, Gradients([np.array([[2.0]])], [np.array([0.0])]), 0.1)
        assert net.weights[0][0, 0] == pytest.approx(0.8)

    def test_quadratic_loss_strictly_decreases(self):
        net = init_network([LayerSpec(2, 1, "linear")], 1)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (20, 2))
        y = x @ np.array([[1.5], [-0.7]]) + 0.3
        losses = []
        for _ in range(50):
            out, cache = forward_with_cache(net, x)
            loss, d_out = squared_error(out, y)
            grads, _ = backward(net, cache, d_out)
            sgd_step(net, grads, 0.05)
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_non_finite_gradient_rejected(self):
        net = init_network([LayerSpec(1, 1, "linear")], 0)
        from cellaug.nn import Gradients
        with pytest.raises(FloatingPointError):
            sgd_step(net, Gradients([np.array([[np.inf]])], [np.array([0.0])]), 0.1)


class TestStacked:
    """A network with a leading stack axis computes, slice by slice, exactly
    what the unstacked networks compute."""

    SPECS = [LayerSpec(4, 6, "tanh"), LayerSpec(6, 5, "relu"),
             LayerSpec(5, 4, "sigmoid"), LayerSpec(4, 3, "softmax")]

    def _nets(self):
        rng = np.random.default_rng(6)
        nets = [init_network(self.SPECS, seed) for seed in range(3)]
        for net in nets:
            for b in net.biases:
                b[:] = rng.normal(0, 0.5, b.shape)
        stacked = DenseNetwork(self.SPECS,
                               [np.stack(ws) for ws in zip(*(n.weights for n in nets))],
                               [np.stack(bs) for bs in zip(*(n.biases for n in nets))])
        return nets, stacked

    def test_forward_backward_sgd_equal_per_slice(self):
        nets, stacked = self._nets()
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (3, 7, 4))
        loss_grad = rng.normal(0, 1, (3, 7, 3))
        out, cache = forward_with_cache(stacked, x)
        grads, d_in = backward(stacked, cache, loss_grad)
        sgd_step(stacked, grads, 0.1)
        for i, net in enumerate(nets):
            out_i, cache_i = forward_with_cache(net, x[i])
            assert np.array_equal(out[i], out_i)
            grads_i, d_in_i = backward(net, cache_i, loss_grad[i])
            assert np.array_equal(d_in[i], d_in_i)
            for g, g_i in zip(grads.weights + grads.biases, grads_i.weights + grads_i.biases):
                assert np.array_equal(g[i], g_i)
            sgd_step(net, grads_i, 0.1)
            for p, p_i in zip(stacked.weights + stacked.biases, net.weights + net.biases):
                assert np.array_equal(p[i], p_i)

    def test_input_last_axis_checked(self):
        _, stacked = self._nets()
        with pytest.raises(ValueError, match="input shape"):
            forward_with_cache(stacked, np.zeros((3, 7, 5)))

    def test_non_finite_errors_name_their_slices(self):
        nets, stacked = self._nets()
        stacked.biases[1][1] = np.inf
        with pytest.raises(NonFiniteError, match="layer 1") as excinfo:
            forward_with_cache(stacked, np.ones((3, 2, 4)))
        assert excinfo.value.slices == [1]
        _, cache = forward_with_cache(nets[0], np.ones((2, 4)))
        grads, _ = backward(nets[0], cache, np.ones((2, 3)))
        assert grads.weights[0].ndim == 2
        grads.biases[2][0] = np.nan
        with pytest.raises(NonFiniteError, match="gradient") as excinfo:
            sgd_step(nets[0], grads, 0.1)
        assert excinfo.value.slices == []
        _, stacked = self._nets()
        out, cache = forward_with_cache(stacked, np.ones((3, 2, 4)))
        grads, _ = backward(stacked, cache, np.ones_like(out))
        grads.biases[3][0, 1] = np.inf
        grads.weights[1][2, 0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="gradient") as excinfo:
            sgd_step(stacked, grads, 0.1)
        assert excinfo.value.slices == [0, 2]


class TestTrain:
    def _separable(self):
        rng = np.random.default_rng(4)
        a = rng.normal((-2, -2), 0.3, (10, 2))
        b = rng.normal((2, 2), 0.3, (10, 2))
        return np.vstack([a, b]), np.array([0] * 10 + [1] * 10)

    def test_linearly_separable_reaches_full_accuracy(self):
        x, y = self._separable()
        net = init_network([LayerSpec(2, 8, "relu"), LayerSpec(8, 2, "softmax")], 0)
        net, trace = train(net, x, y, TrainConfig(0.1, 4, 200, seed=0))
        pred = forward(net, x).argmax(axis=1)
        assert np.mean(pred == y) == 1.0
        assert len(trace) == 200

    def test_zero_epochs_no_change(self):
        # beyond the float32 rounding that training starts from
        x, y = self._separable()
        net = init_network([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "softmax")], 0)
        before = [w.astype(np.float32) for w in net.weights + net.biases]
        net, trace = train(net, x, y, TrainConfig(0.1, 4, 0))
        assert trace == []
        for got, want in zip(net.weights + net.biases, before):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_deterministic(self):
        x, y = self._separable()
        results = []
        for _ in range(2):
            net = init_network([LayerSpec(2, 6, "relu"), LayerSpec(6, 2, "softmax")], 7,
                               dropout_rate=0.2)
            net, trace = train(net, x, y, TrainConfig(0.05, 4, 30, seed=9))
            results.append((net, trace))
        (n1, t1), (n2, t2) = results
        assert t1 == t2
        assert all(np.array_equal(a, b) for a, b in zip(n1.weights, n2.weights))

    def test_empty_dataset(self):
        net = init_network([LayerSpec(2, 2, "softmax")], 0)
        with pytest.raises(ValueError, match="empty dataset"):
            train(net, np.empty((0, 2)), np.empty(0, dtype=int), TrainConfig(0.1, 4, 1))

    @pytest.mark.parametrize("head", ["linear", "sigmoid"])
    def test_non_softmax_head_rejected(self, head):
        x, y = self._separable()
        net = init_network([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, head)], 0)
        with pytest.raises(ValueError, match="softmax head"):
            train(net, x, y, TrainConfig(0.1, 4, 1))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_any_integer_label_dtype_trains_as_int64(self, dtype):
        x, y = self._separable()
        specs = [LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "softmax")]
        net, trace = train(init_network(specs, 0), x, y.astype(dtype), TrainConfig(0.1, 4, 3))
        want, want_trace = train(init_network(specs, 0), x, y.astype(np.int64),
                                 TrainConfig(0.1, 4, 3))
        assert trace == want_trace
        assert_same_parameters(net, want)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_the_classes_rejected(self, bad):
        x, y = self._separable()
        y[3] = bad
        net = init_network([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "softmax")], 0)
        with pytest.raises(ValueError, match=r"class indices in \[0, 2\)"):
            train(net, x, y, TrainConfig(0.1, 4, 1))

    @pytest.mark.parametrize("hidden, head, dropout", [
        ("relu", "softmax", 0.2),
        ("relu", "softmax", 0.0),
        ("tanh", "softmax", 0.2),
    ])
    def test_bit_identical_to_the_primitives(self, hidden, head, dropout):
        # 23 rows in batches of 5: the last batch of each epoch has 3
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (23, 4))
        y = rng.integers(0, 3, 23)
        specs = [LayerSpec(4, 6, hidden), LayerSpec(6, 5, hidden), LayerSpec(5, 3, head)]
        cfg = TrainConfig(0.05, 5, 7, seed=3)
        net, trace = train(init_network(specs, 2, dropout_rate=dropout), x, y, cfg)
        ref, ref_trace = float32_reference_train(init_network(specs, 2, dropout_rate=dropout),
                                                 x, y, cfg)
        # only the loss differs: train takes its logs in float64
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-6, atol=0)
        assert_same_parameters(net, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_primitives_on_drawn_data(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        batch = data.draw(st.integers(1, n + 3), label="batch")
        classes = data.draw(st.integers(2, 5), label="classes")
        y = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n),
                               label="labels"))
        dropout = data.draw(st.sampled_from([0.0, 0.2]), label="dropout")
        hidden = data.draw(st.sampled_from(["relu", "tanh"]), label="hidden")
        depth = data.draw(st.integers(0, 2), label="hidden layers")
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(0, 1, (n, 3))
        dims = [3] + [4] * depth
        specs = [LayerSpec(a, b, hidden) for a, b in zip(dims, dims[1:])]
        specs.append(LayerSpec(dims[-1], classes, "softmax"))
        cfg = TrainConfig(0.1, batch, 3, seed=5)
        net, _ = train(init_network(specs, 1, dropout_rate=dropout), x, y, cfg)
        ref, _ = float32_reference_train(init_network(specs, 1, dropout_rate=dropout), x, y, cfg)
        assert_same_parameters(net, ref)

    def test_non_finite_update_aborts_with_trace(self):
        # Row 0 (x = 0, class 0) is uncertain, row 1 (x = 1e10, class 1) is
        # sure. The first step's bias update (lr * 0.25) flips row 1 to class
        # 0, so the second step's weight gradient is 1e10 * 0.5 and lr times it
        # overflows float32 (5e39 > 3.4e38), while every loss stays finite.
        def net():
            return DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[0.0, 1e-8]])],
                                [np.zeros(2)])
        x, y = np.array([[0.0], [1e10]]), np.array([0, 1])
        with pytest.raises(TrainingDiverged, match="update diverged at epoch 2") as excinfo:
            train(net(), x, y, TrainConfig(1e30, 2, 5, seed=0))
        _, ref_trace = float32_reference_train(net(), x, y, TrainConfig(1e30, 2, 1, seed=0))
        np.testing.assert_allclose(excinfo.value.trace, ref_trace, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_trace_equals_the_checked_primitives(self, dropout):
        # 23 rows in batches of 5: each epoch ends with a short batch of 3;
        # the checked reference takes train's float64 loss step by step
        rng = np.random.default_rng(12)
        x, y = rng.normal(0, 1, (23, 4)), rng.integers(0, 3, 23)
        specs = [LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "softmax")]
        cfg = TrainConfig(0.05, 5, 7, seed=3)
        net, trace = train(init_network(specs, 2, dropout_rate=dropout), x, y, cfg)
        ref, ref_trace = float32_reference_train(init_network(specs, 2, dropout_rate=dropout),
                                                 x, y, cfg, checked=True)
        assert trace == ref_trace and len(trace) == 7
        assert_same_parameters(net, ref)

    def assert_fails_as_checked_reference(self, net, x, y, cfg, message, step):
        """train raises `message` with the trace of the checked float32
        reference, which fails at `step`, (epoch, first row of the batch)."""
        steps = []
        with pytest.raises(TrainingDiverged) as want, np.errstate(all="ignore"):
            float32_reference_train(net(), x, y, cfg, checked=True, steps=steps)
        with pytest.raises(TrainingDiverged) as got:
            train(net(), x, y, cfg)
        assert str(got.value) == str(want.value) == message
        assert steps[-1] == step
        np.testing.assert_array_equal(got.value.trace, want.value.trace)
        return got.value.trace

    @staticmethod
    def nan_row_net():
        return DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[0.0, -1e-8]])],
                            [np.zeros(2)])

    def test_loss_turning_nan_mid_epoch(self):
        # Row 1 (x = 1e20, class 1) starts at p = 0, so its step moves each
        # weight by lr * 1e20 = 1e30. At its next visit its logits are
        # +-1e50, infinite in float32, and its softmax row is NaN; the other
        # rows' logits stay finite. Epoch 2 visits it third, in batches of 1.
        x, y = np.array([[1.0], [1e20], [-1.0], [2.0]]), np.array([0, 1, 1, 0])
        trace = self.assert_fails_as_checked_reference(
            self.nan_row_net, x, y, TrainConfig(1e10, 1, 5, seed=0), "loss diverged at epoch 2",
            (2, 2))
        assert len(trace) == 2 and math.isfinite(trace[0]) and math.isnan(trace[1])

    def test_loss_turning_nan_in_a_short_last_batch(self):
        # as above, with 5 rows in batches of 2, 2 and 1: row 1 is epoch 2's
        # short last batch
        x, y = np.array([[1.0], [1e20], [-1.0], [2.0], [0.5]]), np.array([0, 1, 1, 0, 1])
        trace = self.assert_fails_as_checked_reference(
            self.nan_row_net, x, y, TrainConfig(1e10, 2, 5, seed=2), "loss diverged at epoch 2",
            (2, 4))
        assert len(trace) == 2 and math.isnan(trace[1])

    def test_update_diverging_mid_epoch(self):
        # As in test_non_finite_update_aborts_with_trace, in batches of 1:
        # epoch 1 visits row 1 (x = 1e10, class 1) while it is sure, then a
        # row at x = 0 moves the biases by lr * 0.5 and flips it; epoch 2
        # visits it third, and lr times its weight gradient overflows float32.
        def net():
            return DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[0.0, 1e-8]])],
                                [np.zeros(2)])
        x, y = np.array([[0.0], [1e10], [0.0]]), np.array([0, 1, 0])
        trace = self.assert_fails_as_checked_reference(
            net, x, y, TrainConfig(1e30, 1, 5, seed=5), "update diverged at epoch 2", (2, 2))
        assert len(trace) == 1 and math.isfinite(trace[0])

    def test_target_probability_underflowing_float32_floors_the_loss(self):
        # exp(-200) is 0 in float32 but the 1e-300 floor is not, in float64
        net = DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[0.0, 200.0]])],
                           [np.zeros(2)])
        _, trace = train(net, np.array([[1.0]]), np.array([0]), TrainConfig(1e-3, 1, 1, seed=0))
        assert trace == [pytest.approx(-np.log(1e-300), rel=1e-15)]

    def test_learning_rate_beyond_float32_diverges_silently(self):
        # 1e150 is a finite float64 but casts to float32 inf: the first update
        # is non-finite, and numpy's cast warning stays quiet
        x, y = self._separable()
        net = init_network([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "softmax")], 0)
        before = [w.copy() for w in net.weights + net.biases]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="update diverged at epoch 1") as excinfo:
                train(net, x, y, TrainConfig(1e150, 4, 3, seed=0))
        assert excinfo.value.trace == []
        # a failed run leaves the network as it was
        for got, want in zip(net.weights + net.biases, before):
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_divergence_aborts_with_trace(self):
        # 1e80 and 1e300 are inf in float32, so the logits inf and inf * inf
        # overflow: the softmax row is NaN
        net = DenseNetwork([LayerSpec(1, 2, "softmax")], [np.array([[1.0, 1e300]])],
                           [np.zeros(2)])
        with pytest.raises(TrainingDiverged, match="loss diverged at epoch 1") as excinfo:
            train(net, np.array([[1e80]]), np.array([0]), TrainConfig(1.0, 1, 10, seed=0))
        assert len(excinfo.value.trace) == 1 and np.isnan(excinfo.value.trace[0])


class TestDropout:
    def test_inverted_dropout_expectation(self):
        # masked activation is unbiased: E[mask * a / keep] == a within MC noise
        rng = np.random.default_rng(0)
        a = 0.8
        p = 0.3
        keep = 1.0 - p
        masks = (rng.random(100_000) < keep) / keep
        assert abs(np.mean(masks * a) - a) / a < 0.01

    def test_eval_mode_has_no_dropout(self):
        net = init_network([LayerSpec(3, 16, "tanh"), LayerSpec(16, 2, "linear")], 0,
                           dropout_rate=0.5)
        x = np.ones((1, 3))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_train_mode_requires_rng(self):
        net = init_network([LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")], 0,
                           dropout_rate=0.5)
        with pytest.raises(ValueError, match="rng"):
            forward_with_cache(net, np.ones((1, 3)), train_mode=True)

    def test_output_layer_never_masked(self):
        net = init_network([LayerSpec(3, 4, "tanh"), LayerSpec(4, 2, "linear")], 0,
                           dropout_rate=0.9)
        rng = np.random.default_rng(1)
        _, cache = forward_with_cache(net, np.ones((5, 3)), train_mode=True, rng=rng)
        assert cache.drop[0] is not None
        assert cache.drop[-1] is None


class TestSerialization:
    def test_round_trip(self):
        net = init_network(
            [LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "softmax")], 11, dropout_rate=0.1
        )
        loaded = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert loaded.layers == net.layers
        assert loaded.dropout_rate == net.dropout_rate
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, net.biases))

    def test_dict_round_trip_exact_floats(self):
        net = init_network([LayerSpec(2, 2, "tanh")], 3)
        again = network_from_dict(network_to_dict(net))
        assert np.array_equal(again.weights[0], net.weights[0])

    def test_shape_mismatch_rejected(self):
        net = init_network([LayerSpec(2, 2, "tanh")], 3)
        data = network_to_dict(net)
        data["weights"][0] = [[1.0, 2.0]]
        with pytest.raises(ValueError, match="shapes"):
            network_from_dict(data)
