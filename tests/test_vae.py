from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug import drawahead
from cellaug import vae as vae_module
from cellaug.nn import (
    DenseNetwork,
    LayerSpec,
    NonFiniteError,
    TrainingDiverged,
    backward,
    forward_with_cache,
    sgd_step,
)
from cellaug.util import derive_rng
from cellaug.vae import (
    FULL_BATCH_LIMIT,
    MINI_BATCH,
    RECON_WEIGHT,
    VaeModel,
    VaeTrainConfig,
    _batch_loss,
    build_vae,
    generate,
    kl_to_standard_normal,
    stack_vaes,
    train_vae,
    train_vaes,
    vae_grads,
    vae_loss,
)


def zeroed(model):
    """Zero every parameter: encoder emits (mu=0, log_var=0), decoder emits 0.5."""
    for net in (model.encoder, model.decoder):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    return model


def correlated_vectors(n, rho, seed, scale=0.15, mean=0.5):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, rho], [rho, 1.0]])
    z = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    return np.clip(mean + scale * z, 0.0, 1.0)


class TestKl:
    def test_identical_distributions(self):
        assert kl_to_standard_normal(np.zeros(4), np.zeros(4)) == 0.0

    def test_unit_mean_shift(self):
        assert kl_to_standard_normal(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.normal(0, 3, 5)
            log_var = rng.normal(0, 2, 5)
            assert kl_to_standard_normal(mu, log_var) >= 0.0


class TestVaeLoss:
    def test_perfect_autoencoder_zero_loss(self):
        # zero parameters: mu = log_var = 0 and sigmoid(0) = 0.5 reconstruction
        model = zeroed(build_vae(3, 0, location_id=0))
        x = np.full(3, 0.5)
        loss, _ = vae_loss(x, model, rng=1)
        assert loss.reconstruction == 0.0
        assert loss.kl == 0.0
        assert loss.total == 0.0

    def test_quadratic_reconstruction_penalty(self):
        model = zeroed(build_vae(3, 0, location_id=0))
        delta = 0.2
        x = np.array([0.5 + delta, 0.5, 0.5])
        loss, _ = vae_loss(x, model, rng=1)
        assert loss.kl == 0.0
        assert loss.total == pytest.approx(delta**2 / 2)

    def test_gradients_match_finite_differences_with_frozen_eps(self):
        model = build_vae(4, 12, location_id=0)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, 4)
        eps = rng.standard_normal(model.latent_dim)
        h = 1e-5
        for weight in (1.0, 100.0):
            _, cache = vae_loss(x, model, eps=eps)
            enc_grads, dec_grads = vae_grads(model, cache, recon_weight=weight)

            def objective():
                loss, _ = vae_loss(x, model, eps=eps)
                return weight * loss.reconstruction + loss.kl

            worst = 0.0
            for net, grads in ((model.encoder, enc_grads), (model.decoder, dec_grads)):
                for arrs, gs in ((net.weights, grads.weights), (net.biases, grads.biases)):
                    for arr, g in zip(arrs, gs):
                        it = np.nditer(arr, flags=["multi_index"])
                        for _ in it:
                            ix = it.multi_index
                            orig = arr[ix]
                            arr[ix] = orig + h
                            lp = objective()
                            arr[ix] = orig - h
                            lm = objective()
                            arr[ix] = orig
                            fd = (lp - lm) / (2 * h)
                            rel = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8)
                            worst = max(worst, rel)
            assert worst < 1e-4

    def test_wrong_length_rejected(self):
        model = build_vae(4, 0, location_id=0)
        with pytest.raises(ValueError, match="length"):
            vae_loss(np.zeros(3), model, rng=0)

    @pytest.mark.parametrize("network, layer", [
        ("encoder", 0), ("encoder", 1), ("decoder", 0), ("decoder", 1)])
    def test_non_finite_activation_names_its_layer(self, network, layer):
        model = build_vae(4, 0, location_id=0)
        getattr(model, network).weights[layer][0, 0] = np.nan
        with pytest.raises(NonFiniteError) as excinfo:
            vae_loss(np.full(4, 0.5), model, rng=1)
        assert str(excinfo.value) == f"{network} layer {layer} activation is non-finite"
        assert excinfo.value.slices == []


class TestTrainVae:
    def test_loss_improves_on_toy_data(self):
        vectors = correlated_vectors(100, 0.5, 7)
        model = train_vae(vectors, VaeTrainConfig(epochs=300, seed=1), location_id=0)
        assert model.trace[-1] < model.trace[0]
        assert len(model.trace) == 300
        assert model.location_id == 0

    def test_last_tenth_beats_first_tenth(self):
        vectors = correlated_vectors(64, 0.3, 11)
        model = train_vae(vectors, VaeTrainConfig(epochs=400, seed=2), location_id=0)
        tenth = len(model.trace) // 10
        assert np.mean(model.trace[-tenth:]) < np.mean(model.trace[:tenth])

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too few samples"):
            train_vae(correlated_vectors(1, 0.5, 0), VaeTrainConfig(epochs=1), location_id=0)

    def test_deterministic(self):
        vectors = correlated_vectors(20, 0.5, 3)
        m1 = train_vae(vectors, VaeTrainConfig(epochs=50, seed=5), location_id=0)
        m2 = train_vae(vectors, VaeTrainConfig(epochs=50, seed=5), location_id=0)
        for a, b in zip(m1.encoder.weights + m1.decoder.weights,
                        m2.encoder.weights + m2.decoder.weights):
            assert np.array_equal(a, b)
        assert np.array_equal(m1.trace, m2.trace)

    def test_array_input_needs_location_id(self):
        with pytest.raises(TypeError, match="location_id"):
            train_vae(np.zeros((5, 2)), VaeTrainConfig(epochs=1))

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"epochs": -1}, "epochs must be >= 1"),
        ({"learning_rate": -0.5}, "learning_rate must be a finite number > 0"),
        ({"learning_rate": 0.0}, "learning_rate must be a finite number > 0"),
        ({"learning_rate": float("nan")}, "learning_rate must be a finite number > 0"),
        ({"learning_rate": float("inf")}, "learning_rate must be a finite number > 0"),
    ])
    def test_config_refuses_empty_or_non_finite_training(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            VaeTrainConfig(**kwargs)


class TestStacked:
    def test_grads_equal_per_slice_with_frozen_eps(self):
        models = [build_vae(4, seed, location_id=seed) for seed in range(3)]
        stacked = stack_vaes(models)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.1, 0.9, (3, 6, 4))
        eps = rng.standard_normal((3, 6, stacked.latent_dim))
        loss, cache = _batch_loss(stacked, x, eps)
        enc_grads, dec_grads = vae_grads(stacked, cache, recon_weight=100.0)
        for i, model in enumerate(models):
            loss_i, cache_i = _batch_loss(model, x[i], eps[i])
            assert loss.reconstruction[i] == loss_i.reconstruction
            assert loss.kl[i] == loss_i.kl
            for stacked_grads, grads_i in zip((enc_grads, dec_grads),
                                              vae_grads(model, cache_i, recon_weight=100.0)):
                for g, g_i in zip(stacked_grads.weights + stacked_grads.biases,
                                  grads_i.weights + grads_i.biases):
                    assert np.array_equal(g[i], g_i)

    def test_diverging_loss_names_its_location(self):
        x = np.stack([correlated_vectors(8, 0.5, seed) for seed in range(3)])
        x[1] *= 1e160  # squared error overflows in slice 1 only
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train_vaes(x, VaeTrainConfig(epochs=5, seed=0), [10, 11, 12])
        assert str(excinfo.value) == "VAE training (location 11): loss diverged at epoch 1"
        assert excinfo.value.trace == [np.inf]

    @pytest.mark.parametrize("learning_rate", [30.0, 1e3, 1e9])
    def test_non_finite_step_names_its_locations(self, learning_rate):
        # steps that diverge by themselves, each as the engine loop diverges
        x = np.stack([correlated_vectors(8, 0.5, seed) for seed in range(3)])
        cfg = VaeTrainConfig(epochs=50, learning_rate=learning_rate, seed=0)
        with pytest.raises(TrainingDiverged) as want:
            reference_train_vaes(x, cfg, [10, 11, 12])
        with pytest.raises(TrainingDiverged, match=r"^VAE training \(locations? 1\d") as got:
            train_vaes(x, cfg, [10, 11, 12])
        assert str(got.value) == str(want.value)
        assert "non-finite" in str(got.value)
        assert got.value.trace == want.value.trace
        assert len(got.value.trace) >= 1 and np.all(np.isfinite(got.value.trace))


@contextmanager
def prefixed(name):
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{name} {exc}", exc.slices) from exc


def reference_batch_loss(model, x, eps):
    """The VAE forward and loss built from the engine's forward_with_cache."""
    with prefixed("encoder"):
        enc_out, enc_cache = forward_with_cache(model.encoder, x)
    d = model.latent_dim
    mu, log_var = enc_out[..., :d], enc_out[..., d:]
    z = mu + np.exp(0.5 * log_var) * eps
    with prefixed("decoder"):
        xhat, dec_cache = forward_with_cache(model.decoder, z)
    n = x.shape[-2]
    lead = x.shape[:-2] + (-1,)
    rec = 0.5 * np.sum(((x - xhat) ** 2).reshape(lead), axis=-1) / n
    kl = 0.5 * np.sum((np.exp(log_var) + mu**2 - 1.0 - log_var).reshape(lead), axis=-1) / n
    return (rec, kl), (enc_cache, dec_cache, x, xhat, mu, log_var, eps)


def reference_vae_grads(model, cache, recon_weight):
    """The analytic VAE gradients built from the engine's backward."""
    enc_cache, dec_cache, x, xhat, mu, log_var, eps = cache
    n = x.shape[-2]
    d_xhat = recon_weight * (xhat - x) / n
    dec_grads, d_z = backward(model.decoder, dec_cache, d_xhat)
    sigma = np.exp(0.5 * log_var)
    d_mu = d_z + mu / n
    d_log_var = d_z * eps * 0.5 * sigma + 0.5 * (np.exp(log_var) - 1.0) / n
    enc_grads, _ = backward(model.encoder, enc_cache, np.concatenate([d_mu, d_log_var], axis=-1))
    return enc_grads, dec_grads


def reference_train_vaes(x, cfg, location_ids, before_epoch=None):
    """train_vaes as a loop over the engine primitives, with each epoch's
    draws built by rng.permutation and np.stack. before_epoch(epoch,
    stacked), if given, runs at the start of each epoch (0 first)."""
    n_locations, n, _ = x.shape
    models = [
        vae_module.build_vae(
            x.shape[2], int(derive_rng(cfg.seed, "vae-init", loc).integers(0, 2**32)),
            location_id=loc)
        for loc in location_ids
    ]
    stacked = stack_vaes(models)
    rngs = [derive_rng(cfg.seed, "vae-train", loc) for loc in location_ids]
    batch = n if n <= FULL_BATCH_LIMIT else MINI_BATCH
    rows = np.arange(n_locations)[:, None]
    traces = np.empty((cfg.epochs, n_locations))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if before_epoch:
                before_epoch(epoch, stacked)
            draws = [(rng.permutation(n), rng.standard_normal((n, stacked.latent_dim)))
                     for rng in rngs]
            order = np.stack([perm for perm, _ in draws])
            eps_epoch = np.stack([eps for _, eps in draws])
            total = np.zeros(n_locations)
            for start in range(0, n, batch):
                idx = order[:, start : start + batch]
                eps = eps_epoch[:, start : start + batch]
                try:
                    (rec, kl), cache = reference_batch_loss(stacked, x[rows, idx], eps)
                    enc_grads, dec_grads = reference_vae_grads(stacked, cache, RECON_WEIGHT)
                    with prefixed("encoder"):
                        sgd_step(stacked.encoder, enc_grads, cfg.learning_rate)
                    with prefixed("decoder"):
                        sgd_step(stacked.decoder, dec_grads, cfg.learning_rate)
                except NonFiniteError as exc:
                    raise vae_module._diverged(location_ids, exc.slices, traces[:epoch],
                                               f"{exc} at epoch {epoch + 1}") from exc
                total += (RECON_WEIGHT * rec + kl) * idx.shape[1]
            traces[epoch] = total / n
            bad = np.flatnonzero(~np.isfinite(traces[epoch]))
            if bad.size:
                raise vae_module._diverged(location_ids, bad, traces[: epoch + 1],
                                           f"loss diverged at epoch {epoch + 1}")
    for i, model in enumerate(models):
        for net, stack in ((model.encoder, stacked.encoder), (model.decoder, stacked.decoder)):
            net.weights = [w[i] for w in stack.weights]
            net.biases = [b[i] for b in stack.biases]
        model.trace = traces[:, i]
    return models


def poisoned_build_vae(network, layer, location_ids):
    """build_vae that puts a NaN into one weight of `network` layer `layer`
    of the models of `location_ids`."""
    build = vae_module.build_vae

    def poisoned(*args, **kwargs):
        model = build(*args, **kwargs)
        if model.location_id in location_ids:
            getattr(model, network).weights[layer][0, 0] = np.nan
        return model

    return poisoned


class TestBitIdentity:
    """train_vaes against the loop over forward_with_cache, backward and sgd_step."""

    @pytest.mark.parametrize("n_locations, rows, epochs", [(3, 70, 12), (4, 5, 60)])
    def test_trained_models_equal_the_engine_loop(self, n_locations, rows, epochs):
        # 70 rows train in mini-batches of 32, 32 and 6; 5 rows as one batch
        x = np.stack([correlated_vectors(rows, 0.6, seed) for seed in range(n_locations)])
        x = np.concatenate([x, x[..., ::-1] ** 2], axis=-1)
        ids = [7 + 3 * i for i in range(n_locations)]
        cfg = VaeTrainConfig(epochs=epochs, learning_rate=0.01, seed=5)
        got = train_vaes(x, cfg, ids)
        want = reference_train_vaes(x, cfg, ids)
        for model, ref in zip(got, want):
            assert model.location_id == ref.location_id
            assert np.array_equal(model.trace, ref.trace) and len(model.trace) == epochs
            for net, ref_net in ((model.encoder, ref.encoder), (model.decoder, ref.decoder)):
                for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("network, layer", [
        ("encoder", 0), ("encoder", 1), ("decoder", 0), ("decoder", 1)])
    def test_non_finite_activation_message(self, network, layer, monkeypatch):
        x = np.stack([correlated_vectors(8, 0.5, seed) for seed in range(3)])
        monkeypatch.setattr(vae_module, "build_vae", poisoned_build_vae(network, layer, {10, 12}))
        cfg = VaeTrainConfig(epochs=3, seed=0)
        with pytest.raises(TrainingDiverged) as want:
            reference_train_vaes(x, cfg, [10, 11, 12])
        with pytest.raises(TrainingDiverged) as got:
            train_vaes(x, cfg, [10, 11, 12])
        assert str(got.value) == str(want.value) == (
            f"VAE training (locations 10, 12): {network} layer {layer} activation is "
            "non-finite at epoch 1")
        assert got.value.trace == want.value.trace == []

    @pytest.mark.parametrize("network, layer, param, index", [
        ("encoder", 0, "weights", (0, 0)),
        ("encoder", 1, "weights", (0, 0)),
        ("decoder", 0, "weights", (0, 0)),
        ("decoder", 1, "weights", (0, 0)),
        # log_var = -inf: the KL term is infinite, while every gradient stays finite
        ("encoder", 1, "biases", (vae_module.LATENT_DIM,)),
    ], ids=["encoder-0", "encoder-1", "decoder-0", "decoder-1", "log-variance-bias"])
    def test_non_finite_activation_from_epoch_2(self, network, layer, param, index, monkeypatch):
        """A parameter of locations 10 and 12 turns non-finite at the start
        of epoch 2, so the first non-finite activation is in one layer of a
        later epoch's first step. train_vaes, inline, is poisoned from its
        draws; the reference, from its epoch hook."""
        x = np.stack([correlated_vectors(70, 0.5, seed) for seed in range(3)])
        cfg = VaeTrainConfig(epochs=3, seed=0)

        def poison(epoch, stacked):
            if epoch == 1:
                getattr(getattr(stacked, network), param)[layer][([0, 2],) + index] = (
                    -np.inf if param == "biases" else np.nan)

        stacks = []
        stack, draws = vae_module.stack_vaes, vae_module._train_draws

        def hooked_draws(*args):
            for epoch, record in enumerate(draws(*args)):
                poison(epoch, stacks[0])
                yield record

        monkeypatch.setattr(drawahead, "_forks", lambda count: False)
        monkeypatch.setattr(vae_module, "stack_vaes", lambda models: stacks.append(
            stack(models)) or stacks[0])
        monkeypatch.setattr(vae_module, "_train_draws", hooked_draws)
        with pytest.raises(TrainingDiverged) as want:
            reference_train_vaes(x, cfg, [10, 11, 12], poison)
        with pytest.raises(TrainingDiverged) as got:
            train_vaes(x, cfg, [10, 11, 12])
        assert str(got.value) == str(want.value) == (
            f"VAE training (locations 10, 12): {network} layer {layer} activation is "
            "non-finite at epoch 2")
        assert got.value.trace == want.value.trace
        assert len(got.value.trace) == 1 and np.isfinite(got.value.trace).all()

    def test_non_finite_gradient_message(self):
        x = np.stack([correlated_vectors(8, 0.5, seed) for seed in range(3)])
        x[1, 3, 0] = 1e307  # finite activations, but 100 * (xhat - x) overflows
        cfg = VaeTrainConfig(epochs=3, seed=0)
        with pytest.raises(TrainingDiverged) as want:
            reference_train_vaes(x, cfg, [10, 11, 12])
        with pytest.raises(TrainingDiverged) as got:
            train_vaes(x, cfg, [10, 11, 12])
        assert str(got.value) == str(want.value) == (
            "VAE training (location 11): encoder gradient is non-finite at epoch 1")
        assert got.value.trace == want.value.trace == []


# Every parameter array of a 6-feature VAE: (network, "weights" or "biases", layer) -> shape.
PARAMETER_SHAPES = {
    (network, param, layer): a.shape
    for network in ("encoder", "decoder") for param in ("weights", "biases")
    for layer, a in enumerate(getattr(getattr(build_vae(6, 0, location_id=0), network), param))
}


@st.composite
def poisons(draw):
    """One parameter entry, a non-empty subset of 3 locations, the epoch at
    whose start they turn bad, and the bad value."""
    target = draw(st.sampled_from(sorted(PARAMETER_SHAPES)))
    entry = tuple(draw(st.integers(0, dim - 1)) for dim in PARAMETER_SHAPES[target])
    slices = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    epoch = draw(st.integers(0, 2))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e154, -1e154, 1e30]))
    return target, entry, sorted(slices), epoch, value


def outcome(run):
    """What a training run ends with: its error text and trace, or its
    models' traces and parameters."""
    with np.errstate(all="ignore"):
        try:
            models = run()
        except TrainingDiverged as exc:
            return str(exc), [np.array(exc.trace)]
    return "finished", [a for m in models for a in (m.trace, *m.encoder.weights,
                                                   *m.encoder.biases, *m.decoder.weights,
                                                   *m.decoder.biases)]


class TestDiagnosis:
    X = np.random.default_rng(21).uniform(0.05, 0.95, (3, 8, 6))

    @settings(max_examples=100, deadline=None)
    @given(poison=poisons())
    def test_poisoned_parameter_ends_as_the_engine_loop(self, poison):
        """train_vaes, inline and poisoned from its draws, ends with the
        error and trace, or the models, of the reference poisoned from its
        epoch hook."""
        (network, param, layer), entry, slices, at_epoch, value = poison
        cfg, ids = VaeTrainConfig(epochs=3, seed=0), [10, 11, 12]

        def poison_at(epoch, stacked):
            if epoch == at_epoch:
                getattr(getattr(stacked, network), param)[layer][(slices,) + entry] = value

        stacks = []
        stack, draws = vae_module.stack_vaes, vae_module._train_draws

        def hooked_draws(*args):
            for epoch, record in enumerate(draws(*args)):
                poison_at(epoch, stacks[0])
                yield record

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drawahead, "_forks", lambda count: False)
            mp.setattr(vae_module, "stack_vaes",
                       lambda models: stacks.append(stack(models)) or stacks[0])
            mp.setattr(vae_module, "_train_draws", hooked_draws)
            got_text, got = outcome(lambda: train_vaes(self.X, cfg, ids))
        want_text, want = outcome(lambda: reference_train_vaes(self.X, cfg, ids, poison_at))
        assert got_text == want_text
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestGenerate:
    def test_outputs_in_unit_cube_and_labeled(self):
        model = train_vae(correlated_vectors(30, 0.5, 1), VaeTrainConfig(epochs=100, seed=0),
                          location_id=0)
        values = generate(model, 3, 500)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_silent_tower_stays_silent(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([
            np.clip(rng.normal(0.6, 0.1, 150), 0, 1),
            np.clip(rng.normal(0.4, 0.1, 150), 0, 1),
            np.zeros(150),
        ])
        model = train_vae(x, VaeTrainConfig(epochs=1500, seed=4), location_id=2)
        out = generate(model, 6, 10_000)
        assert out[:, 2].mean() < 0.05

    def test_n_must_be_positive(self):
        model = train_vae(correlated_vectors(10, 0.5, 2), VaeTrainConfig(epochs=10, seed=0),
                          location_id=0)
        with pytest.raises(ValueError):
            generate(model, 0, 0)

    def test_joint_structure_captured(self):
        vectors = correlated_vectors(200, 0.9, 42)
        model = train_vae(vectors, VaeTrainConfig(epochs=3000, seed=1), location_id=0)
        out = generate(model, 9, 5000)
        assert np.corrcoef(out[:, 0], out[:, 1])[0, 1] > 0.5


class TestLayerRule:
    def test_other_activations_rejected(self):
        model = build_vae(4, 0, location_id=0)
        encoder = DenseNetwork([LayerSpec(4, 10, "relu"), model.encoder.layers[1]],
                               model.encoder.weights, model.encoder.biases)
        with pytest.raises(ValueError, match="tanh, linear and tanh, sigmoid"):
            VaeModel(encoder, model.decoder, location_id=0)
