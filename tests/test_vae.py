import numpy as np
import pytest

from cellaug.nn import TrainingDiverged
from cellaug.vae import (
    VaeTrainConfig,
    _batch_loss,
    build_vae,
    generate,
    kl_to_standard_normal,
    load_vae_models,
    save_vae_models,
    stack_vaes,
    train_vae,
    train_vaes,
    vae_from_dict,
    vae_grads,
    vae_loss,
    vae_to_dict,
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
        assert m1.trace == m2.trace

    def test_array_input_needs_location_id(self):
        with pytest.raises(ValueError, match="location_id"):
            train_vae(np.zeros((5, 2)), VaeTrainConfig(epochs=1))


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

    def test_non_finite_step_names_its_locations(self):
        x = np.stack([correlated_vectors(8, 0.5, seed) for seed in range(3)])
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match=r"^VAE training \(locations? 1\d") as excinfo:
                train_vaes(x, VaeTrainConfig(epochs=50, learning_rate=1e9, seed=0),
                           [10, 11, 12])
        assert "non-finite" in str(excinfo.value)
        assert len(excinfo.value.trace) >= 1 and np.all(np.isfinite(excinfo.value.trace))


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


class TestSerialization:
    def test_dict_round_trip(self):
        model = train_vae(correlated_vectors(16, 0.5, 1), VaeTrainConfig(epochs=20, seed=3),
                          location_id=0)
        again = vae_from_dict(vae_to_dict(model))
        assert again.location_id == model.location_id
        for a, b in zip(model.encoder.weights + model.decoder.weights,
                        again.encoder.weights + again.decoder.weights):
            assert np.array_equal(a, b)

    def test_bundle_round_trip(self, tmp_path):
        models = {}
        for loc in (0, 3):
            vecs = correlated_vectors(12, 0.5, loc)
            models[loc] = train_vae(vecs, VaeTrainConfig(epochs=10, seed=loc), location_id=loc)
        path = tmp_path / "vaes.json"
        save_vae_models(models, path)
        loaded = load_vae_models(path)
        assert sorted(loaded) == [0, 3]
        for loc in (0, 3):
            gen_a = generate(models[loc], 7, 5)
            gen_b = generate(loaded[loc], 7, 5)
            assert np.array_equal(gen_a, gen_b)
