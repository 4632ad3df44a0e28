"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with -s to see the lines for passing tests). The end-to-end criteria
train real models on the synthetic desk testbed and take a few minutes.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellaug.augment import AugmentConfig, augment_drop_threshold, compute_stats
from cellaug.cli import main
from cellaug.core import ASU_MAX, load_database, save_database
from cellaug.distfit import fit_best, fit_beta, fit_gamma, fit_gaussian, sample_from
from cellaug.localize import desk_profile, load_model, save_model, train_localizer, weighted_centroid
from cellaug.nn import backward, forward, forward_with_cache, init_network
from cellaug.pipeline import run_comparison
from cellaug.preprocess import SampleSet
from cellaug.testbed import dbm_to_asu, default_desk_spec, generate
from cellaug.vae import (
    VaeTrainConfig,
    build_vae,
    kl_to_standard_normal,
    train_vae,
    vae_grads,
    vae_loss,
)
from cellaug.vae import generate as vae_generate
from conftest import survey
from reference_engine import one_hot, softmax_cross_entropy, squared_error


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def desk_db():
    return generate(default_desk_spec())


@pytest.fixture(scope="module")
def desk_db_file(desk_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "desk.jsonl"
    save_database(desk_db, path)
    return path


def relative_error(estimate, truth):
    return abs(estimate - truth) / abs(truth)


@pytest.mark.slow
def test_criterion_1_end_to_end_improvement(desk_db):
    """Combined augmentation beats the 5-scan baseline on >= 4 of 5 seeds,
    with mean relative median improvement >= 15%, inside the time budget."""
    with criterion(1, "end-to-end improvement"):
        start = time.monotonic()
        profile = desk_profile()
        wins = 0
        improvements = []
        for seed in (1, 2, 3, 4, 5):
            result = run_comparison(desk_db, AugmentConfig(seed=seed), profile, train_scans=5)
            without = result.without_augmentation.p50
            with_aug = result.with_augmentation.p50
            wins += with_aug <= without
            improvements.append((without - with_aug) / with_aug * 100.0)
            print(f"  seed {seed}: median without {without:.3f} m, "
                  f"with {with_aug:.3f} m ({improvements[-1]:+.1f}%)")
        elapsed = time.monotonic() - start
        print(f"  wins {wins}/5, mean improvement {np.mean(improvements):.1f}%, "
              f"elapsed {elapsed:.0f}s")
        assert wins >= 4
        assert np.mean(improvements) >= 15.0
        assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_2_no_technique_hurts(desk_db):
    """Each technique alone keeps the median within 1.05x of the baseline;
    the cross-technique ordering is reported, not asserted."""
    with criterion(2, "augmenter ordering sanity"):
        cfg = AugmentConfig(seed=1)
        profile = desk_profile()
        medians = {}
        baseline = None
        for tech in ("noise", "sampling", "drop_random", "drop_threshold", "vae"):
            result = run_comparison(desk_db, cfg.only(tech), profile, train_scans=5)
            baseline = result.without_augmentation.p50
            medians[tech] = result.with_augmentation.p50
        for tech, p50 in sorted(medians.items(), key=lambda kv: kv[1]):
            print(f"  {tech}: {p50:.3f} m (baseline {baseline:.3f} m)")
            assert p50 <= 1.05 * baseline, f"{tech} degraded the median"
        best = min(medians, key=medians.get)
        print(f"  best single technique on this run: {best}")


def test_criterion_3_distribution_fit_recovery():
    """Each family recovers generating parameters within 5% from 1e4 samples,
    and fit_best picks the true family in >= 95 of 100 seeded trials."""
    with criterion(3, "distribution-fit recovery"):
        rng = np.random.default_rng(7)
        a, b = fit_beta(rng.beta(2.0, 5.0, 10_000)).params
        assert relative_error(a, 2.0) < 0.05 and relative_error(b, 5.0) < 0.05
        k, theta = fit_gamma(rng.gamma(2.0, 0.1, 10_000)).params
        assert relative_error(k, 2.0) < 0.05 and relative_error(theta, 0.1) < 0.05
        mu, sigma = fit_gaussian(np.clip(rng.normal(0.5, 0.05, 10_000), 0, 1)).params
        assert relative_error(mu, 0.5) < 0.05 and relative_error(sigma, 0.05) < 0.05

        generators = {
            "beta": lambda r: r.beta(2.0, 5.0, 10_000),
            "gamma": lambda r: r.gamma(2.0, 0.08, 10_000),
            "gaussian": lambda r: np.clip(r.normal(0.5, 0.12, 10_000), 0, 1),
        }
        for family, gen in generators.items():
            hits = sum(
                fit_best(gen(np.random.default_rng(1000 + t))).family == family
                for t in range(100)
            )
            print(f"  fit_best selects {family}: {hits}/100")
            assert hits >= 95


def _classifier_gradient_worst(seed):
    rng = np.random.default_rng(seed)
    activations = ["relu", "tanh", "sigmoid", "linear"]
    n_hidden = int(rng.integers(1, 3))
    dims = [int(rng.integers(2, 6)) for _ in range(n_hidden + 2)]
    kinds = [activations[int(rng.integers(0, len(activations)))] for _ in range(n_hidden)]
    if rng.integers(0, 2) == 0:
        kinds.append("softmax")
        loss_fn = softmax_cross_entropy
        targets = one_hot(rng.integers(0, dims[-1], 3), dims[-1])
    else:
        kinds.append("sigmoid")
        loss_fn = squared_error
        targets = rng.uniform(0, 1, (3, dims[-1]))
    net = init_network(dims, kinds, int(rng.integers(0, 2**31)))
    x = rng.normal(0, 1, (3, dims[0]))
    out, cache = forward_with_cache(net, x)
    _, d_out = loss_fn(out, targets)
    grads, _ = backward(net, cache, d_out)
    h = 1e-5
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
                worst = max(worst, abs(fd - grad[ix]) / max(abs(fd), abs(grad[ix]), 1e-8))
    return worst


def _vae_gradient_worst(seed):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(2, 6))
    model = build_vae(n_features, int(rng.integers(0, 2**31)), location_id=0)
    x = rng.uniform(0.05, 0.95, n_features)
    eps = rng.standard_normal(model.latent_dim)
    weight = [1.0, 100.0][seed % 2]
    _, cache = vae_loss(x, model, eps=eps)
    enc_grads, dec_grads = vae_grads(model, cache, recon_weight=weight)

    def objective():
        loss, _ = vae_loss(x, model, eps=eps)
        return weight * loss.reconstruction + loss.kl

    h = 1e-5
    worst = 0.0
    for net, grads in ((model.encoder, enc_grads), (model.decoder, dec_grads)):
        for arrs, gs in ((net.weights, grads.weights), (net.biases, grads.biases)):
            for arr, grad in zip(arrs, gs):
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
                    worst = max(worst, abs(fd - grad[ix]) / max(abs(fd), abs(grad[ix]), 1e-8))
    return worst


def test_criterion_4_gradient_correctness():
    """Analytic gradients match central finite differences (1e-4 relative)
    across >= 20 random small-network configurations, both loss types."""
    with criterion(4, "gradient correctness"):
        worst_overall = 0.0
        for seed in range(12):
            worst_overall = max(worst_overall, _classifier_gradient_worst(100 + seed))
        for seed in range(8):
            worst_overall = max(worst_overall, _vae_gradient_worst(200 + seed))
        print(f"  worst relative error over 20 configurations: {worst_overall:.2e}")
        assert worst_overall < 1e-4


def test_criterion_5_vae_joint_structure():
    """On rho=0.9 correlated towers the VAE keeps correlation > 0.5 while
    independent per-tower sampling stays below 0.15 (1e4 samples each)."""
    with criterion(5, "VAE joint-structure capture"):
        rng = np.random.default_rng(42)
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        data = np.clip(0.5 + 0.15 * rng.multivariate_normal([0, 0], cov, size=200), 0, 1)

        model = train_vae(data, VaeTrainConfig(epochs=3000, learning_rate=0.001, seed=1),
                          location_id=0)
        generated = vae_generate(model, 9, 10_000)
        vae_corr = float(np.corrcoef(generated[:, 0], generated[:, 1])[0, 1])

        fits = [fit_best(data[:, 0]), fit_best(data[:, 1])]
        sampler_rng = np.random.default_rng(9)
        sampled = np.column_stack([sample_from(f, sampler_rng, 10_000) for f in fits])
        sampling_corr = float(np.corrcoef(sampled[:, 0], sampled[:, 1])[0, 1])

        print(f"  data corr 0.9 -> VAE {vae_corr:.3f}, independent sampling {sampling_corr:.3f}")
        assert vae_corr > 0.5
        assert abs(sampling_corr) < 0.15


def test_criterion_6_exact_arithmetic():
    """Hand-checkable identities: ASU conversion on all 32 values, the
    signal-range noise scale, threshold-dropper counts, KL closed form,
    and weighted-centroid decoding."""
    with criterion(6, "exact arithmetic"):
        for asu in range(32):  # dBm = 2 * ASU - 113, as the generator inverts it
            assert dbm_to_asu(2 * asu - 113) == asu
        assert dbm_to_asu(-113) == 0 and dbm_to_asu(-51) == 31

        # noise scale is half the observed range: ASU 0 and 31 give exactly 1/2
        db = survey([(0, (0, 0), [(0, [("A", 0)]), (1, [("A", 31)])]),
                     (1, (1, 1), [(0, [("A", 5)])])])
        stats = compute_stats(db)
        assert stats[0].noise_scale[0] == 0.5
        grid = (20 / ASU_MAX - 10 / ASU_MAX) / 2
        db2 = survey([(0, (0, 0), [(0, [("A", 10)]), (1, [("A", 20)])]),
                      (1, (1, 1), [(0, [("A", 5)])])])
        assert compute_stats(db2)[0].noise_scale[0] == grid == 5 / 31

        for k in range(7):
            values = [0.9] * 2 + [0.01 * (i + 1) for i in range(k)]
            out = augment_drop_threshold(
                np.array([values]), AugmentConfig(drop_threshold_value=0.2)
            )
            assert len(out) == 2**k - 1

        assert kl_to_standard_normal(np.zeros(2), np.zeros(2)) == 0.0
        assert kl_to_standard_normal(np.array([1.0]), np.array([0.0])) == 0.5

        coords = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        assert np.allclose(weighted_centroid([0.5, 0.25, 0.25], coords), [1.0, 1.0])
        assert np.allclose(weighted_centroid([0.0, 1.0, 0.0], coords), [4.0, 0.0])
        two = np.array([(0.0, 0.0), (2.0, 0.0)])
        assert np.allclose(weighted_centroid([0.5, 0.5], two), [1.0, 0.0])


@pytest.mark.slow
def test_criterion_7_pipeline_determinism(desk_db_file, tmp_path):
    """The full compare pipeline, run twice with one master seed, writes
    byte-identical JSON reports."""
    with criterion(7, "pipeline determinism"):
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"cmp_{run}.json"
            code = main([
                "compare", str(desk_db_file), "--seed", "11", "--train-scans", "5",
                "--out", str(out),
            ])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        print(f"  report of {len(reports[0])} bytes identical across runs "
              f"(median with aug: {payload['with_augmentation']['percentiles']['p50']:.3f} m)")


def test_criterion_8_serialization_round_trips(tmp_path):
    """Database and model serialization are lossless on randomized inputs."""
    with criterion(8, "serialization round-trips"):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n_towers = int(rng.integers(2, 9))
            towers = [f"T{i}" for i in range(n_towers)]
            locations = []
            for loc_id in range(int(rng.integers(2, 6))):
                scans = []
                for ts in range(int(rng.integers(1, 5))):
                    k = int(rng.integers(1, min(n_towers, 7) + 1))
                    heard = rng.choice(n_towers, size=k, replace=False)
                    scans.append((ts, [(towers[j], int(rng.integers(0, 32))) for j in heard]))
                locations.append((
                    loc_id,
                    (float(rng.normal(0, 50)), float(rng.normal(0, 50))),
                    scans,
                ))
            db = survey(locations, testbed=f"rt{trial}", grid_cell_m=float(rng.uniform(0.5, 100)))
            path = tmp_path / f"db{trial}.jsonl"
            save_database(db, path)
            assert load_database(path) == db

        toy_rows, toy_labels = [], []
        coords = {}
        for loc in range(3):
            coords[loc] = (float(loc), 0.0)
            for _ in range(6):
                toy_rows.append(np.clip(rng.normal(0.2 * loc + 0.2, 0.05, 4), 0, 1))
                toy_labels.append(loc)
        model = train_localizer(
            SampleSet(np.array(toy_rows), toy_labels, ("T0", "T1", "T2", "T3")),
            desk_profile().__class__(learning_rate=0.05, batch_size=8, dropout_rate=0.0,
                                     epochs=20, hidden_neurons=8, hidden_layers=1),
            coords, seed=1,
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        reloaded = load_model(model_path)
        probe = np.full(4, 0.4)
        assert np.array_equal(
            forward(reloaded.network, probe), forward(model.network, probe)
        )
        print("  10 random databases, localizer model: all lossless")
