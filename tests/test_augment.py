import numpy as np
import pytest

from cellaug.augment import (
    TECHNIQUES,
    AugmentConfig,
    LocationStats,
    augment_all,
    augment_drop_random,
    augment_drop_threshold,
    augment_noise,
    augment_sampling,
    compute_stats,
    train_location_vaes,
)
from cellaug.core import RawScan, ReferenceLocation, from_locations
from cellaug.distfit import FittedDistribution
from cellaug.preprocess import location_blocks, normalize_asu, vectorize, vectorize_database
from cellaug.util import ConfigError
from cellaug.vae import VaeTrainConfig, train_vae


def rows(values, n=1):
    """A block of n identical rows."""
    return np.tile(np.array(values, dtype=float), (n, 1))


def stats_for(noise_scale, mean_values=None):
    m = len(noise_scale)
    mean = np.array(mean_values if mean_values is not None else [0.5] * m)
    return LocationStats(mean_values=mean, noise_scale=np.array(noise_scale, dtype=float))


@pytest.fixture
def two_tower_db():
    scans0 = (
        RawScan(0, (("A", 10), ("B", 20))),
        RawScan(1, (("A", 20), ("B", 20))),
    )
    scans1 = (
        RawScan(0, (("A", 5),)),
        RawScan(1, (("A", 6),)),
    )
    return from_locations([
        ReferenceLocation(0, (0.0, 0.0), scans0),
        ReferenceLocation(1, (3.0, 4.0), scans1),
    ])


class TestComputeStats:
    def test_range_halved(self, two_tower_db):
        stats = compute_stats(two_tower_db)
        # tower A at location 0 heard at 10/31 and 20/31
        expected = (normalize_asu(20) - normalize_asu(10)) / 2
        assert stats[0].noise_scale[0] == pytest.approx(expected)
        assert stats[0].mean_values[0] == pytest.approx(normalize_asu(15))

    def test_constant_tower_has_zero_scale(self, two_tower_db):
        stats = compute_stats(two_tower_db)
        assert stats[0].noise_scale[1] == 0.0  # B constant at 20

    def test_never_heard_tower(self, two_tower_db):
        stats = compute_stats(two_tower_db)
        assert stats[1].noise_scale[1] == 0.0  # B unheard at location 1

    def test_order_invariant(self, two_tower_db):
        assert 0.4 <= sum(stats_for([0.1, 0.2]).mean_values) <= 1.1  # sanity of helper
        s1 = compute_stats(two_tower_db)
        s2 = compute_stats(two_tower_db)
        assert np.array_equal(s1[0].noise_scale, s2[0].noise_scale)


class TestNoise:
    def test_zero_scale_is_identity(self):
        v = rows([0.5, 0.9, 0.0])
        out = augment_noise(v, v > 0, stats_for([0.0, 0.0, 0.0]), np.random.default_rng(0))
        assert np.array_equal(out, v)

    def test_moments_match(self):
        v = rows([0.5], 100_000)
        stats = stats_for([0.1])
        rng = np.random.default_rng(42)
        draws = augment_noise(v, v > 0, stats, rng)[:, 0]
        assert abs(draws.mean() - 0.5) < 0.002
        assert abs(draws.std() - 0.1) < 0.005

    def test_clipped_to_unit_interval(self):
        v = rows([0.98], 2000)
        stats = stats_for([0.2])
        rng = np.random.default_rng(1)
        out = augment_noise(v, v > 0, stats, rng)
        assert np.all((0.0 <= out[:, 0]) & (out[:, 0] <= 1.0))

    def test_unheard_entries_stay_zero(self):
        v = rows([0.5, 0.0, 0.0], 500)
        # tower 2 heard in other scans at this location (nonzero scale), but
        # not in this scan: the explicit mask keeps it silent
        stats = stats_for([0.1, 0.2, 0.0])
        rng = np.random.default_rng(3)
        heard = np.tile([True, False, False], (500, 1))
        out = augment_noise(v, heard, stats, rng)
        assert np.all(out[:, 1] == 0.0) and np.all(out[:, 2] == 0.0)

    def test_label_preserved(self, two_tower_db):
        cfg = AugmentConfig().only("noise")
        out, counts = augment_all(two_tower_db, cfg)
        originals = out.labels[:counts["original"]]
        noisy = out.labels[counts["original"]:]
        assert noisy.tolist() == np.repeat(originals, cfg.noise_per_scan).tolist()


class TestSampling:
    def test_degenerate_fits_reproduce_points(self, two_tower_db):
        fits = {
            "A": FittedDistribution("degenerate", (0.4,), float("inf"), 2),
            "B": FittedDistribution("degenerate", (0.8,), float("inf"), 2),
        }
        heard = np.ones((two_tower_db.scan_counts[0], 2), dtype=bool)  # both scans hear A and B
        out = augment_sampling(heard, fits, two_tower_db.tower_universe,
                               np.random.default_rng(0), 5)
        assert len(out) == 5
        for v in out:
            assert np.array_equal(v, [0.4, 0.8])

    def test_beta_entry_mean(self):
        heard = np.array([[True]])  # one scan hearing A
        fits = {"A": FittedDistribution("beta", (2.0, 5.0), 0.0, 10)}
        out = augment_sampling(heard, fits, ("A",), np.random.default_rng(11), 100_000)
        values = out[:, 0]
        assert abs(values.mean() - 2 / 7) < 0.01

    def test_never_heard_tower_stays_zero(self):
        heard = np.array([[True, True, False]])  # one scan hearing A and B
        fits = {
            "A": FittedDistribution("degenerate", (0.3,), float("inf"), 1),
            "B": FittedDistribution("degenerate", (0.4,), float("inf"), 1),
        }
        out = augment_sampling(heard, fits, ("A", "B", "C"), np.random.default_rng(0), 50)
        for v in out:
            assert v[2] == 0.0

    def test_missing_fit_rejected(self):
        heard = np.array([[True, True]])  # one scan hearing A and B
        fits = {"A": FittedDistribution("degenerate", (0.3,), float("inf"), 1)}
        with pytest.raises(ValueError, match="missing fit.*B"):
            augment_sampling(heard, fits, ("A", "B"), np.random.default_rng(0), 5)


class TestDropRandom:
    def cfg(self, max_drop=6):
        return AugmentConfig(drop_random_max_drop=max_drop)

    def test_mask_zeroes_subset(self):
        v = rows([0.5, 0.7, 0.2])
        stats = stats_for([0.1, 0.1, 0.1], mean_values=[0.5, 0.7, 0.2])
        rng = np.random.default_rng(0)
        out = augment_drop_random(v, v > 0, stats, self.cfg(), rng)[0]
        # entry 1 has the highest mean: protected
        assert out[1] == 0.7
        dropped = np.flatnonzero(out == 0.0)
        assert 1 <= dropped.size <= 2
        kept = out != 0.0
        assert np.array_equal(out[kept], v[0][kept])

    def test_single_heard_tower_unchanged(self):
        v = rows([0.0, 0.4, 0.0])
        out = augment_drop_random(v, v > 0, stats_for([0.0] * 3), self.cfg(),
                                  np.random.default_rng(0))
        assert np.array_equal(out, v)

    def test_protected_never_dropped_others_always_eventually(self):
        v = rows([0.5, 0.6, 0.7, 0.8, 0.9], 10_000)
        means = [0.5, 0.6, 0.7, 0.8, 0.9]
        stats = stats_for([0.1] * 5, mean_values=means)
        rng = np.random.default_rng(123)
        out = augment_drop_random(v, v > 0, stats, self.cfg(), rng)
        assert np.all(out[:, 4] == 0.9)  # highest mean is protected
        dropped_ever = np.any(out == 0.0, axis=0)
        assert dropped_ever.tolist() == [True, True, True, True, False]

    def test_never_introduces_nonzero(self):
        v = rows([0.5, 0.0, 0.7], 200)
        stats = stats_for([0.1] * 3)
        rng = np.random.default_rng(5)
        out = augment_drop_random(v, v > 0, stats, self.cfg(), rng)
        for row in out:
            assert row[1] == 0.0
            assert set(np.flatnonzero(row)) <= set(np.flatnonzero(v[0]))

    def test_max_drop_respected(self):
        v = rows([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], 2000)
        stats = stats_for([0.1] * 7, mean_values=v[0].tolist())
        rng = np.random.default_rng(9)
        out = augment_drop_random(v, v > 0, stats, self.cfg(max_drop=2), rng)
        assert np.all((out == 0.0).sum(axis=1) <= 2)


class TestDropThreshold:
    def test_two_candidates_three_outputs(self):
        v = rows([0.9, 0.15, 0.1])
        out = augment_drop_threshold(v, AugmentConfig(drop_threshold_value=0.2))
        assert len(out) == 3
        produced = {tuple(o) for o in out}
        assert produced == {(0.9, 0.0, 0.1), (0.9, 0.15, 0.0), (0.9, 0.0, 0.0)}

    def test_no_candidates(self):
        v = rows([0.9, 0.8])
        assert len(augment_drop_threshold(v, AugmentConfig(drop_threshold_value=0.2))) == 0

    def test_single_candidate(self):
        out = augment_drop_threshold(rows([0.19]), AugmentConfig(drop_threshold_value=0.2))
        assert len(out) == 1
        assert out[0][0] == 0.0

    def test_count_law_exhaustive(self):
        for k in range(7):
            values = [0.5] * 3 + [0.01 * (i + 1) for i in range(k)]
            out = augment_drop_threshold(rows(values), AugmentConfig(drop_threshold_value=0.2))
            assert len(out) == 2**k - 1
            for o in out:
                assert np.array_equal(o[:3], values[:3])

    def test_zero_entries_not_candidates(self):
        v = rows([0.0, 0.1])
        out = augment_drop_threshold(v, AugmentConfig(drop_threshold_value=0.2))
        assert len(out) == 1  # only the 0.1 entry

    def test_cap_at_twelve(self):
        values = [0.01 * (i + 1) for i in range(14)]
        v = rows(values)
        out = augment_drop_threshold(v, AugmentConfig(drop_threshold_value=0.2))
        assert len(out) == 2**12 - 1
        # the two strongest candidates (0.13, 0.14) are never dropped
        for o in out[:100]:
            assert o[12] == pytest.approx(0.13)
            assert o[13] == pytest.approx(0.14)


class TestHeardAsuZero:
    """The heard mask, not the value, decides "heard": a heard ASU-0 reading
    vectorizes to 0, counts in the statistics, and is never a threshold
    candidate (dropping it would change no value)."""

    @pytest.fixture
    def db(self):
        scans = (RawScan(0, (("A", 0), ("B", 3), ("C", 5))), RawScan(1, (("A", 10), ("C", 25))))
        return from_locations([ReferenceLocation(0, (0.0, 0.0), scans)])

    def test_vectorized_as_zero_but_heard(self, db):
        samples, heard = vectorize(db)
        assert samples.x[0].tolist() == [0.0, normalize_asu(3), normalize_asu(5)]
        assert heard.tolist() == [[True, True, True], [True, False, True]]

    def test_counted_by_stats(self, db):
        stats = compute_stats(db)[0]
        assert stats.noise_scale[0] == (normalize_asu(10) - 0.0) / 2.0  # heard at ASU 0 and 10
        assert stats.mean_values[0] == pytest.approx(normalize_asu(5))

    def test_not_a_threshold_candidate(self, db):
        first = vectorize_database(db).x[:1]
        out = augment_drop_threshold(first, AugmentConfig(drop_threshold_value=0.2))
        assert len(out) == 2**2 - 1  # B and C are candidates; the heard ASU 0 is not
        assert np.all(out[:, 0] == 0.0)
        assert {tuple(o) for o in out[:, 1:]} == {
            (0.0, normalize_asu(5)), (normalize_asu(3), 0.0), (0.0, 0.0)}


class TestAugmentAll:
    def test_only_originals(self, two_tower_db):
        none = AugmentConfig(**{f"{name}_enabled": False for name in TECHNIQUES})
        vectors, counts = augment_all(two_tower_db, none)
        assert vectors == vectorize_database(two_tower_db)
        assert counts == {"original": 4, "noise": 0, "sampling": 0,
                          "drop_random": 0, "drop_threshold": 0, "vae": 0}

    def test_count_arithmetic_single_location(self):
        scans = (
            RawScan(0, (("A", 25), ("B", 4), ("C", 15))),
            RawScan(1, (("A", 28), ("B", 5), ("C", 14))),
        )
        db = from_locations([ReferenceLocation(0, (0, 0), scans)])
        cfg = AugmentConfig(
            noise_per_scan=3,
            sampling_n_per_location=7,
            drop_random_per_scan=4,
            drop_threshold_value=0.2,
            vae_n_per_location=5,
            vae_epochs=5,
            seed=1,
        )
        vectors, counts = augment_all(db, cfg)
        # one below-threshold entry per scan (B at 4/31 and 5/31): 2^1 - 1 each
        assert counts == {"original": 2, "noise": 6, "sampling": 7,
                          "drop_random": 8, "drop_threshold": 2, "vae": 5}
        assert len(vectors) == sum(counts.values())

    def test_all_outputs_labeled_and_bounded(self, two_tower_db):
        cfg = AugmentConfig(vae_epochs=5, seed=3)
        vectors, _ = augment_all(two_tower_db, cfg)
        assert set(vectors.labels.tolist()) <= {0, 1}
        assert np.all(vectors.x >= 0.0) and np.all(vectors.x <= 1.0)

    def test_deterministic(self, two_tower_db):
        cfg = AugmentConfig(vae_epochs=5, seed=9)
        va, ca = augment_all(two_tower_db, cfg)
        vb, cb = augment_all(two_tower_db, cfg)
        assert ca == cb
        assert len(va) == len(vb)
        assert va == vb

    def test_disabled_technique_contributes_nothing(self, two_tower_db):
        cfg = AugmentConfig().only("noise")
        vectors, counts = augment_all(two_tower_db, cfg)
        assert counts["noise"] == 4 * cfg.noise_per_scan
        assert counts["sampling"] == 0 and counts["vae"] == 0


class TestTrainLocationVaes:
    def test_stacked_groups_equal_lone_runs(self):
        rng = np.random.default_rng(12)
        towers = ("A", "B", "C", "D")
        locations = []
        for loc_id, n_scans in enumerate((1, 2, 5, 5, 70)):
            scans = tuple(
                RawScan(t, tuple((tw, int(rng.integers(3, 31))) for tw in towers
                                 if rng.random() < 0.8) or (("A", 9),))
                for t in range(n_scans))
            locations.append(ReferenceLocation(loc_id, (float(loc_id), 0.0), scans))
        db = from_locations(locations)
        cfg = AugmentConfig(vae_epochs=25, vae_learning_rate=0.01, seed=4)
        with pytest.warns(UserWarning, match="location 0: only 1 scan"):
            models = train_location_vaes(db, cfg)
        assert list(models) == [1, 2, 3, 4]
        vae_cfg = VaeTrainConfig(epochs=25, learning_rate=0.01, seed=4)
        for loc_id, x, _ in location_blocks(db):
            if loc_id == 0:
                continue
            alone = train_vae(x, vae_cfg, location_id=loc_id)
            model = models[loc_id]
            assert model.location_id == loc_id
            assert np.array_equal(model.trace, alone.trace)
            for net, net_alone in ((model.encoder, alone.encoder), (model.decoder, alone.decoder)):
                for a, b in zip(net.weights + net.biases, net_alone.weights + net_alone.biases):
                    assert np.array_equal(a, b)


class TestAugmentConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown augmentation config key"):
            AugmentConfig.from_dict({"nois.enabled": "true"})

    def test_from_dict_parses_types(self):
        cfg = AugmentConfig.from_dict({
            "noise.enabled": "false",
            "sampling.n_per_location": "auto",
            "drop_threshold.value": "0.3",
            "seed": "17",
        })
        assert cfg.noise_enabled is False
        assert cfg.sampling_n_per_location is None
        assert cfg.drop_threshold_value == 0.3
        assert cfg.seed == 17

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            AugmentConfig(drop_threshold_value=1.5)
        with pytest.raises(ConfigError):
            AugmentConfig(noise_per_scan=0)
        with pytest.raises(ConfigError):
            AugmentConfig.from_dict({"noise.per_scan": "many"})

    def test_only_selects_one_technique(self):
        cfg = AugmentConfig().only("vae")
        assert cfg.vae_enabled
        assert not (cfg.noise_enabled or cfg.sampling_enabled
                    or cfg.drop_random_enabled or cfg.drop_threshold_enabled)
        with pytest.raises(ConfigError):
            AugmentConfig().only("gan")
