import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellaug.localize import (
    ErrorReport,
    HyperProfile,
    ModelFormatError,
    default_profile,
    desk_profile,
    estimate_location,
    evaluate,
    improvement,
    json_text,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_localizer,
    weighted_centroid,
)
from cellaug.nn import forward
from cellaug.preprocess import SampleSet
from cellaug.util import ConfigError

TOWERS = ("T0", "T1", "T2", "T3")


def toy_square_vectors(n_per_loc=30, noise=0.03, seed=0):
    """Four well-separated locations on a square, distinctive tower patterns."""
    rng = np.random.default_rng(seed)
    coords = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0), 3: (10.0, 10.0)}
    patterns = {
        0: [0.9, 0.1, 0.1, 0.3],
        1: [0.1, 0.9, 0.3, 0.1],
        2: [0.1, 0.3, 0.9, 0.1],
        3: [0.3, 0.1, 0.1, 0.9],
    }
    rows, labels = [], []
    for loc, base in patterns.items():
        for _ in range(n_per_loc):
            rows.append(np.clip(np.array(base) + rng.normal(0, noise, 4), 0, 1))
            labels.append(loc)
    return SampleSet(np.array(rows), labels, TOWERS), coords


FAST = HyperProfile(learning_rate=0.05, batch_size=16, dropout_rate=0.0,
                    epochs=60, hidden_neurons=16, hidden_layers=1)


class TestProfiles:
    def test_indoor_constants(self):
        p = default_profile("indoor")
        assert (p.learning_rate, p.batch_size, p.epochs) == (0.001, 256, 260)
        assert (p.hidden_neurons, p.hidden_layers) == (280, 4)
        assert p.dropout_rate == 0.10

    def test_outdoor_constants(self):
        p = default_profile("outdoor")
        assert (p.learning_rate, p.batch_size, p.epochs) == (0.005, 40, 500)
        assert (p.hidden_neurons, p.hidden_layers) == (345, 3)
        assert p.dropout_rate == 0.10

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown profile"):
            default_profile("desk")

    def test_invalid_profile_values(self):
        with pytest.raises(ValueError):
            HyperProfile(0.1, 8, 0.2, 0, 4, 1)
        with pytest.raises(ValueError):
            HyperProfile(0.1, 8, 1.0, 10, 4, 1)

    def test_oversized_network_refused(self):
        # refused from its sizes, before a weight is allocated; each layer
        # counts 1000 weights beside its hidden_neurons**2
        for neurons, layers in [(9_999, 1), (1, 99_900)]:
            HyperProfile(0.1, 8, 0.2, 10, neurons, layers)
        for neurons, layers, size in [(10_000, 1, 100_001_000), (1, 99_901, 100_000_901),
                                      (1, 100_000_000, 100_100_000_000)]:
            with pytest.raises(ConfigError, match=rf"= {size} exceeds 100000000$"):
                HyperProfile(0.1, 8, 0.2, 10, neurons, layers)


class TestTrainLocalizer:
    def test_separable_square_high_accuracy(self):
        vectors, coords = toy_square_vectors()
        model = train_localizer(vectors, FAST, coords, seed=1)
        x, labels = vectors.x, vectors.labels
        pred = forward(model.network, x).argmax(axis=1)
        predicted_ids = np.array(model.classes)[pred]
        assert np.mean(predicted_ids == labels) >= 0.95

    def test_single_class_rejected(self):
        vectors = SampleSet(np.full((4, 2), 0.5), [0] * 4, ("A", "B"))
        with pytest.raises(ValueError, match="at least 2 distinct labels"):
            train_localizer(vectors, FAST, {0: (0.0, 0.0)}, seed=0)

    def test_missing_coordinates_rejected(self):
        vectors, coords = toy_square_vectors(n_per_loc=2)
        del coords[3]
        with pytest.raises(ValueError, match="no coordinates"):
            train_localizer(vectors, FAST, coords, seed=0)

    def test_indoor_profile_network_shape(self):
        rng = np.random.default_rng(0)
        vectors = SampleSet(rng.uniform(0, 1, (110, 17)), np.repeat(np.arange(55), 2),
                            [f"C{j:02d}" for j in range(17)])
        coords = {i: (float(i), 0.0) for i in range(55)}
        profile = dataclasses.replace(default_profile("indoor"), epochs=1, batch_size=110)
        model = train_localizer(vectors, profile, coords, seed=0)
        assert [w.shape for w in model.network.weights] == [
            (17, 280), (280, 280), (280, 280), (280, 280), (280, 55)]
        assert model.network.activations == ["relu"] * 4 + ["softmax"]

    def test_deterministic(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        m1 = train_localizer(vectors, FAST, coords, seed=3)
        m2 = train_localizer(vectors, FAST, coords, seed=3)
        for a, b in zip(m1.network.weights, m2.network.weights):
            assert np.array_equal(a, b)

    def test_trained_parameters_are_float32_values_in_float64(self, tmp_path):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=3)
        for a in model.network.weights + model.network.biases:
            assert a.dtype == np.float64
            assert np.array_equal(a, a.astype(np.float32))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert evaluate(load_model(path), vectors) == evaluate(model, vectors)

    def test_saved_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 128 x 128 x 128 products, past OpenBLAS's threshold for splitting
        # a matrix product over threads
        script = (
            "import sys, numpy as np\n"
            "from cellaug.localize import HyperProfile, save_model, train_localizer\n"
            "from cellaug.preprocess import SampleSet\n"
            "rng = np.random.default_rng(0)\n"
            "x, labels = rng.uniform(0, 1, (512, 10)), np.arange(512) % 36\n"
            "samples = SampleSet(x, labels, tuple(f'T{j}' for j in range(10)))\n"
            "coords = {c: (float(c % 6), float(c // 6)) for c in range(36)}\n"
            "profile = HyperProfile(learning_rate=0.01, batch_size=128, dropout_rate=0.1,\n"
            "                       epochs=3, hidden_neurons=128, hidden_layers=2)\n"
            "save_model(train_localizer(samples, profile, coords, seed=1), sys.argv[1])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        saved = []
        for threads in ("1", "2"):
            path = tmp_path / f"model-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                           timeout=120)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


class TestEstimateLocation:
    def test_one_hot_recovers_exact_coordinates(self):
        coords = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (7.0, 7.0)])
        p = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(weighted_centroid(p, coords), [0.0, 4.0])

    def test_uniform_two_locations_midpoint(self):
        coords = np.array([(0.0, 0.0), (2.0, 0.0)])
        assert np.allclose(weighted_centroid([0.5, 0.5], coords), [1.0, 0.0])

    def test_hand_weighted_sum(self):
        coords = np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        assert np.allclose(weighted_centroid([0.5, 0.25, 0.25], coords), [1.0, 1.0])

    def test_estimate_in_convex_hull(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.uniform(0, 1, 4)
            x, y = estimate_location(model, v)
            assert 0.0 - 1e-9 <= x <= 10.0 + 1e-9
            assert 0.0 - 1e-9 <= y <= 10.0 + 1e-9

    def test_probabilities_sum_to_one(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=0)
        p = forward(model.network, np.full(4, 0.5))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_hand_percentiles(self):
        report = ErrorReport(np.array([1.0, 2.0, 3.0, 4.0]))
        assert report.p50 == pytest.approx(2.5)
        assert report.p25 == pytest.approx(1.75)
        assert report.p75 == pytest.approx(3.25)

    def test_zero_error_report(self):
        report = ErrorReport(np.zeros(10))
        assert (report.p25, report.p50, report.p75) == (0.0, 0.0, 0.0)

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            report = ErrorReport(rng.exponential(2.0, int(rng.integers(1, 50))))
            assert report.p25 <= report.p50 <= report.p75

    @settings(max_examples=300, deadline=None)
    @given(errors=st.lists(st.floats(min_value=0.0) | st.sampled_from([0.0, 1.0, 2.5]),
                           min_size=1, max_size=40),
           nan=st.booleans())
    @example(errors=[2.0], nan=False)
    @example(errors=[1.0, 1.0, 3.0, 3.0], nan=False)
    @example(errors=[0.5], nan=True)
    def test_percentiles_equal_numpys(self, errors, nan):
        """The quartiles are np.percentile's bit for bit, also for one error,
        for ties and for a NaN error, which gives NaN."""
        errors = errors + [math.nan] * nan
        report = ErrorReport(errors)
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.percentile(np.asarray(errors, dtype=np.float64), [25, 50, 75]).tolist()
        assert [p.hex() for p in (report.p25, report.p50, report.p75)] == [w.hex() for w in want]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        errors = rng.exponential(1.0, 101)
        a = ErrorReport(errors)
        b = ErrorReport(rng.permutation(errors))
        assert (a.p25, a.p50, a.p75) == (b.p25, b.p50, b.p75)
        assert a.cdf == b.cdf

    def test_cdf_structure(self):
        report = ErrorReport(np.array([3.0, 1.0, 2.0]))
        assert report.cdf == ((1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0))
        csv = report.cdf_csv().splitlines()
        assert csv[0] == "error_m,fraction"
        assert len(csv) == 4

    def test_equal_reports_compare_equal(self):
        a, b = ErrorReport([1.0, 2.0]), ErrorReport([1.0, 2.0])
        assert a is not b and a.errors is not b.errors
        assert a == b and not a != b

    def test_unequal_reports_compare_unequal(self):
        a = ErrorReport([1.0, 2.0])
        assert a != ErrorReport([1.0, 2.5])
        assert a != ErrorReport([2.0, 1.0])  # same percentiles and CDF, other errors
        assert a != ErrorReport([1.0, 2.0, 2.0])
        assert a != a.to_dict()

    def test_empty_test_set_rejected(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=0)
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(model, SampleSet(np.empty((0, 4)), [], TOWERS))

    def test_perfect_model_zero_error(self):
        # all test vectors at their labeled location, model nearly certain
        vectors, coords = toy_square_vectors(n_per_loc=30, noise=0.01)
        model = train_localizer(vectors, FAST, coords, seed=2)
        report = evaluate(model, SampleSet(vectors.x[:20], vectors.labels[:20], TOWERS))
        assert report.p50 < 1.0  # well under the 10 m grid scale


class TestTruthLookup:
    def test_classes_in_any_order(self):
        # the same model with its output classes listed in reverse
        vectors, coords = toy_square_vectors(n_per_loc=10)
        model = train_localizer(vectors, FAST, coords, seed=3)
        weights, biases = model.network.weights, model.network.biases
        net = dataclasses.replace(model.network, weights=[*weights[:-1], weights[-1][:, ::-1]],
                                  biases=[*biases[:-1], biases[-1][::-1]])
        reversed_model = dataclasses.replace(model, network=net, classes=model.classes[::-1])
        a, b = evaluate(model, vectors), evaluate(reversed_model, vectors)
        assert np.allclose(a.errors, b.errors, rtol=0, atol=1e-12)

    def test_unknown_location_rejected(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=0)
        stranger = SampleSet(vectors.x[:3], [0, 9, 1], TOWERS)
        with pytest.raises(ValueError, match="unknown to the model"):
            evaluate(model, stranger)


class TestTowerContract:
    def test_evaluate_rejects_other_towers(self):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=0)
        renamed = SampleSet(vectors.x, vectors.labels, ("T9",) + TOWERS[1:])
        with pytest.raises(ValueError, match="towers"):
            evaluate(model, renamed)


class TestImprovement:
    def _report(self, p25, p50, p75):
        # with five errors numpy's linear rule lands exactly on ranks 1 to 3
        return ErrorReport([p25, p25, p50, p75, p75])

    def test_published_indoor_median(self):
        with_aug = self._report(0.37, 0.77, 1.71)
        without = self._report(1.08, 1.98, 3.22)
        result = improvement(with_aug, without)
        assert result["p50"] == pytest.approx(157.0, abs=1.0)
        assert result["p25"] == pytest.approx(191.8, abs=1.0)
        assert result["p75"] == pytest.approx(88.3, abs=1.0)

    def test_published_outdoor_median(self):
        result = improvement(self._report(20, 89, 118), self._report(91, 134, 186))
        assert result["p50"] == pytest.approx(50.5, abs=0.1)

    def test_identical_reports_zero(self):
        r = self._report(1.0, 2.0, 3.0)
        assert improvement(r, r) == {"p25": 0.0, "p50": 0.0, "p75": 0.0}

    def test_exact_when_divide_by_zero(self):
        result = improvement(self._report(0.0, 0.0, 1.0), self._report(1.0, 2.0, 3.0))
        assert result["p25"] == "exact"
        assert result["p50"] == "exact"
        assert isinstance(result["p75"], float)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        vectors, coords = toy_square_vectors(n_per_loc=5)
        model = train_localizer(vectors, FAST, coords, seed=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert loaded.coords == model.coords
        assert loaded.profile == model.profile
        x = np.full(4, 0.3)
        assert np.array_equal(estimate_location(loaded, x), estimate_location(model, x))

    def test_dict_round_trip(self):
        vectors, coords = toy_square_vectors(n_per_loc=3)
        model = train_localizer(vectors, FAST, coords, seed=5)
        again = model_from_dict(model_to_dict(model))
        for a, b in zip(model.network.weights, again.network.weights):
            assert np.array_equal(a, b)

    def test_towers_saved_and_required(self, tmp_path):
        vectors, coords = toy_square_vectors(n_per_loc=3)
        model = train_localizer(vectors, FAST, coords, seed=5)
        data = model_to_dict(model)
        assert data["towers"] == list(TOWERS)
        assert model_from_dict(data).towers == TOWERS
        del data["towers"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="towers"):
            load_model(path)

    def test_integers_given_for_floats_save_as_floats(self, tmp_path):
        """save_model writes each float field as a float, so a model built
        from integers where floats belong still saves a file that loads."""
        vectors, coords = toy_square_vectors(n_per_loc=3)
        profile = HyperProfile(learning_rate=1, batch_size=16, dropout_rate=0, epochs=2,
                               hidden_neurons=4, hidden_layers=1)
        model = train_localizer(vectors, profile,
                                {c: tuple(map(int, xy)) for c, xy in coords.items()}, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.profile, loaded.coords) == (profile, coords)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coordinates_rejected(self, tmp_path, bad):
        vectors, coords = toy_square_vectors(n_per_loc=3)
        data = model_to_dict(train_localizer(vectors, FAST, coords, seed=5))
        data["coords"]["1"][0] = bad
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="model.json.*non-finite"):
            load_model(path)

    @pytest.mark.parametrize("damage, message", [
        ("class_without_coords", r"no coordinates for class\(es\): \[99\]"),
        ("relu_head", "output layer is not softmax"),
        ("repeated_class", "repeated class"),
        ("fractional_class", r"classes\[0\]: 0.5, save_model writes 0$"),
        ("boolean_class", r"classes\[1\]: True, save_model writes 1$"),
        ("extra_key", "extra: save_model writes no such entry$"),
        ("integer_weight", r"network\.weights\[0\]\[1\]\[2\]: 0, save_model writes 0\.0$"),
        ("padded_location_key", r'coords\["01"\]: save_model writes no such entry$'),
        ("repeated_tower", "repeated tower$"),
    ])
    def test_model_evaluate_cannot_use_rejected(self, tmp_path, damage, message):
        vectors, coords = toy_square_vectors(n_per_loc=3)
        data = model_to_dict(train_localizer(vectors, FAST, coords, seed=5))
        if damage == "class_without_coords":
            data["classes"][0] = 99
        elif damage == "relu_head":
            data["network"]["layers"][-1]["activation"] = "relu"
        elif damage == "repeated_class":
            data["classes"][1] = data["classes"][0]
        elif damage == "fractional_class":
            data["classes"][0] = 0.5
        elif damage == "boolean_class":
            data["classes"][1] = True
        elif damage == "extra_key":
            data["extra"] = 1
        elif damage == "integer_weight":
            data["network"]["weights"][0][1][2] = 0
        elif damage == "padded_location_key":
            data["coords"]["01"] = data["coords"].pop("1")
        else:
            data["towers"][-1] = data["towers"][0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match=f"model.json: malformed model: .*{message}"):
            load_model(path)

    def test_desk_profile_reasonable(self):
        p = desk_profile()
        assert p.epochs > 0 and 0 <= p.dropout_rate < 1


# repr switches to exponent notation below 1e-4 and from 1e16 on.
REPR_EDGES = [1e-05, 9.999999999999999e-06, 0.0001, 9.999999999999999e-05, 1e16,
              9999999999999998.0, 1e15, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              0.0, -0.0, math.nan, math.inf, -math.inf]
report_floats = st.floats() | st.sampled_from(REPR_EDGES + [-v for v in REPR_EDGES])


def reports():
    return st.lists(report_floats, min_size=1, max_size=12).map(ErrorReport)


def reference_cdf_csv(report):
    """ErrorReport.cdf_csv as it was: each value formatted by an f-string."""
    lines = ["error_m,fraction"]
    lines += [f"{e},{f}" for e, f in report.cdf]
    return "\n".join(lines) + "\n"


def as_dicts(payload):
    """The payload with every ErrorReport replaced by its to_dict()."""
    if isinstance(payload, ErrorReport):
        return payload.to_dict()
    if isinstance(payload, dict):
        return {k: as_dicts(v) for k, v in payload.items()}
    return payload


class TestReportWriter:
    """json_text and cdf_csv against json.dumps and the f-string CSV."""

    @settings(max_examples=200, deadline=None)
    @given(report=reports())
    def test_evaluate_report_bytes(self, report):
        assert json_text(report) == json.dumps(report.to_dict(), indent=2) + "\n"
        assert report.cdf_csv() == reference_cdf_csv(report)

    @settings(max_examples=200, deadline=None)
    @given(without=reports(), with_=reports(), data=st.data())
    def test_compare_report_bytes(self, without, with_, data):
        ints = st.integers(-2**70, 2**70)
        payload = {
            "seed": data.draw(ints),
            "profile": {"learning_rate": data.draw(report_floats), "batch_size": data.draw(ints)},
            "without_augmentation": without,
            "with_augmentation": with_,
            "improvement_percent": {k: data.draw(report_floats | st.just("exact"))
                                    for k in ("p25", "p50", "p75")},
            "augmented_counts": {"original": data.draw(ints), "vae": data.draw(ints)},
            "n_train_scans": data.draw(ints),
        }
        for _ in range(data.draw(st.integers(0, 2))):  # reports nested deeper
            payload = {"outer": payload, "after": [1, 2.5]}
        assert json_text(payload) == json.dumps(as_dicts(payload), indent=2) + "\n"
        assert with_.cdf_csv() == reference_cdf_csv(with_)

    @settings(max_examples=30, deadline=None)
    @given(errors=st.lists(st.floats(0, 1e6), min_size=1, max_size=40), n=st.integers(1, 100_000))
    def test_cdf_matches_reference(self, errors, n):
        """ErrorReport's CDF against the row-by-row build it replaced."""
        def reference(values):
            ordered = np.sort(np.asarray(values, dtype=np.float64))
            return tuple((float(e), (i + 1) / len(ordered)) for i, e in enumerate(ordered))
        assert ErrorReport(errors).cdf == reference(errors)
        assert ErrorReport(np.zeros(n)).cdf == reference(np.zeros(n))
