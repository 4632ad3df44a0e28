import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cellaug.augment import TECHNIQUES, AugmentConfig, augment_all
from cellaug.cli import main
from cellaug.core import (
    SCAN_ARRAYS,
    RawScan,
    ReferenceLocation,
    from_locations,
    load_database,
    save_database,
)
from cellaug.localize import HyperProfile, evaluate, train_localizer
from cellaug.pipeline import database_coordinates, run_comparison, temporal_split
from cellaug.preprocess import vectorize_database
from cellaug.testbed import TestbedSpec as SurveySpec
from cellaug.testbed import Tower, generate
from cellaug.util import ConfigError

TINY_PROFILE = HyperProfile(learning_rate=0.05, batch_size=32, dropout_rate=0.0,
                            epochs=30, hidden_neurons=16, hidden_layers=1)


def tiny_db(scans_per_location=10, seed=3):
    towers = [
        Tower("T0", (1.0, 1.0), -50.0),
        Tower("T1", (9.0, 1.0), -50.0),
        Tower("T2", (5.0, 9.0), -52.0),
        Tower("T3", (40.0, 40.0), -62.0),
    ]
    spec = SurveySpec(
        name="tiny", area=(10.0, 10.0), towers=tuple(towers),
        path_loss_exponent=2.5, shadow_sigma_db=3.0, sensitivity_dbm=-111.0,
        scans_per_location=scans_per_location, seed=seed, grid_spacing_m=5.0,
    )
    return generate(spec)


def scan_rows(db, rows):
    """The database with only the scans at `rows`, in that order."""
    return replace(db, **{name: getattr(db, name)[rows] for name in SCAN_ARRAYS})


FAST_AUG = AugmentConfig(noise_per_scan=2, sampling_n_per_location=4,
                         drop_random_per_scan=2, vae_n_per_location=4,
                         vae_epochs=20, seed=0)


class TestTemporalSplit:
    def test_first_scans_train(self):
        db = tiny_db(scans_per_location=10)
        train_db, test_db = temporal_split(db, train_fraction=0.7)
        n_locations = len(db.location_ids)
        assert train_db.scan_counts.tolist() == [7] * n_locations
        assert test_db.scan_counts.tolist() == [3] * n_locations
        rank = np.arange(len(db.timestamps)) % 10  # each location's scans, in file order
        assert train_db == scan_rows(db, rank < 7)
        assert test_db == scan_rows(db, rank >= 7)

    def test_fixed_count_override(self):
        db = tiny_db(scans_per_location=10)
        train_db, test_db = temporal_split(db, train_scans=2)
        assert np.all(train_db.scan_counts == 2)
        assert np.all(test_db.scan_counts == 8)

    def test_universe_shared(self):
        db = tiny_db()
        train_db, test_db = temporal_split(db, train_scans=1)
        assert train_db.tower_universe == db.tower_universe
        assert test_db.tower_universe == db.tower_universe

    def test_invalid_cut_rejected(self):
        db = tiny_db(scans_per_location=3)
        with pytest.raises(ConfigError, match="cannot split"):
            temporal_split(db, train_scans=3)
        with pytest.raises(ConfigError, match="train_fraction"):
            temporal_split(db, train_fraction=1.2)

    def test_orders_scans_by_timestamp(self, tmp_path):
        db = tiny_db(scans_per_location=10)
        n = len(db.timestamps)
        reversed_db = scan_rows(db, np.arange(n).reshape(-1, 10)[:, ::-1].ravel())
        path = tmp_path / "reversed.jsonl"
        save_database(reversed_db, path)
        train_db, test_db = temporal_split(load_database(path), train_scans=5)
        for loc_ts in train_db.timestamps.reshape(-1, 5).tolist():
            assert loc_ts == [0, 1, 2, 3, 4]
        for loc_ts in test_db.timestamps.reshape(-1, 5).tolist():
            assert loc_ts == [5, 6, 7, 8, 9]


class TestRunComparison:
    def test_structure_and_convention(self):
        db = tiny_db(scans_per_location=12)
        result = run_comparison(db, replace(FAST_AUG, seed=1), TINY_PROFILE, train_scans=4)
        wo = result.without_augmentation.p50
        w = result.with_augmentation.p50
        if w > 0:
            assert result.improvement_percent["p50"] == pytest.approx((wo - w) / w * 100)
        assert result.n_train_scans == 4 * len(db.location_ids)
        assert result.n_test_scans == 8 * len(db.location_ids)
        assert result.augmented_counts["original"] == result.n_train_scans
        assert set(vars(result)) == {
            "without_augmentation", "with_augmentation", "improvement_percent",
            "augmented_counts", "n_train_scans", "n_test_scans",
        }

    def test_deterministic(self):
        db = tiny_db()
        r1 = run_comparison(db, replace(FAST_AUG, seed=5), TINY_PROFILE, train_scans=4)
        r2 = run_comparison(db, replace(FAST_AUG, seed=5), TINY_PROFILE, train_scans=4)
        assert r1 == r2

    def test_trains_at_the_config_seed(self):
        db = tiny_db(scans_per_location=12)
        result = run_comparison(db, replace(FAST_AUG, seed=5), TINY_PROFILE, train_scans=4)
        train_db, test_db = temporal_split(db, train_scans=4)
        model = train_localizer(vectorize_database(train_db), TINY_PROFILE,
                                database_coordinates(db), seed=5)
        assert result.without_augmentation == evaluate(model, vectorize_database(test_db))

    def test_training_sets_are_released_before_evaluation(self, monkeypatch):
        augmented = []

        def keep_a_weakref(db_train, cfg):
            vectors, counts = augment_all(db_train, cfg)
            augmented.append(weakref.ref(vectors))
            return vectors, counts

        def first_evaluate(model, samples):
            assert augmented[0]() is None, "the augmented set outlives its training"
            monkeypatch.setattr("cellaug.localize.evaluate", evaluate)
            return evaluate(model, samples)
        monkeypatch.setattr("cellaug.augment.augment_all", keep_a_weakref)
        monkeypatch.setattr("cellaug.localize.evaluate", first_evaluate)
        run_comparison(tiny_db(), FAST_AUG, TINY_PROFILE, train_scans=4)

    def test_augmenters_see_training_split_only(self):
        db = tiny_db(scans_per_location=6)
        train_db, _ = temporal_split(db, train_scans=2)
        none = AugmentConfig(**{f"{name}_enabled": False for name in TECHNIQUES})
        vectors, counts = augment_all(train_db, none)
        assert counts["original"] == 2 * len(db.location_ids)
        assert vectors == vectorize_database(train_db)


class TestVaeSkipsThinLocations:
    def test_one_scan_location_warns_and_continues(self):
        rich_scans = tuple(RawScan(t, (("A", 10 + t), ("B", 6))) for t in range(10))
        thin_scans = (RawScan(0, (("A", 20),)), RawScan(1, (("A", 22),)))
        db = from_locations([
            ReferenceLocation(0, (0.0, 0.0), rich_scans),
            ReferenceLocation(1, (5.0, 5.0), thin_scans),
        ])
        train_db, _ = temporal_split(db, train_fraction=0.5)  # loc 1 gets 1 scan
        cfg = AugmentConfig(vae_epochs=10, vae_n_per_location=3).only("vae")
        with pytest.warns(UserWarning, match="location 1"):
            vectors, counts = augment_all(train_db, cfg)
        assert counts["vae"] == 3  # only location 0 generated
        labels = set(vectors.labels[vectors.labels == 1].tolist())
        assert labels == {1}  # originals still present for location 1


class TestCliSynth:
    def test_default_spec_writes_36_locations(self, tmp_path):
        out = tmp_path / "db.jsonl"
        assert main(["synth", "--out", str(out)]) == 0
        db = load_database(out)
        assert len(db.location_ids) == 36

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", "--seed", "9", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCliAugment:
    def test_disabled_config_outputs_originals(self, tmp_path):
        db = tiny_db()
        db_path = tmp_path / "db.jsonl"
        save_database(db, db_path)
        cfg_path = tmp_path / "aug.cfg"
        cfg_path.write_text(
            "noise.enabled = false\nsampling.enabled = false\n"
            "drop_random.enabled = false\ndrop_threshold.enabled = false\n"
            "vae.enabled = false\n"
        )
        out = tmp_path / "vecs.jsonl"
        report_path = tmp_path / "counts.json"
        code = main(["augment", str(db_path), "--config", str(cfg_path),
                     "--train-scans", "4", "--out", str(out), "--report", str(report_path)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["towers"] == list(db.tower_universe)
        assert len(lines) - 1 == 4 * len(db.location_ids)
        counts = json.loads(report_path.read_text())["counts"]
        assert counts["noise"] == 0 and counts["vae"] == 0

    def test_noise_multiplier_arithmetic(self, tmp_path):
        db = tiny_db(scans_per_location=10)  # 4 locations
        # 25 locations would give 100 scans; here 4 locs x 25... use train-scans
        db_path = tmp_path / "db.jsonl"
        save_database(db, db_path)
        cfg_path = tmp_path / "aug.cfg"
        cfg_path.write_text(
            "noise.enabled = true\nnoise.per_scan = 10\nsampling.enabled = false\n"
            "drop_random.enabled = false\ndrop_threshold.enabled = false\n"
            "vae.enabled = false\nseed = 1\n"
        )
        report_path = tmp_path / "counts.json"
        code = main(["augment", str(db_path), "--config", str(cfg_path),
                     "--train-scans", "5", "--out", str(tmp_path / "v.jsonl"),
                     "--report", str(report_path)])
        assert code == 0
        counts = json.loads(report_path.read_text())["counts"]
        assert counts["original"] == 20
        assert counts["noise"] == 200  # 10 copies of each training scan

    def test_unknown_key_exits_2(self, tmp_path):
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("bogus.key = 1\n")
        assert main(["augment", str(db_path), "--config", str(cfg_path),
                     "--out", str(tmp_path / "v.jsonl")]) == 2

    def test_malformed_database_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"testbed": "x", "grid_cell_m": 1}\nnot json\n')
        assert main(["augment", str(bad), "--out", str(tmp_path / "v.jsonl")]) == 2

    def test_impossible_split_exits_2(self, tmp_path):
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(scans_per_location=3), db_path)
        assert main(["augment", str(db_path), "--train-scans", "3",
                     "--out", str(tmp_path / "v.jsonl")]) == 2


class TestCliTrainEvaluateCompare:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database(tiny_db(scans_per_location=12), path)
        return path

    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "noise.per_scan = 2\nsampling.n_per_location = 4\n"
            "drop_random.per_scan = 2\nvae.n_per_location = 4\nvae.epochs = 20\n"
            "seed = 2\n"
            "profile.epochs = 30\nprofile.hidden_neurons = 16\n"
            "profile.hidden_layers = 1\nprofile.batch_size = 32\n"
            "profile.learning_rate = 0.05\nprofile.dropout_rate = 0.0\n"
        )
        return path

    def test_train_then_evaluate(self, tmp_path, db_path, cfg_path):
        model_path = tmp_path / "model.json"
        code = main(["train", str(db_path), "--config", str(cfg_path),
                     "--train-scans", "4", "--out", str(model_path)])
        assert code == 0
        report_path = tmp_path / "report.json"
        code = main(["evaluate", str(model_path), str(db_path),
                     "--train-scans", "4", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report["percentiles"]) == {"p25", "p50", "p75"}
        assert report["n"] == 8 * 4
        assert (tmp_path / "report.cdf.csv").exists()

    def test_compare_outputs_and_manifest(self, tmp_path, db_path, cfg_path):
        out = tmp_path / "cmp.json"
        manifest_path = tmp_path / "manifest.json"
        code = main(["compare", str(db_path), "--config", str(cfg_path),
                     "--train-scans", "4", "--out", str(out),
                     "--manifest", str(manifest_path)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "without_augmentation" in payload and "with_augmentation" in payload
        assert "p50" in payload["improvement_percent"]
        assert payload["seed"] == 2
        manifest = json.loads(manifest_path.read_text())
        import pathlib
        for listed in manifest["outputs"]:
            assert pathlib.Path(listed).exists()
        assert "timings_s" in manifest

    def test_compare_deterministic_bytes(self, tmp_path, db_path, cfg_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["compare", str(db_path), "--config", str(cfg_path),
                         "--train-scans", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_compare_splits_the_survey_once(self, tmp_path, db_path, cfg_path, monkeypatch):
        calls = []

        def split(*args):
            calls.append(args)
            return temporal_split(*args)
        monkeypatch.setattr("cellaug.pipeline.temporal_split", split)
        assert main(["compare", str(db_path), "--config", str(cfg_path),
                     "--train-scans", "4", "--out", str(tmp_path / "c.json")]) == 0
        assert len(calls) == 1

    def test_seed_flag_overrides_config(self, tmp_path, db_path, cfg_path):
        out = tmp_path / "c.json"
        assert main(["compare", str(db_path), "--config", str(cfg_path),
                     "--seed", "77", "--train-scans", "4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 77

    def test_profile_overrides_require_custom(self, tmp_path, db_path, cfg_path):
        assert main(["compare", str(db_path), "--config", str(cfg_path),
                     "--profile", "indoor", "--train-scans", "4",
                     "--out", str(tmp_path / "x.json")]) == 2


def modules_after(runs, *packages: str) -> list[str]:
    """The modules of `packages` (each a package or a subpackage) loaded in
    a fresh interpreter after cli.main has run each argv of `runs`, each
    exiting 0."""
    code = ("import json, sys\n"
            "from cellaug.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules for p in sys.argv[2:]\n"
            "                        if m == p or m.startswith(p + '.'))))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(runs), *packages], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_fitting_commands_leave_scipy_unloaded(tmp_path):
    # distfit computes its own special functions, so fitting and a whole
    # compare run load no scipy module; the report's quartiles need no
    # numpy.ma either
    survey = tmp_path / "db.jsonl"
    save_database(tiny_db(), survey)
    cfg = tmp_path / "short.cfg"
    cfg.write_text("profile.epochs = 2\nvae.epochs = 2\n")
    runs = [["fit-dist", str(survey), "--out", str(tmp_path / "fits.json")],
            ["compare", str(survey), "--config", str(cfg), "--train-scans", "4",
             "--out", str(tmp_path / "compare.json")]]
    assert modules_after(runs, "scipy", "numpy.ma") == []
    assert json.loads((tmp_path / "fits.json").read_text())["locations"]


def test_commands_load_only_the_modules_they_run(tmp_path):
    survey = tmp_path / "db.jsonl"
    synth = modules_after([["synth", "--out", str(survey)]], "cellaug")
    assert synth == ["cellaug", "cellaug.cli", "cellaug.core", "cellaug.testbed", "cellaug.util"]
    model = tmp_path / "model.json"
    cfg = tmp_path / "short.cfg"
    cfg.write_text("profile.epochs = 2\n")
    assert main(["train", str(survey), "--config", str(cfg), "--no-augment", "--train-scans", "5",
                 "--out", str(model)]) == 0
    evaluate = modules_after([["evaluate", str(model), str(survey), "--train-scans", "5",
                               "--out", str(tmp_path / "report.json")]], "cellaug", "numpy.ma")
    assert {"cellaug.localize", "cellaug.pipeline"} <= set(evaluate)
    assert not {"cellaug.augment", "cellaug.vae", "cellaug.distfit", "cellaug.testbed",
                "numpy.ma"} & set(evaluate)


class TestCliExitCodes:
    @staticmethod
    def run(argv, capsys):
        capsys.readouterr()
        code = main(argv)
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        return code, errors

    TESTBED = {"area.width": "12", "area.height": "12", "grid.spacing": "6",
               "path_loss_exponent": "3", "shadow_sigma_db": "4", "sensitivity_dbm": "-111",
               "scans_per_location": "4", "seed": "1", "tower.T00": "2, 3, -45",
               "tower.T01": "10, 2, -45", "tower.T02": "6, 11, -47"}

    def synth(self, cfg, tmp_path, capsys):
        """synth on a testbed file holding `cfg`: (exit code, error lines, survey path)."""
        cfg_path = tmp_path / "testbed.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        out = tmp_path / "db.jsonl"
        code, errors = self.run(["synth", "--config", str(cfg_path), "--out", str(out)], capsys)
        return code, errors, out

    def test_valid_testbed_config_exits_0(self, tmp_path, capsys):
        code, errors, out = self.synth(self.TESTBED, tmp_path, capsys)
        assert (code, errors) == (0, [])
        assert load_database(out).n_towers == 3

    @pytest.mark.parametrize("key, value", [
        ("grid.spacing", "0"), ("grid.spacing", "-2"), ("grid.spacing", "nan"),
        ("grid.spacing", "0.001"), ("grid.spacing", "1e-9"),
        ("shadow_sigma_db", "nan"), ("shadow_sigma_db", "-4"), ("shadow_sigma_db", "inf"),
        ("path_loss_exponent", "nan"), ("path_loss_exponent", "0"),
        ("path_loss_exponent", "-3"),
        ("area.width", "nan"), ("sensitivity_dbm", "-inf"),
        ("tower.T02", "nan, 0, -45"), ("tower.T02", "0, inf, -45"), ("tower.T02", "0, 0, nan"),
        ("tower.", "1, 2, -45"),
    ])
    def test_out_of_range_testbed_value_exits_2(self, key, value, tmp_path, capsys):
        # no traceback, no survey written without shadowing or without a tower
        code, errors, out = self.synth({**self.TESTBED, key: value}, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1
        assert not out.exists()

    def test_testbed_config_without_grid_spacing_exits_2(self, tmp_path, capsys):
        cfg = {k: v for k, v in self.TESTBED.items() if k != "grid.spacing"}
        code, errors, out = self.synth(cfg, tmp_path, capsys)
        assert (code, errors) == (2, ["error: missing testbed config keys: grid.spacing"])
        assert not out.exists()

    def test_testbed_where_a_location_hears_no_tower_exits_2(self, tmp_path, capsys):
        # without shadowing the spec alone fixes that no tower is heard
        cfg = {**self.TESTBED, "area.width": "5", "area.height": "5", "grid.spacing": "2.5",
               "shadow_sigma_db": "0", "tower.T00": "5000, 0, -80", "tower.T01": "0, 5000, -80"}
        del cfg["tower.T02"]
        code, errors, out = self.synth(cfg, tmp_path, capsys)
        assert (code, errors) == (2, ["error: location 0 at (1.25, 1.25) hears no towers; "
                                      "spec geometry is degenerate"])
        assert not out.exists()

    @pytest.mark.parametrize("exc, error", [
        (MemoryError("Unable to allocate 149. GiB for an array"),
         "Unable to allocate 149. GiB for an array"),
        (MemoryError(), "MemoryError"),
    ])
    def test_out_of_memory_exits_1_with_one_line(self, exc, error, tmp_path, capsys,
                                                  monkeypatch):
        # the stage fails as numpy does when an allocation fails; nothing is allocated
        def generate(spec):
            raise exc
        monkeypatch.setattr("cellaug.testbed.generate", generate)
        code, errors = self.run(["synth", "--out", str(tmp_path / "db.jsonl")], capsys)
        assert (code, errors) == (1, [f"error: {error}"])

    @pytest.mark.parametrize("argv, error", [
        (["compare", "--train-fraction", "1.5"], "train_fraction must be in (0, 1): 1.5"),
        (["compare", "--train-fraction", "nan"], "train_fraction must be in (0, 1): nan"),
        (["compare", "--train-scans", "10"],
         "location 0: cannot split 10 scans into 10 train + 0 test"),
        (["train", "--train-scans", "0"],
         "location 0: cannot split 10 scans into 0 train + 10 test"),
        (["augment", "--train-scans", "11"],
         "location 0: cannot split 10 scans into 11 train + -1 test"),
    ])
    def test_bad_split_exits_2_before_any_augmentation(self, argv, error, tmp_path, capsys,
                                                        monkeypatch):
        def augment_all(*args):
            raise AssertionError("augmented before the split was checked")
        monkeypatch.setattr("cellaug.augment.augment_all", augment_all)
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        code, errors = self.run([argv[0], str(db_path), *argv[1:],
                                 "--out", str(tmp_path / "out.json")], capsys)
        assert (code, errors) == (2, [f"error: {error}"])

    def test_out_of_range_profile_value_exits_2(self, tmp_path, capsys):
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("profile.epochs = 0\n")
        code, errors = self.run(["train", str(db_path), "--config", str(cfg_path),
                                 "--no-augment", "--train-scans", "4",
                                 "--out", str(tmp_path / "m.json")], capsys)
        assert code == 2
        assert len(errors) == 1 and "positive" in errors[0]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_profile_learning_rate_exits_2(self, value, tmp_path, capsys):
        # before training: a NaN rate would otherwise fail as a diverged update
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"profile.learning_rate = {value}\n")
        code, errors = self.run(["train", str(db_path), "--config", str(cfg_path),
                                 "--no-augment", "--train-scans", "4",
                                 "--out", str(tmp_path / "m.json")], capsys)
        assert code == 2
        assert len(errors) == 1 and "finite" in errors[0]

    @pytest.mark.parametrize("line", [
        "vae.epochs = 0", "vae.epochs = -1",
        "vae.learning_rate = -0.001", "vae.learning_rate = 0", "vae.learning_rate = nan",
        "vae.learning_rate = inf",
        "vae.n_per_location = 0", "vae.n_per_location = -2",
        "sampling.n_per_location = 0", "sampling.n_per_location = -3",
        "noise.per_scan = 100000000000000000000",
    ])
    def test_out_of_range_vae_or_count_value_exits_2(self, line, tmp_path, capsys):
        # before any training: no untrained VAE rows, no 0 read as auto
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        out = tmp_path / "v.jsonl"
        code, errors = self.run(["augment", str(db_path), "--config", str(cfg_path),
                                 "--train-scans", "4", "--out", str(out)], capsys)
        assert code == 2
        assert len(errors) == 1 and line.split(" = ")[0] in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("seed, code", [(2**32, 2), (-1, 2), (2**32 - 1, 0)])
    def test_seed_outside_32_bits_exits_2_at_every_entry(self, seed, code, tmp_path, capsys):
        # a seed is not taken modulo 2**32, so no two seeds name one run
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        no_vae, with_seed = tmp_path / "no_vae.cfg", tmp_path / "seed.cfg"
        no_vae.write_text("vae.enabled = false\n")
        with_seed.write_text(f"seed = {seed}\nvae.enabled = false\n")
        testbed_path = tmp_path / "testbed.cfg"
        testbed_path.write_text("".join(f"{k} = {v}\n" for k, v in
                                        {**self.TESTBED, "seed": seed}.items()))
        runs = [["synth", "--seed", seed, "--out", tmp_path / "s.jsonl"],
                ["synth", "--config", testbed_path, "--out", tmp_path / "t.jsonl"],
                ["augment", db_path, "--config", no_vae, "--seed", seed, "--train-scans", "4",
                 "--out", tmp_path / "a.jsonl"],
                ["augment", db_path, "--config", with_seed, "--train-scans", "4",
                 "--out", tmp_path / "b.jsonl"]]
        for argv in runs:
            got, errors = self.run([str(a) for a in argv], capsys)
            assert got == code, argv
            assert len(errors) == (1 if code else 0)
            assert not errors or f"seed must be in [0, 2**32), got {seed}" in errors[0]

    def config_runs(self, tmp_path, extra: list[str], newline: str = "\n"):
        """synth on the testbed keys and augment with every augmenter off,
        each config file holding `extra` after its first key line: (argv,
        config path) pairs."""
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        testbed = [f"{k} = {v}" for k, v in self.TESTBED.items()]
        augment = [f"{t}.enabled = false" for t in TECHNIQUES]
        runs = []
        for name, lines, argv in (("testbed", testbed, ["synth"]),
                                  ("augment", augment, ["augment", db_path, "--train-scans", "4"])):
            path = tmp_path / f"{name}.cfg"
            path.write_bytes(newline.join([lines[0], *extra, *lines[1:], ""]).encode())
            runs.append(([str(a) for a in argv] + ["--config", str(path),
                                                   "--out", str(tmp_path / f"{name}.out")], path))
        return runs

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                      "\u2029"], ids=lambda char: f"U+{ord(char):04X}")
    def test_other_line_breaks_stay_in_their_comment(self, char, tmp_path, capsys):
        # str.splitlines also ends a line at these; a config file does not
        for argv, _ in self.config_runs(tmp_path, [f"# note{char} tail"]):
            assert self.run(argv, capsys) == (0, [])
        # the keys after the comment were read: no augmenter ran
        assert len((tmp_path / "augment.out").read_text().splitlines()) == 1 + 4 * 4

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_error_names_the_line_of_the_file(self, newline, tmp_path, capsys):
        for argv, path in self.config_runs(tmp_path, ["# a\x0cb", "bogus line"], newline):
            code, errors = self.run(argv, capsys)
            assert code == 2
            assert errors == [f"error: {path}:3: expected 'key = value', got 'bogus line'"]

    def test_diverging_vae_exits_1_naming_a_location(self, tmp_path, capsys):
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(), db_path)
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text("noise.enabled = false\nsampling.enabled = false\n"
                            "drop_random.enabled = false\ndrop_threshold.enabled = false\n"
                            "vae.epochs = 50\nvae.learning_rate = 1e9\n")
        with np.errstate(all="ignore"):
            code, errors = self.run(["augment", str(db_path), "--config", str(cfg_path),
                                     "--train-scans", "4", "--out", str(tmp_path / "v.jsonl")],
                                    capsys)
        assert code == 1
        assert len(errors) == 1
        assert re.search(r"VAE training \(locations? \d", errors[0])

    def test_diverging_vae_prints_one_line_naming_the_network(self, tmp_path):
        # numpy's overflow warnings must not come before the error line
        db_path = tmp_path / "desk.jsonl"
        assert main(["synth", "--out", str(db_path)]) == 0
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text("noise.enabled = false\nsampling.enabled = false\n"
                            "drop_random.enabled = false\ndrop_threshold.enabled = false\n"
                            "vae.epochs = 5\nvae.learning_rate = 1e9\n")
        result = self.run_subprocess(["augment", db_path, "--config", cfg_path,
                                      "--train-scans", "5", "--out", tmp_path / "v.jsonl"])
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error:")
        assert re.search(r"VAE training \(locations? \d.*\): (encoder|decoder) layer \d", lines[0])

    def test_diverging_localizer_prints_one_line_naming_the_stage(self, tmp_path):
        # numpy's overflow warnings must not come before the error line
        db_path = tmp_path / "desk.jsonl"
        assert main(["synth", "--seed", "1", "--out", str(db_path)]) == 0
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text("vae.enabled = false\nprofile.learning_rate = 1e150\n"
                            "profile.epochs = 3\n")
        result = self.run_subprocess(["compare", db_path, "--config", cfg_path, "--seed", "1",
                                      "--train-scans", "5", "--out", tmp_path / "c.json"])
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: training stage failed: baseline training: ")

    @staticmethod
    def run_subprocess(argv):
        """The CLI in a child process, so that all of its stderr is seen."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "cellaug.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)


class TestCliEvaluateInputs:
    """evaluate refuses inputs that would otherwise give a wrong answer or a
    traceback: exit 2 for format errors, exit 1 for numerical failure."""

    @pytest.fixture
    def trained(self, tmp_path):
        db_path = tmp_path / "db.jsonl"
        save_database(tiny_db(scans_per_location=12), db_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("profile.epochs = 5\nprofile.hidden_neurons = 8\n"
                            "profile.hidden_layers = 1\n")
        model_path = tmp_path / "model.json"
        assert main(["train", str(db_path), "--config", str(cfg_path), "--no-augment",
                     "--train-scans", "4", "--out", str(model_path)]) == 0
        return db_path, model_path

    def evaluate(self, model_path, db_path, tmp_path, capsys):
        capsys.readouterr()
        code = main(["evaluate", str(model_path), str(db_path), "--train-scans", "4",
                     "--out", str(tmp_path / "report.json")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        return code, errors

    def test_renamed_tower_exits_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_text(db_path.read_text().replace('"T0"', '"T9"'))
        code, errors = self.evaluate(model_path, renamed, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and "T9" in errors[0]

    def test_renamed_location_exits_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_text(db_path.read_text().replace('"loc": 0,', '"loc": 99,'))
        code, errors = self.evaluate(model_path, renamed, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and re.search(r"\b99$", errors[0])

    def test_moved_location_exits_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        lines = db_path.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            scan = json.loads(line)
            if scan["loc"] == 2:
                scan["x"] += 100.0
                lines[i] = json.dumps(scan)
        moved = tmp_path / "moved.jsonl"
        moved.write_text("\n".join(lines) + "\n")
        code, errors = self.evaluate(model_path, moved, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and re.search(r"coordinates: 2$", errors[0])

    @pytest.mark.parametrize("damage", ["no_towers", "no_classes", "classes_not_list", "not_json",
                                        "not_utf8"])
    def test_malformed_model_exits_2(self, tmp_path, trained, capsys, damage):
        db_path, model_path = trained
        data = json.loads(model_path.read_text())
        if damage == "no_towers":
            del data["towers"]
        elif damage == "no_classes":
            del data["classes"]
        elif damage == "classes_not_list":
            data["classes"] = 5
        text = "{not json" if damage == "not_json" else json.dumps(data)
        model_path.write_bytes((b"\xff" if damage == "not_utf8" else b"") + text.encode())
        code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1

    def test_model_profile_breaking_a_rule_exits_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        data = json.loads(model_path.read_text())
        data["profile"]["dropout_rate"] = 1
        model_path.write_text(json.dumps(data))
        code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
        assert code == 2
        assert errors == [f"error: {model_path}: malformed model: "
                          "ConfigError: dropout must be in [0, 1): 1"]

    @pytest.mark.parametrize("command, newline", [
        ("evaluate", b"\n"), ("compare", b"\n"), ("preprocess", b"\n"),
        ("preprocess", b"\r\n"), ("preprocess", b"\r")])
    def test_survey_not_utf8_exits_2_naming_its_line(self, tmp_path, trained, capsys,
                                                      command, newline):
        # lines end at LF, CRLF or CR, as the loader reads them
        db_path, model_path = trained
        lines = db_path.read_bytes().splitlines()
        lines[2] = lines[2].replace(b'"T', b'"\xffT', 1)
        db_path.write_bytes(newline.join(lines) + newline)
        argv = {"evaluate": ["evaluate", model_path, db_path, "--train-scans", "4"],
                "compare": ["compare", db_path, "--train-scans", "4"],
                "preprocess": ["preprocess", db_path]}[command]
        capsys.readouterr()
        code = main([str(a) for a in argv] + ["--out", str(tmp_path / "out.json")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code == 2
        assert errors == [f"error: {db_path}: line 3: not UTF-8: invalid start byte"]

    @pytest.mark.parametrize("command", ["synth", "compare"])
    def test_config_not_utf8_exits_2_naming_its_line(self, tmp_path, trained, capsys, command):
        db_path, _ = trained
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"seed = 1\r\n# caf\xe9\r\nvae.enabled = false\r\n")
        argv = {"synth": ["synth"], "compare": ["compare", str(db_path), "--train-scans", "4"]}
        capsys.readouterr()
        code = main(argv[command] + ["--config", str(cfg_path),
                                     "--out", str(tmp_path / "out.json")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code == 2
        assert errors == [f"error: {cfg_path}:2: not UTF-8: invalid continuation byte"]

    @pytest.mark.parametrize("damage", [
        "class_without_coords", "relu_head", "repeated_class", "fractional_class",
        "no_last_weight", "extra_weight", "3d_weights", "nan_weight", "infinity_weight",
        "string_weight", "true_weight", "dropout_1.5", "string_dropout", "true_epochs",
        "float_batch_size", "float_layer_in", "string_coordinates", "huge_coordinate",
        "huge_weight", "huge_learning_rate", "padded_location_key", "spaced_location_key",
        "number_tower", "repeated_tower", "repeated_tower_unheard"])
    def test_model_evaluate_cannot_use_exits_2(self, tmp_path, trained, capsys, damage):
        db_path, model_path = trained
        data = json.loads(model_path.read_text())
        net = data["network"]
        typed = {"string_dropout": (net, "dropout_rate", "0.1"),
                 "true_epochs": (data["profile"], "epochs", True),
                 "float_batch_size": (data["profile"], "batch_size", 64.0),
                 "float_layer_in": (net["layers"][0], "in", float(net["layers"][0]["in"])),
                 "string_coordinates": (data["coords"], "0", ["1.0", "1.0"]),
                 # 10**400 is a JSON integer beyond the float range
                 "huge_coordinate": (data["coords"], "0", [10**400, 1.0]),
                 "huge_learning_rate": (data["profile"], "learning_rate", 10**400),
                 "number_tower": (data, "towers", [0] + data["towers"][1:])}
        if damage == "class_without_coords":
            data["classes"][0] = 99
        elif damage == "relu_head":
            net["layers"][-1]["activation"] = "relu"
        elif damage == "repeated_class":
            data["classes"][1] = data["classes"][0]
        elif damage == "fractional_class":
            data["classes"][0] += 0.5
        elif damage == "no_last_weight":
            del net["weights"][-1], net["biases"][-1]
        elif damage == "extra_weight":
            net["weights"].append(net["weights"][-1])
            net["biases"].append(net["biases"][-1])
        elif damage == "3d_weights":
            net["weights"] = [[w] for w in net["weights"]]
            net["biases"] = [[b] for b in net["biases"]]
        elif damage == "dropout_1.5":
            net["dropout_rate"] = 1.5
        elif damage in ("padded_location_key", "spaced_location_key"):
            # keys that int() reads as location 0, whose key is written "0"
            key = "00" if damage == "padded_location_key" else " 0"
            data["coords"][key] = data["coords"].pop("0")
        elif damage.startswith("repeated_tower"):
            # the last tower renamed to the first; "unheard" evaluates a survey
            # that never hears the renamed tower, so none of its towers is unknown
            renamed = data["towers"][-1]
            data["towers"][-1] = data["towers"][0]
            if damage == "repeated_tower_unheard":
                lines = db_path.read_text().splitlines()
                scans = [json.loads(line) for line in lines[1:]]
                for scan in scans:
                    scan["readings"] = [r for r in scan["readings"] if r[0] != renamed]
                db_path = tmp_path / "unheard.jsonl"
                db_path.write_text("\n".join(lines[:1] + [json.dumps(scan) for scan in scans
                                                          if scan["readings"]]) + "\n")
        elif damage in typed:
            holder, key, value = typed[damage]
            holder[key] = value
        else:
            net["weights"][0][0][0] = {"nan_weight": float("nan"), "infinity_weight": float("inf"),
                                       "string_weight": "0.5", "true_weight": True,
                                       "huge_weight": 10**400}[damage]
        model_path.write_text(json.dumps(data))
        code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and str(model_path) in errors[0]

    @pytest.mark.parametrize("where", ["model", "survey_header", "survey_scan"])
    def test_deeply_nested_json_exits_2(self, tmp_path, trained, capsys, where):
        """JSON nested past the decoder's recursion limit is a malformed file,
        named with its line in a survey, not a RecursionError traceback."""
        db_path, model_path = trained
        deep = "[" * 100_000 + "]" * 100_000
        if where == "model":
            model_path.write_text(deep)
            code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
            named = f"{model_path}: malformed model"
        else:
            lines = db_path.read_text().splitlines()
            lineno = 1 if where == "survey_header" else 2
            lines[lineno - 1] = deep
            db_path.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            code = main(["compare", str(db_path), "--out", str(tmp_path / "report.json")])
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error:")]
            named = f"{db_path}: line {lineno}: "
        assert code == 2
        assert len(errors) == 1 and named in errors[0]

    def test_non_finite_model_coordinates_exit_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        data = json.loads(model_path.read_text())
        data["coords"]["0"][0] = float("nan")
        model_path.write_text(json.dumps(data))
        code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and str(model_path) in errors[0]

    def test_non_finite_survey_coordinates_exit_2(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        lines = db_path.read_text().splitlines()
        scan = json.loads(lines[1])
        scan["x"] = float("nan")
        lines[1] = json.dumps(scan)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, errors = self.evaluate(model_path, bad, tmp_path, capsys)
        assert code == 2
        assert len(errors) == 1 and f"{bad}: line 2: non-finite" in errors[0]
        code = main(["train", str(bad), "--no-augment", "--train-scans", "4",
                     "--out", str(tmp_path / "nan_model.json")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code == 2
        assert len(errors) == 1 and f"{bad}: line 2: non-finite" in errors[0]

    def test_overflowing_weights_exit_1(self, tmp_path, trained, capsys):
        db_path, model_path = trained
        data = json.loads(model_path.read_text())
        net = data["network"]
        net["weights"] = [[[1e308] * len(row) for row in w] for w in net["weights"]]
        net["biases"] = [[1e308] * len(b) for b in net["biases"]]
        model_path.write_text(json.dumps(data))
        with np.errstate(over="ignore", invalid="ignore"):
            code, errors = self.evaluate(model_path, db_path, tmp_path, capsys)
        assert code == 1
        assert len(errors) == 1
