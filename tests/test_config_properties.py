"""Property test of the CLI's config-file contract over its three surfaces:
the testbed keys under `synth`, the augmentation keys under `augment` and
the `profile.*` keys under `train --no-augment`.

Each key's value comes from a small menu: its valid value, 0, a negative
value, nan, inf, a non-numeric string, the empty string, an integer beyond
int64, and for a tower key the empty id. Whatever is drawn, no exception
escapes `cli.main`, a nonzero exit prints exactly one `error:` line, every
value that is out of its key's range or not a value of its type exits 2
(naming the key on the augmentation surface), and the all-valid file
exits 0. Sizes stay small: at most 12 scans per location, at most 36 grid
cells, multipliers of at most 3, at most 3 epochs and at most 8 hidden
units.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug import testbed
from cellaug.cli import main
from cellaug.core import save_database

BEYOND_INT64 = "100000000000000000000"
MENU = ("0", "-1", "nan", "inf", "abc", "", BEYOND_INT64)
EMPTY_ID = "empty tower id"


def anything(x):
    return True


def positive(x):
    return x > 0


def at_least_1(x):
    return x >= 1


# key -> (valid value, type: bool, int, auto (an int or auto) or float,
#         whether a finite number is in the key's range)
TESTBED = {
    "area.width": ("12", "float", positive),
    "area.height": ("12", "float", positive),
    "grid.spacing": ("6", "float", positive),
    "path_loss_exponent": ("3", "float", positive),
    "shadow_sigma_db": ("4", "float", lambda x: x >= 0),
    "sensitivity_dbm": ("-111", "float", anything),
    "scans_per_location": ("4", "int", at_least_1),
    "seed": ("1", "int", lambda x: 0 <= x < 2**32),
}
TOWERS = {"tower.T00": ("2", "3", "-45"), "tower.T01": ("10", "2", "-45"),
          "tower.T02": ("6", "11", "-47")}
AUGMENT = {
    "noise.enabled": ("true", "bool", None),
    "noise.per_scan": ("2", "int", at_least_1),
    "sampling.enabled": ("yes", "bool", None),
    "sampling.n_per_location": ("AUTO", "auto", at_least_1),
    "drop_random.enabled": ("on", "bool", None),
    "drop_random.per_scan": ("3", "int", at_least_1),
    "drop_random.max_drop": ("2", "int", at_least_1),
    "drop_threshold.enabled": ("1", "bool", None),
    "drop_threshold.value": ("0.3", "float", lambda x: 0 <= x <= 1),
    "vae.enabled": ("True", "bool", None),
    "vae.n_per_location": ("3", "auto", at_least_1),
    "vae.epochs": ("2", "int", at_least_1),
    "vae.learning_rate": ("0.001", "float", positive),
    "seed": ("1", "int", lambda x: 0 <= x < 2**32),
}
PROFILE = {
    "profile.learning_rate": ("0.01", "float", positive),
    "profile.batch_size": ("16", "int", at_least_1),
    "profile.dropout_rate": ("0.1", "float", lambda x: 0 <= x < 1),
    "profile.epochs": ("3", "int", at_least_1),
    "profile.hidden_neurons": ("8", "int", at_least_1),
    "profile.hidden_layers": ("1", "int", at_least_1),
}


def refused(value: str, kind: str, in_range) -> bool:
    """Whether a value must be refused: not a value of its type (an integer
    beyond int64 is none), or a number out of its key's range. A float key
    reads 10**20 as a number like any other, held to its range only, as
    a huge learning rate must still reach training and fail there."""
    try:
        number = float(value)
    except ValueError:
        return True
    if not math.isfinite(number):
        return True
    if kind == "bool":
        return value not in ("0", "1")
    if kind != "float" and abs(int(value)) >= 2**63:
        return True
    return not in_range(number)


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    """A 4-location, 4-tower survey with 6 scans per location."""
    towers = tuple(testbed.Tower(f"T{i}", xy, power) for i, (xy, power) in enumerate(
        [((1.0, 1.0), -50.0), ((9.0, 1.0), -50.0), ((5.0, 9.0), -52.0), ((40.0, 40.0), -62.0)]))
    spec = testbed.TestbedSpec(
        name="tiny", area=(10.0, 10.0), towers=towers, path_loss_exponent=2.5,
        shadow_sigma_db=3.0, sensitivity_dbm=-111.0, scans_per_location=6, seed=3,
        grid_spacing_m=5.0)
    path = tmp_path_factory.mktemp("survey") / "db.jsonl"
    save_database(testbed.generate(spec), path)
    return path


def run(argv) -> tuple[int, list[str]]:
    """cli.main in process: the exit code and the `error:` lines of stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def check(code: int, errors: list[str], bad: list[str], all_valid: bool, name_key: bool):
    assert code in (0, 1, 2)
    assert len(errors) == (1 if code else 0), errors
    if bad:
        assert code == 2, bad
        if name_key:
            assert any(key in errors[0] for key in bad), (bad, errors)
    if all_valid:
        assert code == 0, errors


def surface_overrides(table: dict):
    """Up to two keys of `table`, each given a value from the menu or its own
    valid value."""
    return st.dictionaries(st.sampled_from(sorted(table)),
                           st.sampled_from(MENU + ("valid",)), max_size=2)


def write_config(path, table: dict, overrides: dict) -> tuple[list[str], bool]:
    """Write the table's valid file with `overrides` applied; return the keys
    whose values must be refused and whether every value is the valid one."""
    values = {key: valid for key, (valid, _, _) in table.items()}
    bad = []
    for key, value in overrides.items():
        if value != "valid":
            values[key] = value
            valid, kind, in_range = table[key]
            if refused(value, kind, in_range):
                bad.append(key)
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return bad, all(value == "valid" for value in overrides.values())


@settings(max_examples=150, deadline=None)
@given(overrides=surface_overrides(TESTBED),
       tower=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(TOWERS)),
                                            st.sampled_from(MENU + (EMPTY_ID,)),
                                            st.integers(0, 2))))
def test_testbed_keys_under_synth(tmp_path_factory, overrides, tower):
    tmp = tmp_path_factory.mktemp("synth")
    cfg = tmp / "testbed.cfg"
    bad, all_valid = write_config(cfg, TESTBED, overrides)
    towers = dict(TOWERS)
    if tower is not None:
        key, value, part = tower
        if value == EMPTY_ID:
            towers["tower."] = towers.pop(key)
            bad.append("tower.")
        else:
            parts = list(towers[key])
            parts[part] = value
            towers[key] = tuple(parts)
            if refused(value, "float", anything):
                bad.append(key)
        all_valid = False
    with cfg.open("a") as f:
        f.write("".join(f"{key} = {', '.join(xyp)}\n" for key, xyp in towers.items()))
    out = tmp / "db.jsonl"
    code, errors = run(["synth", "--config", cfg, "--out", out])
    check(code, errors, bad, all_valid, name_key=False)
    assert out.exists() == (code == 0)


@settings(max_examples=150, deadline=None)
@given(overrides=surface_overrides(AUGMENT))
def test_augmentation_keys_under_augment(tmp_path_factory, survey, overrides):
    tmp = tmp_path_factory.mktemp("augment")
    cfg = tmp / "run.cfg"
    bad, all_valid = write_config(cfg, AUGMENT, overrides)
    out = tmp / "v.jsonl"
    code, errors = run(["augment", survey, "--config", cfg, "--train-scans", "4", "--out", out])
    check(code, errors, bad, all_valid, name_key=True)
    if bad:
        assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(overrides=surface_overrides(PROFILE))
def test_profile_keys_under_train(tmp_path_factory, survey, overrides):
    tmp = tmp_path_factory.mktemp("train")
    cfg = tmp / "run.cfg"
    bad, all_valid = write_config(cfg, PROFILE, overrides)
    out = tmp / "model.json"
    code, errors = run(["train", survey, "--config", cfg, "--no-augment", "--train-scans", "4",
                        "--out", out])
    check(code, errors, bad, all_valid, name_key=False)
    assert out.exists() == (code == 0)
