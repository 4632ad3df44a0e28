"""Property test of the model-file contract: `evaluate` takes a model file
only if it is what `save_model` writes.

Hypothesis mutates a saved model at a random JSON path. It swaps a value for
one of another JSON type (integer, float, boolean, string, list or null),
deletes or adds a key, repeats a list entry, or respells a key ("00" for
"0", " 0"). `cli.main(["evaluate", ...])` must then either exit 2 with
exactly one `error:` line naming the model file, or exit 0 on a file that
re-saves to the same JSON. It never exits 1, prints a traceback or lets an
exception escape. One tiny model (one hidden layer of 4 units, 3 epochs on
a 4-location survey) is trained once for the module.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug import testbed
from cellaug.cli import main
from cellaug.core import save_database
from cellaug.localize import load_model, model_to_dict

# Replacement values by JSON type; a value of the model is swapped only for
# one of another type, so no swap leaves the file as save_model wrote it.
MENU = (0, 1, -1, 2**63, 10**400, 0.5, -0.0, 1e308, True, False,
        "0", "0.5", "T0", "relu", "", [], [0.0], None)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The survey, the path the mutated model is written to, and the JSON of
    a model trained on the survey."""
    tmp = tmp_path_factory.mktemp("model")
    towers = tuple(testbed.Tower(f"T{i}", xy, power) for i, (xy, power) in enumerate(
        [((1.0, 1.0), -50.0), ((9.0, 1.0), -50.0), ((5.0, 9.0), -52.0)]))
    spec = testbed.TestbedSpec(
        name="tiny", area=(10.0, 10.0), towers=towers, path_loss_exponent=2.5,
        shadow_sigma_db=3.0, sensitivity_dbm=-111.0, scans_per_location=6, seed=3,
        grid_spacing_m=5.0)
    survey = tmp / "db.jsonl"
    save_database(testbed.generate(spec), survey)
    cfg = tmp / "train.cfg"
    cfg.write_text("profile.epochs = 3\nprofile.hidden_neurons = 4\nprofile.hidden_layers = 1\n")
    model = tmp / "model.json"
    assert run(["train", survey, "--config", cfg, "--no-augment", "--train-scans", "4",
                "--out", model])[0] == 0
    return survey, model, json.loads(model.read_text())


def run(argv) -> tuple[int, str]:
    """cli.main in process: the exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@st.composite
def mutated(draw, original):
    """A copy of the JSON `original`, changed once at a random path."""
    root = json.loads(json.dumps(original))
    parent, key, value = None, None, root
    while isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):  # 0 stops
        parent, key = value, draw(st.sampled_from(list(value) if isinstance(value, dict)
                                                  else range(len(value))))
        value = value[key]
    kinds = ["retype"]
    if parent is not None:
        kinds.append("delete")
    if isinstance(value, dict):
        kinds += ["add", "respell"] if value else ["add"]
    if isinstance(value, list) and value:
        kinds.append("repeat")
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        # the value itself in a list and, for a number, in the other types
        near = [[value]] + ([int(value), float(value), str(value)]
                            if type(value) in (int, float) else [])
        new = draw(st.sampled_from([v for v in MENU + tuple(near) if type(v) is not type(value)]))
        if parent is None:
            return new
        parent[key] = new
    elif kind == "delete":
        del parent[key]
    elif kind == "add":
        name = draw(st.sampled_from(["extra", "99", ""]).filter(lambda k: k not in value))
        value[name] = draw(st.sampled_from(MENU))
    elif kind == "respell":
        name = draw(st.sampled_from(list(value)))
        value[draw(st.sampled_from(["0", " "])) + name] = value.pop(name)
    else:
        i = draw(st.integers(0, len(value) - 1))
        value.insert(i, value[i])
    return root


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_evaluate_takes_only_what_save_model_writes(saved, data):
    survey, model, original = saved
    changed = data.draw(mutated(original))
    model.write_text(json.dumps(changed))
    code, err = run(["evaluate", model, survey, "--train-scans", "4",
                     "--out", model.with_name("report.json")])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    if code == 0:
        assert not errors
        resaved = model_to_dict(load_model(model))
        assert json.dumps(resaved, sort_keys=True) == json.dumps(changed, sort_keys=True)
    else:
        assert code == 2, err
        assert len(errors) == 1 and str(model) in errors[0], errors
