"""The localizer model file format, against a small model written before a
network's layer widths were read from its weights (see data/README.md):
it loads, saves back to the same bytes and evaluates to the p50 recorded
when it was written, and `evaluate` refuses each way its layers can break."""

import json
from pathlib import Path

import pytest

from cellaug.cli import main
from cellaug.localize import load_model, save_model

MODEL = Path(__file__).parent / "data" / "desk_tiny_model.json"
P50 = 5.087599156185796  # evaluate on the seed-1 desk survey, --train-scans 5


@pytest.fixture(scope="module")
def desk_survey(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk") / "desk.jsonl"
    assert main(["synth", "--seed", "1", "--out", str(path)]) == 0
    return path


def evaluate(model_path, survey, tmp_path, capsys):
    """evaluate's exit code, its error lines and its report (None on failure)."""
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["evaluate", str(model_path), str(survey), "--train-scans", "5",
                 "--out", str(report)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    return code, errors, json.loads(report.read_text()) if code == 0 else None


def test_saved_model_loads_and_saves_byte_for_byte(tmp_path):
    save_model(load_model(MODEL), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == MODEL.read_bytes()


def test_saved_model_evaluates_to_its_recorded_p50(desk_survey, tmp_path, capsys):
    code, errors, report = evaluate(MODEL, desk_survey, tmp_path, capsys)
    assert (code, errors) == (0, [])
    assert report["percentiles"]["p50"] == P50 and report["n"] == 1980


def in_plus_one(net):
    net["layers"][0]["in"] += 1


def out_zero(net):
    net["layers"][0]["out"] = 0


def unknown_activation(net):
    net["layers"][0]["activation"] = "gelu"


def hidden_softmax(net):
    net["layers"][0]["activation"] = "softmax"


def rows_differ_from_previous_width(net):
    # layer 1 takes 3 inputs, in its weight and its "in", but layer 0 gives 4
    del net["weights"][1][-1]
    net["layers"][1]["in"] = 3


def stack_axis(net):
    net["weights"][0] = [net["weights"][0]]


BROKEN = [
    (in_plus_one, ".network.layers[0].in: 11, save_model writes 10"),
    (out_zero, ".network.layers[0].out: 0, save_model writes 4"),
    (unknown_activation, "unknown activation: gelu"),
    (hidden_softmax, "softmax allowed only as the final layer"),
    (rows_differ_from_previous_width, "layer 1: expected weight (4, 'out')"),
    (stack_axis, "expected a finite 2-D parameter, got a 3-D one"),
]


@pytest.mark.parametrize("damage, message", BROKEN, ids=[d.__name__ for d, _ in BROKEN])
def test_broken_layers_exit_2_with_one_error(damage, message, desk_survey, tmp_path, capsys):
    data = json.loads(MODEL.read_text())
    damage(data["network"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, errors, _ = evaluate(broken, desk_survey, tmp_path, capsys)
    assert code == 2
    assert len(errors) == 1 and str(broken) in errors[0] and message in errors[0]
