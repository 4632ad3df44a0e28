"""What the CLI writes and how it exits on paths it cannot use."""

import dataclasses
import json

import pytest

from cellaug.cli import main
from cellaug.core import save_database
from cellaug.distfit import DEGENERATE
from cellaug.pipeline import temporal_split
from cellaug.testbed import default_desk_spec, generate


def refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_fit_dist_writes_strict_json(tmp_path):
    # a 5-scan survey holds towers heard at one ASU, whose point-mass fit
    # has log-likelihood +inf: it is written as null, not Infinity
    train, _ = temporal_split(generate(dataclasses.replace(default_desk_spec(), seed=1)),
                              train_scans=5)
    survey, out = tmp_path / "train.jsonl", tmp_path / "fits.json"
    save_database(train, survey)
    assert main(["fit-dist", str(survey), "--out", str(out)]) == 0
    fits = json.loads(out.read_text(), parse_constant=refuse_constant)
    fits = [fit for per_tower in fits["locations"].values() for fit in per_tower.values()]
    unbounded = [fit for fit in fits if fit["log_likelihood"] is None]
    assert unbounded and {fit["family"] for fit in unbounded} == {DEGENERATE}


@pytest.mark.parametrize("argv, error", [
    (["preprocess", "{dir}", "--out", "{tmp}/v.jsonl"], "[Errno 21] Is a directory: '{dir}'"),
    (["evaluate", "{dir}", "{survey}", "--out", "{tmp}/r.json"], "[Errno 21] Is a directory: '{dir}'"),
    (["compare", "{survey}", "--config", "{dir}", "--out", "{tmp}/c.json"],
     "[Errno 21] Is a directory: '{dir}'"),
    (["synth", "--out", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    (["preprocess", "{survey}/x", "--out", "{tmp}/v.jsonl"], "[Errno 20] Not a directory: '{survey}/x'"),
], ids=["preprocess directory", "evaluate directory model", "compare directory config",
        "synth directory out", "preprocess path through a file"])
def test_unusable_path_exits_2(tmp_path, capsys, argv, error):
    paths = {"tmp": tmp_path, "dir": tmp_path / "dir", "survey": tmp_path / "db.jsonl"}
    paths["dir"].mkdir()
    save_database(generate(default_desk_spec()), paths["survey"])
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error.format(**paths)}"]
