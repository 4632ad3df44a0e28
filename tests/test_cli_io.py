"""What the CLI writes and how it exits on paths it cannot use."""

import argparse
import dataclasses
import json

import pytest

from cellaug.cli import INPUTS, OUTPUTS, build_parser, main
from cellaug.core import save_database, sidecar_path
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
    (["evaluate", "{model}", "{survey}", "--out", "{model}"], "--out would overwrite model: {model}"),
    (["evaluate", "{tmp}/m.cdf.csv", "{survey}", "--out", "{tmp}/m.json"],
     "--out's CSV would overwrite model: {tmp}/m.cdf.csv"),
    (["compare", "{survey}", "--out", "{tmp}/r.json", "--manifest", "{tmp}/r.json"],
     "--manifest would overwrite --out: {tmp}/r.json"),
    (["compare", "{survey}", "--out", "{tmp}/r.json", "--manifest", "{tmp}/r_with.cdf.csv"],
     "--manifest would overwrite --out's CSV: {tmp}/r_with.cdf.csv"),
    (["compare", "{survey}", "--config", "{cfg}", "--out", "{tmp}/dir/../c.cfg"],
     "--out would overwrite --config: {tmp}/dir/../c.cfg"),
    (["train", "{survey}", "--no-augment", "--out", "{survey}"],
     "--out would overwrite database: {survey}"),
    (["augment", "{survey}", "--out", "{tmp}/v.jsonl", "--report", "{tmp}/v.jsonl"],
     "--report would overwrite --out: {tmp}/v.jsonl"),
    (["synth", "--config", "{cfg}", "--out", "{cfg}"], "--out would overwrite --config: {cfg}"),
    (["compare", "{survey}", "--out", "."], "[Errno 21] Is a directory: '.'"),
    (["compare", "{survey}", "--out", "{dir}/.."], "[Errno 21] Is a directory: '{dir}/..'"),
    (["evaluate", "{model}", "{survey}", "--out", "/"], "[Errno 21] Is a directory: '/'"),
    (["compare", "{survey}", "--out", "{tmp}/r.json", "--manifest", "{dir}"],
     "[Errno 21] Is a directory: '{dir}'"),
    (["augment", "{survey}", "--out", "{tmp}/v.jsonl", "--report", "{dir}"],
     "[Errno 21] Is a directory: '{dir}'"),
    (["train", "{survey}", "--no-augment", "--out", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    (["compare", "{survey}", "--out", "{tmp}/missing/r.json"],
     "[Errno 2] No such file or directory: '{tmp}/missing/r.json'"),
    (["fit-dist", "{survey}", "--out", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    (["fit-dist", "{survey}", "--out", "{survey}/f.json"],
     "[Errno 20] Not a directory: '{survey}/f.json'"),
    (["train", "{survey}", "--no-augment", "--out", "{cache}"],
     "--out would overwrite database's cache: {cache}"),
    (["compare", "{survey}", "--out", "{tmp}/r.json", "--manifest", "{cache}"],
     "--manifest would overwrite database's cache: {cache}"),
    (["augment", "{survey}", "--out", "{tmp}/v.jsonl", "--report", "{cache}"],
     "--report would overwrite database's cache: {cache}"),
    (["evaluate", "{cache}", "{survey}", "--out", "{tmp}/e.json"],
     "database's cache would overwrite model: {cache}"),
], ids=["preprocess directory", "evaluate directory model", "compare directory config",
        "synth directory out", "preprocess path through a file", "evaluate out is the model",
        "evaluate CSV is the model", "compare manifest is out", "compare manifest is a CSV",
        "compare out is the config", "train out is the survey", "augment report is out",
        "synth out is the config", "compare out is the working directory",
        "compare out is a parent directory", "evaluate out is the root",
        "compare manifest is a directory", "augment report is a directory",
        "train out is a directory", "compare out in a missing directory",
        "fit-dist out is a directory", "fit-dist out through a file", "train out is the cache",
        "compare manifest is the cache", "augment report is the cache", "evaluate model is the cache"])
def test_unusable_path_exits_2(tmp_path, capsys, monkeypatch, argv, error):
    def work(*args, **kwargs):
        pytest.fail("the command worked before it refused the path")
    import cellaug.augment  # noqa: F401 -- bound to the real fit_database, not to work
    for name in ("localize.train_localizer", "pipeline.run_comparison", "distfit.fit_database"):
        monkeypatch.setattr(f"cellaug.{name}", work)
    monkeypatch.chdir(tmp_path)
    paths = {"tmp": tmp_path, "dir": tmp_path / "dir", "survey": tmp_path / "db.jsonl",
             "model": tmp_path / "model.json", "cfg": tmp_path / "c.cfg"}
    paths["cache"] = sidecar_path(paths["survey"])
    paths["dir"].mkdir()
    save_database(generate(default_desk_spec()), paths["survey"])
    # the file names are all the check reads of the model and the config; a
    # file at the survey's cache path is one a read would overwrite
    for path in (paths["model"], tmp_path / "m.cdf.csv", paths["cfg"], paths["cache"]):
        path.write_text("seed = 1\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error.format(**paths)}"]
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def test_outputs_do_not_depend_on_the_sidecar(tmp_path, monkeypatch):
    # train, evaluate and compare write the same bytes when the first of
    # them parses synth's survey and writes its sidecar, when all three read
    # the sidecar, and when all three parse the survey
    survey, cfg = tmp_path / "db.jsonl", tmp_path / "run.cfg"
    assert main(["synth", "--seed", "1", "--out", str(survey)]) == 0
    assert not sidecar_path(survey).exists()
    cfg.write_text("vae.enabled = false\nnoise.per_scan = 2\nsampling.n_per_location = 5\n"
                   "drop_random.per_scan = 2\nprofile.epochs = 2\nprofile.hidden_neurons = 8\n"
                   "profile.hidden_layers = 1\n")

    def outputs(name):
        out = tmp_path / name
        out.mkdir()
        split = ["--train-scans", "5"]
        assert main(["train", str(survey), "--config", str(cfg), *split,
                     "--out", str(out / "model.json")]) == 0
        assert main(["evaluate", str(out / "model.json"), str(survey), *split,
                     "--out", str(out / "evaluate.json")]) == 0
        assert main(["compare", str(survey), "--config", str(cfg), *split,
                     "--out", str(out / "compare.json")]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    first = outputs("first")
    with monkeypatch.context() as patch:
        patch.setattr("cellaug.core._parse", lambda *args: pytest.fail("the survey was parsed"))
        cached = outputs("cached")
    sidecar_path(survey).unlink()
    monkeypatch.setattr("cellaug.core._write_sidecar", lambda *args: None)
    assert outputs("parsed") == cached == first
    assert len(cached) == 6


def test_survey_edited_after_a_read_exits_2_naming_its_line(tmp_path, capsys):
    survey = tmp_path / "db.jsonl"
    assert main(["synth", "--out", str(survey)]) == 0
    assert main(["preprocess", str(survey), "--out", str(tmp_path / "v.jsonl")]) == 0
    assert sidecar_path(survey).exists()
    lines = survey.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"ts": ', '"ts": "').replace(', "readings"', '", "readings"')
    survey.write_text("".join(lines))
    capsys.readouterr()
    assert main(["preprocess", str(survey), "--out", str(tmp_path / "v.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {survey}: line 3: ts must be a JSON integer")


# Every other argument a command declares, by dest: none of them names a path.
NOT_PATHS = ("help", "seed", "profile", "no_augment", "train_fraction", "train_scans")


def test_every_argument_is_a_checked_path_or_a_value():
    # an argument missing from all three lists would bypass main's path check
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        dests = {action.dest for action in parser._actions}
        assert "out" in dests, name
        assert not dests - {*INPUTS, *OUTPUTS, *NOT_PATHS}, name
