#!/usr/bin/env python3
"""End-to-end benchmark of the cellaug command-line pipeline.

    python3 bench/run.py --workload desk-compare --seed 1 --seconds 12 --trace 0

Run from the repository root. One process runs the CLI commands of
a workload one after another, each in its own child process, and checks
their outputs with bench/checks.py (plain numpy, none of the program's
code). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` a
separate traced run (bench/trace.py) gives the per-layer ones. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# This process's own numpy stays single-threaded; the children get the cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRAIN_SCANS = 5
SETUPS = 3                # set-ups per run; setup_s is their median
COMMAND_TIMEOUT_S = 170
DESK_SHAPE = (36, 60)  # cells, scans per location of testbed.default_desk_spec


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str | None      # testbed spec in bench/, None for the built-in desk testbed
    config: str | None    # augmentation config in bench/
    kind: str             # "compare" or "localize"

    def shape(self) -> tuple[int, int]:
        return checks.spec_shape(BENCH / self.spec) if self.spec else DESK_SHAPE

    def vae_enabled(self) -> bool:
        if self.config is None:
            return True
        return checks.read_kv(BENCH / self.config).get("vae.enabled", "true") == "true"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-compare", None, None, "compare"),
        Workload("outdoor-novae", "outdoor.cfg", "novae.cfg", "compare"),
        Workload("localize", "bulk.cfg", "bulk_train.cfg", "localize"),
    )
}


@dataclass
class Command:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str]) -> Command:
    """Run one child to completion; wall time and peak RSS come from wait4.
    Its output goes to files under .bench_out/, inside the checkout."""
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                       out.read().decode(), err.read().decode())


def cellaug(*args: str | Path) -> Command:
    return run_child([sys.executable, "-m", "cellaug.cli", *map(str, args)])


def must(cmd: Command, what: str) -> Command:
    if cmd.code != 0:
        sys.exit(f"{what} failed with exit code {cmd.code}:\n{cmd.stderr[-2000:]}")
    return cmd


@dataclass
class Run:
    """Paths of one workload's inputs and outputs under .bench_out/."""

    workload: Workload
    seed: int
    dir: Path = field(init=False)

    def __post_init__(self):
        self.dir = OUT / self.workload.name
        self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def survey(self) -> Path:
        return self.dir / "survey.jsonl"

    def model(self, which: str) -> Path:
        return self.dir / f"model_{which}.json"

    def report(self, which: str) -> Path:
        return self.dir / f"{which}.json"

    def config_args(self) -> list[str | Path]:
        cfg = self.workload.config
        return ["--config", BENCH / cfg] if cfg else []

    def setup(self) -> float:
        """Synthesise the survey and, for localize, train its two models."""
        spec = ["--config", BENCH / self.workload.spec] if self.workload.spec else []
        wall = must(cellaug("synth", *spec, "--seed", self.seed, "--out", self.survey), "synth").wall_s
        if self.workload.kind == "localize":
            common = [self.survey, *self.config_args(), "--seed", self.seed,
                      "--train-scans", TRAIN_SCANS]
            wall += must(cellaug("train", *common, "--no-augment", "--out", self.model("base")),
                         "baseline training").wall_s
            wall += must(cellaug("train", *common, "--out", self.model("aug")),
                         "augmented training").wall_s
        return wall

    def round(self) -> list[tuple[str, Command]]:
        """The workload's timed CLI command(s), once, from clean outputs."""
        for name in ("compare", "evaluate_base", "evaluate_aug"):
            for path in self.outputs(name):
                path.unlink(missing_ok=True)
        if self.workload.kind == "compare":
            return [("compare", cellaug(
                "compare", self.survey, *self.config_args(), "--seed", self.seed,
                "--train-scans", TRAIN_SCANS, "--out", self.report("compare")))]
        return [(f"evaluate_{which}", cellaug(
            "evaluate", self.model(which), self.survey, "--train-scans", TRAIN_SCANS,
            "--out", self.report(f"evaluate_{which}"))) for which in ("base", "aug")]

    def outputs(self, name: str) -> list[Path]:
        report = self.report(name)
        if name == "compare":
            return [report, report.with_name("compare_without.cdf.csv"),
                    report.with_name("compare_with.cdf.csv")]
        return [report, report.with_suffix(".cdf.csv")]

    def digest(self, name: str) -> str:
        h = hashlib.sha256()
        for path in self.outputs(name):
            h.update(path.read_bytes())
        return h.hexdigest()


class Checker:
    """Independent checks of each timed command, plus byte determinism
    within the run and against earlier runs of the same seed and code."""

    def __init__(self, run: Run):
        self.run = run
        self.survey = checks.Survey(run.survey)
        self.setup_problems = self.survey.shape_problems(*run.workload.shape())
        self.first: dict[str, str] = {}
        self.errors: dict[str, np.ndarray] = {}
        self.store = OUT / "digests.json"
        self.key = f"{run.workload.name}/{run.seed}/{code_hash()}"

    def problems(self, name: str, cmd: Command) -> list[str]:
        if cmd.code != 0:
            return [f"exit code {cmd.code}: {cmd.stderr.strip()[-300:]}"]
        try:
            found = list(self.setup_problems) + self.content_problems(name)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        digest = self.run.digest(name)
        if self.first.setdefault(name, digest) != digest:
            found.append("output bytes differ between rounds of the same seed")
        stored = self.load_store()
        if stored.setdefault(self.key, {}).setdefault(name, digest) != digest:
            found.append("output bytes differ from an earlier run of the same seed")
        self.store.write_text(json.dumps(stored, indent=1, sort_keys=True))
        return found

    def load_store(self) -> dict:
        return json.loads(self.store.read_text()) if self.store.exists() else {}

    def content_problems(self, name: str) -> list[str]:
        run = self.run
        if name == "compare":
            return checks.compare_problems(run.report(name), self.survey, TRAIN_SCANS,
                                           run.workload.vae_enabled())
        which = name.removeprefix("evaluate_")
        if not self.errors:
            x, truth = self.survey.test_matrix(TRAIN_SCANS)
            self.errors = {w: checks.model_errors(run.model(w), x, truth) for w in ("base", "aug")}
        found = checks.evaluate_problems(run.report(name), self.errors[which], self.survey, which)
        if which == "aug":
            pct = percentiles(run)
            if not pct["aug"][1] < pct["base"][1]:
                found.append("augmented model's median error is not below the baseline's")
        return found


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.cfg")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentiles(run: Run) -> dict[str, list[float]]:
    """[p25, p50, p75] of the augmented ("aug") and baseline ("base") models."""
    if run.workload.kind == "compare":
        rep = json.loads(run.report("compare").read_text())
        reps = {"aug": rep["with_augmentation"], "base": rep["without_augmentation"]}
    else:
        reps = {w: json.loads(run.report(f"evaluate_{w}").read_text()) for w in ("aug", "base")}
    return {w: [r["percentiles"][k] for k in ("p25", "p50", "p75")] for w, r in reps.items()}


@dataclass
class Tally:
    """What the timed rounds of one run did."""

    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0  # time spent in rounds, checks included


def timed_round(run: Run, checker: Checker, tally: Tally) -> None:
    t0 = time.monotonic()
    for name, cmd in run.round():
        tally.attempted += 1
        found = checker.problems(name, cmd)
        if found:
            tally.failed += 1
            tally.problems += [f"{name}: {p}" for p in found]
        tally.walls.append(cmd.wall_s)
        tally.rss.append(cmd.peak_rss_mb)
    tally.seconds += time.monotonic() - t0


def result(correct: bool, attempted: int, failed: int, values: dict[str, float],
           section: str) -> dict:
    """The result line, with the metrics and units BENCHMARK.json lists."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        sys.exit(f"no value for metric(s) {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}}


def traced(run: Run) -> tuple[dict[str, float], list[str], int, int]:
    """Per-layer metrics from bench/trace.py, checked against one untraced round."""
    tally = Tally()
    timed_round(run, Checker(run), tally)
    problems = tally.problems
    w = run.workload
    files = [f"--{k}={BENCH / v}" for k, v in (("spec", w.spec), ("config", w.config)) if v]
    cmd = run_child([sys.executable, str(BENCH / "trace.py"), "--kind", w.kind,
                     "--seed", str(run.seed), "--train-scans", str(TRAIN_SCANS),
                     "--dir", str(run.dir), *files])
    if cmd.code != 0:
        sys.exit(f"traced run failed with exit code {cmd.code}:\n{cmd.stderr[-2000:]}")
    trace = json.loads(cmd.stdout.strip().splitlines()[-1])
    if trace["percentiles"] != percentiles(run):
        problems.append(f"traced percentiles {trace['percentiles']} != CLI {percentiles(run)}")
    problems += trace["problems"]
    values = trace["metrics"]
    values["trace.overhead_s"] = trace["total_s"] - sum(tally.walls)
    return values, problems, tally.attempted, tally.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cellaug" / "cli.py").is_file():
        sys.exit(f"no cellaug sources under {SRC}; run from a full checkout")

    OUT.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        run.setup()
        values, problems, attempted, failed = traced(run)
        section = "per_layer"
    else:
        # Whole rounds after each set-up until its share of --seconds has
        # passed (at least one round in all), so that the timed commands
        # spread over the run rather than sit in one stretch of host noise.
        setups, tally, checker = [], Tally(), None
        for i in range(SETUPS):
            setups.append(run.setup())
            checker = checker or Checker(run)
            while tally.seconds < args.seconds * (i + 1) / SETUPS:
                timed_round(run, checker, tally)
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(tally.walls),
                  "peak_rss_mb": max(tally.rss)}
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        pct = percentiles(run)
        values.update(p50_aug_m=pct["aug"][1], p50_base_m=pct["base"][1])
        section = "end_to_end"
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result(not problems, attempted, failed, values, section)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
