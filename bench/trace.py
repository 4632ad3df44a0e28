#!/usr/bin/env python3
"""Traced in-process run of one benchmark workload (per-layer metrics).

    PYTHONPATH=src python3 bench/trace.py --kind compare --seed 1 \
        --train-scans 5 --dir .bench_out/desk-compare

bench/run.py starts this in its own process after the untraced round, so
--dir already holds the survey (and, for localize, the two models) that
the CLI used. The stages are called here, from outside src/, in the order
and with the seeds of ``cellaug compare`` (pipeline.run_comparison) or
``cellaug evaluate``; each call is timed, and the ``nn`` names that vae.py
and nn.train look up are wrapped to time and count the engine. Prints one
JSON line: the per-layer metrics, p25/p50/p75 of both models for the
cross-check against the CLI reports, and the traced total.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

NN_NAMES = ("forward_with_cache", "backward", "sgd_step")
FAMILIES = ("beta", "gamma", "gaussian", "degenerate")
TECHNIQUES = ("original", "noise", "sampling", "drop_random", "drop_threshold", "vae")


class Tracer:
    """Accumulated wall time per span name and per engine call kind."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.caller: str | None = None  # "localize" while train_localizer runs
        self.sizes: dict[int, tuple] = {}  # id(net) -> (net, multiply-adds per row, parameters)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    def wrap_engine(self, module, caller: str, gated: bool) -> None:
        """Replace the engine names `module` looks up with timing wrappers.

        FLOPs are computed from layer sizes and batch rows: 2*rows*in*out
        per forward matmul, twice that backward (weight and input
        gradients), 2 per parameter for an SGD update.
        """
        for name in NN_NAMES:
            setattr(module, name, self._wrapper(getattr(module, name), name, caller, gated))

    def _wrapper(self, fn, name: str, caller: str, gated: bool):
        seconds, counts, sizes = self.seconds, self.counts, self.sizes
        key = f"nn.{caller}.{name.removesuffix('_with_cache')}_s"

        def wrapped(net, *args, **kwargs):
            if gated and self.caller != caller:
                return fn(net, *args, **kwargs)
            t0 = time.perf_counter()
            out = fn(net, *args, **kwargs)
            seconds[key] += time.perf_counter() - t0
            counts[f"nn.{caller}.calls"] += 1
            counts[f"nn.{caller}.{name}"] += 1
            if id(net) not in sizes:  # the network is kept so that its id stays unique
                macs = sum(s.input_dim * s.output_dim for s in net.layers)
                params = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
                sizes[id(net)] = (net, macs, params)
            _, macs, params = sizes[id(net)]
            if name == "sgd_step":
                flops = 2 * params
            elif name == "forward_with_cache":
                flops = 2 * macs * args[0].shape[0]
            else:
                flops = 4 * macs * args[1].shape[0]
            counts[f"nn.{caller}.flops"] += flops
            return out

        return wrapped


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--kind", required=True, choices=("compare", "localize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--train-scans", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spec", type=Path, help="testbed spec; default: built-in desk testbed")
    parser.add_argument("--config", type=Path, help="augmentation config of compare")
    args = parser.parse_args()

    t0 = time.perf_counter()
    importlib.import_module("cellaug.cli")
    import_s = time.perf_counter() - t0
    from cellaug import augment, core, distfit, localize, nn, pipeline, preprocess, testbed, vae
    from cellaug.util import read_kv_config

    tracer = Tracer()
    tracer.wrap_engine(vae, "vae", gated=False)
    tracer.wrap_engine(nn, "localize", gated=True)
    span = tracer.span
    out_dir = args.dir / "trace"
    out_dir.mkdir(exist_ok=True)
    problems: list[str] = []

    spec = testbed.spec_from_file(args.spec) if args.spec else testbed.default_desk_spec()
    with span("testbed.generate"):
        generated = testbed.generate(replace(spec, seed=args.seed))
    with span("core.save_database"):
        core.save_database(generated, out_dir / "survey.jsonl")
    survey = args.dir / "survey.jsonl"
    if (out_dir / "survey.jsonl").read_bytes() != survey.read_bytes():
        problems.append("in-process survey differs from the CLI's synth output")

    def write_report(report, path: Path) -> None:
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        path.with_suffix(".cdf.csv").write_text(report.cdf_csv(), encoding="utf-8")

    values: dict[str, float] = {}
    t_run = time.perf_counter()
    if args.kind == "localize":
        # Two `cellaug evaluate` processes: each loads, splits, vectorizes,
        # evaluates and writes its report.
        processes = 2
        reports = {}
        for which in ("base", "aug"):
            model = localize.load_model(args.dir / f"model_{which}.json")
            with span("core.load_database"):
                db = core.load_database(survey)
            with span("pipeline.temporal_split"):
                _, db_test = pipeline.temporal_split(db, 0.7, args.train_scans)
            with span("preprocess.vectorize_database"):
                test_vectors = preprocess.vectorize_database(db_test)
            with span("localize.evaluate"):
                reports[which] = localize.evaluate(model, test_vectors)
            with span("localize.report"):
                write_report(reports[which], out_dir / f"evaluate_{which}.json")
        report_with, report_without = reports["aug"], reports["base"]
        fits, vae_models, counts = {}, {}, {}
    else:
        # pipeline.run_comparison, stage by stage, with the CLI's seed use.
        processes = 1
        with span("core.load_database"):
            db = core.load_database(survey)
        raw = read_kv_config(args.config) if args.config else {}
        cfg = replace(augment.AugmentConfig.from_dict(raw), seed=args.seed)
        profile = localize.desk_profile()
        with span("pipeline.temporal_split"):
            db_train, db_test = pipeline.temporal_split(db, 0.7, args.train_scans)
        coords = pipeline.database_coordinates(db)
        with span("preprocess.vectorize_database"):
            test_vectors = preprocess.vectorize_database(db_test)
            base_vectors = preprocess.vectorize_database(db_train)
        fits, vae_models = {}, {}
        if cfg.sampling_enabled:
            with span("distfit.fit_database"):
                fits = distfit.fit_database(db_train)
        if cfg.vae_enabled:
            with span("vae.train_location_vaes"):
                vae_models = augment.train_location_vaes(db_train, cfg)
        with span("augment.augment_all"):
            aug_vectors, counts = augment.augment_all(
                db_train, cfg, fits or None, vae_models or None)
        tracer.caller = "localize"
        with span("localize.train_base"):
            model_without = localize.train_localizer(base_vectors, profile, coords, args.seed)
        with span("localize.train_aug"):
            model_with = localize.train_localizer(aug_vectors, profile, coords, args.seed)
        tracer.caller = None
        with span("localize.evaluate"):
            report_without = localize.evaluate(model_without, test_vectors)
            report_with = localize.evaluate(model_with, test_vectors)
        with span("localize.report"):
            write_report(report_without, out_dir / "compare_without.json")
            write_report(report_with, out_dir / "compare_with.json")
        values["localize.train_vectors"] = len(base_vectors) + len(aug_vectors)
    total_s = time.perf_counter() - t_run + processes * import_s

    seconds, counts_nn = tracer.seconds, tracer.counts
    for name in ("vae.train_location_vaes", "localize.train_base", "localize.train_aug",
                 "distfit.fit_database", "augment.augment_all", "core.load_database",
                 "preprocess.vectorize_database", "pipeline.temporal_split",
                 "localize.evaluate", "localize.report", "testbed.generate",
                 "core.save_database"):
        values[f"{name}_s"] = seconds[name]
    values["cli.import_s"] = import_s
    values.setdefault("localize.train_vectors", 0)

    vae_steps = counts_nn["nn.vae.sgd_step"] // 2  # one encoder and one decoder update
    values["vae.models"] = len(vae_models)
    values["vae.sgd_steps"] = vae_steps
    values["vae.step_us"] = 1e6 * seconds["vae.train_location_vaes"] / vae_steps if vae_steps else 0.0
    values["vae.final_loss_median"] = (
        statistics.median(m.trace[-1] for m in vae_models.values()) if vae_models else 0.0)
    loc_steps = counts_nn["nn.localize.sgd_step"]
    values["localize.sgd_steps"] = loc_steps
    train_s = seconds["localize.train_base"] + seconds["localize.train_aug"]
    values["localize.step_us"] = 1e6 * train_s / loc_steps if loc_steps else 0.0
    for caller in ("vae", "localize"):
        for kind in ("forward", "backward", "sgd_step"):
            values[f"nn.{caller}.{kind}_s"] = seconds[f"nn.{caller}.{kind}_s"]
        values[f"nn.{caller}.calls"] = counts_nn[f"nn.{caller}.calls"]
        values[f"nn.{caller}.gflop_computed"] = counts_nn[f"nn.{caller}.flops"] / 1e9

    winners = [fit.family for per_tower in fits.values() for fit in per_tower.values()]
    values["distfit.fits"] = len(winners)
    for family in FAMILIES:
        values[f"distfit.{family}"] = winners.count(family)
    values["augment.vectors_out"] = sum(counts.values())
    for technique in TECHNIQUES:
        values[f"augment.{technique}"] = counts.get(technique, 0)

    print(json.dumps({
        "metrics": values,
        "percentiles": {
            "aug": [report_with.p25, report_with.p50, report_with.p75],
            "base": [report_without.p25, report_without.p50, report_without.p75],
        },
        "total_s": total_s,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
