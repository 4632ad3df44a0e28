"""Command-line pipeline: synth, preprocess, fit-dist, augment, train,
evaluate, compare.

Exit codes: 0 success, 1 runtime failure (running out of memory among
them), 2 configuration or input error (a missing path, a directory, or
an output path that names an input or another output among them). main
checks the path arguments every command declares before the command runs,
so an unusable output exits 2 before any work. All randomness flows from
one master seed (--seed overrides the config seed), so reports are
byte-reproducible. Each command imports the modules it runs when it runs,
so that `synth`, say, loads no training code.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import DatabaseFormatError, load_database, save_database, sidecar_path
from .util import ConfigError, ModelFormatError, TrainingDiverged, apply_config, read_kv_config

if TYPE_CHECKING:
    from .augment import AugmentConfig
    from .localize import HyperProfile
    from .preprocess import SampleSet

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
# The path arguments a command may declare, by dest; every command has --out.
INPUTS = ("database", "model", "config")
OUTPUTS = ("out", "report", "manifest")


def _read_config(args) -> tuple[AugmentConfig, dict[str, str]]:
    """The augmentation config of --config, with --seed applied, and its
    profile.* keys, which only train and compare read."""
    from .augment import AugmentConfig

    raw = read_kv_config(args.config) if args.config else {}
    profile_raw = {k: v for k, v in raw.items() if k.startswith("profile.")}
    cfg = AugmentConfig.from_dict({k: v for k, v in raw.items() if k not in profile_raw})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, profile_raw


def _resolve_profile(kind: str, profile_raw: dict[str, str]) -> HyperProfile:
    from .localize import HyperProfile, default_profile, desk_profile

    if kind != "custom":
        if profile_raw:
            raise ConfigError("profile.* overrides require --profile custom")
        return default_profile(kind)
    # profile.<field> overrides a HyperProfile field of the desk profile
    keys = {f"profile.{f.name}": f.name for f in dataclasses.fields(HyperProfile)}
    return apply_config(desk_profile(), keys, profile_raw, "profile")


def _check_paths(args) -> None:
    """Refuse an input that is a directory, and an output that is one, lies
    in none, or would overwrite an input, another output or the database's
    sidecar, which reading the database writes (an input there too); set
    args.csvs, the CDF CSVs beside --out, `<stem><suffix>.cdf.csv` for each
    declared suffix. os.path.realpath, unlike Path.resolve, does not raise on a symlink loop."""
    def named(dests):
        return [(dest if dest in ("database", "model") else f"--{dest}", value)
                for dest in dests if (value := getattr(args, dest, None))]

    def check(label, path):
        parent = os.path.dirname(path) or "."
        code = errno.EISDIR if os.path.isdir(path) else None
        if code is None and not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        if code:  # the error the write would raise
            raise OSError(code, os.strerror(code), str(path))
        claim(label, path)

    def claim(label, path):
        earlier = seen.setdefault(os.path.realpath(path), label)
        if earlier != label:
            raise ConfigError(f"{label} would overwrite {earlier}: {path}")

    for _, path in named(INPUTS):
        if os.path.isdir(path):  # the error the read would raise
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    seen = {os.path.realpath(path): label for label, path in named(INPUTS)}
    if getattr(args, "database", None):
        claim("database's cache", sidecar_path(args.database))
    check("--out", args.out)  # first, as a directory such as `.` names no CSV
    out = Path(args.out)
    args.csvs = [out.with_name(f"{out.stem}{suffix}.cdf.csv")
                 for suffix in getattr(args, "csv_suffixes", ())]
    for label, path in [("--out's CSV", csv) for csv in args.csvs] + named(OUTPUTS[1:]):
        check(label, path)


def _write_json(path: str | Path, payload) -> None:
    """Write payload as indented, strict JSON (a NaN or infinity raises
    ValueError); an ErrorReport in it needs localize.json_text instead."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _write_vectors(path: str | Path, samples: SampleSet) -> None:
    lines = [json.dumps({"towers": list(samples.towers)})]
    lines += [
        json.dumps({"label": label, "values": row})
        for label, row in zip(samples.labels.tolist(), samples.x.tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_synth(args) -> int:
    from .testbed import default_desk_spec, generate, spec_from_file

    spec = spec_from_file(args.config) if args.config else default_desk_spec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    db = generate(spec)
    save_database(db, args.out)
    print(f"wrote {len(db.location_ids)} locations, {db.n_towers} towers -> {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    from .preprocess import vectorize_database

    db = load_database(args.database)
    samples = vectorize_database(db)
    _write_vectors(args.out, samples)
    print(f"wrote {len(samples)} vectors of length {db.n_towers} -> {args.out}")
    return EXIT_OK


def cmd_fit_dist(args) -> int:
    from .distfit import fit_database

    db = load_database(args.database)
    fits = fit_database(db)
    payload = {
        "locations": {
            str(loc_id): {
                tower: {
                    "family": fit.family,
                    "params": list(fit.params),
                    # null for a point mass, whose likelihood is infinite
                    "log_likelihood": fit.log_likelihood if math.isfinite(fit.log_likelihood) else None,
                    "n": fit.sample_count,
                }
                for tower, fit in per_tower.items()
            }
            for loc_id, per_tower in sorted(fits.items())
        }
    }
    _write_json(args.out, payload)
    n_fits = sum(len(p) for p in fits.values())
    print(f"fitted {n_fits} (location, tower) distributions -> {args.out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    from .augment import augment_all
    from .pipeline import temporal_split

    db = load_database(args.database)
    cfg, _ = _read_config(args)
    db_train, _ = temporal_split(db, args.train_fraction, args.train_scans)
    samples, counts = augment_all(db_train, cfg)
    _write_vectors(args.out, samples)
    report = {"counts": counts, "total": len(samples), "seed": cfg.seed}
    print(json.dumps(report))
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def cmd_train(args) -> int:
    from .augment import augment_all
    from .localize import save_model, train_localizer
    from .pipeline import database_coordinates, temporal_split
    from .preprocess import vectorize_database

    db = load_database(args.database)
    cfg, profile_raw = _read_config(args)
    profile = _resolve_profile(args.profile, profile_raw)
    db_train, _ = temporal_split(db, args.train_fraction, args.train_scans)
    if args.no_augment:
        samples = vectorize_database(db_train)
    else:
        samples, counts = augment_all(db_train, cfg)
        print(json.dumps({"counts": counts}))
    model = train_localizer(samples, profile, database_coordinates(db), seed=cfg.seed)
    save_model(model, args.out)
    print(f"trained on {len(samples)} vectors -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .localize import evaluate, json_text, load_model
    from .pipeline import temporal_split
    from .preprocess import vectorize_database

    model = load_model(args.model)
    db = load_database(args.database)
    unknown = sorted(set(db.tower_universe) - set(model.towers))
    if unknown:
        raise ConfigError(f"{args.database}: towers unknown to the model: {', '.join(unknown)}")
    model_xy = [model.coords.get(loc, (np.nan, np.nan)) for loc in db.location_ids.tolist()]
    wrong = db.location_ids[np.any(np.reshape(model_xy, (-1, 2)) != db.coordinates, axis=1)]
    if wrong.size:
        raise ConfigError(f"{args.database}: locations unknown to the model or at other "
                          f"coordinates: {', '.join(map(str, wrong.tolist()))}")
    _, db_test = temporal_split(db, args.train_fraction, args.train_scans)
    report = evaluate(model, vectorize_database(db_test, model.towers))
    Path(args.out).write_text(json_text(report), encoding="utf-8")
    args.csvs[0].write_text(report.cdf_csv(), encoding="utf-8")
    print(f"p50 = {report.p50:.3f} m over {report.errors.size} samples -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .localize import json_text
    from .pipeline import run_comparison

    out = Path(args.out)
    t0 = time.monotonic()
    db = load_database(args.database)
    cfg, profile_raw = _read_config(args)
    profile = _resolve_profile(args.profile, profile_raw)
    t_load = time.monotonic()

    result = run_comparison(db, cfg, profile, args.train_fraction, args.train_scans)
    t_run = time.monotonic()

    payload = {  # json_text writes each report as its to_dict()
        "seed": cfg.seed,
        "profile": dataclasses.asdict(profile),
        "without_augmentation": result.without_augmentation,
        "with_augmentation": result.with_augmentation,
        "improvement_percent": result.improvement_percent,
        "augmented_counts": result.augmented_counts,
        "n_train_scans": result.n_train_scans,
        "n_test_scans": result.n_test_scans,
    }
    out.write_text(json_text(payload), encoding="utf-8")
    for path, report in zip(args.csvs, (result.without_augmentation, result.with_augmentation)):
        path.write_text(report.cdf_csv(), encoding="utf-8")

    if args.manifest:
        manifest = {
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "profile": dataclasses.asdict(profile),
            "split": {"train_fraction": args.train_fraction, "train_scans": args.train_scans},
            "dataset_sizes": {
                "train_scans": result.n_train_scans,
                "test_scans": result.n_test_scans,
                "augmented": result.augmented_counts,
            },
            "timings_s": {
                "load": round(t_load - t0, 3),
                "compare": round(t_run - t_load, 3),
            },
            "outputs": [str(path) for path in [out, *args.csvs]],
        }
        _write_json(args.manifest, manifest)

    gain = result.improvement_percent["p50"]  # "exact" where the augmented median is 0
    gain = gain if isinstance(gain, str) else f"{gain:.1f}%"
    print(f"median error: without {result.without_augmentation.p50:.3f} m, "
          f"with {result.with_augmentation.p50:.3f} m (improvement {gain})")
    return EXIT_OK


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-fraction", type=float, default=0.7,
                   help="per-location fraction of scans used for training (default 0.7)")
    p.add_argument("--train-scans", type=int, default=None,
                   help="fixed per-location training scan count (overrides the fraction)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellaug",
        description="Augment small RSS fingerprint surveys and measure the localization gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fingerprint database")
    p.add_argument("--config", help="testbed spec file (key = value); default: built-in desk testbed")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="vectorize a database to normalized feature vectors")
    p.add_argument("database")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-dist", help="fit per-(location, tower) RSS distributions")
    p.add_argument("database")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_dist)

    p = sub.add_parser("augment", help="augment the training split of a database")
    p.add_argument("database")
    p.add_argument("--config", help="augmentation config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write the counts report to this path")
    _add_split_flags(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train the localizer (augmented unless --no-augment)")
    p.add_argument("database")
    p.add_argument("--config", help="augmentation + profile config file")
    p.add_argument("--profile", default="custom", choices=["indoor", "outdoor", "custom"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--no-augment", action="store_true")
    _add_split_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test split")
    p.add_argument("model")
    p.add_argument("database")
    p.add_argument("--out", required=True)
    _add_split_flags(p)
    p.set_defaults(func=cmd_evaluate, csv_suffixes=("",))

    p = sub.add_parser("compare", help="train with and without augmentation, report both")
    p.add_argument("database")
    p.add_argument("--config", help="augmentation + profile config file")
    p.add_argument("--profile", default="custom", choices=["indoor", "outdoor", "custom"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="write the run manifest (config, sizes, timings) here")
    _add_split_flags(p)
    p.set_defaults(func=cmd_compare, csv_suffixes=("_without", "_with"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (ConfigError, DatabaseFormatError, ModelFormatError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"error: training stage failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        # a bare MemoryError() has no text, so its name stands in for one
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
