"""Command-line pipeline: synth, preprocess, fit-dist, augment, train,
evaluate, compare.

Exit codes: 0 success, 1 runtime failure, 2 configuration error. All
randomness flows from one master seed (--seed overrides the config seed),
so reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, augment_all
from .core import DatabaseFormatError, FingerprintDatabase, load_database, save_database
from .distfit import fit_database
from .localize import (
    HyperProfile,
    ModelFormatError,
    default_profile,
    desk_profile,
    evaluate,
    load_model,
    save_model,
    train_localizer,
)
from .nn import TrainingDiverged
from .pipeline import database_coordinates, run_comparison, temporal_split
from .preprocess import SampleSet, vectorize_database
from .testbed import default_desk_spec, generate, spec_from_file
from .util import ConfigError, read_kv_config

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _split_config(path: str | None) -> tuple[dict[str, str], dict[str, str]]:
    """Separate profile.* keys from augmentation keys in one config file."""
    if path is None:
        return {}, {}
    raw = read_kv_config(path)
    profile_raw = {k: v for k, v in raw.items() if k.startswith("profile.")}
    aug_raw = {k: v for k, v in raw.items() if not k.startswith("profile.")}
    return aug_raw, profile_raw


def _resolve_profile(kind: str, profile_raw: dict[str, str]) -> HyperProfile:
    if kind in ("indoor", "outdoor"):
        if profile_raw:
            raise ConfigError("profile.* overrides require --profile custom")
        return default_profile(kind)
    if kind != "custom":
        raise ConfigError(f"unknown profile: {kind}")
    # profile.<field> overrides a HyperProfile field, parsed as the desk value's type
    base = desk_profile()
    names = {f.name for f in dataclasses.fields(HyperProfile)}
    overrides = {}
    for key, value in profile_raw.items():
        name = key.removeprefix("profile.")
        if name not in names:
            raise ConfigError(f"unknown profile config key: {key}")
        try:
            overrides[name] = type(getattr(base, name))(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_aug_config(aug_raw: dict[str, str], seed: int | None) -> AugmentConfig:
    cfg = AugmentConfig.from_dict(aug_raw)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _split_db(db: FingerprintDatabase, args):
    """Split per the CLI flags; bad split parameters are config errors."""
    try:
        return temporal_split(db, args.train_fraction, args.train_scans)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_vectors(path: str | Path, samples: SampleSet) -> None:
    lines = [json.dumps({"towers": list(samples.towers)})]
    lines += [
        json.dumps({"label": label, "values": row})
        for label, row in zip(samples.labels.tolist(), samples.x.tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_synth(args) -> int:
    spec = spec_from_file(args.config) if args.config else default_desk_spec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    db = generate(spec)
    save_database(db, args.out)
    print(f"wrote {len(db.location_ids)} locations, {db.n_towers} towers -> {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    db = load_database(args.database)
    samples = vectorize_database(db)
    _write_vectors(args.out, samples)
    print(f"wrote {len(samples)} vectors of length {db.n_towers} -> {args.out}")
    return EXIT_OK


def cmd_fit_dist(args) -> int:
    db = load_database(args.database)
    fits = fit_database(db)
    payload = {
        "locations": {
            str(loc_id): {
                tower: {
                    "family": fit.family,
                    "params": list(fit.params),
                    "log_likelihood": fit.log_likelihood,
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
    db = load_database(args.database)
    aug_raw, _ = _split_config(args.config)  # profile.* keys belong to train/compare
    cfg = _resolve_aug_config(aug_raw, args.seed)
    db_train, _ = _split_db(db, args)
    samples, counts = augment_all(db_train, cfg)
    _write_vectors(args.out, samples)
    report = {"counts": counts, "total": len(samples), "seed": cfg.seed}
    print(json.dumps(report))
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def cmd_train(args) -> int:
    db = load_database(args.database)
    aug_raw, profile_raw = _split_config(args.config)
    profile = _resolve_profile(args.profile, profile_raw)
    cfg = _resolve_aug_config(aug_raw, args.seed)
    seed = cfg.seed
    db_train, _ = _split_db(db, args)
    if args.no_augment:
        samples = vectorize_database(db_train)
    else:
        samples, counts = augment_all(db_train, cfg)
        print(json.dumps({"counts": counts}))
    model = train_localizer(samples, profile, database_coordinates(db), seed=seed)
    save_model(model, args.out)
    print(f"trained on {len(samples)} vectors -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
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
    _, db_test = _split_db(db, args)
    report = evaluate(model, vectorize_database(db_test, model.towers))
    _write_json(args.out, report.to_dict())
    csv_path = Path(args.out).with_suffix(".cdf.csv")
    csv_path.write_text(report.cdf_csv(), encoding="utf-8")
    print(f"p50 = {report.p50:.3f} m over {report.errors.size} samples -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    t0 = time.monotonic()
    db = load_database(args.database)
    aug_raw, profile_raw = _split_config(args.config)
    profile = _resolve_profile(args.profile, profile_raw)
    cfg = _resolve_aug_config(aug_raw, args.seed)
    _split_db(db, args)  # validate split flags before the heavy stages
    t_load = time.monotonic()

    result = run_comparison(
        db, cfg, profile, seed=cfg.seed,
        train_fraction=args.train_fraction, train_scans=args.train_scans,
    )
    t_run = time.monotonic()

    payload = {"seed": cfg.seed, "profile": dataclasses.asdict(profile)}
    payload.update(result.to_dict())
    _write_json(args.out, payload)

    out = Path(args.out)
    csv_without = out.with_name(out.stem + "_without.cdf.csv")
    csv_with = out.with_name(out.stem + "_with.cdf.csv")
    csv_without.write_text(result.without_augmentation.cdf_csv(), encoding="utf-8")
    csv_with.write_text(result.with_augmentation.cdf_csv(), encoding="utf-8")

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
            "outputs": [str(out), str(csv_without), str(csv_with)],
        }
        _write_json(args.manifest, manifest)

    print(
        "median error: without {:.3f} m, with {:.3f} m (improvement {})".format(
            result.without_augmentation.p50,
            result.with_augmentation.p50,
            _fmt_improvement(result.improvement_percent["p50"]),
        )
    )
    return EXIT_OK


def _fmt_improvement(value) -> str:
    return value if isinstance(value, str) else f"{value:.1f}%"


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
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train with and without augmentation, report both")
    p.add_argument("database")
    p.add_argument("--config", help="augmentation + profile config file")
    p.add_argument("--profile", default="custom", choices=["indoor", "outdoor", "custom"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="write the run manifest (config, sizes, timings) here")
    _add_split_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatabaseFormatError, ModelFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"error: training stage failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
