"""End-to-end orchestration: split, augment, train with and without
augmentation on identical splits and seeds, evaluate on the identical test
set, and report the improvement. The augmenters and the localizer load on
first use, so that a split alone loads neither."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .core import SCAN_ARRAYS, FingerprintDatabase
from .preprocess import vectorize_database
from .util import ConfigError, TrainingDiverged

if TYPE_CHECKING:
    from .augment import AugmentConfig
    from .localize import ErrorReport, HyperProfile


def temporal_split(
    db: FingerprintDatabase,
    train_fraction: float = 0.7,
    train_scans: int | None = None,
) -> tuple[FingerprintDatabase, FingerprintDatabase]:
    """Per-location temporal split: the earliest scans train, the rest test.

    Scans are ordered by timestamp (stable, so equal timestamps keep their
    file order) before the cut. train_scans overrides the fraction with a
    fixed per-location count.
    Both views keep the parent's tower universe and locations so feature
    indexing is identical on both sides; the augmenters must only ever see
    the first view. A fraction outside (0, 1) or a cut that leaves a location
    no train or no test scan is a ConfigError.
    """
    if train_scans is None and not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1): {train_fraction}")
    n = db.scan_counts.tolist()
    cut = [train_scans if train_scans is not None else max(1, int(k * train_fraction)) for k in n]
    for loc_id, k, c in zip(db.location_ids.tolist(), n, cut):
        if not (0 < c < k):
            raise ConfigError(f"location {loc_id}: cannot split {k} scans into {c} train + {k - c} test")
    order = np.lexsort((db.timestamps, db.scan_location))
    rank = np.arange(order.size) - np.repeat(np.cumsum(n) - n, n)
    train = rank < np.repeat(cut, n)

    def view(rows):
        return replace(db, **{name: getattr(db, name)[rows] for name in SCAN_ARRAYS})
    return view(order[train]), view(order[~train])


@dataclass(frozen=True)
class ComparisonResult:
    """Reports of the augmented and non-augmented models on one test set."""

    without_augmentation: ErrorReport
    with_augmentation: ErrorReport
    improvement_percent: dict[str, float | str]
    augmented_counts: dict[str, int]
    n_train_scans: int
    n_test_scans: int


def database_coordinates(db: FingerprintDatabase) -> dict[int, tuple[float, float]]:
    return dict(zip(db.location_ids.tolist(), map(tuple, db.coordinates.tolist())))


def _train_stage(stage, samples, profile, coords, seed):
    from .localize import train_localizer

    try:
        return train_localizer(samples, profile, coords, seed=seed)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{stage}: {exc}", exc.trace) from exc


def run_comparison(
    db: FingerprintDatabase,
    cfg: AugmentConfig,
    profile: HyperProfile,
    train_fraction: float = 0.7,
    train_scans: int | None = None,
) -> ComparisonResult:
    """Train twice on the identical split and seed, once with augmentation.

    The split comes first, so a bad one fails before any augmentation. The
    augmenters run on the training split only; cfg.seed seeds them and both
    trainings. Both models are evaluated on the identical held-out scans.
    """
    from .augment import augment_all
    from .localize import evaluate, improvement

    db_train, db_test = temporal_split(db, train_fraction, train_scans)
    coords = database_coordinates(db)
    test_set = vectorize_database(db_test)

    baseline_set = vectorize_database(db_train)
    try:
        augmented_set, counts = augment_all(db_train, cfg)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"augmentation stage: {exc}", exc.trace) from exc

    # Drop each training set once its model is trained, which lowers the peak memory.
    model_without = _train_stage("baseline training", baseline_set, profile, coords, cfg.seed)
    del baseline_set
    model_with = _train_stage("augmented training", augmented_set, profile, coords, cfg.seed)
    del augmented_set

    report_without = evaluate(model_without, test_set)
    report_with = evaluate(model_with, test_set)
    return ComparisonResult(
        without_augmentation=report_without,
        with_augmentation=report_with,
        improvement_percent=improvement(report_with, report_without),
        augmented_counts=counts,
        n_train_scans=len(db_train.timestamps),
        n_test_scans=len(test_set),
    )
