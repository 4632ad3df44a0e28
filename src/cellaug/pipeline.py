"""End-to-end orchestration: split, augment, train with and without
augmentation on identical splits and seeds, evaluate on the identical test
set, and report the improvement."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .augment import AugmentConfig, augment_all
from .core import FingerprintDatabase, ReferenceLocation
from .localize import ErrorReport, HyperProfile, evaluate, improvement, train_localizer
from .nn import TrainingDiverged
from .preprocess import vectorize_database


def temporal_split(
    db: FingerprintDatabase,
    train_fraction: float = 0.7,
    train_scans: int | None = None,
) -> tuple[FingerprintDatabase, FingerprintDatabase]:
    """Per-location temporal split: the earliest scans train, the rest test.

    Scans are ordered by timestamp (stable, so equal timestamps keep their
    file order) before the cut. train_scans overrides the fraction with a
    fixed per-location count.
    Both views keep the parent's tower universe so feature indexing is
    identical on both sides; the augmenters must only ever see the first
    view.
    """
    if train_scans is None and not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1): {train_fraction}")
    train_locs: list[ReferenceLocation] = []
    test_locs: list[ReferenceLocation] = []
    for loc in db.locations:
        n = len(loc.scans)
        cut = train_scans if train_scans is not None else max(1, int(n * train_fraction))
        if not (0 < cut < n):
            raise ValueError(
                f"location {loc.location_id}: cannot split {n} scans into "
                f"{cut} train + {n - cut} test"
            )
        scans = sorted(loc.scans, key=lambda scan: scan.timestamp)
        train_locs.append(replace(loc, scans=scans[:cut]))
        test_locs.append(replace(loc, scans=scans[cut:]))
    def view(locs):
        return FingerprintDatabase(
            tower_universe=db.tower_universe, locations=tuple(locs),
            testbed=db.testbed, grid_cell_m=db.grid_cell_m,
        )
    return view(train_locs), view(test_locs)


@dataclass(frozen=True)
class ComparisonResult:
    """Reports of the augmented and non-augmented models on one test set."""

    without_augmentation: ErrorReport
    with_augmentation: ErrorReport
    improvement_percent: dict[str, float | str]
    augmented_counts: dict[str, int]
    n_train_scans: int
    n_test_scans: int

    def to_dict(self) -> dict:
        return {
            "without_augmentation": self.without_augmentation.to_dict(),
            "with_augmentation": self.with_augmentation.to_dict(),
            "improvement_percent": self.improvement_percent,
            "augmented_counts": self.augmented_counts,
            "n_train_scans": self.n_train_scans,
            "n_test_scans": self.n_test_scans,
        }


def database_coordinates(db: FingerprintDatabase) -> dict[int, tuple[float, float]]:
    return {loc.location_id: loc.coordinates for loc in db.locations}


def _train_stage(stage, samples, profile, coords, seed):
    try:
        return train_localizer(samples, profile, coords, seed=seed)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{stage}: {exc}", exc.trace) from exc


def run_comparison(
    db: FingerprintDatabase,
    cfg: AugmentConfig,
    profile: HyperProfile,
    seed: int,
    train_fraction: float = 0.7,
    train_scans: int | None = None,
) -> ComparisonResult:
    """Train twice on the identical split and seed, once with augmentation.

    The augmenters run on the training split only; both models are
    evaluated on the identical held-out scans.
    """
    db_train, db_test = temporal_split(db, train_fraction, train_scans)
    coords = database_coordinates(db)
    test_set = vectorize_database(db_test)

    baseline_set = vectorize_database(db_train)
    try:
        augmented_set, counts = augment_all(db_train, replace(cfg, seed=seed))
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"augmentation stage: {exc}", exc.trace) from exc

    model_without = _train_stage("baseline training", baseline_set, profile, coords, seed)
    model_with = _train_stage("augmented training", augmented_set, profile, coords, seed)

    report_without = evaluate(model_without, test_set)
    report_with = evaluate(model_with, test_set)
    return ComparisonResult(
        without_augmentation=report_without,
        with_augmentation=report_with,
        improvement_percent=improvement(report_with, report_without),
        augmented_counts=counts,
        n_train_scans=len(baseline_set),
        n_test_scans=len(test_set),
    )
