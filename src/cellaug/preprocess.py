"""Turn raw ASU scans into fixed-length normalized feature vectors.

ASU readings (0..31) are normalized to [0, 1] by dividing by 31; towers not
heard in a scan get feature value 0. The dBm conversion is exposed for
reference and diagnostics; the learning pipeline runs on normalized ASU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ASU_MAX, ASU_MIN, FingerprintDatabase, TowerId


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Labeled samples as rows: an (n, m) matrix of normalized RSS, an (n,)
    array of location ids, and the m tower ids its columns are aligned to."""

    x: np.ndarray
    labels: np.ndarray
    towers: tuple[TowerId, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "towers", tuple(self.towers))
        if self.x.ndim != 2 or self.x.shape[1] != len(self.towers):
            raise ValueError(f"expected an (n, {len(self.towers)}) matrix, got {self.x.shape}")
        if self.labels.shape != (self.x.shape[0],):
            raise ValueError(f"expected {self.x.shape[0]} labels, got {self.labels.shape}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return (self.towers == other.towers and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.x, other.x))

    def __len__(self) -> int:
        return self.x.shape[0]


def _check_asu(asu: int) -> int:
    asu = int(asu)
    if not (ASU_MIN <= asu <= ASU_MAX):
        raise ValueError(f"ASU out of range: {asu}")
    return asu


def asu_to_dbm(asu: int) -> int:
    """Convert an ASU reading to dBm: dBm = 2 * ASU - 113."""
    return 2 * _check_asu(asu) - 113


def normalize_asu(asu: int) -> float:
    """Map an ASU reading onto [0, 1] using the fixed unit range 0..31."""
    return _check_asu(asu) / ASU_MAX


def vectorize(
    db: FingerprintDatabase, towers: tuple[TowerId, ...] | None = None
) -> tuple[SampleSet, np.ndarray]:
    """One row per scan, in (location, scan) order, plus the heard mask.

    Columns follow ``towers`` (default: the database's universe); entry j
    holds the normalized ASU of towers[j] if heard, else 0. ASU 0 and
    "unheard" collide at feature value 0, so augmenters that care about
    heard-set structure read the boolean (n, m) mask instead of the values.
    """
    towers = db.tower_universe if towers is None else tuple(towers)
    index = {tower: j for j, tower in enumerate(towers)}
    n = sum(len(loc.scans) for loc in db.locations)
    x = np.zeros((n, len(towers)), dtype=np.float64)
    heard = np.zeros((n, len(towers)), dtype=bool)
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for loc in db.locations:
        for scan in loc.scans:
            for tower, asu in scan.readings:
                if tower not in index:
                    raise ValueError(f"unknown tower in scan: {tower}")
                x[row, index[tower]] = normalize_asu(asu)
                heard[row, index[tower]] = True
            labels[row] = loc.location_id
            row += 1
    return SampleSet(x, labels, towers), heard


def vectorize_database(
    db: FingerprintDatabase, towers: tuple[TowerId, ...] | None = None
) -> SampleSet:
    """The rows of :func:`vectorize` without the heard mask."""
    return vectorize(db, towers)[0]


def location_blocks(db: FingerprintDatabase):
    """Each location with its scans' rows and heard mask, in database order."""
    samples, heard = vectorize(db)
    start = 0
    for loc in db.locations:
        stop = start + len(loc.scans)
        yield loc, samples.x[start:stop], heard[start:stop]
        start = stop
