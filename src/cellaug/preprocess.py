"""Turn raw ASU scans into fixed-length normalized feature vectors.

ASU readings (0..31) are normalized to [0, 1] by dividing by 31; towers not
heard in a scan get feature value 0. A FingerprintDatabase holds only an
ASU in range where heard and 0 elsewhere, so vectorize divides without
checking again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ASU_MAX, FingerprintDatabase, TowerId


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


def vectorize(
    db: FingerprintDatabase, towers: tuple[TowerId, ...] | None = None
) -> tuple[SampleSet, np.ndarray]:
    """One row per scan, in (location, scan) order, plus the heard mask.

    Columns follow ``towers`` (default: the database's universe); entry j
    holds the normalized ASU of towers[j] if heard, else 0. A heard ASU 0
    also reads 0, so augmenters that care about heard-set structure read
    the boolean (n, m) mask instead of the values.
    """
    towers = db.tower_universe if towers is None else tuple(towers)
    index = {tower: j for j, tower in enumerate(towers)}
    heard = db.heard
    for tower, used in zip(db.tower_universe, np.any(heard, axis=0).tolist()):
        if used and tower not in index:
            raise ValueError(f"unknown tower in scan: {tower}")
    src = [j for j, tower in enumerate(db.tower_universe) if tower in index]
    dst = [index[db.tower_universe[j]] for j in src]
    x = np.zeros((len(heard), len(towers)))
    out_heard = np.zeros(x.shape, dtype=bool)
    x[:, dst] = db.asu[:, src] / ASU_MAX  # 0 where unheard, as the database holds
    out_heard[:, dst] = heard[:, src]
    return SampleSet(x, db.location_ids[db.scan_location], towers), out_heard


def vectorize_database(
    db: FingerprintDatabase, towers: tuple[TowerId, ...] | None = None
) -> SampleSet:
    """The rows of :func:`vectorize` without the heard mask."""
    return vectorize(db, towers)[0]


def location_blocks(db: FingerprintDatabase):
    """(location_id, rows, heard mask) for each location in database order,
    slices of one :func:`vectorize`."""
    samples, heard = vectorize(db)
    cuts = np.cumsum(db.scan_counts)[:-1]
    return zip(db.location_ids.tolist(), np.split(samples.x, cuts), np.split(heard, cuts))
