"""Domain types for cellular RSS fingerprints and their on-disk format.

A fingerprint survey is a set of reference locations, each holding repeated
scans. One scan records up to seven (tower id, ASU) pairs, ASU in [0, 31].
Databases are stored as UTF-8 JSON lines: a header object followed by one
scan per line.

In memory a survey is columnar (FingerprintDatabase): scan rows and reading
matrices. RawScan and ReferenceLocation build small surveys by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

TowerId = str

MAX_READINGS_PER_SCAN = 7
ASU_MIN = 0
ASU_MAX = 31
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class DatabaseFormatError(ValueError):
    """Raised when a fingerprint database file cannot be parsed or validated."""


def _check_readings(raw) -> tuple[tuple[TowerId, int], ...]:
    """One scan's readings as (tower, ASU) pairs, in their given order.

    Raises ValueError for an empty or oversized scan, an empty or repeated
    tower id, or an ASU outside [0, 31].
    """
    readings = tuple((str(t), int(a)) for t, a in raw)
    if len(readings) == 0:
        raise ValueError("empty scan: at least one reading required")
    if len(readings) > MAX_READINGS_PER_SCAN:
        raise ValueError(f"too many readings: {len(readings)} > {MAX_READINGS_PER_SCAN}")
    seen = set()
    for tower, asu in readings:
        if not tower:
            raise ValueError("empty tower id")
        if tower in seen:
            raise ValueError(f"duplicate tower in scan: {tower}")
        seen.add(tower)
        if not (ASU_MIN <= asu <= ASU_MAX):
            raise ValueError(f"ASU out of range: {asu} for tower {tower}")
    return readings


@dataclass(frozen=True)
class RawScan:
    """One cellular scan: a timestamp plus the (tower, ASU) pairs heard."""

    timestamp: int
    readings: tuple[tuple[TowerId, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "readings", _check_readings(self.readings))


@dataclass(frozen=True)
class ReferenceLocation:
    """A surveyed point (indoor) or grid-cell center (outdoor) with its scans."""

    location_id: int
    coordinates: tuple[float, float]
    scans: tuple[RawScan, ...]

    def __post_init__(self):
        object.__setattr__(self, "coordinates", (float(self.coordinates[0]), float(self.coordinates[1])))
        object.__setattr__(self, "scans", tuple(self.scans))
        if len(self.scans) < 1:
            raise ValueError(f"location {self.location_id} has no scans")


# The per-scan arrays of FingerprintDatabase, with their dtypes.
SCAN_ARRAYS = {"scan_location": np.intp, "timestamps": np.int64, "asu": np.int8, "position": np.int8}


@dataclass(frozen=True, eq=False)
class FingerprintDatabase:
    """A full survey as arrays: n scans, m towers, L locations.

    - ``tower_universe``: m sorted tower ids, one per matrix column.
    - ``location_ids`` (L,), ascending, and their ``coordinates`` (L, 2).
    - ``scan_location`` (n,): each scan's index into ``location_ids``. Scans
      are grouped by location in location order; every location has one.
    - ``timestamps`` (n,).
    - ``asu`` (n, m): the ASU of each reading, 0 where the tower is unheard.
    - ``position`` (n, m): each reading's index in its scan's reading list,
      -1 where the tower is unheard, so ``position >= 0`` is the heard mask.

    Loading or from_locations gives a universe of exactly the towers heard
    in some scan; split views keep their parent's.
    """

    tower_universe: tuple[TowerId, ...]
    location_ids: np.ndarray
    coordinates: np.ndarray
    scan_location: np.ndarray
    timestamps: np.ndarray
    asu: np.ndarray
    position: np.ndarray
    testbed: str = "unnamed"
    grid_cell_m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tower_universe", tuple(self.tower_universe))
        for name, dtype in {"location_ids": np.int64, "coordinates": np.float64, **SCAN_ARRAYS}.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if list(self.tower_universe) != sorted(set(self.tower_universe)):
            raise ValueError("tower_universe must be sorted and duplicate-free")
        if np.any(np.diff(self.location_ids) <= 0):
            raise ValueError("location ids must ascend, with no duplicate location_id")
        n, m, n_locations = len(self.timestamps), self.n_towers, len(self.location_ids)
        for name, shape in (("coordinates", (n_locations, 2)), ("scan_location", (n,)),
                            ("asu", (n, m)), ("position", (n, m))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if np.any(np.diff(self.scan_location) < 0) or not np.array_equal(
                np.unique(self.scan_location), np.arange(n_locations)):
            raise ValueError("scans must be grouped by location in location order, each with one")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FingerprintDatabase):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def n_towers(self) -> int:
        return len(self.tower_universe)

    @property
    def heard(self) -> np.ndarray:
        """(n, m) mask of the towers each scan heard."""
        return self.position >= 0

    @property
    def scan_counts(self) -> np.ndarray:
        """(L,) number of scans at each location."""
        return np.bincount(self.scan_location, minlength=len(self.location_ids))


def _assemble(location_ids, coordinates, scan_ids, timestamps, towers, asus, counts,
              testbed: str, grid_cell_m: float) -> FingerprintDatabase:
    """The database of locations at `coordinates` and of scans in file order:
    scan i at location scan_ids[i] owns the next counts[i] entries of the
    flat per-reading lists `towers` and `asus`. Rows are sorted stably by
    location."""
    universe = sorted(set(towers))
    column = {tower: j for j, tower in enumerate(universe)}
    counts = np.array(counts, dtype=np.intp)
    row = np.repeat(np.arange(len(counts)), counts)
    cols = np.array([column[tower] for tower in towers], dtype=np.intp)
    asu = np.zeros((len(counts), len(universe)), dtype=np.int8)
    position = np.full(asu.shape, -1, dtype=np.int8)
    asu[row, cols] = asus
    position[row, cols] = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]

    ids = np.array(location_ids, dtype=np.int64)
    by_id = np.argsort(ids, kind="stable")
    scan_location = np.searchsorted(ids[by_id], np.array(scan_ids, dtype=np.int64))
    rows = np.argsort(scan_location, kind="stable")
    return FingerprintDatabase(
        tuple(universe), ids[by_id], np.reshape(coordinates, (-1, 2))[by_id], scan_location[rows],
        np.array(timestamps, dtype=np.int64)[rows], asu[rows], position[rows],
        testbed=testbed, grid_cell_m=grid_cell_m,
    )


def from_locations(
    locations: list[ReferenceLocation] | tuple[ReferenceLocation, ...],
    testbed: str = "unnamed",
    grid_cell_m: float = 1.0,
) -> FingerprintDatabase:
    """Build a database whose universe is exactly the towers heard anywhere."""
    scans = [(loc.location_id, scan) for loc in locations for scan in loc.scans]
    readings = [reading for _, scan in scans for reading in scan.readings]
    return _assemble(
        [loc.location_id for loc in locations], [loc.coordinates for loc in locations],
        [loc_id for loc_id, _ in scans], [scan.timestamp for _, scan in scans],
        [t for t, _ in readings], [a for _, a in readings],
        [len(scan.readings) for _, scan in scans], testbed, grid_cell_m,
    )


def _int64(value, key: str) -> int:
    value = int(value)
    if not (INT64_MIN <= value <= INT64_MAX):
        raise ValueError(f"{key} outside int64: {value}")
    return value


def load_database(path: str | Path) -> FingerprintDatabase:
    """Load a JSON-lines fingerprint database.

    Line 1 is a header ``{"testbed": str, "grid_cell_m": number}``; every
    further line is one scan ``{"loc", "x", "y", "ts", "readings"}``, with
    ``loc`` and ``ts`` in int64. Each line is checked as it is parsed.
    Locations come out sorted by id, scans in file order within each.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as lines:
        return _parse(path, lines)


def _parse(path: Path, lines) -> FingerprintDatabase:
    """The database in `lines`, the open file at `path`, read line by line."""
    first = next(lines, "")
    if not first.strip():
        raise DatabaseFormatError(f"{path}: no locations (empty file)")

    try:
        header = json.loads(first)
        testbed = str(header["testbed"])
        grid_cell_m = float(header["grid_cell_m"])
        if not math.isfinite(grid_cell_m):
            raise ValueError(f"non-finite grid_cell_m: {grid_cell_m}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(f"{path}: line 1: bad header: {exc}") from exc

    coords_by_loc: dict[int, tuple[float, float]] = {}
    scan_ids: list[int] = []
    timestamps: list[int] = []
    towers: list[TowerId] = []
    asus: list[int] = []
    counts: list[int] = []
    for lineno, raw in enumerate(lines, start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            loc_id = _int64(rec["loc"], "loc")
            xy = (float(rec["x"]), float(rec["y"]))
            if not all(map(math.isfinite, xy)):
                raise ValueError(f"non-finite coordinates: {xy}")
            ts = _int64(rec["ts"], "ts")
            readings = _check_readings(rec["readings"])
        except (json.JSONDecodeError, KeyError, TypeError, IndexError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: malformed scan: {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: {exc}") from exc
        if coords_by_loc.setdefault(loc_id, xy) != xy:
            raise DatabaseFormatError(
                f"{path}: line {lineno}: conflicting coordinates for location {loc_id}"
            )
        scan_ids.append(loc_id)
        timestamps.append(ts)
        towers.extend(t for t, _ in readings)
        asus.extend(a for _, a in readings)
        counts.append(len(readings))

    if not coords_by_loc:
        raise DatabaseFormatError(f"{path}: no locations")
    return _assemble(list(coords_by_loc), list(coords_by_loc.values()), scan_ids, timestamps,
                     towers, asus, counts, testbed, grid_cell_m)


def save_database(db: FingerprintDatabase, path: str | Path) -> None:
    """Write a database in the JSON-lines format, each scan's readings in
    their original order. load(save(db)) == db."""
    path = Path(path)
    lines = [json.dumps({"testbed": db.testbed, "grid_cell_m": db.grid_cell_m})]
    ids, coords = db.location_ids.tolist(), db.coordinates.tolist()
    m = db.n_towers
    # Unheard columns (position -1) sort first; a scan's k readings are the last k.
    by_position = np.argsort(db.position, axis=1).tolist()
    rows = zip(db.scan_location.tolist(), db.timestamps.tolist(), db.asu.tolist(),
               by_position, np.sum(db.heard, axis=1).tolist())
    for loc, ts, asu, order, k in rows:
        x, y = coords[loc]
        readings = [[db.tower_universe[j], asu[j]] for j in order[m - k:]]
        lines.append(json.dumps({"loc": ids[loc], "x": x, "y": y, "ts": ts, "readings": readings}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def heard_count_histogram(heard: np.ndarray) -> dict[int, float]:
    """Probability of hearing exactly k towers in one scan, from one
    location's (scans, towers) heard mask."""
    k, count = np.unique(np.sum(heard, axis=1), return_counts=True)
    return {int(a): c / len(heard) for a, c in zip(k.tolist(), count.tolist())}
