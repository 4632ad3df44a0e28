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
from typing import NoReturn

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
        ids = self.location_ids  # compared, not subtracted, which could wrap
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("location ids must ascend, with no duplicate location_id")
        n, m, n_locations = len(self.timestamps), self.n_towers, len(self.location_ids)
        for name, shape in (("coordinates", (n_locations, 2)), ("scan_location", (n,)),
                            ("asu", (n, m)), ("position", (n, m))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        # Grouped in order with every location present: the indices run from
        # 0 to L - 1 in steps of 0 or 1. (np.unique would load numpy.ma.)
        steps = np.diff(self.scan_location)
        ends = self.scan_location[[0, -1]].tolist() if n else [0, -1]
        if ends != [0, n_locations - 1] or np.any((steps < 0) | (steps > 1)):
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


# The JSON types of a scan record's fields. RawScan coerces, a file may not.
_JSON_TYPES = (("loc", (int,), "integer"), ("x", (int, float), "number"),
               ("y", (int, float), "number"), ("ts", (int,), "integer"))


def _check_scan(rec) -> tuple[int, tuple[float, float]]:
    """The location id and coordinates of one decoded scan record, after
    checking every field. A record of the wrong shape raises KeyError,
    TypeError or IndexError; a bad value raises ValueError or OverflowError
    with its message. The JSON types come last, so that a value the
    coercions already refuse keeps that message."""
    loc_id = _int64(rec["loc"], "loc")
    xy = (float(rec["x"]), float(rec["y"]))
    if not all(map(math.isfinite, xy)):
        raise ValueError(f"non-finite coordinates: {xy}")
    _int64(rec["ts"], "ts")
    _check_readings(rec["readings"])
    for key, types, name in _JSON_TYPES:
        if type(rec[key]) not in types:
            raise ValueError(f"{key} must be a JSON {name}, got {rec[key]!r}")
    for tower, asu in rec["readings"]:
        if type(tower) is not str:
            raise ValueError(f"tower id must be a JSON string, got {tower!r}")
        if type(asu) is not int:
            raise ValueError(f"ASU must be a JSON integer, got {asu!r} for tower {tower}")
    return loc_id, xy


def load_database(path: str | Path) -> FingerprintDatabase:
    """Load a JSON-lines fingerprint database.

    Line 1 is a header ``{"testbed": str, "grid_cell_m": number}``; every
    further non-blank line is one scan ``{"loc", "x", "y", "ts",
    "readings"}``: ``loc``, ``ts`` and each ASU JSON integers, ``loc`` and
    ``ts`` in int64, ``x`` and ``y`` finite JSON numbers, tower ids
    non-empty JSON strings. A malformed file raises DatabaseFormatError
    naming its first bad line. Locations come out sorted by id, scans in
    file order within each.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as file:
            lines = file.readlines()
    except UnicodeDecodeError as exc:  # name the first line that fails a UTF-8 round trip
        lines = path.read_bytes().splitlines()  # at LF, CRLF and CR, as readlines splits
        bad = next(i for i, b in enumerate(lines, 1) if b.decode("utf-8", "replace").encode() != b)
        raise DatabaseFormatError(f"{path}: line {bad}: not UTF-8: {exc.reason}") from exc
    return _parse(path, lines)


def _parse(path: Path, lines: list[str]) -> FingerprintDatabase:
    """The database in `lines`, the lines of the file at `path`.

    The scan lines are decoded and copied into flat columns, which are then
    checked as arrays. Where a line does not copy or a column check fails,
    _raise_first_error checks line by line and names the first bad line.
    """
    if not any(map(str.strip, lines)):
        raise DatabaseFormatError(f"{path}: no locations (empty file)")
    try:
        if not lines[0].strip():
            raise ValueError("blank line")
        header = json.loads(lines[0])
        testbed, grid_cell_m = header["testbed"], header["grid_cell_m"]
        if type(testbed) is not str or type(grid_cell_m) not in (int, float):
            raise ValueError("testbed must be a JSON string and grid_cell_m a JSON number, "
                             f"got {testbed!r} and {grid_cell_m!r}")
        if not math.isfinite(grid_cell_m := float(grid_cell_m)):
            raise ValueError(f"non-finite grid_cell_m: {grid_cell_m}")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DatabaseFormatError(f"{path}: line 1: bad header: {exc}") from exc

    try:
        columns = _scan_columns(lines[1:])
    except (ValueError, KeyError, TypeError, RecursionError):  # a line that is no scan record
        columns = None
    db = None if columns is None else _from_columns(*columns, testbed, grid_cell_m)
    if db is None:
        _raise_first_error(path, lines[1:])
    return db


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _scan_columns(lines: list[str]) -> tuple[list, ...]:
    """The fields of the non-blank `lines`, one flat list each: loc, x, y,
    ts, then tower and ASU per reading and the reading count per scan.
    Nothing is checked beyond what decoding and indexing raise. Records are
    dropped as they are copied, so few containers stay alive for the
    garbage collector to scan."""
    loc, x, y, ts, towers, asus, counts = [], [], [], [], [], [], []
    for raw in lines:
        if raw.strip():
            # json.loads(raw), less its Python-level overhead: one value,
            # JSON whitespace around it, and anything else raises ValueError.
            rec, end = _raw_decode(raw, len(raw) - len(raw.lstrip(_JSON_SPACE)))
            if raw[end:].strip(_JSON_SPACE):
                raise ValueError("extra data after the record")
            loc.append(rec["loc"])
            x.append(rec["x"])
            y.append(rec["y"])
            ts.append(rec["ts"])
            readings = rec["readings"]
            counts.append(len(readings))
            for tower, asu in readings:
                towers.append(tower)
                asus.append(asu)
    return loc, x, y, ts, towers, asus, counts


def _typed(values: list, *types: type) -> bool:
    # type(), not isinstance(): JSON true decodes to a bool, an int subclass
    return set(map(type, values)) <= set(types)


def _from_columns(loc, x, y, ts, towers, asus, counts,
                  testbed: str, grid_cell_m: float) -> FingerprintDatabase | None:
    """The database of the copied columns, or None if they fail any check
    that _check_scan and _raise_first_error make line by line."""
    if not (counts and _typed(loc, int) and _typed(ts, int) and _typed(x, int, float)
            and _typed(y, int, float) and _typed(towers, str) and _typed(asus, int)):
        return None
    if not (INT64_MIN <= min(loc) and max(loc) <= INT64_MAX
            and INT64_MIN <= min(ts) and max(ts) <= INT64_MAX
            and 1 <= min(counts) and max(counts) <= MAX_READINGS_PER_SCAN
            and ASU_MIN <= min(asus) and max(asus) <= ASU_MAX and "" not in towers):
        return None
    try:
        xy = np.array([x, y], dtype=np.float64).T
    except OverflowError:  # an integer beyond the float range
        return None
    # every scan at its location's first coordinates
    ids, first, inverse = np.unique(loc, return_index=True, return_inverse=True)
    if not (np.all(np.isfinite(xy)) and np.array_equal(xy[first][inverse], xy)):
        return None
    db = _assemble(ids, xy[first], loc, ts, towers, asus, counts, testbed, grid_cell_m)
    if np.count_nonzero(db.heard) != len(towers):  # a tower repeated within a scan
        return None
    return db


def _raise_first_error(path: Path, lines: list[str]) -> NoReturn:
    """Check the scan `lines` (line 2 on) one at a time, in file order, and
    raise DatabaseFormatError for the first bad one."""
    coords_by_loc: dict[int, tuple[float, float]] = {}
    for lineno, raw in enumerate(lines, start=2):
        if not raw.strip():
            continue
        try:
            loc_id, xy = _check_scan(json.loads(raw))
        except (json.JSONDecodeError, KeyError, TypeError, IndexError, RecursionError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: malformed scan: {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: {exc}") from exc
        if coords_by_loc.setdefault(loc_id, xy) != xy:
            raise DatabaseFormatError(
                f"{path}: line {lineno}: conflicting coordinates for location {loc_id}"
            )
    if not coords_by_loc:
        raise DatabaseFormatError(f"{path}: no locations")
    raise RuntimeError(f"{path}: the column checks reject a file that passes every line check")


def save_database(db: FingerprintDatabase, path: str | Path) -> None:
    """Write a database in the JSON-lines format, each scan's readings in
    their original order. load(save(db)) == db."""
    path = Path(path)
    lines = [json.dumps({"testbed": db.testbed, "grid_cell_m": db.grid_cell_m})]
    # Each line is json.dumps of {"loc", "x", "y", "ts", "readings"}, put
    # together from strings dumped once: each location's head and each
    # (tower, ASU) reading, the latter indexed by code = column * span + ASU - lo.
    heads = [f'{{"loc": {json.dumps(loc)}, "x": {json.dumps(x)}, "y": {json.dumps(y)}, "ts": '
             for loc, (x, y) in zip(db.location_ids.tolist(), db.coordinates.tolist())]
    lo, hi = int(db.asu.min(initial=0)), int(db.asu.max(initial=0))
    readings = [f"[{json.dumps(tower)}, {asu}]"
                for tower in db.tower_universe for asu in range(lo, hi + 1)]
    m = db.n_towers
    codes = np.arange(m) * (hi - lo + 1) + db.asu.astype(np.intp) - lo
    # Unheard columns (position -1) sort first; a scan's k readings are the last k.
    codes = np.take_along_axis(codes, np.argsort(db.position, axis=1), axis=1).tolist()
    rows = zip(db.scan_location.tolist(), db.timestamps.tolist(), codes,
               np.sum(db.heard, axis=1).tolist())
    for loc, ts, row, k in rows:
        scan = ", ".join([readings[code] for code in row[m - k:]])
        lines.append(f'{heads[loc]}{ts}, "readings": [{scan}]}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def heard_count_histogram(heard: np.ndarray) -> dict[int, float]:
    """Probability of hearing exactly k towers in one scan, from one
    location's (scans, towers) heard mask."""
    k, count = np.unique(np.sum(heard, axis=1), return_counts=True)
    return {int(a): c / len(heard) for a, c in zip(k.tolist(), count.tolist())}
