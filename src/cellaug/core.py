"""Domain types for cellular RSS fingerprints and their on-disk format.

A fingerprint survey is a set of reference locations, each holding repeated
scans. One scan records up to seven (tower id, ASU) pairs, ASU in [0, 31].
Databases are stored as UTF-8 JSON lines: a header object followed by one
scan per line. _RULES states each rule a scan keeps once, as a check over
columns of scans, and load_database runs it over a file.

In memory a survey is columnar (FingerprintDatabase): scan rows and reading
matrices. One comes from load_database, from testbed.generate, as a
temporal_split view, or from the constructor, which checks the arrays' shapes
and grouping and the reading values a file can hold.

A survey is parsed once: load_database then writes the survey it parsed to a
binary sidecar, `<file>.cellaug.npz`, with the sha256 of the bytes it parsed,
and a later load of the same bytes builds it from there, with no parse. The
sidecar is a cache of the parse: any file at its path is taken as one, and
one that is absent, stale or damaged is parsed past and rewritten, so it
never changes what a file loads to, or how it is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .util import first_non_utf8_line

TowerId = str

MAX_READINGS_PER_SCAN = 7
ASU_MIN = 0
ASU_MAX = 31
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class DatabaseFormatError(ValueError):
    """Raised when a fingerprint database file cannot be parsed or validated."""


@dataclass
class _Scans:
    """The first k scans of a survey as flat columns, as decoded: loc, x, y,
    ts and the reading count per scan, then tower and ASU per reading.
    Arrays derived from them are computed when a rule first asks."""

    loc: list
    x: list
    y: list
    ts: list
    counts: list
    towers: list
    asus: list

    def head(self, k: int, readings: int | None = None) -> _Scans:
        """The first k scans, with their first `readings` readings (default all)."""
        r = sum(self.counts[:k]) if readings is None else readings
        return _Scans(self.loc[:k], self.x[:k], self.y[:k], self.ts[:k], self.counts[:k],
                      self.towers[:r], self.asus[:r])

    @cached_property
    def xy(self) -> np.ndarray | None:
        """(k, 2) coordinates as floats, or None if an integer is beyond the float range."""
        try:
            return np.array([self.x, self.y], dtype=np.float64).T
        except OverflowError:
            return None

    @cached_property
    def codes(self) -> tuple[list[TowerId], np.ndarray]:
        """The sorted towers heard and each reading's column among them."""
        universe = sorted(set(self.towers))
        column = {tower: j for j, tower in enumerate(universe)}
        return universe, np.fromiter(map(column.__getitem__, self.towers), dtype=np.intp,
                                     count=len(self.towers))

    # the sorted location ids, the first scan at each and each scan's index among them
    locations = cached_property(lambda self: np.unique(self.loc, return_index=True, return_inverse=True))

    def repeats_no_tower(self) -> bool:
        (universe, cols), k = self.codes, len(self.counts)
        heard = np.zeros((k, len(universe)), dtype=bool)
        heard[np.repeat(np.arange(k), self.counts)[:len(cols)], cols] = True
        return np.count_nonzero(heard) == len(cols)


def _typed(values: list, *types: type) -> bool:
    # type(), not isinstance(): JSON true decodes to a bool, an int subclass
    return set(map(type, values)) <= set(types)


def _within(values: list, lo: int, hi: int) -> bool:
    return not values or (lo <= min(values) and max(values) <= hi)


# The rules a survey's scans keep: each a check over whole columns, and the
# message for the last scan of the shortest head that breaks it (for a
# reading rule, that scan's last reading). A check true on k + 1 scans is
# true on the first k, and may assume the rules above it hold, so a scan
# that breaks several is named by the first: JSON types, values, coordinates.
_RULES = (
    (lambda s: _typed(s.loc, int), lambda s: f"loc must be a JSON integer, got {s.loc[-1]!r}"),
    (lambda s: _typed(s.x, int, float), lambda s: f"x must be a JSON number, got {s.x[-1]!r}"),
    (lambda s: _typed(s.y, int, float), lambda s: f"y must be a JSON number, got {s.y[-1]!r}"),
    (lambda s: _typed(s.ts, int), lambda s: f"ts must be a JSON integer, got {s.ts[-1]!r}"),
    (lambda s: _typed(s.towers, str), lambda s: f"tower id must be a JSON string, got {s.towers[-1]!r}"),
    (lambda s: _typed(s.asus, int),
     lambda s: f"ASU must be a JSON integer, got {s.asus[-1]!r} for tower {s.towers[-1]}"),
    (lambda s: _within(s.loc, INT64_MIN, INT64_MAX), lambda s: f"loc outside int64: {s.loc[-1]}"),
    (lambda s: s.xy is not None, lambda s: "int too large to convert to float"),  # float()'s words
    (lambda s: np.all(np.isfinite(s.xy)),
     lambda s: f"non-finite coordinates: {tuple(s.xy[-1].tolist())}"),
    (lambda s: _within(s.ts, INT64_MIN, INT64_MAX), lambda s: f"ts outside int64: {s.ts[-1]}"),
    (lambda s: 0 not in s.counts, lambda s: "empty scan: at least one reading required"),
    (lambda s: _within(s.counts, 0, MAX_READINGS_PER_SCAN),
     lambda s: f"too many readings: {s.counts[-1]} > {MAX_READINGS_PER_SCAN}"),
    (lambda s: "" not in s.towers, lambda s: "empty tower id"),
    (_Scans.repeats_no_tower, lambda s: f"duplicate tower in scan: {s.towers[-1]}"),
    (lambda s: _within(s.asus, ASU_MIN, ASU_MAX),
     lambda s: f"ASU out of range: {s.asus[-1]} for tower {s.towers[-1]}"),
    (lambda s: np.array_equal(s.xy[s.locations[1]][s.locations[2]], s.xy),
     lambda s: f"conflicting coordinates for location {s.loc[-1]}"),
)


def _fault(scans: _Scans) -> tuple[int, str] | None:
    """The index of the first scan that breaks a rule and the message of the
    first rule it breaks, found by bisection; None if all keep every rule."""
    def broken(head: _Scans):
        return next((rule for rule in _RULES if not rule[0](head)), None)

    if broken(scans) is None:
        return None
    i = bisect_left(range(len(scans.counts)), True, key=lambda i: bool(broken(scans.head(i + 1))))
    check, message = broken(head := scans.head(i + 1))
    start = len(head.towers) - head.counts[-1]  # a scan rule breaks with none of scan i's readings
    r = bisect_left(range(start, len(head.towers) + 1), True,
                    key=lambda r: not check(head.head(i + 1, r)))
    return i, message(head.head(i + 1, start + r))


# The per-scan arrays of FingerprintDatabase, with their dtypes, and all its arrays.
SCAN_ARRAYS = {"scan_location": np.intp, "timestamps": np.int64, "asu": np.int8, "position": np.int8}
_ARRAYS = {"location_ids": np.int64, "coordinates": np.float64, **SCAN_ARRAYS}


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

    Loading gives a universe of exactly the towers heard in some scan;
    split views keep their parent's.
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
        for name, dtype in _ARRAYS.items():
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
        # 0 to L - 1 in steps of 0 or 1. (np.unique with no index output loads numpy.ma.)
        steps = np.diff(self.scan_location)
        ends = self.scan_location[[0, -1]].tolist() if n else [0, -1]
        if ends != [0, n_locations - 1] or np.any((steps < 0) | (steps > 1)):
            raise ValueError("scans must be grouped by location in location order, each with one")
        # what a file can hold: 1 to 7 readings a scan, whose k heard positions set
        # the k bits of 2**k - 1 only as 0 to k - 1, once each; an ASU only if heard
        heard, k = self.heard, np.count_nonzero(self.heard, axis=1)
        if np.any((k < 1) | (k > MAX_READINGS_PER_SCAN)):
            raise ValueError(f"each scan must hear 1 to {MAX_READINGS_PER_SCAN} towers")
        bits = heard.view(np.uint8) << self.position.clip(0, MAX_READINGS_PER_SCAN).view(np.uint8)
        if np.any(self.position < -1) or not np.array_equal(np.bitwise_or.reduce(bits, axis=1),
                                                            (1 << k) - 1):
            raise ValueError("heard positions must be 0 to k - 1, each once, and -1 elsewhere")
        if np.any((self.asu < ASU_MIN) | (self.asu > ASU_MAX) | ((self.asu != 0) & ~heard)):
            raise ValueError(f"ASU must be in [{ASU_MIN}, {ASU_MAX}] where heard and 0 elsewhere")

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


def load_database(path: str | Path) -> FingerprintDatabase:
    """Load a JSON-lines fingerprint database.

    Line 1 is a header ``{"testbed": str, "grid_cell_m": number}``; every
    further non-blank line is one scan ``{"loc", "x", "y", "ts",
    "readings"}``: ``loc``, ``ts`` and each ASU JSON integers, ``loc`` and
    ``ts`` in int64, ``x`` and ``y`` finite JSON numbers, tower ids
    non-empty JSON strings. A malformed file raises DatabaseFormatError
    naming its first bad line. Locations come out sorted by id, scans in
    file order within each.

    A regular file that loads is parsed once: its survey is then written to
    the sidecar (see sidecar_path), and a later load of the same bytes
    builds it from there, with no parse.
    """
    import hashlib  # OpenSSL's; only a command that reads a survey pays its import

    path = Path(path)
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    db = _cached(sidecar_path(path), digest)
    if db is not None:
        return db
    try:  # the text, split as a file opened for text is
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except UnicodeDecodeError as exc:
        raise DatabaseFormatError(f"{path}: line {first_non_utf8_line(data)}: not UTF-8: "
                                  f"{exc.reason}") from exc
    db = _parse(path, lines)
    if path.is_file():  # a pipe's bytes are not read twice
        _write_sidecar(sidecar_path(path), digest, db)
    return db


def sidecar_path(path: str | Path) -> Path:
    """Where load_database keeps the parsed survey of the file at `path`:
    `<path>.cellaug.npz`, named for this program, so any file there is taken as it."""
    path = Path(path)
    return path.with_name(path.name + ".cellaug.npz")


def _cached(sidecar: Path, digest: str) -> FingerprintDatabase | None:
    """The survey in `sidecar` if it holds `digest`, its arrays the dtypes
    _write_sidecar wrote and they pass the constructor; else None, also
    where no file or one that does not read is there."""
    try:
        # np.load given a name leaves the file open when the zip is unreadable
        with sidecar.open("rb") as file, np.load(file) as npz:
            meta = json.loads(npz["meta"][()])
            if meta["sha256"] != digest:
                return None
            arrays = {name: npz[name] for name in _ARRAYS}
        if any(arrays[name].dtype != dtype for name, dtype in _ARRAYS.items()):
            return None
        return FingerprintDatabase(meta["tower_universe"], **arrays, testbed=meta["testbed"],
                                   grid_cell_m=meta["grid_cell_m"])
    except Exception:  # whatever stops a read: a damaged zip raises more kinds than zipfile
        return None  # and numpy name (zlib.error, tokenize.TokenError, NotImplementedError)


def _write_sidecar(sidecar: Path, digest: str, db: FingerprintDatabase) -> None:
    """Write db, parsed from bytes whose sha256 is `digest`, to `sidecar`
    through a new file beside it, so a reader finds the old sidecar or the
    new one whole. Where no file can be made, none is written."""
    # tower ids go in JSON text, as a numpy string array drops trailing NULs
    meta = {"sha256": digest, "testbed": db.testbed, "grid_cell_m": db.grid_cell_m,
            "tower_universe": list(db.tower_universe)}
    part = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.part")
    try:
        file = part.open("xb")  # x: never a file this process did not make
    except OSError:
        return
    try:
        with file:
            np.savez(file, meta=json.dumps(meta), **{name: getattr(db, name) for name in _ARRAYS})
        os.replace(part, sidecar)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            part.unlink(missing_ok=True)


def _parse(path: Path, lines: list[str]) -> FingerprintDatabase:
    """The database in `lines`, the lines of the file at `path`. The scan
    lines are decoded once, into columns that _RULES checks; a line that is
    no scan record ends the columns, and is named if no scan before it breaks
    a rule."""
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

    scans, error = _scan_columns(lines[1:])
    if fault := _fault(scans) or error:
        line = [n for n, raw in enumerate(lines[1:], 2) if raw.strip()][fault[0]]
        raise DatabaseFormatError(f"{path}: line {line}: {fault[1]}")
    if not scans.counts:
        raise DatabaseFormatError(f"{path}: no locations")
    # scan i owns the next counts[i] readings; rows are then sorted stably by location
    (universe, cols), (ids, first, scan_location) = scans.codes, scans.locations
    counts = np.array(scans.counts, dtype=np.intp)
    row = np.repeat(np.arange(len(counts)), counts)
    asu = np.zeros((len(counts), len(universe)), dtype=np.int8)
    position = np.full(asu.shape, -1, dtype=np.int8)
    asu[row, cols] = scans.asus
    position[row, cols] = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    rows = np.argsort(scan_location, kind="stable")
    return FingerprintDatabase(tuple(universe), ids, scans.xy[first], scan_location[rows],
                               np.array(scans.ts, dtype=np.int64)[rows], asu[rows], position[rows],
                               testbed=testbed, grid_cell_m=grid_cell_m)


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _scan_columns(lines: list[str]) -> tuple[_Scans, tuple[int, str] | None]:
    """The scans of the non-blank `lines` up to the first that does not
    decode, index and unpack as a scan record, and that line's index among
    them with its error message, or None. Records are dropped as they are
    copied, so few containers stay alive for the garbage collector to scan."""
    loc, x, y, ts, counts, towers, asus = columns = ([], [], [], [], [], [], [])
    try:
        for raw in lines:
            if raw.strip():
                # json.loads(raw), less its Python-level overhead
                rec, end = _raw_decode(raw, len(raw) - len(raw.lstrip(_JSON_SPACE)))
                if raw[end:].strip(_JSON_SPACE):
                    end = len(raw) - len(raw[end:].lstrip(_JSON_SPACE))
                    raise json.JSONDecodeError("Extra data", raw, end)
                loc.append(rec["loc"])
                x.append(rec["x"])
                y.append(rec["y"])
                ts.append(rec["ts"])
                for tower, asu in (readings := rec["readings"]):
                    towers.append(tower)
                    asus.append(asu)
                counts.append(len(readings))
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        if raw.startswith("\ufeff"):  # json.loads refuses a byte order mark before decoding
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0)
        # a plain ValueError, from a reading that is no pair, is not called malformed
        malformed = "" if type(exc) is ValueError else "malformed scan: "
        return _Scans(*columns).head(len(counts)), (len(counts), malformed + str(exc))
    return _Scans(*columns), None


def save_database(db: FingerprintDatabase, path: str | Path) -> None:
    """Write a database in the JSON-lines format, each scan's readings in
    their original order. load(save(db)) == db when every universe tower is
    heard in some scan, as in any loaded or generated survey; a split view's
    unheard towers are not written, so it loads with a smaller universe."""
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
