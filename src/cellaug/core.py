"""Domain types for cellular RSS fingerprints and their on-disk format.

A fingerprint survey is a set of reference locations, each holding repeated
scans. One scan records up to seven (tower id, ASU) pairs, ASU in [0, 31].
Databases are stored as UTF-8 JSON lines: a header object followed by one
scan per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

TowerId = str

MAX_READINGS_PER_SCAN = 7
ASU_MIN = 0
ASU_MAX = 31


class DatabaseFormatError(ValueError):
    """Raised when a fingerprint database file cannot be parsed or validated."""


@dataclass(frozen=True)
class RawScan:
    """One cellular scan: a timestamp plus the (tower, ASU) pairs heard."""

    timestamp: int
    readings: tuple[tuple[TowerId, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "readings", tuple((str(t), int(a)) for t, a in self.readings))
        if len(self.readings) == 0:
            raise ValueError("empty scan: at least one reading required")
        if len(self.readings) > MAX_READINGS_PER_SCAN:
            raise ValueError(
                f"too many readings: {len(self.readings)} > {MAX_READINGS_PER_SCAN}"
            )
        seen = set()
        for tower, asu in self.readings:
            if not tower:
                raise ValueError("empty tower id")
            if tower in seen:
                raise ValueError(f"duplicate tower in scan: {tower}")
            seen.add(tower)
            if not (ASU_MIN <= asu <= ASU_MAX):
                raise ValueError(f"ASU out of range: {asu} for tower {tower}")

    @property
    def towers(self) -> tuple[TowerId, ...]:
        return tuple(t for t, _ in self.readings)

    def asu_of(self, tower: TowerId) -> int | None:
        for t, a in self.readings:
            if t == tower:
                return a
        return None


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


@dataclass(frozen=True)
class FingerprintDatabase:
    """A full survey: tower universe, reference locations, and testbed metadata.

    ``tower_universe`` is sorted lexicographically and fixes feature-vector
    indexing. Databases built by :func:`load_database`, :func:`from_locations`
    or the synthetic generator have a universe equal to the union of towers
    heard in any scan; databases derived by subsetting scans (train/test
    views) may keep a wider universe, but every scan must stay inside it.
    """

    tower_universe: tuple[TowerId, ...]
    locations: tuple[ReferenceLocation, ...]
    testbed: str = "unnamed"
    grid_cell_m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tower_universe", tuple(self.tower_universe))
        object.__setattr__(self, "locations", tuple(self.locations))
        if list(self.tower_universe) != sorted(set(self.tower_universe)):
            raise ValueError("tower_universe must be sorted and duplicate-free")
        ids = [loc.location_id for loc in self.locations]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate location_id")
        universe = set(self.tower_universe)
        for loc in self.locations:
            for scan in loc.scans:
                for tower in scan.towers:
                    if tower not in universe:
                        raise ValueError(
                            f"scan at location {loc.location_id} references "
                            f"unknown tower {tower}"
                        )

    @property
    def n_towers(self) -> int:
        return len(self.tower_universe)

    def location(self, location_id: int) -> ReferenceLocation:
        for loc in self.locations:
            if loc.location_id == location_id:
                return loc
        raise KeyError(f"no location with id {location_id}")


def from_locations(
    locations: list[ReferenceLocation] | tuple[ReferenceLocation, ...],
    testbed: str = "unnamed",
    grid_cell_m: float = 1.0,
) -> FingerprintDatabase:
    """Build a database whose universe is exactly the towers heard anywhere."""
    towers: set[TowerId] = set()
    for loc in locations:
        for scan in loc.scans:
            towers.update(scan.towers)
    ordered = tuple(sorted(locations, key=lambda loc: loc.location_id))
    return FingerprintDatabase(
        tower_universe=tuple(sorted(towers)),
        locations=ordered,
        testbed=testbed,
        grid_cell_m=grid_cell_m,
    )


def load_database(path: str | Path) -> FingerprintDatabase:
    """Load a JSON-lines fingerprint database.

    Line 1 is a header ``{"testbed": str, "grid_cell_m": number}``; every
    further line is one scan ``{"loc", "x", "y", "ts", "readings"}``.
    Locations are returned sorted by id, scans in file order.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].strip():
        raise DatabaseFormatError(f"{path}: no locations (empty file)")

    try:
        header = json.loads(lines[0])
        testbed = str(header["testbed"])
        grid_cell_m = float(header["grid_cell_m"])
        if not math.isfinite(grid_cell_m):
            raise ValueError(f"non-finite grid_cell_m: {grid_cell_m}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(f"{path}: line 1: bad header: {exc}") from exc

    scans_by_loc: dict[int, list[RawScan]] = {}
    coords_by_loc: dict[int, tuple[float, float]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            loc_id = int(rec["loc"])
            xy = (float(rec["x"]), float(rec["y"]))
            if not all(map(math.isfinite, xy)):
                raise ValueError(f"non-finite coordinates: {xy}")
            scan = RawScan(
                timestamp=int(rec["ts"]),
                readings=tuple((str(t), int(a)) for t, a in rec["readings"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, IndexError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: malformed scan: {exc}") from exc
        except ValueError as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: {exc}") from exc
        if loc_id in coords_by_loc and coords_by_loc[loc_id] != xy:
            raise DatabaseFormatError(
                f"{path}: line {lineno}: conflicting coordinates for location {loc_id}"
            )
        coords_by_loc[loc_id] = xy
        scans_by_loc.setdefault(loc_id, []).append(scan)

    if not scans_by_loc:
        raise DatabaseFormatError(f"{path}: no locations")

    locations = [
        ReferenceLocation(location_id=loc_id, coordinates=coords_by_loc[loc_id], scans=tuple(scans))
        for loc_id, scans in scans_by_loc.items()
    ]
    return from_locations(locations, testbed=testbed, grid_cell_m=grid_cell_m)


def save_database(db: FingerprintDatabase, path: str | Path) -> None:
    """Write a database in the JSON-lines format. load(save(db)) == db."""
    path = Path(path)
    lines = [json.dumps({"testbed": db.testbed, "grid_cell_m": db.grid_cell_m})]
    for loc in db.locations:
        x, y = loc.coordinates
        for scan in loc.scans:
            lines.append(
                json.dumps(
                    {
                        "loc": loc.location_id,
                        "x": x,
                        "y": y,
                        "ts": scan.timestamp,
                        "readings": [[t, a] for t, a in scan.readings],
                    }
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def heard_count_histogram(loc: ReferenceLocation) -> dict[int, float]:
    """Probability of hearing exactly k towers in one scan at this location."""
    counts: dict[int, int] = {}
    for scan in loc.scans:
        k = len(scan.readings)
        counts[k] = counts.get(k, 0) + 1
    n = len(loc.scans)
    return {k: c / n for k, c in sorted(counts.items())}
