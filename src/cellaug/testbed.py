"""Synthetic fingerprint surveys from a log-distance path-loss radio model.

RSS at distance d is P_tx - 10*n*log10(d/d0) plus log-normal shadowing.
Towers below the receiver sensitivity are dropped and only the strongest
seven survive, reproducing the two phenomena the augmenters exploit:
RSS jitter at a fixed point and fluctuating heard-tower sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_READINGS_PER_SCAN, FingerprintDatabase
from .util import ConfigError, checked_seed, config_value, derive_rng, read_kv_config

REFERENCE_DISTANCE_M = 1.0
MAX_REFERENCE_POINTS = 100_000  # a grid finer than this is refused before it is built


@dataclass(frozen=True)
class Tower:
    tower_id: str
    position: tuple[float, float]
    tx_power_dbm: float  # received power at the 1 m reference distance


@dataclass(frozen=True)
class TestbedSpec:
    """Geometry and radio parameters of a synthetic survey."""

    name: str
    area: tuple[float, float]
    towers: tuple[Tower, ...]
    path_loss_exponent: float
    shadow_sigma_db: float
    sensitivity_dbm: float
    scans_per_location: int
    seed: int
    grid_spacing_m: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if len(self.towers) < 2:
            raise ConfigError("need at least 2 towers")
        for t in self.towers:
            if not t.tower_id:
                raise ConfigError("tower id must not be empty")
            if not np.isfinite([*t.position, t.tx_power_dbm]).all():
                raise ConfigError(f"tower {t.tower_id}: position and power must be finite")
        for name in ("area", "path_loss_exponent", "shadow_sigma_db", "sensitivity_dbm",
                     "grid_spacing_m", "points"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ConfigError("area dimensions must be positive")
        if self.grid_spacing_m is not None and self.grid_spacing_m <= 0:
            raise ConfigError("grid_spacing_m must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        if self.shadow_sigma_db < 0:
            raise ConfigError("shadow_sigma_db must be >= 0")
        if self.grid_spacing_m is None and not self.points:
            raise ConfigError("either grid_spacing_m or explicit points required")
        if self.scans_per_location < 1:
            raise ConfigError("scans_per_location must be >= 1")
        checked_seed(self.seed)
        if self.points:
            n_points = len(self.points)
        else:
            n_points = self._grid_point_count()
            if n_points > MAX_REFERENCE_POINTS:
                raise ConfigError(f"grid_spacing_m {self.grid_spacing_m:g} is too small for the "
                                  f"{self.area[0]:g} x {self.area[1]:g} m area: more than "
                                  f"{MAX_REFERENCE_POINTS} reference points")
        if n_points < 2:
            raise ConfigError("need at least 2 reference locations")

    def _grid_point_count(self) -> int:
        """len(reference_points()) of the grid, by np.arange's length rule, with
        each axis capped at MAX_REFERENCE_POINTS + 1 so nothing overflows."""
        spacing = self.grid_spacing_m
        per_axis = np.ceil([(extent - spacing / 2.0) / spacing for extent in self.area])
        return int(np.prod(np.clip(per_axis, 0, MAX_REFERENCE_POINTS + 1)))

    def reference_points(self) -> list[tuple[float, float]]:
        """Grid-cell centers row by row, or the explicit points."""
        if self.points:
            return [tuple(p) for p in self.points]
        spacing = self.grid_spacing_m
        xs = np.arange(spacing / 2.0, self.area[0], spacing)
        ys = np.arange(spacing / 2.0, self.area[1], spacing)
        return [(float(x), float(y)) for y in ys for x in xs]


def received_dbm(tower: Tower, point: tuple[float, float], exponent: float) -> float:
    """Deterministic log-distance RSS at a point, before shadowing."""
    d = float(np.hypot(tower.position[0] - point[0], tower.position[1] - point[1]))
    d = max(d, REFERENCE_DISTANCE_M)  # clamp co-located geometry to the reference distance
    return tower.tx_power_dbm - 10.0 * exponent * np.log10(d / REFERENCE_DISTANCE_M)


def dbm_to_asu(dbm):
    """Inverse of the ASU-to-dBm relation, rounded and clipped to [0, 31];
    elementwise for an array."""
    asu = np.clip(np.round((np.asarray(dbm) + 113.0) / 2.0), 0, 31).astype(np.int8)
    return asu if asu.ndim else int(asu)


def generate(spec: TestbedSpec) -> FingerprintDatabase:
    """Simulate the survey: every location gets scans_per_location scans.

    A scan hears the towers at or above the sensitivity and keeps the seven
    strongest, ordered by falling dBm and then tower id. Each location draws
    its (scans, towers) shadowing block from its own stream, row by row.
    """
    points = spec.reference_points()
    by_id = np.argsort([t.tower_id for t in spec.towers], kind="stable")
    towers = [spec.towers[j] for j in by_id]
    shape = (spec.scans_per_location, len(towers))
    asu, position = [], []
    for loc_id, point in enumerate(points):
        rng = derive_rng(spec.seed, "testbed", loc_id)
        dbm = np.array([received_dbm(t, point, spec.path_loss_exponent) for t in towers])
        # drawn in spec order, used in id order; sigma 0 draws exact zeros
        dbm = dbm + rng.normal(0.0, spec.shadow_sigma_db, size=shape)[:, by_id]
        heard = dbm >= spec.sensitivity_dbm
        if not heard.any(axis=1).all():
            raise ConfigError(
                f"location {loc_id} at {point} hears no towers; spec geometry is degenerate"
            )
        # Each tower's place in its scan: heard ones first, by falling dBm; the
        # stable sort leaves ties in id order.
        place = np.lexsort((-dbm, ~heard)).argsort(axis=1)
        kept = heard & (place < MAX_READINGS_PER_SCAN)
        asu.append(np.where(kept, dbm_to_asu(dbm), 0))
        position.append(np.where(kept, place, -1))
    asu, position = np.concatenate(asu), np.concatenate(position)
    heard_anywhere = (position >= 0).any(axis=0)
    n_locations = len(points)
    return FingerprintDatabase(
        tuple(t.tower_id for t, heard in zip(towers, heard_anywhere) if heard),
        np.arange(n_locations),
        np.array(points, dtype=np.float64),
        np.repeat(np.arange(n_locations), spec.scans_per_location),
        np.tile(np.arange(spec.scans_per_location), n_locations),
        asu[:, heard_anywhere],
        position[:, heard_anywhere],
        testbed=spec.name,
        grid_cell_m=spec.grid_spacing_m if spec.grid_spacing_m else 1.0,
    )


def default_desk_spec() -> TestbedSpec:
    """Small fixed testbed: 12x12 m, 36 grid points, 10 towers, 60 scans each.

    Four towers sit in or near the area so the path-loss gradient separates
    neighboring points; the rest are far enough that shadowing makes them
    flicker around the sensitivity floor, giving varied heard sets and weak
    entries for the droppers.
    """
    towers = (
        Tower("T00", (2.0, 3.0), -45.0),
        Tower("T01", (10.0, 2.0), -45.0),
        Tower("T02", (6.0, 11.0), -47.0),
        Tower("T03", (1.0, 9.0), -48.0),
        Tower("T04", (25.0, 18.0), -66.0),
        Tower("T05", (-20.0, 10.0), -68.0),
        Tower("T06", (30.0, -15.0), -67.0),
        Tower("T07", (-30.0, -30.0), -63.0),
        Tower("T08", (90.0, 60.0), -54.0),
        Tower("T09", (-80.0, 70.0), -52.0),
    )
    return TestbedSpec(
        name="desk",
        area=(12.0, 12.0),
        towers=towers,
        path_loss_exponent=3.0,
        shadow_sigma_db=4.0,
        sensitivity_dbm=-111.0,
        scans_per_location=60,
        seed=2024,
        grid_spacing_m=2.0,
    )


def spec_from_file(path: str | Path) -> TestbedSpec:
    """Read a TestbedSpec from the flat key-value format.

    Required keys: area.width, area.height, grid.spacing, path_loss_exponent,
    shadow_sigma_db, sensitivity_dbm, scans_per_location, seed, and one
    ``tower.<id> = x, y, tx_power_dbm`` entry per tower; name is optional.
    """
    raw = read_kv_config(path)
    plain = {k: v for k, v in raw.items() if not k.startswith("tower.")}
    required = ("area.width", "area.height", "grid.spacing", "path_loss_exponent",
                "shadow_sigma_db", "sensitivity_dbm", "scans_per_location", "seed")
    missing = [k for k in required if k not in plain]
    if missing:
        raise ConfigError(f"missing testbed config keys: {', '.join(missing)}")
    unknown = [k for k in plain if k not in (*required, "name")]
    if unknown:
        raise ConfigError(f"unknown testbed config key(s): {', '.join(unknown)}")
    towers = []
    for key, value in raw.items():
        if key.startswith("tower."):
            parts = value.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{key}: expected 'x, y, tx_power_dbm', got {value!r}")
            x, y, power = (config_value(part, key, 0.0) for part in parts)
            towers.append(Tower(key.removeprefix("tower."), (x, y), power))
    if not towers:
        raise ConfigError("no towers configured (add tower.<id> entries)")

    def number(key: str, default: float | int = 0.0):
        return config_value(plain[key], key, default)

    return TestbedSpec(
        name=plain.get("name", "custom"),
        area=(number("area.width"), number("area.height")),
        towers=tuple(sorted(towers, key=lambda t: t.tower_id)),
        path_loss_exponent=number("path_loss_exponent"),
        shadow_sigma_db=number("shadow_sigma_db"),
        sensitivity_dbm=number("sensitivity_dbm"),
        scans_per_location=number("scans_per_location", 0),
        seed=number("seed", 0),
        grid_spacing_m=number("grid.spacing"),
    )
