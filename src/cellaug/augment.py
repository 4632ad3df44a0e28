"""The four augmentation techniques and their combiner.

Additive noise perturbs heard towers with per-(location, tower) Gaussian
noise scaled to half the observed signal range. Distribution sampling draws
each heard tower independently from its fitted model. The random dropper
zeroes a random subset of heard towers (never the strongest-mean one, the
serving-cell proxy); the threshold dropper enumerates all removal
combinations of weak entries. Everything is deterministic given the config
seed: each (technique, location) pair gets its own derived RNG stream.

The heard mask, not the value, decides whether a tower was heard: a heard
ASU-0 reading (value 0) counts in the statistics and fits, and the threshold
dropper takes only strictly positive entries as candidates, so it never
drops one (doing so would change no value).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import FingerprintDatabase, TowerId
from .distfit import FittedDistribution, fit_database, sample_from
from .preprocess import SampleSet, location_blocks
from .util import ConfigError, apply_config, checked_seed, derive_rng
from .vae import VaeModel, VaeTrainConfig, generate, train_vaes

MAX_THRESHOLD_CANDIDATES = 12  # 2^12 - 1 variants caps the combinatorial path
# In augment_all's row order; AugmentConfig has a <name>_enabled flag for each.
TECHNIQUES = ("noise", "sampling", "drop_random", "drop_threshold", "vae")


@dataclass(frozen=True)
class LocationStats:
    """Per-tower signal statistics at one location, aligned to the universe.

    Arrays cover the full tower universe; towers never heard at the location
    have all-zero statistics.
    """

    mean_values: np.ndarray
    noise_scale: np.ndarray  # (max - min) / 2 per tower


@dataclass(frozen=True)
class AugmentConfig:
    """Which techniques run and how many samples each produces.

    ``None`` for the per-location counts means 10x the location's scan
    count. The VAE training knobs default to 3000 epochs at lr 0.001.
    """

    noise_enabled: bool = True
    noise_per_scan: int = 10
    sampling_enabled: bool = True
    sampling_n_per_location: int | None = None
    drop_random_enabled: bool = True
    drop_random_per_scan: int = 10
    drop_random_max_drop: int = 6
    drop_threshold_enabled: bool = True
    drop_threshold_value: float = 0.2
    vae_enabled: bool = True
    vae_n_per_location: int | None = None
    vae_epochs: int = 3000
    vae_learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for key in ("noise.per_scan", "drop_random.per_scan", "drop_random.max_drop"):
            count = getattr(self, CONFIG_KEYS[key])
            if count < 1:
                raise ConfigError(f"{key} must be >= 1, got {count}")
        for key in ("sampling.n_per_location", "vae.n_per_location"):
            count = getattr(self, CONFIG_KEYS[key])
            if count is not None and count < 1:
                raise ConfigError(f"{key} must be >= 1 or auto, got {count}")
        if not (0.0 <= self.drop_threshold_value <= 1.0):
            raise ConfigError(f"drop_threshold.value must be in [0, 1], got "
                              f"{self.drop_threshold_value}")
        checked_seed(self.seed)
        try:
            self.vae_train_config
        except ValueError as exc:  # VaeTrainConfig's rules, named by config key
            raise ConfigError(f"vae.{exc}") from exc

    @property
    def vae_train_config(self) -> VaeTrainConfig:
        return VaeTrainConfig(epochs=self.vae_epochs, learning_rate=self.vae_learning_rate,
                              seed=self.seed)

    def only(self, technique: str) -> "AugmentConfig":
        """Copy of this config with a single technique enabled."""
        if technique not in TECHNIQUES:
            raise ConfigError(f"unknown technique: {technique}")
        return replace(self, **{f"{name}_enabled": name == technique for name in TECHNIQUES})

    @staticmethod
    def from_dict(raw: dict[str, str]) -> "AugmentConfig":
        return apply_config(AugmentConfig(), CONFIG_KEYS, raw, "augmentation")

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in CONFIG_KEYS.items()}


def _config_key(field_name: str) -> str:
    """A field's config-file key: "<technique>.<rest>" for "<technique>_<rest>", else itself."""
    for technique in TECHNIQUES:
        if field_name.startswith(technique + "_"):
            return f"{technique}.{field_name[len(technique) + 1:]}"
    return field_name


# Config-file key -> AugmentConfig field, in field order; also the key order of to_dict.
CONFIG_KEYS = {_config_key(f.name): f.name for f in fields(AugmentConfig)}


def compute_stats(db: FingerprintDatabase) -> dict[int, LocationStats]:
    """Per-location signal statistics over scans where each tower was heard."""
    out: dict[int, LocationStats] = {}
    for loc_id, x, heard in location_blocks(db):
        mins, maxs, means = (np.zeros(db.n_towers) for _ in range(3))
        for j in np.flatnonzero(np.any(heard, axis=0)):
            values = x[heard[:, j], j]
            mins[j], maxs[j], means[j] = values.min(), values.max(), values.mean()
        out[loc_id] = LocationStats(mean_values=means, noise_scale=(maxs - mins) / 2.0)
    return out


def augment_noise(
    x: np.ndarray, heard: np.ndarray, stats: LocationStats, rng: np.random.Generator
) -> np.ndarray:
    """One noisy copy of each row: per-tower Gaussian noise on the heard
    entries, clipped to [0, 1]. Draws one (rows, m) block of normals."""
    noise = rng.normal(0.0, stats.noise_scale, size=x.shape)
    return np.where(heard, np.clip(x + noise, 0.0, 1.0), x)


def augment_sampling(
    heard: np.ndarray,
    fits: dict[TowerId, FittedDistribution],
    towers: tuple[TowerId, ...],
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Draw n synthetic rows, each tower independently from its fit.

    ``heard`` holds the location's scans as rows; a tower heard in any of
    them is sampled, the others stay zero. Independence across towers is
    what separates this technique from the generative one.
    """
    columns = np.flatnonzero(np.any(heard, axis=0))
    missing = [towers[j] for j in columns if towers[j] not in fits]
    if missing:
        raise ValueError(f"missing fit for heard tower(s): {', '.join(missing)}")
    out = np.zeros((n, len(towers)))
    for j in columns:
        out[:, j] = sample_from(fits[towers[j]], rng, n)
    return out


def augment_drop_random(
    x: np.ndarray,
    heard: np.ndarray,
    stats: LocationStats,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zero a random subset of each row's heard towers, sparing the
    serving-cell proxy.

    The protected entry is the heard tower with the highest mean RSS at the
    location. The drop count is uniform on {1..min(max_drop, heard-1)}; a
    single-tower row is returned unchanged and consumes no draws.
    """
    out = x.copy()
    for row, mask in zip(out, heard):
        heard_idx = np.flatnonzero(mask)
        if heard_idx.size <= 1:
            continue
        protected = heard_idx[int(np.argmax(stats.mean_values[heard_idx]))]
        droppable = heard_idx[heard_idx != protected]
        max_drop = min(cfg.drop_random_max_drop, heard_idx.size - 1)
        n_drop = int(rng.integers(1, max_drop + 1))
        row[rng.choice(droppable, size=n_drop, replace=False)] = 0.0
    return out


def augment_drop_threshold(x: np.ndarray, cfg: AugmentConfig) -> np.ndarray:
    """Per row, all non-empty removal combinations of entries below the
    threshold, rows in input order and combinations in bit order.

    Candidates are strictly positive entries under the threshold (a zero
    entry already reads as unheard). If more than 12 qualify, only the 12
    weakest are combined.
    """
    blocks = [np.empty((0, x.shape[1]))]
    for row in x:
        candidates = np.flatnonzero((row > 0.0) & (row < cfg.drop_threshold_value))
        if candidates.size > MAX_THRESHOLD_CANDIDATES:
            weakest = np.argsort(row[candidates], kind="stable")[:MAX_THRESHOLD_CANDIDATES]
            candidates = np.sort(candidates[weakest])
        k = candidates.size
        # row b - 1 drops candidate i where bit i of b is set, b = 1 .. 2^k - 1
        drop = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1 == 1
        out = np.repeat(row[None, :], 2**k - 1, axis=0)
        out[:, candidates] = np.where(drop, 0.0, row[candidates])
        blocks.append(out)
    return np.concatenate(blocks)


def train_location_vaes(
    db: FingerprintDatabase, cfg: AugmentConfig
) -> dict[int, VaeModel]:
    """Train one VAE per location, all locations with the same scan count
    in one stacked run; locations with fewer than 2 scans are skipped with
    a warning. Returns the models in location order."""
    vae_cfg = cfg.vae_train_config
    groups: dict[int, list[tuple[int, np.ndarray]]] = {}  # scan count -> (id, rows)
    kept: list[int] = []
    for loc_id, x, _ in location_blocks(db):
        if len(x) < 2:
            warnings.warn(f"location {loc_id}: only {len(x)} scan(s), skipping VAE training")
            continue
        groups.setdefault(len(x), []).append((loc_id, x))
        kept.append(loc_id)
    models: dict[int, VaeModel] = {}
    for group in groups.values():
        ids = [loc_id for loc_id, _ in group]
        models.update(zip(ids, train_vaes(np.stack([x for _, x in group]), vae_cfg, ids)))
    return {loc_id: models[loc_id] for loc_id in kept}


def augment_all(
    db: FingerprintDatabase,
    cfg: AugmentConfig,
    fits: dict[int, dict[TowerId, FittedDistribution]] | None = None,
    vae_models: dict[int, VaeModel] | None = None,
) -> tuple[SampleSet, dict[str, int]]:
    """Originals plus every enabled technique's output, in a fixed order.

    Rows run originals, noise, sampling, drop_random, drop_threshold, vae,
    each by location then scan. Fits and VAE models are trained on the fly
    when not supplied. Returns the combined samples and the per-technique
    sample counts.
    """
    per_loc = list(location_blocks(db))
    blocks: dict[str, list[tuple[int, np.ndarray]]] = {
        "original": [(loc_id, x) for loc_id, x, _ in per_loc],
        **{name: [] for name in TECHNIQUES},
    }

    needs_stats = cfg.noise_enabled or cfg.drop_random_enabled
    stats = compute_stats(db) if needs_stats else {}

    if cfg.noise_enabled:
        k = cfg.noise_per_scan
        for loc_id, x, heard in per_loc:
            rng = derive_rng(cfg.seed, "noise", loc_id)
            rows = augment_noise(np.repeat(x, k, axis=0), np.repeat(heard, k, axis=0),
                                 stats[loc_id], rng)
            blocks["noise"].append((loc_id, rows))

    if cfg.sampling_enabled:
        if fits is None:
            fits = fit_database(db)
        for loc_id, _, heard in per_loc:
            rng = derive_rng(cfg.seed, "sampling", loc_id)
            n = cfg.sampling_n_per_location
            if n is None:
                n = 10 * len(heard)
            rows = augment_sampling(heard, fits[loc_id], db.tower_universe, rng, n)
            blocks["sampling"].append((loc_id, rows))

    if cfg.drop_random_enabled:
        k = cfg.drop_random_per_scan
        for loc_id, x, heard in per_loc:
            rng = derive_rng(cfg.seed, "drop_random", loc_id)
            rows = augment_drop_random(np.repeat(x, k, axis=0), np.repeat(heard, k, axis=0),
                                       stats[loc_id], cfg, rng)
            blocks["drop_random"].append((loc_id, rows))

    if cfg.drop_threshold_enabled:
        for loc_id, x, _ in per_loc:
            blocks["drop_threshold"].append((loc_id, augment_drop_threshold(x, cfg)))

    if cfg.vae_enabled:
        if vae_models is None:
            vae_models = train_location_vaes(db, cfg)
        for loc_id, x, _ in per_loc:
            model = vae_models.get(loc_id)
            if model is None:
                continue
            rng = derive_rng(cfg.seed, "vae-generate", loc_id)
            n = cfg.vae_n_per_location
            if n is None:
                n = 10 * len(x)
            blocks["vae"].append((loc_id, generate(model, rng, n)))

    counts = {name: sum(len(rows) for _, rows in bl) for name, bl in blocks.items()}
    ordered = [block for bl in blocks.values() for block in bl]
    x = np.concatenate([np.empty((0, db.n_towers))] + [rows for _, rows in ordered])
    labels = np.concatenate([np.empty(0, dtype=np.int64)]
                            + [np.full(len(rows), loc_id) for loc_id, rows in ordered])
    return SampleSet(x, labels, db.tower_universe), counts
