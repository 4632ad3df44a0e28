"""Shared helpers: key-value config files, reproducible RNG streams and the
errors that the CLI maps to exit codes."""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


class ModelFormatError(ValueError):
    """Raised when a saved localizer model cannot be parsed or validated."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss during training; carries the loss trace so far."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


def read_kv_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored; keys must be unique.
    """
    out: dict[str, str] = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # name the first line that fails a UTF-8 round trip
        lines = path.read_bytes().splitlines()  # at LF, CRLF and CR, as readlines splits
        bad = next(i for i, b in enumerate(lines, 1) if b.decode("utf-8", "replace").encode() != b)
        raise ConfigError(f"{path}:{bad}: not UTF-8: {exc.reason}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def config_value(value: str, key: str, default):
    """``value`` read as the type of its field's ``default``: a boolean
    (true/yes/on/1 or false/no/off/0), a float, an integer within int64, or,
    for a None default, such an integer or auto (read as None). Any case is
    accepted; anything else raises ConfigError naming the key."""
    text = value.strip()
    if isinstance(default, bool):
        if text.lower() in _BOOLEANS:
            return _BOOLEANS[text.lower()]
        expected = "a boolean"
    elif isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            expected = "a number"
    elif default is None and text.lower() == "auto":
        return None
    else:
        try:
            if -(2**63) <= int(text) < 2**63:
                return int(text)
        except ValueError:
            pass
        expected = "a 64-bit integer" + (" or auto" if default is None else "")
    raise ConfigError(f"{key}: expected {expected}, got {text!r}")


def apply_config(base, fields: dict[str, str], raw: dict[str, str], what: str):
    """The dataclass ``base`` with each ``raw`` key's value read into the field
    that ``fields`` maps it to; a value the dataclass refuses is a ConfigError."""
    overrides = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"unknown {what} config key: {key}")
        overrides[fields[key]] = config_value(value, key, getattr(base, fields[key]))
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def checked_seed(seed: int) -> int:
    """``seed`` if it is in [0, 2**32), the range of a master seed; else a
    ConfigError (a ValueError), so that no two seeds name one stream."""
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must be in [0, 2**32), got {seed}")
    return seed


def derive_rng(master_seed: int, *labels: object) -> np.random.Generator:
    """Named deterministic RNG stream.

    Every source of randomness in the pipeline draws from a stream derived
    from one master seed, in [0, 2**32), plus stable labels (stage name,
    location id), so results are reproducible and independent of
    evaluation order.
    """
    keys = [zlib.crc32(str(label).encode("utf-8")) for label in labels]
    return np.random.default_rng([checked_seed(int(master_seed)), *keys])


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh nondeterministic stream)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
