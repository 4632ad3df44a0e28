"""Deep fingerprint localizer: softmax over reference locations, decoded as
the probability-weighted average of all reference coordinates, plus the
error evaluation (percentiles and CDF), its JSON writer and the
improvement comparison. The classifier trains in nn.train on class
indices, with the softmax cross-entropy fused into its step."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .core import TowerId
from .nn import (
    DenseNetwork,
    LayerSpec,
    TrainConfig,
    forward,
    init_network,
    network_from_dict,
    network_to_dict,
    train,
)
from .preprocess import SampleSet
from .util import ConfigError, ModelFormatError, derive_rng


@dataclass(frozen=True)
class HyperProfile:
    learning_rate: float
    batch_size: int
    dropout_rate: float
    epochs: int
    hidden_neurons: int
    hidden_layers: int

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or min(
                self.learning_rate, self.batch_size, self.epochs,
                self.hidden_neurons, self.hidden_layers) <= 0:
            raise ConfigError("profile values must be positive and finite")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout_rate}")


# Default hyperparameters for the indoor and outdoor evaluation scenarios.
INDOOR_PROFILE = HyperProfile(
    learning_rate=0.001, batch_size=256, dropout_rate=0.10,
    epochs=260, hidden_neurons=280, hidden_layers=4,
)
OUTDOOR_PROFILE = HyperProfile(
    learning_rate=0.005, batch_size=40, dropout_rate=0.10,
    epochs=500, hidden_neurons=345, hidden_layers=3,
)


def default_profile(kind: str) -> HyperProfile:
    """The default indoor or outdoor hyperparameter set."""
    if kind == "indoor":
        return INDOOR_PROFILE
    if kind == "outdoor":
        return OUTDOOR_PROFILE
    raise ValueError(f"unknown profile kind: {kind!r} (expected 'indoor' or 'outdoor')")


def desk_profile() -> HyperProfile:
    """Lightweight profile sized for the synthetic desk testbed."""
    return HyperProfile(
        learning_rate=0.01, batch_size=64, dropout_rate=0.10,
        epochs=150, hidden_neurons=64, hidden_layers=2,
    )


@dataclass
class LocalizerModel:
    """Trained classifier plus the label/coordinate bookkeeping for decoding,
    and the tower ids its input columns are aligned to."""

    network: DenseNetwork
    profile: HyperProfile
    classes: list[int]                       # class index -> location_id
    coords: dict[int, tuple[float, float]]   # location_id -> (x, y) meters
    towers: tuple[TowerId, ...]              # input column -> tower id

    def __post_init__(self):
        if (self.network.input_dim, self.network.output_dim) != (len(self.towers), len(self.classes)):
            raise ValueError("network dims disagree with the tower and class counts")
        if self.network.layers[-1].activation != "softmax":
            raise ValueError("output layer is not softmax")
        for name, ids in (("class", self.classes), ("tower", self.towers)):
            if len(set(ids)) != len(ids):
                raise ValueError(f"repeated {name}")
        missing = [c for c in self.classes if c not in self.coords]
        if missing:
            raise ValueError(f"no coordinates for class(es): {missing}")
        if not np.isfinite(self.coordinate_matrix).all():
            raise ValueError("non-finite coordinates")

    @property
    def coordinate_matrix(self) -> np.ndarray:
        return np.array([self.coords[c] for c in self.classes])


class ErrorReport:
    """Per-sample localization errors in meters, kept in the order given,
    with their quartiles and CDF, each derived once from them."""

    def __init__(self, errors):
        self.errors = np.asarray(errors, dtype=np.float64)
        if self.errors.size == 0:
            raise ValueError("empty test set")
        self._ranked = np.sort(self.errors).tolist()
        self.p25, self.p50, self.p75 = (_quantile(self._ranked, q) for q in (0.25, 0.5, 0.75))
        n = self.errors.size
        # float64 division of integers below 2**53 rounds as Python's int / int does.
        self._fractions = (np.arange(1, n + 1) / n).tolist()

    def __repr__(self) -> str:
        return f"ErrorReport({self.errors!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorReport):
            return NotImplemented
        return np.array_equal(self.errors, other.errors)

    @property
    def cdf(self) -> tuple[tuple[float, float], ...]:
        """(error, fraction of errors at or below it) for each ranked error."""
        return tuple(zip(self._ranked, self._fractions))

    def to_dict(self) -> dict:
        return self._dict(list(map(list, zip(self._ranked, self._fractions))))

    def _dict(self, cdf) -> dict:
        return {
            "percentiles": {"p25": self.p25, "p50": self.p50, "p75": self.p75},
            "cdf": cdf,
            "n": int(self.errors.size),
        }

    @cached_property
    def _cdf_text(self) -> tuple[list[str], list[str]]:
        """The CDF's errors and fractions, each formatted once with repr,
        which is also what json writes for a finite float."""
        return list(map(repr, self._ranked)), list(map(repr, self._fractions))

    def cdf_csv(self) -> str:
        errors, fractions = self._cdf_text
        return "\n".join(["error_m,fraction", *map(",".join, zip(errors, fractions))]) + "\n"

    def _cdf_json(self, indent: str) -> str:
        """The CDF as json.dumps(..., indent=2) writes it where its key's line
        starts with `indent`."""
        errors, fractions = (list(map(_JSON_NON_FINITE.get, column, column))
                             for column in self._cdf_text)
        row, value = indent + "  ", indent + "    "
        pairs = map(f",\n{value}".join, zip(errors, fractions))
        body = f"\n{row}],\n{row}[\n{value}".join(pairs)
        return f"[\n{row}[\n{value}{body}\n{row}]\n{indent}]"


# json's spelling of the floats whose repr is not JSON.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Stands in for a CDF in json's output until it is spliced in; json writes
# the NUL as \u0000, which no other string of a report holds.
_CDF_MARK = "\0cdf "


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, where an ErrorReport (the
    payload itself, or a dict value at any depth) stands for its to_dict().

    json's indented encoder is pure Python, slow on a CDF of thousands of
    rows, so each CDF is written from its formatted values and spliced in;
    the rest of the payload goes through json.
    """
    reports = []

    def stub(value, depth):
        if isinstance(value, ErrorReport):
            reports.append((value, "  " * (depth + 1)))
            return value._dict(f"{_CDF_MARK}{len(reports) - 1}")
        if isinstance(value, dict):
            return {key: stub(v, depth + 1) for key, v in value.items()}
        return value

    text = json.dumps(stub(payload, 0), indent=2)
    for i, (report, indent) in enumerate(reports):
        text = text.replace(json.dumps(f"{_CDF_MARK}{i}"), report._cdf_json(indent), 1)
    return text + "\n"


def _quantile(ranked: list[float], q: float) -> float:
    """np.percentile(ranked, 100 * q) of sorted values, bit for bit (numpy's
    linear rule), without the numpy.ma import that np.percentile costs."""
    if math.isnan(ranked[-1]):  # NaN sorts last
        return ranked[-1]
    i = math.floor(v := (len(ranked) - 1) * q)
    a, b, t = ranked[i], ranked[min(i + 1, len(ranked) - 1)], v - i
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def train_localizer(
    samples: SampleSet,
    profile: HyperProfile,
    coords: dict[int, tuple[float, float]],
    seed: int = 0,
) -> LocalizerModel:
    """Train the multinomial classifier on labeled samples.

    Classes are the sorted distinct labels; every label must have an entry
    in coords. The model keeps the samples' tower ids as its input
    contract. Deterministic for a fixed seed.
    """
    classes, labels = np.unique(samples.labels, return_inverse=True)
    classes = classes.tolist()
    if len(classes) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {len(classes)}")
    missing = [c for c in classes if c not in coords]
    if missing:
        raise ValueError(f"no coordinates for location(s): {missing}")

    dims = [samples.x.shape[1]] + [profile.hidden_neurons] * profile.hidden_layers
    specs = [LayerSpec(a, b, "relu") for a, b in zip(dims, dims[1:])]
    specs.append(LayerSpec(dims[-1], len(classes), "softmax"))
    net = init_network(specs, derive_rng(seed, "localizer-init"), dropout_rate=profile.dropout_rate)

    cfg = TrainConfig(
        learning_rate=profile.learning_rate,
        batch_size=profile.batch_size,
        epochs=profile.epochs,
        seed=int(derive_rng(seed, "localizer-train").integers(0, 2**31)),
    )
    train(net, samples.x, labels, cfg)
    return LocalizerModel(network=net, profile=profile, classes=classes,
                          coords={c: tuple(coords[c]) for c in classes},
                          towers=samples.towers)


def weighted_centroid(probabilities: np.ndarray, coordinates: np.ndarray) -> np.ndarray:
    """Average of the reference coordinates weighted by class probability."""
    p = np.asarray(probabilities, dtype=np.float64)
    return p @ np.asarray(coordinates, dtype=np.float64)


def estimate_location(model: LocalizerModel, x: np.ndarray) -> np.ndarray:
    """Probability-weighted average of all reference coordinates, for one
    vector or for each row of a matrix aligned to the model's towers."""
    p = forward(model.network, np.asarray(x, dtype=np.float64))
    return weighted_centroid(p, model.coordinate_matrix)


def evaluate(model: LocalizerModel, samples: SampleSet) -> ErrorReport:
    """Euclidean error of each test sample against its location's coordinates;
    an empty test set is a ValueError."""
    if samples.towers != model.towers:
        raise ValueError("test samples are not aligned to the model's towers")
    classes = np.asarray(model.classes)
    order = np.argsort(classes)
    index = order[np.searchsorted(classes, samples.labels, sorter=order).clip(max=len(order) - 1)]
    if not np.array_equal(classes[index], samples.labels):
        raise ValueError("test samples hold locations unknown to the model")
    estimates = estimate_location(model, samples.x)
    truth = model.coordinate_matrix[index]
    errors = np.linalg.norm(estimates - truth, axis=1)
    return ErrorReport(errors)


def improvement(with_aug: ErrorReport, without_aug: ErrorReport) -> dict[str, float | str]:
    """Percent improvement per percentile: (without - with) / with * 100.

    A percentile where the augmented error is exactly zero is reported as
    "exact" rather than dividing by zero.
    """
    out: dict[str, float | str] = {}
    for name in ("p25", "p50", "p75"):
        w = getattr(with_aug, name)
        wo = getattr(without_aug, name)
        out[name] = "exact" if w == 0.0 else (wo - w) / w * 100.0
    return out


def model_to_dict(model: LocalizerModel) -> dict:
    return {
        "network": network_to_dict(model.network),
        "profile": {name: kind(getattr(model.profile, name))  # as annotated: 0.0, not 0
                    for name, kind in get_type_hints(HyperProfile).items()},
        "classes": model.classes,
        "coords": {str(c): list(map(float, model.coords[c])) for c in model.classes},
        "towers": list(model.towers),
    }


def model_from_dict(data: dict) -> LocalizerModel:
    """The model of a model_to_dict dict, ids and coordinates in the types it writes."""
    return LocalizerModel(
        network=network_from_dict(data["network"]),
        profile=HyperProfile(**data["profile"]),
        classes=[int(c) for c in data["classes"]],
        coords={int(k): (float(x), float(y)) for k, (x, y) in data["coords"].items()},
        towers=tuple(map(str, data["towers"])),
    )


def _first_difference(found, saved) -> str | None:
    """The first JSON path (jq style) where the decoded file `found` differs
    from `saved`, type for type as Python has True == 1 == 1.0, and what each
    holds there; None if nowhere. The path is built only on a difference."""
    if type(found) is list is type(saved):
        found, saved = dict(enumerate(found)), dict(enumerate(saved))
    if type(found) is dict is type(saved):
        for key in found:
            inner = (_first_difference(found[key], saved[key]) if key in saved
                     else ": save_model writes no such entry")
            if inner:
                return (f".{key}" if str(key).isidentifier() else f"[{json.dumps(key)}]") + inner
        return None if len(found) == len(saved) else ": entries missing"
    return None if type(found) is type(saved) and found == saved else (
        f": {reprlib.repr(found)}, save_model writes {reprlib.repr(saved)}")


def save_model(model: LocalizerModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path: str | Path) -> LocalizerModel:
    """Read a model saved by :func:`save_model`: a file loads only if it is
    model_to_dict of the model built from it, else ModelFormatError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        model = model_from_dict(data)
        if difference := _first_difference(data, model_to_dict(model)):
            raise ValueError(difference)
        return model
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError,
            RecursionError) as exc:
        raise ModelFormatError(f"{path}: malformed model: {type(exc).__name__}: {exc}") from exc
