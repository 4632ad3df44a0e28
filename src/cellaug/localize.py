"""Deep fingerprint localizer: softmax over reference locations, decoded as
the probability-weighted average of all reference coordinates, plus the
error evaluation (percentiles and CDF), its JSON writer and the
improvement comparison. The classifier trains in nn.train on class
indices, with the softmax cross-entropy fused into its step."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import TowerId
from .nn import (
    DenseNetwork,
    LayerSpec,
    TrainConfig,
    forward,
    init_network,
    json_number,
    network_from_dict,
    network_to_dict,
    train,
)
from .preprocess import SampleSet
from .util import ModelFormatError, derive_rng


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
            raise ValueError("profile values must be positive and finite")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout must be in [0, 1): {self.dropout_rate}")


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
        if self.network.output_dim != len(self.classes):
            raise ValueError("output dim disagrees with class count")
        if self.network.input_dim != len(self.towers):
            raise ValueError("input dim disagrees with tower count")
        if self.network.layers[-1].activation != "softmax":
            raise ValueError("output layer is not softmax")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("repeated class")
        missing = [c for c in self.classes if c not in self.coords]
        if missing:
            raise ValueError(f"no coordinates for class(es): {missing}")

    @property
    def coordinate_matrix(self) -> np.ndarray:
        return np.array([self.coords[c] for c in self.classes])


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-sample localization errors in meters with their percentiles."""

    errors: np.ndarray
    p25: float
    p50: float
    p75: float
    cdf: tuple[tuple[float, float], ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorReport):
            return NotImplemented
        return (np.array_equal(self.errors, other.errors)
                and (self.p25, self.p50, self.p75, self.cdf)
                == (other.p25, other.p50, other.p75, other.cdf))

    def to_dict(self) -> dict:
        return self._dict([[e, f] for e, f in self.cdf])

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
        errors, fractions = zip(*self.cdf) if self.cdf else ((), ())
        return list(map(repr, errors)), list(map(repr, fractions))

    def cdf_csv(self) -> str:
        errors, fractions = self._cdf_text
        return "\n".join(["error_m,fraction", *map(",".join, zip(errors, fractions))]) + "\n"

    def _cdf_json(self, indent: str) -> str:
        """The CDF as json.dumps(..., indent=2) writes it where its key's line
        starts with `indent`."""
        if not self.cdf:
            return "[]"
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


def make_report(errors: np.ndarray) -> ErrorReport:
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty test set")
    ranked = np.sort(errors).tolist()
    p25, p50, p75 = (_quantile(ranked, q) for q in (0.25, 0.5, 0.75))
    n = errors.size
    # float64 division of integers below 2**53 rounds as Python's int / int does.
    cdf = tuple(zip(ranked, (np.arange(1, n + 1) / n).tolist()))
    return ErrorReport(errors=errors, p25=p25, p50=p50, p75=p75, cdf=cdf)


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
    """Euclidean error of each test sample against its location's coordinates."""
    if len(samples) == 0:
        raise ValueError("empty test set")
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
    return make_report(errors)


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
        "profile": asdict(model.profile),
        "classes": model.classes,
        "coords": {str(c): list(model.coords[c]) for c in model.classes},
        "towers": list(model.towers),
    }


def model_from_dict(data: dict) -> LocalizerModel:
    profile = HyperProfile(**data["profile"])
    for f in fields(profile):  # each number in its JSON type; f.type is the annotation's text
        json_number(getattr(profile, f.name), f"profile {f.name}",
                    (int,) if f.type == "int" else (int, float))
    if any(str(int(k)) != k for k in data["coords"]):  # one key per location: not "01" or " 1"
        raise ValueError(f"location keys must be integers as written, got {list(data['coords'])}")
    coords = {int(k): tuple(float(json_number(c, f"location {k} coordinate")) for c in (x, y))
              for k, (x, y) in data["coords"].items()}
    if not np.all(np.isfinite(list(coords.values()))):
        raise ValueError("non-finite coordinates")
    classes = data["classes"]
    if not all(type(c) is int for c in classes):  # a JSON integer, not 0.5 or true
        raise ValueError(f"classes must be integers, got {classes}")
    towers = data["towers"]
    if not all(type(t) is str for t in towers):
        raise ValueError(f"tower ids must be strings, got {towers}")
    return LocalizerModel(
        network=network_from_dict(data["network"]),
        profile=profile,
        classes=list(classes),
        coords=coords,
        towers=tuple(towers),
    )


def save_model(model: LocalizerModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path: str | Path) -> LocalizerModel:
    """Read a model saved by :func:`save_model`; a file that is not one
    raises ModelFormatError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return model_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model: {type(exc).__name__}: {exc}") from exc
