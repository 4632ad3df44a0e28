"""Checks of the CLI's outputs that use none of the program's own code.

Everything here is recomputed with plain numpy from the raw survey file,
the testbed spec and the saved model JSON. Each check function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ASU_MAX = 31
THRESHOLD = 0.2      # drop_threshold default: entries with 0 < ASU/31 < 0.2
PER_SCAN = 10        # noise, drop_random: 10 variants per training scan
PER_LOCATION = 10    # sampling, vae ("auto"): 10 x the location's training scans
PERCENTILE_TOL = 1e-9


def read_kv(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file, ``#`` comments and blank lines skipped."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def spec_shape(path: str | Path) -> tuple[int, int]:
    """(grid cells, scans per location) of a grid testbed spec."""
    kv = read_kv(path)
    spacing = float(kv["grid.spacing"])
    nx = len(np.arange(spacing / 2.0, float(kv["area.width"]), spacing))
    ny = len(np.arange(spacing / 2.0, float(kv["area.height"]), spacing))
    return nx * ny, int(kv["scans_per_location"])


class Survey:
    """A survey file read line by line: coordinates and scans per location."""

    def __init__(self, path: str | Path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        self.coords: dict[int, tuple[float, float]] = {}
        self.scans: dict[int, list[list[tuple[str, int]]]] = {}
        for raw in lines[1:]:
            if not raw.strip():
                continue
            rec = json.loads(raw)
            loc = int(rec["loc"])
            self.coords[loc] = (float(rec["x"]), float(rec["y"]))
            self.scans.setdefault(loc, []).append([(str(t), int(a)) for t, a in rec["readings"]])
        self.locations = sorted(self.scans)
        self.universe = sorted({t for s in self.scans.values() for scan in s for t, _ in scan})

    def max_distance(self) -> float:
        """Largest distance between two reference points; a weighted
        centroid lies in their convex hull, so no error can exceed it."""
        pts = np.array([self.coords[loc] for loc in self.locations])
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    def shape_problems(self, cells: int, scans_per_location: int) -> list[str]:
        if len(self.locations) != cells:
            return [f"survey has {len(self.locations)} locations, spec says {cells}"]
        bad = [loc for loc in self.locations if len(self.scans[loc]) != scans_per_location]
        if bad:
            return [f"locations {bad[:5]} do not hold {scans_per_location} scans"]
        return []

    def test_matrix(self, train_scans: int) -> tuple[np.ndarray, np.ndarray]:
        """Held-out features (ASU/31 over the sorted universe) and the true
        coordinates of each held-out scan, in (location, file) order."""
        index = {t: j for j, t in enumerate(self.universe)}
        rows, truth = [], []
        for loc in self.locations:
            for scan in self.scans[loc][train_scans:]:
                row = np.zeros(len(self.universe))
                for tower, asu in scan:
                    row[index[tower]] = asu / ASU_MAX
                rows.append(row)
                truth.append(self.coords[loc])
        return np.array(rows), np.array(truth)

    def expected_counts(self, train_scans: int, vae: bool) -> dict[str, int]:
        """augmented_counts of ``compare`` with the default technique settings."""
        n_train = train_scans * len(self.locations)
        threshold = 0
        for loc in self.locations:
            for scan in self.scans[loc][:train_scans]:
                k = sum(1 for _, asu in scan if 0.0 < asu / ASU_MAX < THRESHOLD)
                threshold += 2**k - 1
        return {
            "original": n_train,
            "noise": PER_SCAN * n_train,
            "sampling": PER_LOCATION * n_train,
            "drop_random": PER_SCAN * n_train,
            "drop_threshold": threshold,
            "vae": PER_LOCATION * n_train if vae else 0,
        }


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def error_report_problems(rep: dict, n_expected: int, max_distance: float, tag: str) -> list[str]:
    """CDF sorted with fractions i/n, percentiles equal np.percentile of the
    CDF errors, and every error inside the reference points' hull."""
    problems = []
    errors = np.array([e for e, _ in rep["cdf"]], dtype=np.float64)
    fractions = [f for _, f in rep["cdf"]]
    n = errors.size
    if n != n_expected or rep["n"] != n_expected:
        problems.append(f"{tag}: {n} CDF points, n={rep['n']}, expected {n_expected}")
    if np.any(np.diff(errors) < 0):
        problems.append(f"{tag}: CDF errors are not sorted")
    if fractions != [(i + 1) / n for i in range(n)]:
        problems.append(f"{tag}: CDF fractions are not i/n")
    want = np.percentile(errors, [25, 50, 75])
    got = [rep["percentiles"][k] for k in ("p25", "p50", "p75")]
    if not all(_close(g, w, 1e-12) for g, w in zip(got, want)):
        problems.append(f"{tag}: percentiles {got} != np.percentile of the CDF {want.tolist()}")
    if n and (errors.min() < 0 or errors.max() > max_distance + 1e-9):
        problems.append(f"{tag}: error {errors.max()} outside [0, {max_distance}]")
    return problems


def compare_problems(report_path: Path, survey: Survey, train_scans: int, vae: bool) -> list[str]:
    """Checks of one ``compare`` report against the raw survey."""
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    n_test = sum(len(survey.scans[loc]) - train_scans for loc in survey.locations)
    problems = []
    if rep["n_test_scans"] != n_test:
        problems.append(f"n_test_scans {rep['n_test_scans']} != {n_test}")
    if rep["n_train_scans"] != train_scans * len(survey.locations):
        problems.append(f"n_train_scans {rep['n_train_scans']} is wrong")
    expected = survey.expected_counts(train_scans, vae)
    if rep["augmented_counts"] != expected:
        problems.append(f"augmented_counts {rep['augmented_counts']} != {expected}")
    dmax = survey.max_distance()
    with_aug, without = rep["with_augmentation"], rep["without_augmentation"]
    problems += error_report_problems(with_aug, n_test, dmax, "with")
    problems += error_report_problems(without, n_test, dmax, "without")
    for key in ("p25", "p50", "p75"):
        w, wo = with_aug["percentiles"][key], without["percentiles"][key]
        got = rep["improvement_percent"][key]
        if w == 0.0:
            ok = got == "exact"
        else:
            ok = not isinstance(got, str) and _close(got, (wo - w) / w * 100.0, 1e-9)
        if not ok:
            problems.append(f"improvement_percent[{key}] = {got!r} disagrees with the percentiles")
    if not with_aug["percentiles"]["p50"] < without["percentiles"]["p50"]:
        problems.append("augmentation did not lower the median error")
    return problems


def model_errors(model_path: Path, x: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Localization errors recomputed from the saved model JSON: ReLU hidden
    layers, softmax head, probability-weighted centroid of the classes."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    net = model["network"]
    a = x
    for layer, w, b in zip(net["layers"], net["weights"], net["biases"]):
        z = a @ np.array(w) + np.array(b)
        if layer["activation"] == "relu":
            a = np.maximum(z, 0.0)
        elif layer["activation"] == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            raise ValueError(f"unexpected localizer activation {layer['activation']}")
    centers = np.array([model["coords"][str(c)] for c in model["classes"]], dtype=np.float64)
    return np.linalg.norm(a @ centers - truth, axis=1)


def evaluate_problems(report_path: Path, errors: np.ndarray, survey: Survey, tag: str) -> list[str]:
    """Checks of one ``evaluate`` report against independently recomputed errors."""
    rep = json.loads(report_path.read_text(encoding="utf-8"))
    problems = error_report_problems(rep, errors.size, survey.max_distance(), tag)
    want = np.percentile(errors, [25, 50, 75])
    got = [rep["percentiles"][k] for k in ("p25", "p50", "p75")]
    if not all(_close(g, w, PERCENTILE_TOL) for g, w in zip(got, want)):
        problems.append(f"{tag}: percentiles {got} != recomputed {want.tolist()}")
    reported = np.array([e for e, _ in rep["cdf"]], dtype=np.float64)
    if reported.size == errors.size and np.max(np.abs(reported - np.sort(errors))) > PERCENTILE_TOL:
        problems.append(f"{tag}: CDF errors differ from the recomputed errors")
    return problems
