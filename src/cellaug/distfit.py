"""Maximum-likelihood fits of per-tower RSS distributions and sampling from them.

For each (location, tower) pair the normalized RSS samples are fitted with
Beta, Gamma and Gaussian models; the family with the highest log-likelihood
wins. Constant data falls back to a point mass. The Gamma and Beta solvers
are Newton iterations on the score equations. Every special function they
need takes one float at a time, so the module computes them itself with
plain Python floats: log-gamma is ``math.lgamma``, and digamma and trigamma
are the recurrence up to ``_SERIES_FROM`` followed by the asymptotic series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FingerprintDatabase
from .preprocess import location_blocks

BOUNDARY_EPS = 1e-4     # Beta/Gamma likelihoods diverge at 0 and 1
SCORE_TOL = 1e-10       # Newton stopping tolerance on the per-sample score
MAX_NEWTON_ITER = 100

BETA = "beta"
GAMMA = "gamma"
GAUSSIAN = "gaussian"
DEGENERATE = "degenerate"


_SERIES_FROM = 10.0   # digamma/trigamma switch from recurrence to series here


def _digamma(x: float) -> float:
    """digamma(x) for x > 0 (nan otherwise), within 1e-13 * max(1, |digamma(x)|).

    Steps x up with digamma(x) = digamma(x + 1) - 1/x, then adds the
    asymptotic series, whose first omitted term is below 1e-16 at x >= 10.
    """
    if not x > 0.0:
        return math.nan
    shift = 0.0
    while x < _SERIES_FROM:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    # sum of B_2k / (2k x^2k) for k = 1..7, by Horner from k = 7 as cephes' psi does
    series = r * ((((((r / 12 - 691 / 32760) * r + 1 / 132) * r - 1 / 240) * r + 1 / 252) * r
                   - 1 / 120) * r + 1 / 12)
    return math.log(x) - 0.5 / x - series - shift


def _trigamma(x: float) -> float:
    """trigamma(x) for x > 0 (nan otherwise), within 1e-13 * max(1, trigamma(x)).

    Steps x up with trigamma(x) = trigamma(x + 1) + 1/x^2, then adds the
    asymptotic series, whose first omitted term is below 2e-15 at x >= 10.
    """
    if not x > 0.0:
        return math.nan
    shift = 0.0
    while x < _SERIES_FROM:
        shift += 1.0 / (x * x)
        x += 1.0
    q = 1.0 / x
    r = q * q
    # 1/x + 1/(2x^2) + sum of B_2k / x^(2k+1) for k = 1..6
    series = q + 0.5 * r + q * r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (
        1 / 30 - r * (5 / 66 - r * (691 / 2730))))))
    return series + shift


class FitError(ValueError):
    """Raised when a distribution family cannot be fitted to the samples."""


@dataclass(frozen=True)
class FittedDistribution:
    """An MLE fit of one family.

    ``params`` by family: beta (alpha, beta); gamma (shape, scale);
    gaussian (mean, std); degenerate (point,).
    """

    family: str
    params: tuple[float, ...]
    log_likelihood: float
    sample_count: int


def clamp_to_open_unit(samples: np.ndarray) -> np.ndarray:
    """Clamp samples into [BOUNDARY_EPS, 1 - BOUNDARY_EPS] so boundary values stay fittable."""
    return np.clip(np.asarray(samples, dtype=np.float64), BOUNDARY_EPS, 1.0 - BOUNDARY_EPS)


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise FitError("empty input")
    return arr


def fit_gaussian(samples) -> FittedDistribution:
    """Gaussian MLE: mean and population standard deviation."""
    x = _as_samples(samples)
    if x.size < 2:
        raise FitError(f"too few samples: {x.size}")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        raise FitError("zero variance")
    n = x.size
    ll = -0.5 * n * np.log(2.0 * np.pi) - n * np.log(sigma) - 0.5 * n
    return FittedDistribution(GAUSSIAN, (mu, sigma), float(ll), n)


def fit_gamma(samples) -> FittedDistribution:
    """Gamma MLE by Newton iteration on the profile score.

    With scale profiled out (scale = mean / shape), the shape k solves
    log(k) - digamma(k) = log(mean) - mean(log x).
    """
    x = _as_samples(samples)
    if x.size < 2:
        raise FitError(f"too few samples: {x.size}")
    if np.any(x <= 0.0):
        raise FitError("non-positive sample")
    if np.all(x == x[0]):
        raise FitError("constant samples")
    return _fit_gamma(x, float(np.sum(x)), float(np.sum(np.log(x))))


def _fit_gamma(x: np.ndarray, total: float, total_log: float) -> FittedDistribution:
    """fit_gamma of the checked samples x, given their sum and the sum of
    their logs, on which alone the fit depends."""
    n = x.size
    mean = total / n
    s = np.log(mean) - total_log / n
    if s <= 0.0:
        raise FitError("degenerate input: zero log-spread")

    # Minka's closed-form approximation as the starting point.
    k = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(MAX_NEWTON_ITER):
        score = np.log(k) - _digamma(k) - s
        if abs(score) < SCORE_TOL:
            break
        k_new = k - score / (1.0 / k - _trigamma(k))
        if k_new <= 0.0 or not np.isfinite(k_new):
            k_new = k / 2.0
        k = k_new
    else:
        raise FitError(f"gamma fit did not converge in {MAX_NEWTON_ITER} iterations")

    scale = mean / k
    ll = (k - 1.0) * total_log - total / scale - n * (k * np.log(scale) + math.lgamma(k))
    return FittedDistribution(GAMMA, (float(k), float(scale)), float(ll), n)


def beta_method_of_moments(mean: float, var: float) -> tuple[float, float]:
    """Closed-form Beta parameters matching a given mean and variance."""
    common = mean * (1.0 - mean) / var - 1.0
    common = max(common, 1e-2)
    return mean * common, (1.0 - mean) * common


def _beta_log_likelihood(a: float, b: float, n: int, mean_log: float, mean_log1m: float) -> float:
    return float(n * ((a - 1.0) * mean_log + (b - 1.0) * mean_log1m
                      - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))))


def fit_beta(samples) -> FittedDistribution:
    """Beta MLE by two-dimensional Newton on the score, moments-initialized."""
    x = _as_samples(samples)
    if x.size < 2:
        raise FitError(f"too few samples: {x.size}")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise FitError("sample outside (0,1)")
    if np.all(x == x[0]):
        raise FitError("constant samples")
    return _fit_beta(x, float(np.sum(x)), float(np.sum(np.log(x))))


def _fit_beta(x: np.ndarray, total: float, total_log: float) -> FittedDistribution:
    """fit_beta of the checked samples x, given their sum and the sum of their logs."""
    mean_log = total_log / x.size
    mean_log1m = float(np.mean(np.log1p(-x)))
    a, b = beta_method_of_moments(total / x.size, float(np.var(x)))

    for iteration in range(1, MAX_NEWTON_ITER + 1):
        digamma_ab = _digamma(a + b)
        ga = digamma_ab - _digamma(a) + mean_log
        gb = digamma_ab - _digamma(b) + mean_log1m
        if max(abs(ga), abs(gb)) < SCORE_TOL:
            break
        tri_ab = _trigamma(a + b)
        haa = tri_ab - _trigamma(a)
        hbb = tri_ab - _trigamma(b)
        det = haa * hbb - tri_ab * tri_ab
        if det == 0.0 or not np.isfinite(det):
            raise FitError(f"beta fit: singular Hessian at iteration {iteration}")
        da = (hbb * ga - tri_ab * gb) / det
        db = (haa * gb - tri_ab * ga) / det
        step = 1.0
        while a - step * da <= 0.0 or b - step * db <= 0.0:
            step *= 0.5
            if step < 1e-8:
                raise FitError(f"beta fit: step collapse at iteration {iteration}")
        a -= step * da
        b -= step * db
    else:
        raise FitError(f"beta fit did not converge in {MAX_NEWTON_ITER} iterations")

    ll = _beta_log_likelihood(a, b, x.size, mean_log, mean_log1m)
    return FittedDistribution(BETA, (float(a), float(b)), ll, x.size)


def fit_best(samples) -> FittedDistribution:
    """Fit all families and keep the best by raw log-likelihood.

    Families whose preconditions fail are skipped; constant or single-sample
    data (and the no-family-fits case) falls back to a point mass.
    """
    x = _as_samples(samples)
    if x.size < 2 or np.all(x == x[0]):
        return FittedDistribution(DEGENERATE, (float(x[0]),), float("inf"), x.size)

    candidates: list[FittedDistribution] = []
    try:
        candidates.append(fit_gaussian(x))
    except FitError:
        pass
    clamped = clamp_to_open_unit(x)
    if not np.all(clamped == clamped[0]):
        # in (0, 1) and not constant: what fit_gamma and fit_beta check
        total, total_log = float(np.sum(clamped)), float(np.sum(np.log(clamped)))
        for fit in (_fit_gamma, _fit_beta):
            try:
                candidates.append(fit(clamped, total, total_log))
            except FitError:
                pass
    if not candidates:
        return FittedDistribution(DEGENERATE, (float(np.mean(x)),), float("inf"), x.size)
    return max(candidates, key=lambda fit: fit.log_likelihood)


def sample_from(dist: FittedDistribution, rng, n: int) -> np.ndarray:
    """Draw n values from a fitted distribution, clipped to [0, 1].

    Beta draws use the two-Gamma ratio so all continuous families share the
    same Gamma/Gaussian primitives.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = np.random.default_rng(rng)
    if dist.family == DEGENERATE:
        return np.full(n, dist.params[0], dtype=np.float64)
    if dist.family == GAUSSIAN:
        mu, sigma = dist.params
        return np.clip(gen.normal(mu, sigma, n), 0.0, 1.0)
    if dist.family == GAMMA:
        shape, scale = dist.params
        return np.clip(gen.gamma(shape, scale, n), 0.0, 1.0)
    if dist.family == BETA:
        a, b = dist.params
        g1 = gen.gamma(a, 1.0, n)
        g2 = gen.gamma(b, 1.0, n)
        return np.clip(g1 / (g1 + g2), 0.0, 1.0)
    raise ValueError(f"unknown family: {dist.family}")


def fit_database(db: FingerprintDatabase) -> dict[int, dict[str, FittedDistribution]]:
    """Best-family fit for every tower heard at each location.

    Samples are the normalized ASU values of the scans where the tower was
    heard; towers never heard at a location are absent from its mapping.
    """
    return {
        loc_id: {db.tower_universe[j]: fit_best(x[heard[:, j], j])
                 for j in np.flatnonzero(np.any(heard, axis=0))}
        for loc_id, x, heard in location_blocks(db)
    }
