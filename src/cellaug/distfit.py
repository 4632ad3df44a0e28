"""Maximum-likelihood fits of per-tower RSS distributions and sampling from them.

For each (location, tower) pair the normalized RSS samples are fitted with
Beta, Gamma and Gaussian models; the family with the highest log-likelihood
wins. Constant data falls back to a point mass. The Gamma and Beta solvers
are Newton iterations on the score equations, using digamma/trigamma.
scipy.special is imported inside the functions that use it, so a command
that fits nothing never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FingerprintDatabase
from .preprocess import location_blocks
from .util import as_rng

BOUNDARY_EPS = 1e-4     # Beta/Gamma likelihoods diverge at 0 and 1
SCORE_TOL = 1e-10       # Newton stopping tolerance on the per-sample score
MAX_NEWTON_ITER = 100

BETA = "beta"
GAMMA = "gamma"
GAUSSIAN = "gaussian"
DEGENERATE = "degenerate"


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


def clamp_to_open_unit(samples: np.ndarray, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """Clamp samples into [eps, 1-eps] so boundary values stay fittable."""
    return np.clip(np.asarray(samples, dtype=np.float64), eps, 1.0 - eps)


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


def _gamma_log_likelihood(x: np.ndarray, shape: float, scale: float) -> float:
    from scipy.special import gammaln

    return float(
        (shape - 1.0) * np.sum(np.log(x))
        - np.sum(x) / scale
        - x.size * (shape * np.log(scale) + gammaln(shape))
    )


def fit_gamma(samples) -> FittedDistribution:
    """Gamma MLE by Newton iteration on the profile score.

    With scale profiled out (scale = mean / shape), the shape k solves
    log(k) - digamma(k) = log(mean) - mean(log x).
    """
    from scipy.special import polygamma, psi

    x = _as_samples(samples)
    if x.size < 2:
        raise FitError(f"too few samples: {x.size}")
    if np.any(x <= 0.0):
        raise FitError("non-positive sample")
    if np.all(x == x[0]):
        raise FitError("constant samples")

    mean = float(np.mean(x))
    mean_log = float(np.mean(np.log(x)))
    s = np.log(mean) - mean_log
    if s <= 0.0:
        raise FitError("degenerate input: zero log-spread")

    # Minka's closed-form approximation as the starting point.
    k = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(MAX_NEWTON_ITER):
        score = np.log(k) - psi(k) - s
        if abs(score) < SCORE_TOL:
            break
        k_new = k - score / (1.0 / k - polygamma(1, k))
        if k_new <= 0.0 or not np.isfinite(k_new):
            k_new = k / 2.0
        k = k_new
    else:
        raise FitError(f"gamma fit did not converge in {MAX_NEWTON_ITER} iterations")

    scale = mean / k
    return FittedDistribution(GAMMA, (float(k), float(scale)), _gamma_log_likelihood(x, k, scale), x.size)


def beta_method_of_moments(mean: float, var: float) -> tuple[float, float]:
    """Closed-form Beta parameters matching a given mean and variance."""
    common = mean * (1.0 - mean) / var - 1.0
    common = max(common, 1e-2)
    return mean * common, (1.0 - mean) * common


def _beta_log_likelihood(a: float, b: float, n: int, mean_log: float, mean_log1m: float) -> float:
    from scipy.special import gammaln

    return float(n * ((a - 1.0) * mean_log + (b - 1.0) * mean_log1m
                      - (gammaln(a) + gammaln(b) - gammaln(a + b))))


def fit_beta(samples) -> FittedDistribution:
    """Beta MLE by two-dimensional Newton on the score, moments-initialized."""
    from scipy.special import polygamma, psi

    x = _as_samples(samples)
    if x.size < 2:
        raise FitError(f"too few samples: {x.size}")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise FitError("sample outside (0,1)")
    if np.all(x == x[0]):
        raise FitError("constant samples")

    mean_log = float(np.mean(np.log(x)))
    mean_log1m = float(np.mean(np.log1p(-x)))
    a, b = beta_method_of_moments(float(np.mean(x)), float(np.var(x)))

    for iteration in range(1, MAX_NEWTON_ITER + 1):
        ga = psi(a + b) - psi(a) + mean_log
        gb = psi(a + b) - psi(b) + mean_log1m
        if max(abs(ga), abs(gb)) < SCORE_TOL:
            break
        tri_ab = polygamma(1, a + b)
        haa = tri_ab - polygamma(1, a)
        hbb = tri_ab - polygamma(1, b)
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
        for fitter in (fit_gamma, fit_beta):
            try:
                candidates.append(fitter(clamped))
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
    gen = as_rng(rng)
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


def score_norm(dist: FittedDistribution, samples) -> float:
    """Max-norm of the per-sample score at the fitted parameters.

    Diagnostic for the Newton solvers; near-zero at a true MLE.
    """
    from scipy.special import psi

    x = _as_samples(samples)
    n = x.size
    if dist.family == GAUSSIAN:
        mu, sigma = dist.params
        d_mu = np.sum(x - mu) / (sigma**2) / n
        d_sigma = (np.sum((x - mu) ** 2) / sigma**3 - n / sigma) / n
        return float(max(abs(d_mu), abs(d_sigma)))
    if dist.family == GAMMA:
        k, theta = dist.params
        d_k = np.mean(np.log(x)) - np.log(theta) - psi(k)
        d_theta = np.mean(x) / theta**2 - k / theta
        return float(max(abs(d_k), abs(d_theta)))
    if dist.family == BETA:
        a, b = dist.params
        d_a = psi(a + b) - psi(a) + np.mean(np.log(x))
        d_b = psi(a + b) - psi(b) + np.mean(np.log1p(-x))
        return float(max(abs(d_a), abs(d_b)))
    raise ValueError(f"no score for family: {dist.family}")


def fit_database(db: FingerprintDatabase) -> dict[int, dict[str, FittedDistribution]]:
    """Best-family fit for every tower heard at each location.

    Samples are the normalized ASU values of the scans where the tower was
    heard; towers never heard at a location are absent from its mapping.
    """
    return {
        loc.location_id: {db.tower_universe[j]: fit_best(x[heard[:, j], j])
                          for j in np.flatnonzero(np.any(heard, axis=0))}
        for loc, x, heard in location_blocks(db)
    }
