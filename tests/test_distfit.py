import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug.distfit import (
    _SERIES_FROM,
    BETA,
    DEGENERATE,
    GAMMA,
    GAUSSIAN,
    FitError,
    beta_method_of_moments,
    clamp_to_open_unit,
    fit_best,
    fit_beta,
    fit_database,
    fit_gamma,
    fit_gaussian,
    sample_from,
    _digamma,
    _trigamma,
)
from conftest import survey

EULER_GAMMA = 0.57721566490153286061


def score_norm(dist, samples) -> float:
    """Max-norm of the mean score of the samples at a Gamma or Beta fit's
    parameters; near zero at a true MLE, so it checks the Newton solvers."""
    x = np.asarray(samples, dtype=np.float64)
    if dist.family == GAMMA:
        k, theta = dist.params
        d_k = np.mean(np.log(x)) - np.log(theta) - _digamma(k)
        d_theta = np.mean(x) / theta**2 - k / theta
        return float(max(abs(d_k), abs(d_theta)))
    assert dist.family == BETA
    a, b = dist.params
    d_a = _digamma(a + b) - _digamma(a) + np.mean(np.log(x))
    d_b = _digamma(a + b) - _digamma(b) + np.mean(np.log1p(-x))
    return float(max(abs(d_a), abs(d_b)))


class TestSpecialFunctions:
    def test_known_values(self):
        assert _digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert _digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), rel=1e-15)
        assert _trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert _trigamma(0.5) == pytest.approx(math.pi**2 / 2, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(1e-4, 1e5))
    def test_recurrences(self, x):
        assert _digamma(x + 1.0) - _digamma(x) == pytest.approx(1.0 / x, rel=1e-12, abs=1e-12)
        assert _trigamma(x) - _trigamma(x + 1.0) == pytest.approx(1.0 / x**2, rel=1e-9,
                                                                abs=1e-15)

    def test_continuous_at_series_switch(self):
        # one ulp below the switch is recurrence, at it the series; across it
        # the recurrence ties the two branches together
        below = math.nextafter(_SERIES_FROM, 0.0)
        for kernel in (_digamma, _trigamma):
            assert kernel(below) == pytest.approx(kernel(_SERIES_FROM), rel=1e-14)
        for x in np.linspace(_SERIES_FROM - 1.0, below, 9):
            assert _digamma(x + 1.0) - _digamma(x) == pytest.approx(1.0 / x, rel=1e-13)
            assert _trigamma(x) - _trigamma(x + 1.0) == pytest.approx(1.0 / x**2, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -math.inf, math.nan])
    def test_outside_domain_is_nan(self, x):
        assert math.isnan(_digamma(x)) and math.isnan(_trigamma(x))

    def test_agree_with_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.logspace(-4, 6, 2001)
        for ours, reference in ((math.lgamma, special.gammaln), (_digamma, special.psi),
                                (_trigamma, lambda x: special.polygamma(1, x))):
            expected = reference(xs)
            got = np.array([ours(float(x)) for x in xs])
            assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


class TestGaussian:
    def test_two_point_mle(self):
        fit = fit_gaussian([0.4, 0.6])
        assert fit.family == GAUSSIAN
        assert fit.params == pytest.approx((0.5, 0.1))

    def test_parameter_recovery(self):
        rng = np.random.default_rng(7)
        x = np.clip(rng.normal(0.5, 0.05, 10_000), 0, 1)
        mu, sigma = fit_gaussian(x).params
        assert abs(mu - 0.5) < 0.005
        assert abs(sigma - 0.05) < 0.005

    def test_zero_variance(self):
        with pytest.raises(FitError, match="zero variance"):
            fit_gaussian([0.3, 0.3])

    def test_too_few(self):
        with pytest.raises(FitError, match="too few"):
            fit_gaussian([0.3])


class TestGamma:
    def test_parameter_recovery(self):
        rng = np.random.default_rng(7)
        x = rng.gamma(2.0, 0.1, 10_000)
        k, theta = fit_gamma(x).params
        assert 1.9 <= k <= 2.1
        assert 0.095 <= theta <= 0.105

    def test_non_positive_sample(self):
        with pytest.raises(FitError, match="non-positive sample"):
            fit_gamma([0.5, 0.0, 0.2])

    def test_constant_samples(self):
        with pytest.raises(FitError, match="constant"):
            fit_gamma([0.4, 0.4, 0.4])

    def test_score_norm_small(self):
        rng = np.random.default_rng(11)
        for k_true, theta_true in [(0.8, 0.3), (2.0, 0.1), (9.0, 0.05)]:
            x = rng.gamma(k_true, theta_true, 5000)
            fit = fit_gamma(x)
            assert score_norm(fit, x) < 1e-8


class TestBeta:
    def test_parameter_recovery(self):
        rng = np.random.default_rng(7)
        x = rng.beta(2.0, 5.0, 10_000)
        a, b = fit_beta(x).params
        assert 1.9 <= a <= 2.1
        assert 4.75 <= b <= 5.25

    def test_method_of_moments_init(self):
        # alpha = m * (m(1-m)/v - 1) with m=0.5, v=0.05 gives 2.0 for both
        assert beta_method_of_moments(0.5, 0.05) == pytest.approx((2.0, 2.0))

    def test_constant_after_clamp(self):
        clamped = clamp_to_open_unit(np.array([0.999999, 0.9999999]))
        with pytest.raises(FitError, match="constant"):
            fit_beta(clamped)

    def test_sample_outside_open_interval(self):
        with pytest.raises(FitError, match="outside"):
            fit_beta([0.0, 0.5])

    def test_score_norm_small(self):
        rng = np.random.default_rng(13)
        for a_true, b_true in [(2.0, 5.0), (0.7, 0.9), (8.0, 3.0)]:
            x = rng.beta(a_true, b_true, 5000)
            fit = fit_beta(x)
            assert score_norm(fit, x) < 1e-8


class TestFitBest:
    def test_beta_data_selects_beta(self):
        rng = np.random.default_rng(21)
        assert fit_best(rng.beta(2, 5, 10_000)).family == BETA

    def test_constant_falls_back_to_degenerate(self):
        fit = fit_best([0.5] * 10)
        assert fit.family == DEGENERATE
        assert fit.params == (0.5,)

    def test_single_sample_degenerate(self):
        fit = fit_best([0.3])
        assert fit.family == DEGENERATE
        assert fit.params == (0.3,)

    def test_empty_input(self):
        with pytest.raises(FitError, match="empty input"):
            fit_best([])

    def test_winner_has_max_likelihood(self):
        rng = np.random.default_rng(5)
        x = np.clip(rng.normal(0.5, 0.02, 10_000), 0, 1)
        best = fit_best(x)
        assert best.family in (GAUSSIAN, BETA)
        clamped = clamp_to_open_unit(x)
        for fitter, data in ((fit_gaussian, x), (fit_gamma, clamped), (fit_beta, clamped)):
            assert best.log_likelihood >= fitter(data).log_likelihood

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 31), min_size=2, max_size=40).map(lambda asu: np.array(asu) / 31),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40).map(np.array),
    ))
    def test_winner_is_its_family_fitters_fit(self, x):
        # fit_best hands the Gamma and Beta fitters the sums it takes once;
        # the winner is bit for bit what its family's own fitter returns
        best = fit_best(x)
        fitters = {GAUSSIAN: (fit_gaussian, x), GAMMA: (fit_gamma, clamp_to_open_unit(x)),
                   BETA: (fit_beta, clamp_to_open_unit(x))}
        if best.family != DEGENERATE:
            fitter, data = fitters[best.family]
            assert best == fitter(data)

    def test_boundary_values_handled(self):
        # exact zeros and ones go through the clamp, not an error
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.beta(2, 5, 1000), [0.0, 1.0]])
        fit = fit_best(x)
        assert fit.family in (BETA, GAMMA, GAUSSIAN)


class TestSampleFrom:
    def test_degenerate_point(self):
        fit = fit_best([0.7] * 5)
        assert sample_from(fit, 0, 3).tolist() == [0.7, 0.7, 0.7]

    def test_beta_mean(self):
        from cellaug.distfit import FittedDistribution
        dist = FittedDistribution(BETA, (2.0, 5.0), 0.0, 0)
        draws = sample_from(dist, 42, 100_000)
        assert abs(draws.mean() - 2 / 7) < 0.01

    def test_gaussian_std(self):
        from cellaug.distfit import FittedDistribution
        dist = FittedDistribution(GAUSSIAN, (0.5, 0.1), 0.0, 0)
        draws = sample_from(dist, 42, 100_000)
        assert abs(draws.std() - 0.1) < 0.005

    def test_all_outputs_in_unit_interval(self):
        from cellaug.distfit import FittedDistribution
        dists = [
            FittedDistribution(GAUSSIAN, (0.9, 0.5), 0.0, 0),
            FittedDistribution(GAMMA, (1.5, 0.5), 0.0, 0),
            FittedDistribution(BETA, (0.5, 0.5), 0.0, 0),
            FittedDistribution(DEGENERATE, (0.2,), float("inf"), 0),
        ]
        for dist in dists:
            draws = sample_from(dist, 1, 10_000)
            assert np.all(draws >= 0.0) and np.all(draws <= 1.0)

    def test_n_must_be_positive(self):
        fit = fit_best([0.7] * 5)
        with pytest.raises(ValueError):
            sample_from(fit, 0, 0)

    def test_deterministic_given_seed(self):
        from cellaug.distfit import FittedDistribution
        dist = FittedDistribution(BETA, (2.0, 5.0), 0.0, 0)
        assert np.array_equal(sample_from(dist, 5, 100), sample_from(dist, 5, 100))


class TestFitDatabase:
    def test_fits_heard_towers_only(self):
        db = survey([
            (0, (0, 0), [(0, [("A", 10), ("B", 20)]), (1, [("A", 12), ("B", 20)]), (2, [("A", 14)])]),
            (1, (5, 5), [(0, [("C", 9)]), (1, [("C", 9)])]),
        ])
        fits = fit_database(db)
        assert set(fits[0]) == {"A", "B"}
        assert set(fits[1]) == {"C"}
        # B saturated constant, C constant: degenerate; A has three distinct values
        assert fits[0]["B"].family == DEGENERATE
        assert fits[1]["C"].family == DEGENERATE
        assert fits[0]["A"].sample_count == 3
