"""Distribution-level contracts: values, tails, hazard, sampling.

Frozen decimal expectations were produced with an mpmath oracle at 40+
digits (see _oracle_* helpers, kept for regeneration); each literal is the
correctly rounded double.
"""

import math

import numpy as np
import pytest

from pricelab import GaussianNoise, LogisticNoise

# mpmath.ncdf / high-precision oracle outputs, frozen:
PHI_1 = 0.8413447460685429  # standard normal CDF at 1
LOG_SF_10 = -53.23128515051247  # log(1 - Phi(10))
HAZARD_0 = 0.7978845608028654  # 2/sqrt(2*pi)
HAZARD_3 = 3.2830986549304365
HAZARD_30 = 30.033259667433677
HAZARD_M10 = 7.69459862670642e-23


def _oracle_gaussian_cdf(x, dps=50):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    return mp.ncdf(x)


class TestCdf:
    def test_symmetry_at_zero(self, gauss1, logistic1):
        assert gauss1.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert logistic1.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_sigma_matches_unit_normal(self, gauss025):
        # one standard unit for sigma = 0.25
        assert gauss025.cdf(0.25) == pytest.approx(PHI_1, abs=1e-12)

    def test_strictly_increasing_and_interior(self, gauss025, logistic1):
        for model in (gauss025, logistic1):
            values = model.cdf(np.linspace(-8.0, 8.0, 4001) * model.spread)
            assert np.all((values > 0) & (values < 1))
            # strictness on a grid needs representable increments; at 8
            # standard units the Gaussian cdf moves by < 1 ulp per step
            bulk = model.cdf(np.linspace(-6.0, 6.0, 4001) * model.spread)
            assert np.all(np.diff(bulk) > 0)

    def test_rejects_non_finite(self, gauss1):
        with pytest.raises(ValueError):
            gauss1.cdf(np.nan)
        with pytest.raises(ValueError):
            gauss1.cdf(np.inf)
        with pytest.raises(ValueError):
            gauss1.log_sf(np.array([0.0, -np.inf]))


class TestLogTails:
    def test_log_sf_at_zero(self, gauss1, logistic1):
        assert gauss1.log_sf(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)
        assert logistic1.log_sf(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_gaussian_deep_tail_value(self, gauss1):
        value = gauss1.log_sf(10.0)
        assert -55.0 < value < -50.0
        assert value == pytest.approx(LOG_SF_10, rel=1e-12)

    def test_gaussian_tail_asymptotics_at_30(self, gauss1):
        # log(1-F(w)) ~ log(f(w)/w) + log(1 - 1/w^2) for large w
        w = 30.0
        log_pdf = -0.5 * w * w - 0.5 * math.log(2 * math.pi)
        expansion = log_pdf - math.log(w) + math.log1p(-1.0 / w**2)
        assert gauss1.log_sf(w) == pytest.approx(expansion, rel=1e-8)

    def test_logistic_closed_form(self, logistic1):
        grid = np.linspace(-30.0, 30.0, 601)
        want = -np.log1p(np.exp(-np.abs(grid))) - np.maximum(grid, 0.0)
        np.testing.assert_allclose(logistic1.log_sf(grid), want, rtol=1e-12, atol=1e-300)

    def test_no_catastrophic_cancellation(self, gauss025):
        # the naive form log(1 - cdf) dies around 38 standard units; the
        # stable form keeps full relative accuracy far beyond
        w = np.array([35.0, 38.0, 40.0]) * 0.25
        values = gauss025.log_sf(w)
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) < 0)

class TestCurvatures:
    def test_logistic_matches_mpmath(self):
        # both curvatures are F(1-F)/s^2; the generic r(r - f'/f) form
        # returned 0 at |w/s| = 40, where the true value is 4.2e-18
        mp = pytest.importorskip("mpmath")
        for model in (LogisticNoise(0.02), LogisticNoise(0.3), LogisticNoise(1.0)):
            w = np.linspace(-40.0, 40.0, 801) * model.scale
            with mp.workdps(40):
                s = mp.mpf(model.scale)
                tail = [mp.exp(-abs(mp.mpf(x) / s)) for x in w]
                want = np.array([float(e / (1 + e) ** 2 / s**2) for e in tail])
            for curvature in (model.log_sf_curvature, model.log_cdf_curvature):
                # 1e-14: w/s rounds by half an ulp, and f moves by |w/s| times that
                np.testing.assert_allclose(curvature(w), want, rtol=1e-14, atol=0.0)


class TestGaussianKernels:
    """The hazard and both log-likelihood curvatures against mpmath at 40
    digits, at the margins each double w = z sigma stands for."""

    @pytest.mark.parametrize("sigma", [0.02, 0.25, 1.0])
    def test_match_mpmath(self, sigma):
        mp = pytest.importorskip("mpmath")
        model = GaussianNoise(sigma)
        bulk = np.linspace(-40.0, 40.0, 801) * sigma
        far = np.linspace(40.0, 100.0, 601) * sigma
        with mp.workdps(40):
            s = mp.mpf(sigma)

            def exact(w, kernel):
                return np.array([float(kernel(mp.mpf(x) / s)) for x in w])

            # the hazard and the sale curvature h(h - z/sigma); the miss
            # curvature r(r + z/sigma) with r = f/F, not mirrored from the sale
            def hazard(z):
                return mp.npdf(z) / (s * mp.ncdf(-z))

            def sale(z):
                return hazard(z) * (hazard(z) - z / s)

            def miss(z):
                r = mp.npdf(z) / (s * mp.ncdf(z))
                return r * (r + z / s)

            sale_bulk, miss_bulk = exact(bulk, sale), exact(bulk, miss)
            sale_far, hazard_far = exact(far, sale), exact(far, hazard)
        # beyond z = -37.65 the Mills ratio overflows and the sale kernels
        # round to 0, where their true values are below 1e-300
        np.testing.assert_allclose(model.log_sf_curvature(bulk), sale_bulk, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(model.log_cdf_curvature(bulk), miss_bulk, rtol=1e-12, atol=1e-300)
        # 1 - 1/(z m(z)) cancels in the sale curvature, to ~z^2 ulps at z = 100
        np.testing.assert_allclose(model.log_sf_curvature(far), sale_far, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(model.hazard(far), hazard_far, rtol=1e-14, atol=0.0)


class TestHazard:
    def test_value_at_zero(self, gauss1):
        assert gauss1.hazard(0.0) == pytest.approx(HAZARD_0, rel=1e-13)

    def test_oracle_values(self, gauss1):
        assert gauss1.hazard(3.0) == pytest.approx(HAZARD_3, rel=1e-12)
        assert gauss1.hazard(30.0) == pytest.approx(HAZARD_30, rel=1e-10)

    def test_right_tail_window(self, gauss1):
        assert 30.0 <= gauss1.hazard(30.0) <= 30.04

    def test_left_tail_vanishes(self, gauss1):
        value = gauss1.hazard(-10.0)
        assert 0 < value < 1e-20
        assert value == pytest.approx(HAZARD_M10, rel=1e-10)

    def test_matches_pdf_over_sf(self, gauss1, logistic1):
        grid = np.linspace(-5.0, 5.0, 101)
        for model in (gauss1, logistic1):
            want = model.pdf(grid) / model.sf(grid)
            np.testing.assert_allclose(model.hazard(grid), want, rtol=1e-10)


class TestDensity:
    def test_gaussian_bounds_closed_form(self, gauss025):
        assert gauss025.b_f == pytest.approx(1.0 / (0.25 * math.sqrt(2 * math.pi)), rel=1e-15)
        assert gauss025.b_fprime == pytest.approx(1.0 / (0.25**2 * math.sqrt(2 * math.pi * math.e)), rel=1e-15)

    def test_logistic_bounds_closed_form(self, logistic1):
        assert logistic1.b_f == pytest.approx(0.25, rel=1e-15)
        assert logistic1.b_fprime == pytest.approx(math.sqrt(3.0) / 18.0, rel=1e-15)

    def test_bounds_dominate_grid(self, gauss025, logistic1):
        grid = np.linspace(-12.0, 12.0, 20001)
        for model in (gauss025, logistic1):
            g = grid * model.spread
            assert np.max(model.pdf(g)) <= model.b_f * (1 + 1e-12)
            assert np.max(np.abs(model.pdf_derivative(g))) <= model.b_fprime * (1 + 1e-12)

class TestSampler:
    def test_deterministic_given_seed(self, gauss025):
        a = gauss025.sample(np.random.default_rng(7), 1000)
        b = gauss025.sample(np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_moments(self, gauss1):
        draws = gauss1.sample(np.random.default_rng(11), 1_000_000)
        # 4 standard errors of the mean; chi-square band for the variance
        assert abs(draws.mean()) < 4.0 / math.sqrt(1e6)
        assert 0.99 < draws.var() < 1.01

    def test_logistic_variance(self, logistic1):
        draws = logistic1.sample(np.random.default_rng(13), 1_000_000)
        assert abs(draws.var() - math.pi**2 / 3.0) < 0.05
        assert abs(draws.mean()) < 4.0 * math.sqrt(logistic1.variance / 1e6)


class TestValidation:
    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            GaussianNoise(0.0)
        with pytest.raises(ValueError):
            GaussianNoise(-1.0)
        with pytest.raises(ValueError):
            LogisticNoise(0.0)

    def test_models_are_immutable(self, gauss1):
        with pytest.raises(Exception):
            gauss1.sigma = 2.0
