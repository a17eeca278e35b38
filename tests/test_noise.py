"""Distribution-level contracts: values, tails, hazard, sampling.

Frozen decimal expectations were produced with an mpmath oracle at 40+
digits (see _oracle_* helpers, kept for regeneration); each literal is the
correctly rounded double.
"""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricelab import GaussianNoise, LogisticNoise, _mills_table
from pricelab.noise import _FLOAT_LOOP, _SERIES_Z, _gaussian_mills

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
        # 4 standard errors of the mean, with the logistic law's variance pi^2 s^2/3 at s = 1
        assert abs(draws.mean()) < 4.0 * math.sqrt(math.pi**2 / 3.0 / 1e6)


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


# far beyond every tail, up to the largest double, where w/spread overflows below spread 1
HUGE = np.array([1e8, 1e20, 1e154, 1e200, 1e300, 1.7e308, np.finfo(float).max])


def _limits(model) -> dict:
    """Each public method's limits at w = +inf and w = -inf, by name."""
    s, gaussian = model.spread, isinstance(model, GaussianNoise)
    hazard = math.inf if gaussian else 1.0 / s  # the logistic hazard is F/s
    curvature = 1.0 / s**2 if gaussian else 0.0  # the logistic curvature is f/s
    return {
        "cdf": (1.0, 0.0), "sf": (0.0, 1.0), "log_cdf": (0.0, -math.inf), "log_sf": (-math.inf, 0.0),
        "pdf": (0.0, 0.0), "pdf_derivative": (0.0, 0.0), "hazard": (hazard, 0.0), "reverse_hazard": (0.0, hazard),
        "log_sf_curvature": (curvature, 0.0), "log_cdf_curvature": (0.0, curvature),
    }  # fmt: skip


class TestExtremeArguments:
    """Every finite argument is valid, up to the largest double."""

    @pytest.mark.parametrize(
        "model", [GaussianNoise(0.5), GaussianNoise(1e-3), LogisticNoise(0.5), LogisticNoise(0.3)], ids=str
    )
    def test_limits_where_the_standardized_argument_overflows(self, model):
        w = np.array([1.7e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, (right, left) in _limits(model).items():
                method = getattr(model, name)
                np.testing.assert_array_equal(method(np.concatenate([w, -w])), [right, right, left, left], err_msg=name)
                assert (method(1.7e308), method(-1.7e308)) == (right, left), name

    @pytest.mark.parametrize("spread", [1e-3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("law", [GaussianNoise, LogisticNoise])
    def test_far_tails_are_silent_and_bounded(self, law, spread):
        model = law(spread)
        w = np.concatenate([HUGE, -HUGE])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = {name: getattr(model, name)(w) for name in _limits(model)}
        assert not any(np.any(np.isnan(v)) for v in values.values())
        ceilings = {"cdf": 1.0, "sf": 1.0, "pdf": model.b_f, "log_sf_curvature": _limits(model)["log_sf_curvature"][0]}
        ceilings["log_cdf_curvature"] = ceilings["log_sf_curvature"]
        for name, ceiling in ceilings.items():
            assert np.all((values[name] >= 0.0) & (values[name] <= ceiling)), name

    def test_gaussian_curvature_far_right_matches_mpmath(self):
        # h(h + f'/f) cancels far right (h is about z/sigma); from z = _SERIES_Z on
        # the asymptotic series replaces it: within 5.1e-13 of the exact value up
        # to there (1e-12 asked), 6e-15 beyond (1e-14 asked), and 1/sigma^2 where
        # that is exact
        mp = pytest.importorskip("mpmath")
        z = np.concatenate([np.geomspace(8.0, 1e8, 401), [1e20, 1e300]])
        model = GaussianNoise(1.0)
        with mp.workdps(60):  # at 40 digits mpmath's erfc(1e8) keeps 24
            x = [mp.mpf(v) for v in z[:-2].tolist()]
            exact = [float((1 - v * m) / m**2) for v, m in zip(x, (mp.ncdf(-v) / mp.npdf(v) for v in x))]
        exact += [1.0, 1.0]  # 1 - 1/z^2 to within 1e-40 at z >= 1e20
        err = np.abs(model.log_sf_curvature(z) - exact) / exact
        assert np.all(err <= np.where(z >= _SERIES_Z, 1e-14, 1e-12)), z[np.argmax(err)]


def _overflow_point() -> float:
    """The largest z whose Mills ratio overflows to +inf, by bisection on the doubles."""
    lo, hi = np.array([-37.7, -37.6]).view(np.int64)  # inf at -37.7, finite at -37.6
    while lo - hi > 1:  # negative doubles order their bit patterns in reverse
        mid = (lo + hi) // 2
        if math.isinf(_gaussian_mills(float(np.int64(mid).view(np.float64)))):
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64))


OVERFLOW = _overflow_point()
# the table's piece edges, where it hands over to the far pieces and the
# reflection, the overflow point, and the ends of the line
EDGES = sorted(
    float(z)
    for z in {k / 32 for k in range(-257, 258)}
    | {256 / k for k in range(1, 33)}
    | {OVERFLOW, np.nextafter(OVERFLOW, 0.0), math.inf, -math.inf}
)
NEAR_EDGES = st.sampled_from(EDGES).flatmap(
    lambda z: st.sampled_from([z, float(np.nextafter(z, -math.inf)), float(np.nextafter(z, math.inf)), -z])
)
ANY_Z = st.one_of(NEAR_EDGES, st.floats(-40.0, 40.0), st.floats(allow_nan=False))


def _numpy_path(kernel, z: float) -> float:
    """kernel on an array long enough for the numpy evaluation, not the float loop."""
    return float(kernel(np.full(_FLOAT_LOOP + 1, z))[0])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _mills_oracle(z: float):
    mp = pytest.importorskip("mpmath")
    return mp.ncdf(-mp.mpf(z)) / mp.npdf(mp.mpf(z))


def _ulps(got: np.ndarray, exact) -> np.ndarray:
    """|got - exact| in units of the spacing of the double nearest exact."""
    want = np.array([float(e) for e in exact])
    diff = np.array([float(abs(g - e)) for g, e in zip(got.tolist(), exact)])
    return diff / np.abs(np.spacing(want))


class TestMillsKernel:
    """The Gaussian Mills-ratio table: one kernel for m, Phi, log Phi and the hazard."""

    @settings(max_examples=400, deadline=None)
    @given(z=ANY_Z)
    def test_float_and_array_give_the_same_bits(self, z):
        model = GaussianNoise(0.25)
        assert type(model._mills(z)) is float
        assert _bits(model._mills(z)) == _bits(_numpy_path(model._mills, z))
        assert _bits(model._hazard(z)) == _bits(_numpy_path(model._hazard, z))
        assert _bits(model._log_cdf(z)) == _bits(_numpy_path(model._log_cdf, z))
        logistic = LogisticNoise(0.3)
        assert _bits(logistic._hazard(z)) == _bits(_numpy_path(logistic._hazard, z))

    def test_matches_mpmath(self):
        # m within 2 ulp for z >= -8, and within z^2/2 + 2 ulp below, where
        # the reflection's exp(z^2/2) inherits the rounding of z^2
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        near = np.concatenate([np.linspace(-8.0, 8.0, 4097), rng.uniform(-8.0, 8.0, 2000)])
        far = np.geomspace(8.0, 1e6, 400)[1:]
        left = np.linspace(-37.6, -8.0, 400)[:-1]
        with mp.workdps(40):
            for z, slack in ((near, 0.0), (far, 0.0), (left, 0.5 * left * left)):
                err = _ulps(_gaussian_mills(z), [_mills_oracle(x) for x in z.tolist()])
                assert np.all(err <= 2.0 + slack), z[np.argmax(err - slack)]

    def test_cdf_and_log_cdf_match_mpmath(self):
        # Phi within z^2/2 + 4 ulp; log Phi within 4 ulp for z <= 0 and
        # z^2/2 + 4 ulp above, where log1p(-q) carries q's error
        mp = pytest.importorskip("mpmath")
        z = np.linspace(-38.0, 38.0, 3041)
        model = GaussianNoise(1.0)
        with mp.workdps(40):
            lower = [mp.ncdf(mp.mpf(x)) for x in z.tolist()]
            log_cdf = [mp.log1p(-mp.ncdf(-mp.mpf(x))) if x > 0 else mp.log(c) for x, c in zip(z.tolist(), lower)]
            normal = np.array([float(c) > 1e-300 for c in lower])
            cdf_err = _ulps(model.cdf(z[normal]), [c for c, n in zip(lower, normal) if n])
            log_err = _ulps(model.log_cdf(z), log_cdf)
        assert np.all(cdf_err <= 0.5 * z[normal] ** 2 + 4.0)
        assert np.all(log_err <= np.where(z > 0.0, 0.5 * z * z, 0.0) + 4.0)

    def test_phi_is_monotone_at_every_edge(self):
        # the table's m near 0 is one ulp above sqrt(pi/2): Phi(0) was 0.5000000000000001 and
        # Phi(5e-324) 0.4999999999999999, and log Phi stepped the same way
        model = GaussianNoise(1.0)
        edges = [z for z in EDGES if math.isfinite(z)] + [-OVERFLOW, 5e-324, 1e-17]
        z = np.unique([w for e in edges for w in (e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf), -e)])
        assert model.cdf(0.0) == model.sf(0.0) == 0.5
        assert model.log_cdf(0.0) == model.log_sf(0.0) == math.log(0.5)
        for name, sign in (("cdf", 1.0), ("log_cdf", 1.0), ("sf", -1.0), ("log_sf", -1.0)):
            assert np.all(sign * np.diff(getattr(model, name)(z)) >= 0.0), name

    def test_overflow_is_silent(self):
        model = GaussianNoise(0.25)
        below = [np.nextafter(OVERFLOW, -math.inf), -37.7, -40.0, -1e10, -1e300, -math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in below:
                assert _gaussian_mills(float(z)) == math.inf
                assert model._hazard(float(z) * 0.25) == 0.0
            for z in (np.array(below), np.full(_FLOAT_LOOP + 1, -40.0)):
                assert np.all(_gaussian_mills(z) == math.inf)
                assert np.all(model._hazard_curvature(z[np.isfinite(z)] * 0.25)[1] == 0.0)
            assert math.isfinite(_gaussian_mills(float(np.nextafter(OVERFLOW, 0.0))))
            assert _gaussian_mills(math.inf) == 0.0

    def test_nan_stays_nan(self):
        for z in (math.nan, np.full(3, math.nan), np.full(_FLOAT_LOOP + 1, math.nan)):
            assert np.all(np.isnan(_gaussian_mills(z)))

    def test_table_is_its_generator_output(self):
        # the committed coefficients are exactly what tools/mills_table.py prints
        pytest.importorskip("mpmath")
        path = Path(__file__).resolve().parents[1] / "tools" / "mills_table.py"
        spec = importlib.util.spec_from_file_location("mills_table", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.render() == Path(_mills_table.__file__).read_text()
