"""Greedy pricing and the analysis constants.

The important frozen oracle: J(0) for unit Gaussian and unit logistic
located by a high-precision root find.  The Newton solver is also checked
against an independent 90-step bisection and against 30-digit mpmath roots
of the first-order condition, and its inverse J^{-1} against 30-digit mpmath
roots of J(u) = p.  The structural properties (contraction, the unit-noise
fixed point and scale identity, first-order residual, unimodality, the
quadratic regret bound and the analysis constants) are checked once, by
``pricelab verify``.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricelab import (
    GaussianNoise,
    LogisticNoise,
    compute_constants,
    expected_reward,
    greedy_price,
    greedy_price_vec,
    price_cap,
)
from pricelab import pricing
from pricelab.pricing import (
    InvariantViolation,
    greedy_price_inverse,
    squared_hazard_ceiling,
)

U_STAR = math.sqrt(math.pi / 2.0)
J1_AT_0 = 0.7517915246935645  # root of (1-Phi(w))/phi(w) = w, mpmath
JLOG_AT_0 = 1.2784645427610738  # root of 1 + exp(-w) = w, mpmath
J1_AT_2 = 1.668312064745777

# small noise scales: u/spread reaches 2000, where the root sits deep in the
# left tail of the Mills ratio; valuations are drawn from [0, 2]
SMALL_NOISE = (GaussianNoise(0.01), GaussianNoise(0.05), LogisticNoise(0.001))
REFERENCE_MODELS = tuple(GaussianNoise(s) for s in (1e-3, 1e-2, 0.25, 1.0, 5.0)) + tuple(
    LogisticNoise(s) for s in (1e-3, 0.3, 1.0)
)


def bisection_price(model, valuations, iterations=90):
    """Reference J(u): plain bisection of m(z) - z = u/spread on +-(|u|/spread + 10)."""
    u = np.asarray(valuations, dtype=float)
    target = u / model.spread
    lo, hi = -(np.abs(target) + 10.0), np.abs(target) + 10.0
    with np.errstate(over="ignore"):
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            above = model._mills(mid) - mid > target
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
    z = 0.5 * (lo + hi)
    # below u = 0 the price is spread*m(z), which u + spread*z equals at the root without its cancellation
    return np.where(u < 0.0, model.spread * model._mills(z), u + model.spread * z)


def price_ulps(model, price):
    """Agreement unit for J = u + spread*z: one ulp of J plus spread ulps of 1.

    The standardized root z is of order 1 and both solvers place it only to
    within the Mills kernel's own rounding error (up to 2 ulp for z >= -8,
    test_noise.py), which the price inherits multiplied by the spread.
    """
    return np.spacing(np.abs(price)) + model.spread * np.spacing(1.0)


def mpmath_price(model, u):
    """30-digit root in v of 1 - F(v - u) - v f(v - u), bracketed near the float root.

    Solved divided by the density, as m(w) - v/s with w = (v - u)/s: far
    below u = 0 the condition itself is below the solver's tolerance at every v.
    """
    with mpmath.workdps(30):
        s, u_mp = mpmath.mpf(model.spread), mpmath.mpf(u)
        if isinstance(model, GaussianNoise):
            def foc(v):
                w = (v - u_mp) / s
                return mpmath.ncdf(-w) / mpmath.npdf(w) - v / s
        else:
            def foc(v):
                return 1 + mpmath.exp(-(v - u_mp) / s) - v / s
        guess = greedy_price(model, u)
        width = 1e-6 * model.spread
        return float(mpmath.findroot(foc, (guess - width, guess + width), solver="anderson"))


# J^{-1} is checked on these laws; the logistic J stays above s = 0.3
INVERSE_MODELS = (GaussianNoise(0.02), GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(0.3))
# |J^{-1}(p) - u*| in threshold_ulps: 13.4 measured, at sigma = 1 where the
# Mills kernel's own rounding error moves the root by that much
THRESHOLD_BAND = 16


def threshold_ulps(u, price):
    """Agreement unit for u = p - spread*z: one ulp of the larger of |u| and p.

    u is formed by subtracting from p, so near u = 0 it keeps only p's
    absolute precision.
    """
    return np.spacing(np.maximum(np.abs(u), price))


def mpmath_threshold(model, price, guess):
    """30-digit u with J(u) = p: the root z of m(z) = p/spread, bracketed near the float one."""
    with mpmath.workdps(30):
        s, p = mpmath.mpf(model.spread), mpmath.mpf(price)
        if isinstance(model, GaussianNoise):
            def gap(z):
                return mpmath.ncdf(-z) / mpmath.npdf(z) - p / s
        else:
            def gap(z):
                return 1 + mpmath.exp(-z) - p / s
        z = (price - guess) / model.spread
        return p - s * mpmath.findroot(gap, (z - 1e-6, z + 1e-6), solver="anderson")


class _NanMills(GaussianNoise):
    """A broken kernel: the Mills ratio comes out NaN."""

    def _mills(self, z):
        return np.full(np.shape(z), np.nan)


class TestExpectedReward:
    def test_zero_price_zero_reward(self, gauss1, logistic1):
        assert expected_reward(gauss1, 0.0, 0.3) == 0.0
        assert expected_reward(logistic1, 0.0, 1.0) == 0.0

    def test_price_at_valuation_halves(self, gauss1):
        assert expected_reward(gauss1, 0.7, 0.7) == pytest.approx(0.35, rel=1e-12)
        assert expected_reward(gauss1, U_STAR, U_STAR) == pytest.approx(U_STAR / 2.0, rel=1e-12)

    def test_negative_price_rejected(self, gauss1):
        with pytest.raises(ValueError):
            expected_reward(gauss1, -0.1, 0.5)

    def test_deep_tail_is_clean(self, gauss025):
        # 30 standard units above the valuation: tiny but finite and positive
        value = expected_reward(gauss025, 0.5 + 30 * 0.25, 0.5)
        assert 0.0 < value < 1e-190
        assert value == pytest.approx(8.0 * math.exp(gauss025.log_sf(30 * 0.25)), rel=1e-10)

    def test_vectorized(self, gauss1, rng):
        v = rng.uniform(0, 2, 100)
        u = rng.uniform(0, 1, 100)
        np.testing.assert_allclose(
            expected_reward(gauss1, v, u),
            [expected_reward(gauss1, a, b) for a, b in zip(v, u)],
            rtol=1e-14,
        )


class TestGreedyPrice:
    def test_j_at_zero_frozen(self, gauss1, logistic1):
        assert greedy_price(gauss1, 0.0) == pytest.approx(J1_AT_0, abs=1e-11)
        assert greedy_price(logistic1, 0.0) == pytest.approx(JLOG_AT_0, abs=1e-11)

    def test_brute_force_argmax_at_zero(self, gauss1):
        # independent oracle: dense grid maximization of the expected reward
        grid = np.arange(0.0, 5.0, 1e-5)
        rewards = expected_reward(gauss1, grid, 0.0)
        best = grid[np.argmax(rewards)]
        j = greedy_price(gauss1, 0.0)
        assert j > 0.0
        assert abs(best - j) <= 1e-5

    def test_quarter_sigma_case(self, gauss025):
        assert greedy_price(gauss025, 0.5) == pytest.approx(0.25 * J1_AT_2, abs=1e-9)
        assert greedy_price(gauss025, 0.5) == pytest.approx(
            0.25 * greedy_price(GaussianNoise(1.0), 2.0), abs=1e-9
        )

    def test_price_window(self, gauss025, rng):
        cap = price_cap(gauss025, 1.0)
        u = rng.uniform(0.0, 1.0, 200)
        j = greedy_price_vec(gauss025, u)
        assert np.all(j > 0.0)
        assert np.all(j <= cap + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_domain_errors(self, gauss1, bad):
        with pytest.raises(ValueError):
            greedy_price(gauss1, bad)
        with pytest.raises(ValueError):
            greedy_price_vec(gauss1, [0.2, bad])

    def test_vec_agrees_with_scalar(self, gauss025, logistic1, rng):
        cases = [(model, 1.0) for model in (gauss025, logistic1)]
        cases += [(model, 2.0) for model in SMALL_NOISE]
        for model, u_hi in cases:
            u = rng.uniform(-u_hi, u_hi, 300)
            vec = greedy_price_vec(model, u)
            scalar = np.array([greedy_price(model, x) for x in u])
            np.testing.assert_allclose(vec, scalar, atol=5e-13)

    def test_agrees_with_bisection_reference(self):
        u = np.linspace(-2.0, 2.0, 4001)
        for model in REFERENCE_MODELS:
            ref = bisection_price(model, u)
            vec = greedy_price_vec(model, u)
            scalar = np.array([greedy_price(model, x) for x in u[::10]])
            assert np.max(np.abs(vec - ref) / price_ulps(model, ref)) <= 4.0, model
            assert np.max(np.abs(scalar - ref[::10]) / price_ulps(model, ref[::10])) <= 4.0, model

    def test_matches_mpmath_roots(self):
        models = (GaussianNoise(1e-3), GaussianNoise(0.25), GaussianNoise(1.0), GaussianNoise(5.0))
        models += (LogisticNoise(1e-3), LogisticNoise(1.0))
        for model in models:
            # at u = -1.9, -1 and -0.9 and spreads of 1e-3, J is 1e-6 to 1e-3 of |u|: u + spread*z lost
            # up to 4.9e-10 of it relative, and prices there are now spread*m(z)
            for u in (-1.9, -1.0, -0.9, -0.37, 0.0, 0.37, 1.0, 1.9):
                want = mpmath_price(model, u)
                got = np.array([greedy_price(model, u), greedy_price_vec(model, [u])[0]])
                assert np.all(np.abs(got - want) <= 4.0 * price_ulps(model, want)), (model, u, got, want)

    def test_monotone_across_zero(self):
        # the logistic at s = 1e-3 stepped down by an ulp below 0 when J was u + spread*z
        u = np.unique(np.concatenate([np.linspace(-2.0, 2.0, 4001), [-5e-324, 5e-324, -1e-300, 1e-300]]))
        for model in REFERENCE_MODELS:
            assert np.all(np.diff(greedy_price_vec(model, u)) >= 0.0), model
            assert np.all(np.diff([greedy_price(model, x) for x in u[1900:2103]]) >= 0.0), model

    def test_broken_kernel_raises(self):
        model = _NanMills(1.0)
        with pytest.raises(InvariantViolation):
            greedy_price(model, 0.3)
        with pytest.raises(InvariantViolation):
            greedy_price_vec(model, [0.1, 0.3])

    def test_iteration_cap_raises(self, gauss1, monkeypatch):
        # beyond the root table (u/spread > 64) a price starts from z = 1 and
        # takes 8 steps, so a cap of 3 stops it; inside the table one suffices.
        # The table is built under the default cap first, so the raise comes
        # from the valuation's own solve.
        greedy_price(gauss1, 0.3)
        monkeypatch.setattr(pricing, "NEWTON_CAP", 3)
        assert greedy_price(gauss1, 0.3) == greedy_price_vec(gauss1, [0.3])[0]
        with pytest.raises(InvariantViolation):
            greedy_price(gauss1, 80.0)
        with pytest.raises(InvariantViolation):
            greedy_price_vec(gauss1, [0.3, 100.0])

    def test_off_the_table_converges_from_its_start(self, gauss1):
        # beyond the table (u/spread > 64) a price starts from z = 1; below it
        # (u < 0) from z = 1 - c, inside the bracket [-c, -c + 10], right of the root
        u = np.array([-50.0, -2.0, -0.3, -1e-300, 64.0, 65.0, 80.0, 100.0, 1000.0])
        c = u / gauss1.spread
        np.testing.assert_array_equal(pricing._table_start(gauss1, c), 1.0 - np.minimum(c, 0.0))
        vec = greedy_price_vec(gauss1, u)
        np.testing.assert_array_equal(vec, [greedy_price(gauss1, x) for x in u])
        ref = bisection_price(gauss1, u)
        assert np.max(np.abs(vec - ref) / price_ulps(gauss1, ref)) <= 4.0

    def test_table_holds_the_roots_from_one(self):
        # row k is the cubic on [c_k, c_k+1]: its constant term is the root the
        # loop finds from z = 1 and its value at t = 1 the next one; the
        # interpolated start lies inside the bracket [-c/2, c + 10]
        for model in (GaussianNoise(1.0), LogisticNoise(1.0)):
            table = pricing._root_table(model)
            c = np.arange(pricing.ROOT_TABLE_POINTS) / 256.0
            from_one = pricing._newton_array(
                model, 1.0, c, -0.5 * c, c + 10.0, np.ones_like(c), pricing.PRICE_TOL
            )
            assert table.shape == (pricing.ROOT_TABLE_POINTS - 1, 4)
            np.testing.assert_array_equal(table[:, 0], from_one[:-1])
            np.testing.assert_allclose(table.sum(axis=1), from_one[1:], rtol=0.0, atol=1e-15)
            between = np.linspace(0.0, pricing.ROOT_TABLE_MAX, 100_003)[:-1]
            start = pricing._table_start(model, between)
            assert np.all((start > -0.5 * between) & (start < between + 10.0))
        assert pricing._root_table(GaussianNoise(0.02)) is pricing._root_table(GaussianNoise(0.25))

    @pytest.mark.parametrize("model", [GaussianNoise(1.0), LogisticNoise(1.0)], ids=["gaussian", "logistic"])
    def test_table_start_within_its_stated_error(self, model):
        # against the root the loop reaches from the start at a tolerance of
        # 1e-16, where it stops on the Mills kernel's rounding; the largest
        # errors are 3.5e-14 (Gaussian, c near 0.68) and 2.9e-14 (logistic, c
        # near 0.53), under the 4e-13 that PRICE_TOL asks at sigma = 0.25, so
        # the first Newton step stops there
        c = np.linspace(0.0, pricing.ROOT_TABLE_MAX, 100_003)[:-1]
        start = pricing._table_start(model, c)
        root = pricing._newton_array(model, 1.0, c, -0.5 * c, c + 10.0, start.copy(), 1e-16)
        assert np.max(np.abs(start - root)) <= pricing.ROOT_TABLE_START_ERROR
        assert pricing.ROOT_TABLE_START_ERROR < pricing.PRICE_TOL / 0.25

    @given(
        u1=st.floats(min_value=-1.0, max_value=1.0),
        u2=st.floats(min_value=-1.0, max_value=1.0),
        sigma=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_contraction_everywhere(self, u1, u2, sigma):
        lo, hi = sorted((u1, u2))
        model = GaussianNoise(sigma)
        d_price = greedy_price(model, hi) - greedy_price(model, lo)
        assert -1e-12 <= d_price <= (hi - lo) + 1e-12
        if hi - lo > 1e-7:
            assert 0.0 < d_price < hi - lo


class TestGreedyPriceInverse:
    def test_matches_mpmath_roots(self):
        prices = np.linspace(0.02, 2.0, 100)
        for model in INVERSE_MODELS:
            got = greedy_price_inverse(model, prices)
            found = np.isfinite(got)
            want = np.array([float(mpmath_threshold(model, p, u)) for p, u in zip(prices[found], got[found])])
            # far below u = 0, J' -> 0 and half an ulp of p/spread moves the
            # root by more than the band (the logistic at p = s(1 + 2e-16) sits
            # 0.15 from it); the policy uses only the sign of such a threshold
            near = want >= -1.0
            err = np.abs(got[found] - want)[near] / threshold_ulps(want[near], prices[found][near])
            assert np.max(err) <= THRESHOLD_BAND, (model, np.max(err))
            assert np.all(got[found][~near] < 0.0)

    def test_round_trip(self):
        prices = np.linspace(0.01, 2.5, 20001)
        for model in INVERSE_MODELS:
            u = greedy_price_inverse(model, prices)
            fires = np.isfinite(u)
            assert fires.sum() > 10_000
            back = greedy_price_vec(model, u[fires])
            unit = price_ulps(model, prices[fires])
            assert np.max(np.abs(back - prices[fires]) / unit) <= 4.0, model
            assert np.all(np.diff(u[np.isfinite(u)]) > 0.0)

    def test_far_tail_roots(self):
        # at spread 5 the root z = (p - u)/5 reaches 500, where ztol is finer
        # than one ulp of z and Newton cycles between two floats: the loop
        # stops when a step lands back on an evaluated end of its bracket
        model = GaussianNoise(5.0)
        prices = np.geomspace(0.01, 1.0, 30)
        got = greedy_price_inverse(model, prices)
        want = np.array([float(mpmath_threshold(model, p, u)) for p, u in zip(prices, got)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_logistic_prices_below_its_infimum(self):
        # J(u) = s * m(z) > s for the logistic, so no valuation is priced at s or below
        model = LogisticNoise(0.3)
        u = greedy_price_inverse(model, [0.1, 0.3, 0.3 * (1 + 1e-12), 0.3 * (1 + 1e-6)])
        assert np.all(np.isneginf(u[:2]))
        assert np.all(np.isfinite(u[2:])) and u[2] < u[3] < 0.0

    def test_shape_and_domain(self, gauss1):
        assert greedy_price_inverse(gauss1, 0.75).shape == ()
        assert greedy_price_inverse(gauss1, np.ones((2, 3))).shape == (2, 3)
        assert greedy_price_inverse(gauss1, []).shape == (0,)
        for bad in ([0.5, 0.0], [-0.1], [np.nan], [np.inf]):
            with pytest.raises(ValueError):
                greedy_price_inverse(gauss1, bad)

    def test_failures_raise(self, gauss1, monkeypatch):
        with pytest.raises(InvariantViolation):
            greedy_price_inverse(_NanMills(1.0), [0.5, 1.0])
        # 2 steps converge neither price here (5 are needed)
        monkeypatch.setattr(pricing, "NEWTON_CAP", 2)
        with pytest.raises(InvariantViolation):
            greedy_price_inverse(gauss1, [0.5, 1.0])


def grid_constants(model, b):
    """Reference c_exp and c_down: the extrema over a dense grid of the
    window, 20,001 even points of [-B, B + J(0)] and 40 geometric points
    clustered at each end."""
    lo, hi = -b, b + greedy_price(model, 0.0)
    edge = (hi - lo) * np.geomspace(1e-9, 1e-2, 40)
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 20001), lo + edge, hi - edge]))
    c_exp = float(np.max(np.maximum(model.hazard(grid), model.reverse_hazard(grid))) ** 2)
    c_down = float(np.min(np.minimum(model.log_sf_curvature(grid), model.log_cdf_curvature(grid))))
    return c_exp, c_down


class TestAnalysisConstants:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "model, rtol",
        [pytest.param(GaussianNoise(s), 0.0, id=f"gaussian-{s}") for s in (0.05, 0.25, 1.0)]
        + [pytest.param(LogisticNoise(s), 1e-13, id=f"logistic-{s}") for s in (0.02, 0.3, 1.0)],
    )
    def test_window_ends_match_the_dense_grid(self, model, rtol, b):
        # the extrema lie at the window's ends; the logistic grid maximum
        # picks up reverse-hazard rounding at small scale
        c_exp, c_down = grid_constants(model, b)
        assert squared_hazard_ceiling(model, b) == pytest.approx(c_exp, rel=rtol, abs=0.0)
        if c_down > 0.0:
            assert compute_constants(model, b).c_down == c_down
        else:  # Gaussian sigma = 0.05 at B = 2: the floor underflows on both
            with pytest.raises(InvariantViolation):
                compute_constants(model, b)

    def test_quadratic_constant_closed_form(self, gauss025):
        c = compute_constants(gauss025, 1.0)
        assert c.c_quad == pytest.approx(2 * gauss025.b_f + (1.0 + c.j0) * gauss025.b_fprime, rel=1e-15)

    def test_small_logistic_floor(self):
        # c_down = f(B + J(0))/s = 1.3e-19; the cancelling curvature form gave -8.2e-12 and raised
        model = LogisticNoise(0.02)
        c = compute_constants(model, 1.0)
        assert c.c_down == pytest.approx(model.pdf(1.0 + c.j0) / model.scale, rel=1e-12)

    def test_squared_hazard_ceiling_is_c_exp(self):
        for model in (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(0.3), LogisticNoise(0.02)):
            assert squared_hazard_ceiling(model, 1.0) == compute_constants(model, 1.0).c_exp
        # the ceiling alone exists where c_down underflows to 0 (Gaussian sigma = 0.02)
        assert 0.0 < squared_hazard_ceiling(GaussianNoise(0.02), 1.0) < math.inf

    def test_one_window_solve_per_call(self, monkeypatch, gauss025):
        # c_exp and c_down share one J(0) solve
        calls = []

        def counting(*args):
            calls.append(args)
            return window_ends(*args)

        window_ends = pricing._window_ends
        monkeypatch.setattr(pricing, "_window_ends", counting)
        compute_constants(gauss025, 1.0)
        assert len(calls) == 1

    def test_small_noise_ceiling_is_warning_free(self):
        # the window's lower end is z = -50, where the Mills ratio is +inf and the hazard 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert squared_hazard_ceiling(GaussianNoise(0.02), 1.0) > 0.0

def test_invariant_violation_is_runtime_error():
    assert issubclass(InvariantViolation, RuntimeError)
