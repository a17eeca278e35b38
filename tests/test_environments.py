"""Simulated markets: feature laws, sale resolution, lower-bound geometry."""

import math

import numpy as np
import pytest

from pricelab import (
    AlternatingScenario,
    FIXED_VALUATION,
    FixedValuationScenario,
    GaussianNoise,
    OraclePolicy,
    OrthantBall,
    PricingProblem,
    StochasticScenario,
    expected_reward,
    greedy_price,
    greedy_price_vec,
    lower_bound_pair,
    run_episode,
)


class TestAlternating:
    def test_block_pattern(self, problem, rng):
        x = AlternatingScenario(problem).features(16, rng)
        np.testing.assert_array_equal(x[0], [1.0, 0.0])  # t=1, block 1
        np.testing.assert_array_equal(x[1], [0.0, 1.0])  # t=2, block 2
        np.testing.assert_array_equal(x[2], [0.0, 1.0])  # t=3, block 2
        np.testing.assert_array_equal(x[3], [1.0, 0.0])  # t=4, block 3
        np.testing.assert_array_equal(x[6], [1.0, 0.0])  # t=7, block 3
        np.testing.assert_array_equal(x[7], [0.0, 1.0])  # t=8, block 4
        np.testing.assert_array_equal(x[15], [1.0, 0.0])  # t=16, block 5

    def test_deterministic(self, problem, rng):
        scen = AlternatingScenario(problem)
        np.testing.assert_array_equal(scen.features(64, rng), scen.features(64, np.random.default_rng(99)))

    def test_requires_two_dimensions(self):
        problem3 = PricingProblem(
            GaussianNoise(0.25), OrthantBall(1.0, 3), np.array([0.5, 0.5, 0.1]), 1.0
        )
        with pytest.raises(ValueError):
            AlternatingScenario(problem3)


class TestStochastic:
    def test_contract_and_magnitudes(self, problem, rng):
        scen = StochasticScenario(problem)
        x = scen.features(20_000, rng)
        scen.check_features(x)
        norms = np.linalg.norm(x, axis=1)
        assert np.all(norms >= 0.5 - 1e-12)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.all(x >= 0.0)

    def test_reproducible(self, problem):
        scen = StochasticScenario(problem)
        a = scen.features(100, np.random.default_rng(5))
        b = scen.features(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_higher_dimension_branch(self, rng):
        problem3 = PricingProblem(
            GaussianNoise(0.25), OrthantBall(1.0, 3), np.array([0.4, 0.4, 0.4]), 1.0
        )
        scen = StochasticScenario(problem3)
        x = scen.features(5000, rng)
        scen.check_features(x)
        assert x.shape == (5000, 3)


class TestFixedValuation:
    def test_pins_the_valuation(self, rng):
        scen = FixedValuationScenario.build(sigma=1.0)
        x = scen.features(50, rng)
        u = x @ scen.problem.theta_star
        np.testing.assert_allclose(u, FIXED_VALUATION, rtol=1e-14)
        scen.check_features(x)

    def test_custom_sigma(self, rng):
        scen = FixedValuationScenario.build(sigma=0.5)
        assert scen.problem.model.sigma == 0.5
        assert scen.problem.valuation_bound == pytest.approx(FIXED_VALUATION)


def _oracle_transcript(scenario, horizon, seed):
    problem = scenario.problem
    policy = OraclePolicy(problem.model, problem.region, problem.feature_bound, problem.theta_star)
    transcript, _ = run_episode(policy, scenario, horizon, seed)
    return transcript


class TestResolveSale:
    """The harness sells when the price is at most x'theta* + noise.

    The oracle prices a whole episode with one greedy_price_vec call, so its
    prices equal that solver's exactly.
    """

    def test_acceptance_frequency(self):
        # u* lies below sigma = 2's fixed point 2 sqrt(pi/2)
        scen = FixedValuationScenario.build(sigma=2.0)
        n = 100_000
        transcript = _oracle_transcript(scen, n, seed=3)
        v = float(greedy_price_vec(scen.problem.model, FIXED_VALUATION))
        np.testing.assert_array_equal(transcript.prices, v)
        p = scen.problem.model.sf(v - FIXED_VALUATION)  # 1 - F(v - u*)
        assert p < 0.4  # J(u*) > u* below the fixed point: fewer than half buy
        assert abs(np.mean(transcript.accepted) - p) <= 4.0 * math.sqrt(p * (1 - p) / n)

    def test_fixed_point_market_half_acceptance(self):
        # at the unit-noise fixed point the optimal price is the valuation
        # itself, accepted half the time for an expected reward of u*/2
        scen = FixedValuationScenario.build(sigma=1.0)
        v = float(greedy_price_vec(GaussianNoise(1.0), FIXED_VALUATION))
        assert v == pytest.approx(FIXED_VALUATION, abs=1e-9)
        transcript = _oracle_transcript(scen, 50_000, seed=11)
        np.testing.assert_array_equal(transcript.prices, v)
        assert abs(np.mean(transcript.accepted) - 0.5) < 4.0 * math.sqrt(0.25 / 50_000)
        assert expected_reward(GaussianNoise(1.0), v, FIXED_VALUATION) == pytest.approx(
            FIXED_VALUATION / 2.0, rel=1e-12
        )


class TestLowerBoundPair:
    def test_small_horizon(self):
        assert lower_bound_pair(16) == (1.0, 0.5)

    def test_large_horizon(self):
        assert lower_bound_pair(2**16) == (1.0, 1.0 - 1.0 / 16.0)

    def test_open_interval_needs_t_beyond_16(self):
        assert lower_bound_pair(17)[1] > 0.5
        assert lower_bound_pair(10**8)[1] < 1.0

    def test_requires_t_above_two(self):
        with pytest.raises(ValueError):
            lower_bound_pair(2)


class TestProblemValidation:
    def test_theta_star_must_be_feasible(self):
        with pytest.raises(ValueError):
            PricingProblem(GaussianNoise(0.25), OrthantBall(1.0, 2), np.array([1.0, 1.0]), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PricingProblem(GaussianNoise(0.25), OrthantBall(1.0, 2), np.array([0.5, 0.5, 0.5]), 1.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
    def test_feature_bound_must_be_positive_and_finite(self, bound):
        # nan and inf used to pass and give rows of nan features
        with pytest.raises(ValueError, match="feature bound must be positive and finite"):
            PricingProblem(GaussianNoise(0.25), OrthantBall(1.0, 2), np.array([0.5, 0.5]), bound)

    def test_price_window(self, problem):
        j0 = greedy_price(problem.model, 0.0)
        assert problem.price_window == pytest.approx(1.0 + j0, rel=1e-12)
