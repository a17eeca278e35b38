"""Episode runner, regret accounting, aggregation, slope fits, exports."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import linregress

import pricelab.environments as environments_module
import pricelab.harness as harness_module
import pricelab.regions as regions_module
from pricelab import (
    AlternatingScenario,
    EmlpPolicy,
    Exp4Policy,
    GaussianNoise,
    LogisticNoise,
    OnspPolicy,
    OraclePolicy,
    OrthantBall,
    PricingProblem,
    RegretTrace,
    StochasticScenario,
    aggregate,
    dyadic_checkpoints,
    episode_seed,
    expected_reward,
    fit_slope,
    greedy_price_vec,
    run_episode,
    run_horizon_envelope,
)
from pricelab.config import build_policy
from pricelab.harness import EpisodeAbort, emlp_epoch_gaps, write_trace_csv
from pricelab.policies import PricingPolicy
from pricelab.pricing import InvariantViolation


class ConstantPricePolicy(PricingPolicy):
    """Posts one fixed price forever (a zero-learning baseline)."""

    name = "constant"

    def __init__(self, model, region, feature_bound, price):
        self._price = price
        super().__init__(model, region, feature_bound)

    def _reset_state(self):
        pass

    def play_block(self, x, sell):
        sell(np.full(len(x), self._price, dtype=float))


class WindowBreakingPolicy(PricingPolicy):
    """Prices blocks of four rounds at 0.5, and every round from ``bad`` on far outside the window."""

    name = "window-breaking"

    def __init__(self, model, region, feature_bound, bad):
        self.bad = bad
        super().__init__(model, region, feature_bound)

    def _reset_state(self):
        self.played = 0

    def frozen_rounds(self):
        return 4

    def play_block(self, x, sell):
        rounds = self.played + 1 + np.arange(len(x))
        sell(np.where(rounds >= self.bad, 3.0 * self.price_cap, 0.5))
        self.played += len(x)


class FeedbackFailingPolicy(ConstantPricePolicy):
    """Posts 0.5, and its update breaks an invariant in round ``bad``'s feedback."""

    def __init__(self, model, region, feature_bound, bad):
        self.bad = bad
        super().__init__(model, region, feature_bound, 0.5)

    def _reset_state(self):
        self.played = 0

    def play_block(self, x, sell):
        super().play_block(x, sell)
        self.played += 1
        if self.played == self.bad:
            raise InvariantViolation("update diverged")


class SaleBreakingPolicy(ConstantPricePolicy):
    """Posts 0.5 in blocks of ``block`` rounds; the second block is sold by ``bad_sale(x, sell)``."""

    name = "sale-breaking"

    def __init__(self, model, region, feature_bound, block, bad_sale):
        self.block, self.bad_sale = block, bad_sale
        super().__init__(model, region, feature_bound, 0.5)

    def _reset_state(self):
        self.played = 0

    def frozen_rounds(self):
        return self.block

    def play_block(self, x, sell):
        if self.played == self.block:
            self.bad_sale(x, sell)
        else:
            super().play_block(x, sell)
        self.played += len(x)


class RowPricePolicy(PricingPolicy):
    """Prices round k (from 1) at ``price(k, x_k)`` in blocks of ``block`` rows,
    and keeps every outcome ``sell`` returns."""

    name = "row-price"

    def __init__(self, model, region, feature_bound, block, price):
        self.block, self.price = block, price
        super().__init__(model, region, feature_bound)

    def _reset_state(self):
        self.played = 0
        self.outcomes = []

    def frozen_rounds(self):
        return self.block

    def play_block(self, x, sell):
        rounds = self.played + 1 + np.arange(len(x))
        self.outcomes.append(sell(np.array([self.price(k, row) for k, row in zip(rounds, x)])))
        self.played += len(x)


def _window_price(cap):
    """0 and the cap themselves in some rounds, and a price near the valuation in the others."""
    return lambda k, x: 0.0 if k % 7 == 0 else cap if k % 11 == 0 else float(x @ [0.6, 0.7])


BAD_SALES = {
    "one-price-short": (lambda x, sell: sell(np.full(len(x) - 1, 0.5)), r"sold \(\d+,\) prices for \d+ rounds"),
    "one-price-long": (lambda x, sell: sell(np.full(len(x) + 1, 0.5)), r"sold \(\d+,\) prices for \d+ rounds"),
    "unsold": (lambda x, sell: None, "did not sell its block"),
    "sold-twice": (lambda x, sell: [sell(np.full(len(x), 0.5)) for _ in range(2)], "sold its block twice"),
}


class ContractBreakingScenario(StochasticScenario):
    """Stochastic features passed through ``corrupt`` before they are emitted."""

    def __init__(self, problem, corrupt):
        self.corrupt = corrupt
        super().__init__(problem)

    def features(self, horizon, rng):
        return self.corrupt(super().features(horizon, rng))


def _with(x, row, values):
    x = x.copy()
    x[row] = values
    return x


BAD_FEATURES = {
    "width-1": lambda x: x[:, :1],
    "width-3": lambda x: np.column_stack([x, x[:, :1]]),
    "nan": lambda x: _with(x, 5, [np.nan, 0.5]),
    "inf": lambda x: _with(x, 5, [np.inf, 0.0]),
    "negative": lambda x: _with(x, 5, [-0.1, 0.5]),
    "norm-above-bound": lambda x: _with(x, 5, [0.8, 0.8]),
}


class TestCheckpoints:
    def test_dyadic_plus_final(self):
        np.testing.assert_array_equal(dyadic_checkpoints(10), [1, 2, 4, 8, 10])
        np.testing.assert_array_equal(dyadic_checkpoints(16), [1, 2, 4, 8, 16])
        np.testing.assert_array_equal(dyadic_checkpoints(1), [1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dyadic_checkpoints(0)

    @pytest.mark.parametrize("k", [46, 48, 49, 53, 62, 63])
    def test_large_horizons_end_at_the_horizon(self, k):
        # floor(log2 T) in floating point rounds 2**k - 1 up to k from k = 49 on
        horizon = 2**k - 1
        cps = dyadic_checkpoints(horizon)
        assert cps.min() >= 1 and cps.max() <= horizon
        assert np.all(np.diff(cps) > 0)
        assert cps[-1] == horizon
        assert cps.tolist() == [2**i for i in range(k)] + [horizon]


class TestRunEpisode:
    def test_oracle_has_zero_regret(self, problem):
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        _, trace = run_episode(policy, StochasticScenario(problem), 512, 3)
        assert trace.total <= 1e-9 * 512

    @pytest.mark.parametrize("theta_star", [[0.6, 0.3], [0.3, 0.2, 0.1, 0.25, 0.15]], ids=["d2", "d5"])
    def test_oracle_increments_are_exactly_zero(self, gauss025, theta_star):
        # unlike (0.5, 0.5), these products round: the comparator's u* and the
        # oracle's valuations must come from one rule
        problem = PricingProblem(gauss025, OrthantBall(1.0, len(theta_star)), np.array(theta_star))
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        _, trace = run_episode(policy, StochasticScenario(problem), 4096, episode_seed(9, 0))
        assert np.count_nonzero(trace.increments) == 0

    def test_zero_price_pays_full_regret(self, problem):
        policy = ConstantPricePolicy(problem.model, problem.region, 1.0, 0.0)
        scen = StochasticScenario(problem)
        transcript, trace = run_episode(policy, scen, 64, 3)
        u = transcript.features @ problem.theta_star
        best = expected_reward(problem.model, greedy_price_vec(problem.model, u), u)
        np.testing.assert_allclose(trace.increments, best, rtol=1e-12)
        assert np.all(trace.increments > 0.0)

    def test_deterministic(self, problem):
        scen = StochasticScenario(problem)
        make = lambda: OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        t1, r1 = run_episode(make(), scen, 256, 11)
        t2, r2 = run_episode(make(), scen, 256, 11)
        np.testing.assert_array_equal(t1.prices, t2.prices)
        np.testing.assert_array_equal(t1.accepted, t2.accepted)
        np.testing.assert_array_equal(r1.cumulative, r2.cumulative)
        _, r3 = run_episode(make(), scen, 256, 12)
        assert not np.array_equal(r1.cumulative, r3.cumulative)

    def test_normalized_curve_undefined_at_one(self, problem):
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        _, trace = run_episode(policy, StochasticScenario(problem), 8, 0)
        assert np.isnan(trace.over_log[0])
        assert np.all(np.isfinite(trace.over_log[1:]))

    def test_out_of_window_price_aborts(self, problem):
        policy = ConstantPricePolicy(problem.model, problem.region, 1.0, 0.5)
        policy._price = problem.price_window * 3.0  # bypass construction-time sanity
        with pytest.raises(EpisodeAbort):
            run_episode(policy, StochasticScenario(problem), 8, 0)

    @pytest.mark.parametrize("bad", [5, 7])
    def test_abort_names_the_first_round_outside_the_window(self, problem, bad):
        # round 5 opens the second block of four; round 7 is its third row
        policy = WindowBreakingPolicy(problem.model, problem.region, 1.0, bad)
        with pytest.raises(EpisodeAbort, match=rf"^round {bad}: window-breaking priced") as err:
            run_episode(policy, StochasticScenario(problem), 16, 0)
        cap = policy.price_cap
        assert str(err.value) == f"round {bad}: window-breaking priced {3.0 * cap} outside [0, {cap}]"

    @pytest.mark.parametrize("block", [1, 4])
    @pytest.mark.parametrize("sale", list(BAD_SALES))
    def test_a_block_not_sold_exactly_once_at_its_length_aborts(self, problem, block, sale):
        # the second block opens round block + 1
        bad_sale, message = BAD_SALES[sale]
        policy = SaleBreakingPolicy(problem.model, problem.region, 1.0, block, bad_sale)
        with pytest.raises(EpisodeAbort, match=rf"^round {block + 1}: sale-breaking {message}$") as err:
            run_episode(policy, StochasticScenario(problem), 16, 0)
        assert err.value.__cause__ is None  # raised once, not wrapped again

    @pytest.mark.parametrize("sale", ["unsold", "sold"])
    def test_a_policy_that_can_price_no_round_aborts(self, problem, sale):
        # its blocks have no rows, so an episode that let it play them would never end
        bad_sale = BAD_SALES["unsold"][0] if sale == "unsold" else lambda x, sell: sell(np.full(len(x), 0.5))
        policy = SaleBreakingPolicy(problem.model, problem.region, 1.0, 0, bad_sale)
        with pytest.raises(EpisodeAbort, match=r"^round 1: sale-breaking can price no round$"):
            run_episode(policy, StochasticScenario(problem), 16, 0)

    @pytest.mark.parametrize("corrupt", list(BAD_FEATURES))
    def test_features_breaking_the_contract_rejected_before_play(self, problem, corrupt):
        policy = SaleBreakingPolicy(problem.model, problem.region, 1.0, 1, None)
        policy.played = -1  # the policy's reset sets it to 0
        with pytest.raises(ValueError):
            run_episode(policy, ContractBreakingScenario(problem, BAD_FEATURES[corrupt]), 16, 0)
        assert policy.played == -1

    @pytest.mark.parametrize("bad", [1, 6])
    def test_abort_names_the_round_whose_feedback_failed(self, problem, bad):
        policy = FeedbackFailingPolicy(problem.model, problem.region, 1.0, bad)
        with pytest.raises(EpisodeAbort, match=rf"^round {bad}: update diverged$"):
            run_episode(policy, StochasticScenario(problem), 16, 0)

    def test_projection_failure_aborts_the_episode(self, problem, monkeypatch):
        # no Newton step allowed: ONSP's first projection onto the sphere fails in its round's feedback
        monkeypatch.setattr(regions_module, "SECULAR_CAP", 0)
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        with pytest.raises(EpisodeAbort, match=r"^round \d+: secular equation unsolved after 0 Newton steps$") as err:
            run_episode(policy, AlternatingScenario(problem), 512, 3)
        assert isinstance(err.value.__cause__, InvariantViolation)

    def test_a_comparator_off_j_aborts(self, problem, monkeypatch):
        # the comparator prices 10% above J, so the oracle, which prices J, beats it
        def shifted(model, u):
            return 1.1 * greedy_price_vec(model, u)

        monkeypatch.setattr(harness_module, "greedy_price_vec", shifted)
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        with pytest.raises(EpisodeAbort, match="^negative regret increment: comparator not optimal$"):
            run_episode(policy, StochasticScenario(problem), 16, 0)

    @pytest.mark.parametrize("horizons", [0, [], [4, 0]], ids=["episode", "no-envelope-horizon", "envelope-zero"])
    def test_no_round_to_play_rejected(self, problem, horizons):
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        scen = StochasticScenario(problem)
        with pytest.raises(ValueError, match="^horizons? must be"):
            if isinstance(horizons, int):
                run_episode(policy, scen, horizons, 0)
            else:
                run_horizon_envelope(lambda t: policy, scen, horizons, 0)

    def test_cumulative_nondecreasing(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        _, trace = run_episode(policy, StochasticScenario(problem), 256, 5)
        assert np.all(np.diff(trace.cumulative) >= -1e-12)


class TestOneRowSell:
    """A block of one row is sold on Python scalars; it must sell as a longer block does."""

    @pytest.mark.parametrize("scenario", [StochasticScenario, AlternatingScenario])
    def test_rows_sold_one_at_a_time_match_one_block(self, problem, scenario):
        cap = ConstantPricePolicy(problem.model, problem.region, 1.0, 0.5).price_cap
        played = []
        for block in (1, 512):
            policy = RowPricePolicy(problem.model, problem.region, 1.0, block, _window_price(cap))
            played.append(run_episode(policy, scenario(problem), 512, episode_seed(31, 0)))
            np.testing.assert_array_equal(np.concatenate(policy.outcomes), played[-1][0].accepted)
        (rows, row_trace), (whole, whole_trace) = played
        assert 0 < np.count_nonzero(rows.accepted) < 512
        assert {0.0, cap} <= set(rows.prices.tolist())
        assert rows.prices.tobytes() == whole.prices.tobytes()
        assert rows.accepted.tobytes() == whole.accepted.tobytes()
        assert row_trace.increments.tobytes() == whole_trace.increments.tobytes()

    @pytest.mark.parametrize("bad", [1, 5, 7])
    @pytest.mark.parametrize("value", ["below-0", "above-the-ceiling", "far-above", "nan"])
    def test_a_price_outside_the_window_aborts_as_in_a_block(self, problem, bad, value):
        cap = ConstantPricePolicy(problem.model, problem.region, 1.0, 0.5).price_cap
        # the ceiling is cap (1 + 1e-9) + 1e-12
        wrong = {"below-0": -1e-300, "above-the-ceiling": cap * (1.0 + 2e-9), "far-above": 3.0 * cap, "nan": math.nan}
        texts = []
        for block in (1, 4):
            policy = RowPricePolicy(
                problem.model, problem.region, 1.0, block, lambda k, x: wrong[value] if k == bad else 0.5
            )
            with pytest.raises(EpisodeAbort) as err:
                run_episode(policy, StochasticScenario(problem), 16, 0)
            texts.append(str(err.value))
        assert texts == [f"round {bad}: row-price priced {wrong[value]} outside [0, {cap}]"] * 2

    def test_a_price_just_above_the_cap_is_inside_the_window(self, problem):
        cap = ConstantPricePolicy(problem.model, problem.region, 1.0, 0.5).price_cap
        policy = RowPricePolicy(problem.model, problem.region, 1.0, 1, lambda k, x: cap * (1.0 + 1e-9))
        transcript, _ = run_episode(policy, StochasticScenario(problem), 16, 0)
        assert np.all(transcript.prices == cap * (1.0 + 1e-9))

    @pytest.mark.parametrize(
        "sale, message",
        [
            (lambda x, sell: sell(np.full(2, 0.5)), "sold (2,) prices for 1 rounds"),
            (lambda x, sell: sell(np.full(0, 0.5)), "sold (0,) prices for 1 rounds"),
            (lambda x, sell: sell(np.array(0.5)), "sold () prices for 1 rounds"),
            (lambda x, sell: sell(np.full((1, 1), 0.5)), "sold (1, 1) prices for 1 rounds"),
            (lambda x, sell: [sell(np.full(1, 0.5)) for _ in range(2)], "sold its block twice"),
        ],
        ids=["two-prices", "no-price", "a-0d-price", "a-column", "sold-twice"],
    )
    def test_a_one_row_block_sold_wrongly_aborts_at_its_round(self, problem, sale, message):
        policy = SaleBreakingPolicy(problem.model, problem.region, 1.0, 1, sale)
        with pytest.raises(EpisodeAbort) as err:
            run_episode(policy, StochasticScenario(problem), 16, 0)
        assert str(err.value) == f"round 2: sale-breaking {message}"

    def test_a_one_row_outcome_is_read_only(self, problem):
        policy = RowPricePolicy(problem.model, problem.region, 1.0, 1, lambda k, x: 0.3 if k % 2 else 1.0)
        transcript, _ = run_episode(policy, StochasticScenario(problem), 64, 0)
        assert 0 < np.count_nonzero(transcript.accepted) < 64
        for outcome in policy.outcomes:
            assert outcome.shape == (1,) and outcome.dtype == bool
            assert not outcome.flags.writeable
        with pytest.raises(ValueError):
            policy.outcomes[0][0] = not policy.outcomes[0][0]
        np.testing.assert_array_equal(np.concatenate(policy.outcomes), transcript.accepted)


BLOCK_POLICIES = {
    "oracle": {"kind": "oracle"},
    "emlp": {"kind": "emlp"},
    "onsp-tuned": {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
    "exp4": {"kind": "exp4"},
}


class TestBlocks:
    """run_episode plays BLOCK rounds at a time, and where the blocks end shows in no output."""

    HORIZON = 4099  # four blocks of 1000 and a short fifth

    def _play(self, monkeypatch, block, spec, scenario):
        monkeypatch.setattr(harness_module, "BLOCK", block)
        monkeypatch.setattr(environments_module, "BLOCK", block)
        policy = build_policy(spec, scenario.problem, self.HORIZON)
        transcript, trace = run_episode(policy, scenario, self.HORIZON, episode_seed(5, 1))
        return [transcript.features, transcript.prices, transcript.accepted, trace.increments, trace.cumulative]

    @pytest.mark.parametrize("label", BLOCK_POLICIES)
    @pytest.mark.parametrize(
        "market, scenario_class",
        [("reference", StochasticScenario), ("reference", AlternatingScenario), ("d3", StochasticScenario)],
        ids=["stochastic", "adversarial", "d3-stochastic"],
    )
    def test_block_boundaries_are_invisible(self, problem, gauss025, monkeypatch, label, market, scenario_class):
        if market == "d3":  # its products x'theta* round
            problem = PricingProblem(gauss025, OrthantBall(1.0, 3), np.array([0.6, 0.3, 0.2]))
        scenario = scenario_class(problem)
        blocked = self._play(monkeypatch, 1000, BLOCK_POLICIES[label], scenario)
        whole = self._play(monkeypatch, 2 * self.HORIZON, BLOCK_POLICIES[label], scenario)
        assert blocked[0].shape == (self.HORIZON, problem.dim)
        for a, b in zip(blocked, whole):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("model", [GaussianNoise(0.25), LogisticNoise(0.3)], ids=["gaussian", "logistic"])
    def test_noise_drawn_in_blocks_is_one_draw(self, model):
        whole = model.sample(np.random.default_rng(7), 4099)
        rng = np.random.default_rng(7)
        blocked = np.concatenate([model.sample(rng, n) for n in (1000, 1000, 1000, 1000, 99)])
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind, bound", [("oracle", 48.0), ("emlp", 112.0)])
    def test_episode_memory_per_round_is_bounded(self, problem, kind, bound):
        # an episode keeps its transcript and increments (33 bytes a round at
        # d = 2) and a block's working arrays; EMLP adds its last epoch's fit
        horizon, scenario = 2**20, StochasticScenario(problem)
        run_episode(build_policy({"kind": kind}, problem, 4096), scenario, 4096, 1)  # tables and caches
        policy = build_policy({"kind": kind}, problem, horizon)
        tracemalloc.start()
        try:
            run_episode(policy, scenario, horizon, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / horizon <= bound


class TestAggregate:
    def _trace(self, cps, values):
        return RegretTrace(None, np.asarray(cps), np.asarray(values, dtype=float))

    def test_identical_traces_zero_width(self):
        cps = np.array([1, 2, 4, 8])
        traces = [self._trace(cps, [1, 2, 3, 4])] * 3
        stats = aggregate(traces)
        np.testing.assert_allclose(stats.halfwidth, 0.0, atol=1e-14)
        np.testing.assert_allclose(stats.mean, [1, 2, 3, 4])

    def test_wald_formula(self):
        cps = np.array([1, 2, 4])
        t = cps.astype(float)
        stats = aggregate([self._trace(cps, 2 * t), self._trace(cps, 4 * t)])
        np.testing.assert_allclose(stats.mean, 3 * t, rtol=1e-14)
        np.testing.assert_allclose(stats.halfwidth, 1.96 * t, rtol=1e-12)

    def test_single_repetition_has_no_interval(self):
        cps = np.array([1, 2])
        stats = aggregate([self._trace(cps, [1.0, 2.0])])
        assert stats.halfwidth is None

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            aggregate([self._trace([1, 2], [1, 2]), self._trace([1, 4], [1, 2])])

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="^need at least one trace$"):
            aggregate([])


class TestFitSlope:
    def test_linear_curve(self):
        t = 2 ** np.arange(0, 17)
        fit = fit_slope((t, 5.0 * t.astype(float)), (1, 2**16))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_seven_tenths_power(self):
        t = 2 ** np.arange(0, 17)
        fit = fit_slope((t, 1.7 * t.astype(float) ** 0.7), (1, 2**16))
        assert fit.slope == pytest.approx(0.7, abs=0.01)

    def test_nonpositive_checkpoints_excluded(self):
        t = 2 ** np.arange(0, 8)
        values = t.astype(float).copy()
        values[2] = 0.0
        with pytest.warns(UserWarning):
            fit = fit_slope((t, values), (1, 2**7))
        assert fit.n_points == len(t) - 1
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_slope((np.array([1, 2, 4]), np.array([1.0, 2.0, 3.0])), (1, 2))

    def test_repeated_abscissae_match_ols(self):
        # several values per abscissa, as in the MLE-rate acceptance fit
        rng = np.random.default_rng(5)
        n = np.repeat(2 ** np.arange(4, 12, 2), 6)
        values = n.astype(float) ** -0.5 * np.exp(0.3 * rng.standard_normal(n.size))
        fit = fit_slope((n, values), (n[0], n[-1]))
        ref = linregress(np.log2(n), np.log2(values))
        assert fit.n_points == n.size
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)
        assert fit.stderr == pytest.approx(ref.stderr, rel=1e-12)


class TestSeeding:
    def test_split_is_documented_function(self):
        a = episode_seed(7, 0).generate_state(4)
        b = episode_seed(7, 0).generate_state(4)
        c = episode_seed(7, 1).generate_state(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_repetition_order_does_not_matter(self, problem):
        scen = StochasticScenario(problem)
        make = lambda: OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        _, first = run_episode(make(), scen, 64, episode_seed(1, 3))
        for rep in (0, 2, 1):
            run_episode(make(), scen, 64, episode_seed(1, rep))
        _, again = run_episode(make(), scen, 64, episode_seed(1, 3))
        np.testing.assert_array_equal(first.cumulative, again.cumulative)


    def test_a_seed_object_plays_the_same_episode_twice(self, problem):
        scen = StochasticScenario(problem)
        seed = episode_seed(3, 0)
        runs = [run_episode(EmlpPolicy(problem.model, problem.region, 1.0), scen, 64, seed) for _ in range(2)]
        (t1, r1), (t2, r2) = runs
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(t1.prices, t2.prices)
        np.testing.assert_array_equal(r1.increments, r2.increments)
        assert seed.n_children_spawned == 0
        # and it is the episode a fresh object gives
        t3, _ = run_episode(EmlpPolicy(problem.model, problem.region, 1.0), scen, 64, episode_seed(3, 0))
        np.testing.assert_array_equal(t1.prices, t3.prices)

    def test_envelope_with_a_reused_seed_object(self, problem):
        scen = StochasticScenario(problem)
        seed = episode_seed(3, 0)
        build = lambda t: Exp4Policy(problem.model, problem.region, 1.0, horizon=t)
        first = run_horizon_envelope(build, scen, [2, 8, 32], seed)
        again = run_horizon_envelope(build, scen, [2, 8, 32], seed)
        assert first.total > 0.0
        np.testing.assert_array_equal(first.cumulative, again.cumulative)


class TestEnvelope:
    def test_checkpoints_are_the_horizons(self, problem):
        scen = StochasticScenario(problem)
        trace = run_horizon_envelope(
            lambda t: OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star),
            scen,
            [2, 8, 4],
            seed=3,
        )
        np.testing.assert_array_equal(trace.checkpoints, [2, 4, 8])
        assert trace.increments is None
        np.testing.assert_allclose(trace.cumulative, 0.0, atol=1e-9)


class TestEpochGaps:
    def test_gaps_follow_epoch_schedule(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        transcript, _ = run_episode(policy, StochasticScenario(problem), 2**6, 5)
        gaps = emlp_epoch_gaps(policy, transcript, problem.theta_star)
        assert [g[0] for g in gaps] == list(range(1, len(gaps) + 1))
        assert [g[1] for g in gaps] == [2**k for k in range(len(gaps))]
        assert all(np.isfinite(g[2]) for g in gaps)


class TestCsvExport:
    def _run(self, problem, reps, tmp_path):
        scen = StochasticScenario(problem)
        traces = []
        for rep in range(reps):
            policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
            _, trace = run_episode(policy, scen, 32, episode_seed(0, rep))
            traces.append(trace)
        stats = aggregate(traces)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, traces, stats)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        return rows, traces

    def test_wald_columns_present_for_multiple_reps(self, problem, tmp_path):
        rows, traces = self._run(problem, 2, tmp_path)
        assert rows[0] == ["rep", "t", "regret_cum", "regret_over_logt", "mean", "wald_halfwidth"]
        assert len(rows) == 1 + 2 * len(traces[0].checkpoints)

    def test_single_rep_drops_wald_columns(self, problem, tmp_path):
        rows, _ = self._run(problem, 1, tmp_path)
        assert rows[0] == ["rep", "t", "regret_cum", "regret_over_logt"]
        assert rows[1][3] == ""  # t=1 has no normalized value
