"""Policy behavior: protocol discipline, update rules, state contracts."""

import copy
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from pricelab import (
    AlternatingScenario,
    Ball,
    BatchObjective,
    EmlpPolicy,
    Exp4Policy,
    GaussianNoise,
    LogisticNoise,
    OnspPolicy,
    OraclePolicy,
    OrthantBall,
    PricingPolicy,
    PricingProblem,
    StochasticScenario,
    compute_constants,
    expected_reward,
    greedy_price,
    greedy_price_vec,
    onsp_default_hyperparams,
    run_episode,
    run_horizon_envelope,
)
from pricelab.policies import valuations
from pricelab.pricing import greedy_price_inverse
import pricelab.policies as policies_module
import pricelab.regions as regions_module
from pricelab.environments import FIXED_VALUATION
from pricelab.harness import episode_seed
from test_pricing import INVERSE_MODELS, THRESHOLD_BAND, mpmath_threshold, threshold_ulps

# Reg(t) at t = 1, 2, 4, ..., 16384 of the EMLP episode SeedSequence([3717387332, 0])
# on the reference problem, as played with the earlier first-order MLE (Nesterov
# momentum, stopped at the same 1e-9 gradient-mapping norm)
EMLP_STOCHASTIC_SEED_3717387332_REGRET = [
    0.05129622796724187, 0.14176744948851872, 0.25931612188547204, 0.28560310352409957,
    0.5252476992530953, 0.6789602316334651, 1.9525134031480902, 2.2599669074720103,
    2.3606333791986653, 2.631434700424168, 2.6729451129967603, 3.4174435805248984,
    3.442974513210641, 3.6976013434860224, 4.587115611774312,
]  # fmt: skip

# Reg(t) at t = 1, 2, 4, ..., 8192 of the ONSP (gamma = epsilon = 1) episode
# SeedSequence([4252541989, 0]) on alternating features, as played with the
# earlier weighted projection (projected gradient, 500-step cap) and the
# earlier rank-one updated inverse of A; one of its projections is active
ONSP_TUNED_ADVERSARIAL_SEED_4252541989_REGRET = [
    0.013368328714300909, 0.026736657428601818, 0.05800853099640502, 0.13760613418867693,
    0.6355921280429879, 0.6966396377741246, 0.9920225433855372, 1.016749294570238,
    1.2355303388402779, 1.3324119249117843, 1.7020366642420364, 1.7878794385713621,
    1.9514630247230518, 1.964797480920094,
]  # fmt: skip

# the same episode on stochastic features, as played with the earlier rank-one
# updated inverse of A (re-inverted every 4096 rounds) in place of a linear solve
ONSP_TUNED_STOCHASTIC_SEED_4252541989_REGRET = [
    0.014999144579292079, 0.019584174149248096, 0.033671573920012215, 0.04240116945806635,
    0.1490625287677314, 0.19818263894702523, 0.23352159718411222, 0.31569840187150866,
    0.41477085566505123, 0.47495482651932425, 0.5904370558416698, 0.6955692573830033,
    0.7179861753609339, 0.7763720795253084,
]  # fmt: skip

# Reg(t) at t = 1, 2, 4, ..., 16384 of the EMLP episode SeedSequence([4252541989, 0])
# on each scenario, as played with one scalar greedy-price solve per round
EMLP_SEED_4252541989_REGRET = {
    "stochastic": [
        0.037589636234791196, 0.09324531267469724, 0.16462514856364407, 0.2550839907659344,
        0.4609500929628211, 1.024465097861146, 1.1860692624017444, 2.5969723868657506,
        2.625122160442076, 3.4259740668268064, 3.7253770232482992, 4.352381727025707,
        4.416751092391136, 4.533682834121707, 4.762513465118782,
    ],
    "adversarial": [
        0.00873456178528459, 0.10343800220413432, 0.35478528971297196, 0.7335990513883708,
        0.9040975680406846, 1.7608795074757653, 4.078013132811985, 10.226089661739636,
        22.64046208112105, 45.14462191966224, 97.3735966912756, 194.25467501594792,
        394.8871547349481, 782.6977433102046, 1558.413660729892,
    ],
}  # fmt: skip
# Block pricing moves a stochastic price by about one ulp in some rounds (the
# vector solve, and x'theta summed per row, not by BLAS); over 8 episodes of 16384
# rounds no sale flipped and Reg(t) moved by at most 2.8e-15 relative
BLOCK_PRICING_RTOL = 1e-13

EXP4_HORIZONS = (8, 64, 4096, 10**5)


def rounded_greedy_price_arms(policy, x):
    """The arm rule the thresholds replace: J(x'theta_e) rounded to the nearest arm."""
    prices = greedy_price_vec(policy.model, policy.experts @ x)
    if len(policy.arms) == 1:
        return np.zeros(len(prices), dtype=int)
    idx = np.rint(prices / policy.arm_spacing).astype(int)
    return np.clip(idx, 0, len(policy.arms) - 1)


class RoundingExp4(Exp4Policy):
    """Exp4 on the rounding rule, the reference an episode is pinned to."""

    recommendations = rounded_greedy_price_arms


class ChoiceExp4(Exp4Policy):
    """Exp4 that checks each round's arm against Generator.choice, the draw the
    cumulative search replaces, on a copy of the policy's stream."""

    def play_block(self, x, sell):
        _, probs = self.arm_distribution(x[0])
        twin = copy.deepcopy(self._rng)
        want = self.arms[[twin.choice(len(self.arms), p=probs)]]

        def checked(prices):
            np.testing.assert_array_equal(prices, want)
            return sell(prices)

        super().play_block(x, checked)
        assert twin.bit_generator.state == self._rng.bit_generator.state


class CountingGaussian(GaussianNoise):
    """Gaussian noise that counts the Mills-ratio values it computes."""

    evaluations = 0

    def _mills(self, z):
        self.evaluations += np.size(z)
        return super()._mills(z)


def _arms_at(policy, valuations):
    """Recommended arm at each valuation: expert (u, 0) under feature e1 has x'theta = u exactly."""
    policy.experts = np.column_stack([valuations, np.zeros_like(valuations)])
    return policy.recommendations(np.array([1.0, 0.0]))


def _expert_mesh(region, per_axis):
    """Exp4's expert grid before its feasibility filter: per_axis points per axis on
    [0, r] for the orthant-ball, 2 per_axis - 1 on [-r, r] for the ball."""
    if isinstance(region, OrthantBall):
        axes = [np.linspace(0.0, region.radius, per_axis)] * region.dim
    else:
        axes = [np.linspace(-region.radius, region.radius, 2 * per_axis - 1)] * region.dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, region.dim)


def _counted_arms(policy, x):
    """The arm rule, counted without a sorted search: the thresholds below each x'theta_e."""
    u = policy.experts @ x
    return np.count_nonzero(policy.thresholds[None, :] < u[:, None], axis=1)


def _edge_valuations(b):
    """Valuations at and around -B, 0 and B, beyond B by as much as the grid's 1e-9 tolerance admits, and far out."""
    return np.array(
        [-2.0 * b, np.nextafter(-b, -np.inf), -b, np.nextafter(-b, 0.0), -1e-300, -0.0, 0.0, 5e-324]
        + [0.5 * b, np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
        + [b * (1.0 + 1e-12), b * (1.0 + 1e-9), b * (1.0 + 1e-9) + 1e-9, 2.0 * b]
    )


def _threshold_gap(policy, valuations):
    """Distance of each valuation to the nearest arm threshold."""
    return np.min(np.abs(valuations[:, None] - policy.thresholds[None, :]), axis=1)


def _play(policy, x, accept):
    """Play one block of feature rows x through a stub ``sell`` whose outcomes
    are ``accept(prices)``; return the prices, which the policy sells once."""
    sales = []

    def sell(prices):
        sales.append(prices.copy())
        return np.broadcast_to(np.asarray(accept(prices), dtype=bool), prices.shape).copy()

    policy.play_block(np.asarray(x, dtype=float), sell)
    assert len(sales) == 1
    return sales[0]


def _drive(policy, scenario, rounds, seed):
    rng = np.random.default_rng(seed)
    x = scenario.features(rounds, rng)
    noise = scenario.problem.model.sample(rng, rounds)
    u = x @ scenario.problem.theta_star
    policy.reset(seed)
    prices = []
    for t in range(rounds):
        prices.append(_play(policy, x[t][None], lambda v: v <= u[t] + noise[t])[0])
    return np.array(prices)


class TestProtocol:
    @pytest.mark.parametrize("missing", ["_reset_state", "play_block"])
    def test_a_policy_without_a_block_hook_does_not_construct(self, problem, missing):
        hooks = {
            "_reset_state": lambda self: None,
            "play_block": lambda self, x, sell: sell(np.zeros(len(x))),
        }
        del hooks[missing]
        partial = type("PartialPolicy", (PricingPolicy,), hooks)
        with pytest.raises(TypeError):
            partial(problem.model, problem.region, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: OnspPolicy(p.model, p.region, 1.0, gamma=float("nan"), epsilon=1.0),
            lambda p: OnspPolicy(p.model, p.region, 1.0, gamma=1.0, epsilon=float("inf")),
            lambda p: OnspPolicy(p.model, p.region, 1.0, gamma=0.0, epsilon=1.0),
            lambda p: OnspPolicy(p.model, p.region, 1.0, gamma=1.0, epsilon=-1.0),
            lambda p: Exp4Policy(p.model, p.region, 1.0, horizon=0),
            lambda p: Exp4Policy(p.model, p.region, float("nan"), horizon=64),
            lambda p: EmlpPolicy(p.model, p.region, float("nan")),
            lambda p: OraclePolicy(p.model, p.region, float("inf"), p.theta_star),
        ],
        ids=["onsp-gamma-nan", "onsp-epsilon-inf", "onsp-gamma-0", "onsp-epsilon-negative", "exp4-horizon-0",
             "exp4-feature-bound-nan", "emlp-feature-bound-nan", "oracle-feature-bound-inf"],
    )
    def test_constructors_reject_what_the_config_rejects(self, problem, make):
        # each would otherwise construct and then fail inside its first episode
        with pytest.raises(ValueError):
            make(problem)

    def test_prices_stay_in_window(self, problem):
        scen = StochasticScenario(problem)
        for policy in (
            EmlpPolicy(problem.model, problem.region, 1.0),
            OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0),
            Exp4Policy(problem.model, problem.region, 1.0, horizon=128),
        ):
            prices = _drive(policy, scen, 128, seed=1)
            assert np.all(prices >= 0.0)
            assert np.all(prices <= policy.price_cap + 1e-9)


class TestBlockProtocol:
    def test_oracle_prices_the_episode_in_one_vector_solve(self, problem, monkeypatch):
        sizes, solve = [], policies_module.greedy_price_vec

        def counted(model, valuations):
            sizes.append(len(valuations))
            return solve(model, valuations)

        monkeypatch.setattr(policies_module, "greedy_price_vec", counted)
        policy = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        run_episode(policy, StochasticScenario(problem), 1000, episode_seed(5, 0))
        assert sizes == [1000]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_valuations_are_the_row_sums(self, d):
        # accumulated column by column, each row rounds as its own row sum does
        rng = np.random.default_rng(d)
        x, theta = rng.uniform(0.0, 1.0, (20_000, d)), rng.uniform(0.0, 1.0, d)
        assert valuations(x, theta).tobytes() == (x * theta).sum(axis=1).tobytes()

    @pytest.mark.parametrize("scenario", [StochasticScenario, AlternatingScenario])
    def test_rounds_of_one_price_as_the_blocks_do(self, problem, scenario):
        # blocks of one row on the block path's transcript
        seed = episode_seed(7, 0)
        for make in (
            lambda: EmlpPolicy(problem.model, problem.region, 1.0),
            lambda: OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star),
        ):
            block, single = make(), make()
            transcript, _ = run_episode(block, scenario(problem), 1024, seed)
            single.reset(episode_seed(7, 0).spawn(2)[1])  # the episode's policy stream
            prices = []
            for x, accepted in zip(transcript.features, transcript.accepted):
                prices.append(_play(single, x[None], lambda v: accepted)[0])
            np.testing.assert_array_equal(prices, transcript.prices)
            if isinstance(block, EmlpPolicy):
                assert [(r.index, r.length) for r in single.epoch_log] == [(r.index, r.length) for r in block.epoch_log]
                for mine, theirs in zip(single.epoch_log, block.epoch_log):
                    np.testing.assert_array_equal(mine.theta_used, theirs.theta_used)
                np.testing.assert_array_equal(single.theta, block.theta)


class TestEmlp:
    def test_bootstrap_price_is_random_uniform(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        x = np.array([1.0, 0.0])
        seen = set()
        for seed in range(5):
            policy.reset(seed)
            seen.add(round(float(_play(policy, x[None], lambda v: True)[0]), 12))
        assert len(seen) > 1
        assert all(0.0 <= v <= policy.price_cap for v in seen)

    def test_epoch_doubling_and_switch_count(self, problem):
        scen = StochasticScenario(problem)
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        rounds = 2**7  # bootstrap + epochs 1..7 complete exactly
        _drive(policy, scen, rounds, seed=3)
        lengths = [rec.length for rec in policy.epoch_log]
        assert lengths == [2**k for k in range(len(lengths))]
        assert policy.switch_count <= math.floor(math.log2(rounds)) + 2

    def test_estimate_frozen_inside_epoch(self, problem):
        scen = StochasticScenario(problem)
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        rng = np.random.default_rng(5)
        x = scen.features(40, rng)
        noise = problem.model.sample(rng, 40)
        u = x @ problem.theta_star
        policy.reset(0)
        snapshots = []
        for t in range(40):
            _play(policy, x[t][None], lambda v: v <= u[t] + noise[t])
            snapshots.append((policy.epoch, policy.theta.copy()))
        for (e1, th1), (e2, th2) in zip(snapshots, snapshots[1:]):
            if e1 == e2:
                np.testing.assert_array_equal(th1, th2)

    def test_price_is_greedy_under_estimate(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        policy.reset(0)
        # play the bootstrap round to enter epoch 1
        _play(policy, [[1.0, 0.0]], lambda v: True)
        theta = policy.theta.copy()
        x = np.array([0.4, 0.3])
        want = greedy_price(problem.model, float(x @ theta))
        assert _play(policy, x[None], lambda v: True)[0] == pytest.approx(want, abs=1e-12)

    def test_zero_feature_prices_at_j0(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        policy.reset(0)
        _play(policy, [[1.0, 0.0]], lambda v: False)
        j0 = greedy_price(problem.model, 0.0)
        assert _play(policy, np.zeros((1, 2)), lambda v: False)[0] == pytest.approx(j0, abs=1e-12)
        assert j0 > 0.0

    def test_true_parameter_matches_oracle(self, problem):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        policy.reset(0)
        _play(policy, [[1.0, 0.0]], lambda v: True)
        policy.theta = problem.theta_star.copy()
        oracle = OraclePolicy(problem.model, problem.region, 1.0, problem.theta_star)
        oracle.reset(0)
        x = np.array([[0.6, 0.5]])
        assert _play(policy, x, lambda v: True)[0] == pytest.approx(_play(oracle, x, lambda v: True)[0], abs=1e-13)

    def test_former_stall_seed_fits_in_newton_steps(self, problem, monkeypatch):
        # this seed's 4-round refit once ran a first-order solver to its
        # 100,000-iteration cap; both solvers stop at the same 1e-9
        # gradient-mapping norm, so the regret traces agree to 1e-6 relative
        solve, fits = policies_module.solve_mle, []

        def recording_solve_mle(*args, **kwargs):
            fits.append(solve(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(policies_module, "solve_mle", recording_solve_mle)
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        _, trace = run_episode(policy, StochasticScenario(problem), 16384, episode_seed(3717387332, 0))
        assert policy.mle_warnings == 0
        assert len(fits) == 15 and all(fit.converged for fit in fits)
        assert max(fit.iterations for fit in fits) <= 50
        np.testing.assert_allclose(
            trace.cumulative, EMLP_STOCHASTIC_SEED_3717387332_REGRET, rtol=1e-6, atol=0.0
        )

    @pytest.mark.parametrize("scenario", [StochasticScenario, AlternatingScenario])
    def test_block_pricing_keeps_the_trace(self, problem, scenario):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        _, trace = run_episode(policy, scenario(problem), 16384, episode_seed(4252541989, 0))
        np.testing.assert_allclose(
            trace.cumulative, EMLP_SEED_4252541989_REGRET[scenario.name], rtol=BLOCK_PRICING_RTOL, atol=0.0
        )

    def test_one_vector_solve_per_epoch(self, problem, monkeypatch):
        sizes, solve = [], policies_module.greedy_price_vec

        def counted(model, valuations):
            sizes.append(len(valuations))
            return solve(model, valuations)

        def scalar(model, valuation):
            raise AssertionError("EMLP priced a round with the scalar greedy_price")

        monkeypatch.setattr(policies_module, "greedy_price_vec", counted)
        monkeypatch.setattr(policies_module, "greedy_price", scalar)
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        run_episode(policy, StochasticScenario(problem), 2**10, episode_seed(5, 0))
        # the bootstrap round is a random draw; epochs 1..10 then last 1, 2, ..., 512 rounds
        assert sizes == [2**k for k in range(10)]

    def test_small_noise_episodes_complete(self):
        # the step bound takes c_exp alone; the whole compute_constants raised
        # on the first fit here, from a c_down that underflows to 0
        # (Gaussian) or cancelled below 0 (logistic)
        for model in (LogisticNoise(0.02), GaussianNoise(0.02)):
            problem = PricingProblem(model=model, region=OrthantBall(1.0, 2), theta_star=np.array([0.5, 0.5]))
            policy = EmlpPolicy(model, problem.region, 1.0)
            run_episode(policy, StochasticScenario(problem), 2**12, episode_seed(0, 0))
            if isinstance(model, LogisticNoise):
                assert policy.mle_warnings == 0


class TestOnsp:
    def test_zero_feature_is_null_update(self, problem):
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        policy.reset(0)
        theta0 = policy.theta.copy()
        matrix0 = policy.matrix.copy()
        _play(policy, np.zeros((1, 2)), lambda v: True)
        np.testing.assert_array_equal(policy.theta, theta0)
        np.testing.assert_array_equal(policy.matrix, matrix0)

    def test_scalar_update_rule(self):
        # d=1, gamma=1, epsilon=1, theta=0, wide region: after one round
        # A = 1 + g^2 and theta = -g/(1+g^2) for the observed gradient g
        model = GaussianNoise(1.0)
        region = Ball(100.0, 1)
        policy = OnspPolicy(model, region, 100.0, gamma=1.0, epsilon=1.0)
        policy.reset(0)
        v = _play(policy, [[1.0]], lambda v: True)[0]
        g = -model.hazard(v - 0.0)
        assert policy.matrix[0, 0] == pytest.approx(1.0 + g * g, rel=1e-12)
        assert policy.theta[0] == pytest.approx(-g / (1.0 + g * g), rel=1e-10)

    def test_planar_newton_step_solves_the_matrix(self):
        # d=2, gamma=1, epsilon=1, wide region: after two rounds on independent
        # features, theta_2 = theta_1 - A^{-1} g_2 with A^{-1} from the 2x2 adjugate
        model = GaussianNoise(1.0)
        region = Ball(100.0, 2)
        policy = OnspPolicy(model, region, 100.0, gamma=1.0, epsilon=1.0)
        policy.reset(0)
        grads = []
        for x, accepted in ((np.array([1.0, 0.5]), True), (np.array([-0.3, 0.8]), False)):
            theta = policy.theta.copy()
            v = _play(policy, x[None], lambda v: accepted)[0]
            grads.append(BatchObjective(x, v, accepted, model).gradient_hessian(theta)[0])
        a = np.eye(2) + sum(np.outer(g, g) for g in grads)
        adjugate = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        expected = theta - adjugate @ grads[1] / (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        np.testing.assert_allclose(policy.matrix, a, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(policy.theta, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("accepted", [True, False])
    def test_gradient_is_the_rounds_batch_gradient(self, problem, accepted):
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        policy.reset(0)
        theta0 = policy.theta.copy()
        x = np.array([0.6, 0.7])
        v = _play(policy, x[None], lambda v: accepted)[0]
        g = BatchObjective(x, v, accepted, problem.model).gradient_hessian(theta0)[0]
        np.testing.assert_array_equal(policy.matrix, np.eye(2) + np.outer(g, g))

    def test_weight_checked_only_on_active_projections(self, problem, monkeypatch):
        # this adversarial episode takes 4 Newton steps out of the region in 256 rounds
        validations, outside = [], []
        check_weight = regions_module._check_weight_matrix
        project = OrthantBall.project_weighted

        def counted_check(a, dim):
            validations.append(dim)
            return check_weight(a, dim)

        def counted_projection(region, theta, a):
            outside.append(not region.contains(theta))
            return project(region, theta, a)

        monkeypatch.setattr(regions_module, "_check_weight_matrix", counted_check)
        monkeypatch.setattr(OrthantBall, "project_weighted", counted_projection)
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        run_episode(policy, AlternatingScenario(problem), 256, episode_seed(5, 0))
        assert len(outside) == 256
        assert len(validations) == sum(outside) == 4

    def test_prices_from_the_root_table_take_one_mills_evaluation(self, problem, monkeypatch):
        # the benchmark's ONSP episode (T = 8192, alternating features): the
        # table start is within the price tolerance, so the first Newton step
        # stops every price, against 6 steps from z = 1
        valuations = []

        def recorded(model, u):
            valuations.append(u)
            return greedy_price(model, u)

        monkeypatch.setattr(policies_module, "greedy_price", recorded)
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        run_episode(policy, AlternatingScenario(problem), 8192, episode_seed(8401, 0))
        counted = CountingGaussian(problem.model.sigma)
        greedy_price(counted, 0.0)  # builds the class's root table
        counted.evaluations = 0
        for u in valuations:
            greedy_price(counted, u)
        assert len(valuations) == 8192
        assert counted.evaluations == len(valuations), counted.evaluations / len(valuations)

    def test_exact_projection_keeps_the_adversarial_trace(self, problem):
        # the active projection moves by about 1e-13, so Reg(t) agrees to 1e-11 relative
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        _, trace = run_episode(policy, AlternatingScenario(problem), 8192, episode_seed(4252541989, 0))
        np.testing.assert_allclose(
            trace.cumulative, ONSP_TUNED_ADVERSARIAL_SEED_4252541989_REGRET, rtol=1e-11, atol=0.0
        )

    def test_linear_solve_keeps_the_stochastic_trace(self, problem):
        # the solve and the updated inverse give Newton directions a few ulp apart
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        _, trace = run_episode(policy, StochasticScenario(problem), 8192, episode_seed(4252541989, 0))
        np.testing.assert_allclose(
            trace.cumulative, ONSP_TUNED_STOCHASTIC_SEED_4252541989_REGRET, rtol=1e-11, atol=0.0
        )

    def test_one_policy_object_replays_its_episode(self, problem):
        # A is updated in place, so a second episode must start from the new A of reset
        policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        scenario = AlternatingScenario(problem)
        first, _ = run_episode(policy, scenario, 2048, episode_seed(7, 0))
        kept, snapshot = policy.matrix, policy.matrix.copy()
        second, _ = run_episode(policy, scenario, 2048, episode_seed(7, 0))
        for name in ("features", "prices", "accepted"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
        assert kept.tobytes() == snapshot.tobytes()  # the first episode's A was left alone
        assert policy.matrix.tobytes() == snapshot.tobytes()

    def test_deterministic(self, problem):
        scen = StochasticScenario(problem)
        p1 = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        p2 = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
        np.testing.assert_array_equal(_drive(p1, scen, 100, seed=13), _drive(p2, scen, 100, seed=13))

    def test_default_hyperparams_branches(self):
        consts = compute_constants(GaussianNoise(0.25), 1.0)
        gamma, epsilon = onsp_default_hyperparams(consts, 1.0, 1.0)
        g_bound = math.sqrt(consts.c_exp) * 1.0
        assert gamma == pytest.approx(0.5 * consts.alpha, rel=1e-12)  # alpha < 1/(4GD) here
        assert epsilon == pytest.approx(1.0 / (gamma**2 * 4.0), rel=1e-12)  # D = 2 B1 = 2
        wide = compute_constants(GaussianNoise(1.0), 1.0)
        # force the other branch with a large diameter/gradient product
        gamma2, eps2 = onsp_default_hyperparams(wide, 10.0, 10.0)
        g2, d2 = math.sqrt(wide.c_exp) * 10.0, 20.0
        assert 1.0 / (4.0 * g2 * d2) < wide.alpha
        assert gamma2 == pytest.approx(0.125 / (g2 * d2), rel=1e-12)
        assert eps2 == pytest.approx(1.0 / (gamma2**2 * d2**2), rel=1e-12)

    def test_hyperparams_must_come_together(self, problem):
        with pytest.raises(ValueError):
            OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0)


class TestExp4:
    @pytest.mark.parametrize(
        "horizon, n, k, eta, exploration",
        [(4096, 216, 17, 0.0124254190602832, 0.2112321240248144), (1, 3, 2, 1.048147073968205, 1.0)],
        ids=["T4096", "T1-capped"],
    )
    def test_theory_rates(self, problem, horizon, n, k, eta, exploration):
        # eta = sqrt(2 ln N / (T K)) and exploration = min(1, K eta); at T = 1, K eta = 2.096
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=horizon)
        assert (len(policy.experts), len(policy.arms)) == (n, k)
        assert policy.learning_rate == pytest.approx(eta, rel=1e-12)
        assert policy.exploration == pytest.approx(exploration, rel=1e-12)

    def test_grid_spacing_at_4096(self, problem):
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=4096)
        # 4096^(-1/3) = 1/16: 17 arms spanning [0, V_max], 17 points per axis
        assert len(policy.arms) == 17
        assert policy.arm_spacing == pytest.approx(policy.price_cap / 16.0, rel=1e-12)
        theta_values = np.unique(policy.experts[:, 0])
        assert theta_values[1] - theta_values[0] == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert np.all(np.linalg.norm(policy.experts, axis=1) <= 1.0 + 1e-9)

    def test_single_expert_distribution(self, problem):
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=4096)
        policy.experts = policy.experts[:1]
        policy.weights = np.ones(1)
        rec, probs = policy.arm_distribution(np.array([1.0, 0.0]))
        k = len(policy.arms)
        want = (1.0 - policy.exploration) + policy.exploration / k
        assert probs[rec[0]] == pytest.approx(want, rel=1e-12)
        off = np.delete(probs, rec[0])
        np.testing.assert_allclose(off, policy.exploration / k, rtol=1e-12)

    def test_shared_recommendation_accumulates(self, problem):
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=4096)
        policy.experts = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        policy.weights = np.array([0.25, 0.25, 0.5])
        rec, probs = policy.arm_distribution(np.array([1.0, 0.0]))
        assert rec[0] == rec[1]
        k = len(policy.arms)
        want = (1.0 - policy.exploration) * 0.5 + policy.exploration / k
        assert probs[rec[0]] == pytest.approx(want, rel=1e-12)

    def test_zero_reward_leaves_weights(self, problem):
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=512)
        policy.reset(0)
        before = policy.weights.copy()
        _play(policy, [[1.0, 0.0]], lambda v: False)  # reward v * 0 = 0
        assert policy.weights.tobytes() == before.tobytes()

    @pytest.mark.parametrize("scenario", [StochasticScenario, AlternatingScenario])
    def test_weights_and_probabilities_sum_to_one(self, problem, scenario):
        # the round normalizes neither the mixture nor the probabilities: it rests on this invariant
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=10_000)
        transcript, _ = run_episode(policy, scenario(problem), 10_000, episode_seed(9004, 0))
        assert 0 < np.count_nonzero(transcript.accepted) < 10_000
        assert abs(policy.weights.sum() - 1.0) <= 1e-12
        for x in transcript.features[::100]:
            _, probs = policy.arm_distribution(x)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_correct_expert_takes_over(self, problem):
        # two experts, deterministic accept rule: prices at or below 0.5
        # always sell, higher prices never do
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=10_000)
        x = np.array([1.0, 0.0])
        rec_all = policy.recommendations(x)
        prices = policy.arms[rec_all]
        good = int(np.argmax(np.where(prices <= 0.5, prices, -1.0)))
        bad = int(np.argmax(prices))
        policy.experts = policy.experts[[good, bad]]
        policy.weights = np.array([0.5, 0.5])
        policy.reset(7)
        for _ in range(10_000):
            _play(policy, x[None], lambda v: v <= 0.5)
        assert policy.weights[0] >= 0.9

    def test_probability_floor_flagged(self, problem, monkeypatch):
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=256)
        policy.reset(0)
        distribution = policy.arm_distribution
        tiny = np.full(len(policy.arms), 1e-15)
        monkeypatch.setattr(policy, "arm_distribution", lambda x: (distribution(x)[0], tiny))
        _play(policy, [[1.0, 0.0]], lambda v: True)
        assert policy.clip_events == 1

    def test_thresholds_split_arms_where_mpmath_does(self):
        # u_k* is the 30-digit valuation priced exactly halfway between arms k
        # and k + 1; from THRESHOLD_BAND units out, the rule must give arm k
        # below it and k + 1 above
        steps = np.arange(33)
        probed = 0
        for model in INVERSE_MODELS:
            for horizon in EXP4_HORIZONS:
                policy = Exp4Policy(model, OrthantBall(1.0, 2), 1.0, horizon=horizon)
                for k, threshold in enumerate(policy.thresholds):
                    with mpmath.workdps(30):
                        price = (k + mpmath.mpf(0.5)) * mpmath.mpf(policy.arm_spacing)
                        if np.isneginf(threshold):  # the logistic J stays above s
                            assert isinstance(model, LogisticNoise) and price < model.spread
                            continue
                        exact = float(mpmath_threshold(model, price, threshold))
                    unit = threshold_ulps(exact, float(price))
                    offsets = (THRESHOLD_BAND + steps) * unit
                    arms = _arms_at(policy, np.concatenate([exact - offsets, exact + offsets]))
                    want = np.repeat([k, k + 1], steps.size)
                    np.testing.assert_array_equal(arms, want, err_msg=f"{model} T={horizon} k={k}")
                    probed += 1
        assert probed >= 100

    def test_rule_matches_rounded_greedy_price_away_from_thresholds(self, rng):
        # the rule sees the region only through B: the dense valuation grid
        # covers the rule, and the features each region's own expert grid
        features = rng.normal(size=(50, 2))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        for model in INVERSE_MODELS:
            for horizon in EXP4_HORIZONS:
                for region in (OrthantBall(1.0, 2), Ball(1.0, 2)):
                    policy = Exp4Policy(model, region, 1.0, horizon=horizon)
                    for x in features:
                        away = _threshold_gap(policy, policy.experts @ x) > 1e-12
                        got, want = policy.recommendations(x), rounded_greedy_price_arms(policy, x)
                        np.testing.assert_array_equal(got[away], want[away], err_msg=f"{model} {region} T={horizon}")
                u = np.linspace(-1.01, 1.01, 200_001) * policy.valuation_bound
                got = _arms_at(policy, u[_threshold_gap(policy, u) > 1e-12])
                want = rounded_greedy_price_arms(policy, np.array([1.0, 0.0]))
                np.testing.assert_array_equal(got, want, err_msg=f"{model} T={horizon}")

    @pytest.mark.parametrize("scenario", [StochasticScenario, AlternatingScenario])
    def test_episode_matches_rounded_greedy_price(self, problem, scenario):
        played, reference = (
            cls(problem.model, problem.region, 1.0, horizon=4096) for cls in (Exp4Policy, RoundingExp4)
        )
        transcript, trace = run_episode(played, scenario(problem), 4096, episode_seed(9002, 0))
        want_transcript, want_trace = run_episode(reference, scenario(problem), 4096, episode_seed(9002, 0))
        np.testing.assert_array_equal(transcript.prices, want_transcript.prices)
        np.testing.assert_array_equal(played.weights, reference.weights)
        assert played.clip_events == reference.clip_events
        np.testing.assert_array_equal(trace.cumulative, want_trace.cumulative)

    def test_arm_draw_matches_generator_choice(self, problem):
        played, reference = (
            cls(problem.model, problem.region, 1.0, horizon=10_000) for cls in (Exp4Policy, ChoiceExp4)
        )
        transcript, trace = run_episode(played, StochasticScenario(problem), 10_000, episode_seed(9003, 0))
        want_transcript, want_trace = run_episode(reference, StochasticScenario(problem), 10_000, episode_seed(9003, 0))
        assert len(np.unique(transcript.prices)) > 1
        np.testing.assert_array_equal(transcript.prices, want_transcript.prices)
        assert played.weights.tobytes() == reference.weights.tobytes()
        np.testing.assert_array_equal(trace.cumulative, want_trace.cumulative)

    @pytest.mark.parametrize("region", [OrthantBall(1.0, 2), Ball(1.0, 2)], ids=["orthant-ball", "ball"])
    @pytest.mark.parametrize("horizon", [64, 4096])
    def test_recommendations_count_thresholds_below_the_valuation(self, problem, rng, region, horizon):
        policy = Exp4Policy(problem.model, region, 1.0, horizon=horizon)
        assert policy.thresholds.min() < 0.0 and policy.thresholds.max() >= policy.valuation_bound
        features = rng.uniform(size=(200, 2))
        features /= np.maximum(1.0, np.linalg.norm(features, axis=1, keepdims=True))
        for x in [*features, np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.zeros(2)]:
            np.testing.assert_array_equal(policy.recommendations(x), _counted_arms(policy, x))
        arms = _arms_at(policy, _edge_valuations(policy.valuation_bound))
        np.testing.assert_array_equal(arms, _counted_arms(policy, np.array([1.0, 0.0])))

    @pytest.mark.parametrize(
        "thresholds",
        [[-0.5, 0.0, 0.5, 1.0], [0.0, 0.0, 1.0, 1.0], [-np.inf, 0.0, 1.0, 1.5], [0.0, 1.0, 1.0 + 1e-9, 2.0]],
    )
    def test_recommendations_at_thresholds_on_0_and_b(self, problem, monkeypatch, thresholds):
        # T = 64: 5 arms, so 4 thresholds; B = 1
        monkeypatch.setattr(policies_module, "_exp4_thresholds", lambda model, spacing, per_axis: np.array(thresholds))
        policy = Exp4Policy(problem.model, problem.region, 1.0, horizon=64)
        assert policy.valuation_bound == 1.0 and policy.thresholds.tolist() == thresholds
        arms = _arms_at(policy, _edge_valuations(1.0))
        np.testing.assert_array_equal(arms, _counted_arms(policy, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("radius", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("region_cls", [OrthantBall, Ball])
    def test_parameter_grid_is_the_per_point_filter(self, region_cls, dim, radius):
        # region.contains(p, tol=1e-9) decides every point within 1% of the
        # bound; farther out no rounding of the norm moves the decision
        region = region_cls(radius, dim)
        bound = radius * (1.0 + 1e-9) + 1e-9
        for per_axis in range(2, 30):
            mesh = _expert_mesh(region, per_axis)
            norms = np.linalg.norm(mesh, axis=1)
            keep = norms < bound
            near = np.flatnonzero(np.abs(norms - bound) <= 0.01 * bound)
            keep[near] = [region.contains(p, tol=1e-9) for p in mesh[near]]
            grid = Exp4Policy._parameter_grid(region, per_axis)
            assert grid.shape == (np.count_nonzero(keep), dim)
            assert grid.tobytes() == mesh[keep].tobytes(), f"{region} per_axis={per_axis}"

    def test_thresholds_need_no_optimizer(self, source_env):
        # and no policy, on either law, imports any of scipy
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import pricelab.cli\n"
            "from pricelab import Exp4Policy, GaussianNoise, LogisticNoise, OrthantBall, PricingProblem, run_episode\n"
            "from pricelab.config import POLICY_KINDS, build_policy, build_scenario\n"
            "policy = Exp4Policy(GaussianNoise(0.25), OrthantBall(1.0, 2), 1.0, horizon=4096)\n"
            "policy.recommendations(np.array([0.6, 0.8]))\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "for model in (GaussianNoise(0.25), LogisticNoise(0.3)):\n"
            "    problem = PricingProblem(model=model, region=OrthantBall(1.0, 2), theta_star=np.array([0.5, 0.5]), feature_bound=1.0)\n"
            "    for kind in POLICY_KINDS:\n"
            "        run_episode(build_policy({'kind': kind}, problem, 64), build_scenario('stochastic', problem), 64, 0)\n"
            "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=source_env, timeout=120)

    def test_envelope_solves_each_count_once(self, problem, monkeypatch):
        # the thresholds depend on the law and the arm grid alone: an envelope
        # up to 4096 builds 13 policies on 10 arm counts, and solves each count once
        solved = []

        def counted(model, prices):
            solved.append(len(prices) + 1)
            return greedy_price_inverse(model, prices)

        monkeypatch.setattr(policies_module, "greedy_price_inverse", counted)
        policies_module._exp4_thresholds.cache_clear()
        horizons = [2**i for i in range(13)]
        built = []

        def build(horizon):
            built.append(Exp4Policy(problem.model, problem.region, problem.feature_bound, horizon))
            return built[-1]

        run_horizon_envelope(build, StochasticScenario(problem), horizons, 0)
        counts = [len(policy.arms) for policy in built]
        assert sorted(solved) == sorted(set(counts))
        assert len(solved) < len(horizons)
        for policy in built:
            with pytest.raises(ValueError):
                policy.thresholds[0] = 0.0


class TestOracle:
    def test_fixed_point_price(self):
        model = GaussianNoise(1.0)
        region = OrthantBall(FIXED_VALUATION, 2)
        policy = OraclePolicy(model, region, 1.0, np.array([FIXED_VALUATION, 0.0]))
        policy.reset(0)
        assert _play(policy, [[1.0, 0.0]], lambda v: True)[0] == pytest.approx(FIXED_VALUATION, abs=1e-9)

    def test_zero_valuation_still_charges(self, problem):
        policy = OraclePolicy(problem.model, problem.region, 1.0, np.zeros(2))
        policy.reset(0)
        v = _play(policy, [[1.0, 0.0]], lambda v: True)[0]
        assert v > 0.0
        assert expected_reward(problem.model, v, 0.0) > 0.0
