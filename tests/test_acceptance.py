"""Acceptance gate: the seven shipping criteria, each printing one line.

Every tolerance is pinned here, not configurable.  The expensive criteria
run the full reference experiment (d=2, B1=B2=B=1, Gaussian sigma=0.25,
horizon 2^16, 5 repetitions) exactly as the CLI defaults do.
"""

import math
import time

import numpy as np
import pytest

from pricelab import (
    AlternatingScenario,
    BatchObjective,
    EmlpPolicy,
    Exp4Policy,
    GaussianNoise,
    OnspPolicy,
    OrthantBall,
    PricingProblem,
    StochasticScenario,
    aggregate,
    compute_constants,
    fit_slope,
    run_episode,
    run_horizon_envelope,
    solve_mle,
)
from pricelab.harness import dyadic_checkpoints, emlp_epoch_gaps, episode_seed
from pricelab.verify import check_lower_bound_geometry, run_checks

MASTER_SEED = 20240501
T_FULL = 2**16
REPS = 5
SLOPE_WINDOW = (2**10, 2**16)


def _reference_problem() -> PricingProblem:
    return PricingProblem(
        model=GaussianNoise(0.25),
        region=OrthantBall(radius=1.0, dim=2),
        theta_star=np.array([0.5, 0.5]),
        feature_bound=1.0,
    )


def _run_policy(make_policy, scenario, horizon=T_FULL, reps=REPS):
    traces = []
    start = time.perf_counter()
    for rep in range(reps):
        _, trace = run_episode(make_policy(), scenario, horizon, episode_seed(MASTER_SEED, rep))
        traces.append(trace)
    elapsed = time.perf_counter() - start
    return aggregate(traces), elapsed


def _tail_non_increasing_within_band(stats) -> bool:
    mean = stats.mean_over_log[-3:]
    band = stats.halfwidth_over_log[-3:]
    return all(mean[i + 1] <= mean[i] + band[i] + band[i + 1] for i in range(2))


def test_criterion_1_stochastic_logarithmic_regret():
    problem = _reference_problem()
    scenario = StochasticScenario(problem)
    results = {}
    for name, make in (
        ("emlp", lambda: EmlpPolicy(problem.model, problem.region, 1.0)),
        ("onsp", lambda: OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)),
    ):
        stats, elapsed = _run_policy(make, scenario)
        fit = fit_slope(stats, SLOPE_WINDOW)
        results[name] = (fit, elapsed, stats)
        assert fit.slope <= 0.30, f"{name} stochastic slope {fit.slope:.3f} > 0.30"
        assert _tail_non_increasing_within_band(stats), (
            f"{name} normalized regret rises beyond its Wald band: "
            f"{stats.mean_over_log[-3:]} +- {stats.halfwidth_over_log[-3:]}"
        )
        assert elapsed <= 120.0, f"{name} took {elapsed:.0f}s for {REPS} reps (budget 120s)"
    print(
        "ACCEPTANCE 1 PASS: stochastic slopes "
        f"emlp={results['emlp'][0].slope:.3f}, onsp={results['onsp'][0].slope:.3f} (<=0.30), "
        f"normalized tails non-increasing, runtimes "
        f"{results['emlp'][1]:.0f}s/{results['onsp'][1]:.0f}s (<=120s)"
    )


def test_criterion_2_adversarial_separation():
    problem = _reference_problem()
    scenario = AlternatingScenario(problem)
    onsp_stats, _ = _run_policy(
        lambda: OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0), scenario
    )
    onsp_fit = fit_slope(onsp_stats, SLOPE_WINDOW)
    assert onsp_fit.slope <= 0.30, f"onsp adversarial slope {onsp_fit.slope:.3f} > 0.30"

    emlp_stats, _ = _run_policy(lambda: EmlpPolicy(problem.model, problem.region, 1.0), scenario)
    emlp_fit = fit_slope(emlp_stats, SLOPE_WINDOW)
    assert emlp_fit.slope >= 0.80, f"emlp adversarial slope {emlp_fit.slope:.3f} < 0.80"
    assert abs(emlp_fit.slope - 0.912) <= 0.12, (
        f"emlp adversarial slope {emlp_fit.slope:.3f} outside 0.912 +- 0.12"
    )
    print(
        f"ACCEPTANCE 2 PASS: adversarial slopes onsp={onsp_fit.slope:.3f} (<=0.30), "
        f"emlp={emlp_fit.slope:.3f} (>=0.80 and within 0.912+-0.12)"
    )


def test_criterion_3_exp4_scaling():
    problem = _reference_problem()
    scenario = StochasticScenario(problem)
    cap = 2**12
    horizons = dyadic_checkpoints(cap)
    start = time.perf_counter()
    traces = [
        run_horizon_envelope(
            lambda t: Exp4Policy(problem.model, problem.region, 1.0, horizon=t),
            scenario,
            horizons,
            episode_seed(MASTER_SEED, rep),
        )
        for rep in range(REPS)
    ]
    elapsed = time.perf_counter() - start
    stats = aggregate(traces)
    fit = fit_slope(stats, (2**4, cap))
    assert 0.55 <= fit.slope <= 0.85, f"exp4 envelope slope {fit.slope:.3f} outside [0.55, 0.85]"
    assert elapsed <= 1200.0, f"exp4 took {elapsed:.0f}s (budget 20 min)"
    print(
        f"ACCEPTANCE 3 PASS: exp4 horizon-envelope slope {fit.slope:.3f} in [0.55, 0.85], "
        f"runtime {elapsed:.0f}s (<=1200s)"
    )


def test_criterion_4_invariant_suite():
    start = time.perf_counter()
    results = run_checks(fast=False)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
    assert elapsed <= 60.0, f"invariant suite took {elapsed:.1f}s (budget 60s)"
    print(f"ACCEPTANCE 4 PASS: {len(results)} invariant checks green in {elapsed:.1f}s (<=60s)")


def test_criterion_5_mle_consistency_rate():
    problem = _reference_problem()
    scenario = StochasticScenario(problem)
    sizes = (2**10, 2**12, 2**14)
    seeds = 20
    errors = []
    for n in sizes:
        for seed in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence([MASTER_SEED, n, seed]))
            x = scenario.features(n, rng)
            v = rng.uniform(0.0, problem.price_window, n)
            accepted = v <= x @ problem.theta_star + problem.model.sample(rng, n)
            batch = BatchObjective(x, v, accepted, problem.model)
            fit = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
            assert fit.converged, f"solve_mle did not converge at n={n}, seed={seed}"
            errors.append(float(np.linalg.norm(fit.theta - problem.theta_star)))
    medians = np.median(np.reshape(errors, (len(sizes), seeds)), axis=1)
    # Fit all 60 errors at once: a ratio of two medians of 20 is too noisy to
    # gate on.  The band is the per-4x shrink band [1.5, 3.0] written as a
    # slope: error ~ n^s shrinks by a factor 4^-s per 4x data.
    band = (-math.log(3.0, 4), -math.log(1.5, 4))
    rate = fit_slope((np.repeat(sizes, seeds), np.array(errors)), (sizes[0], sizes[-1]))
    report = (
        f"log-log error slope {rate.slope:.3f} +- {rate.stderr:.3f}, band "
        f"[{band[0]:.3f}, {band[1]:.3f}], median errors "
        f"{medians[0]:.4f} -> {medians[1]:.4f} -> {medians[2]:.4f}"
    )
    assert band[0] <= rate.slope <= band[1], f"{report}: slope outside band"
    assert abs(rate.slope + 0.5) <= 3.0 * rate.stderr, f"{report}: slope not within 3 stderr of -1/2"
    print(f"ACCEPTANCE 5 PASS: {report}, within 3 stderr of -1/2, all {len(errors)} fits converged")


def test_criterion_6_per_epoch_surrogate_bound():
    problem = _reference_problem()
    scenario = StochasticScenario(problem)
    constants = compute_constants(problem.model, problem.valuation_bound)
    bound = constants.c_exp / constants.c_down
    horizon = 2**14  # epochs 1..14 complete exactly
    sums: dict[int, list[float]] = {k: [] for k in range(3, 15)}
    for rep in range(20):
        policy = EmlpPolicy(problem.model, problem.region, 1.0)
        transcript, _ = run_episode(policy, scenario, horizon, episode_seed(MASTER_SEED + 7, rep))
        for k, tau, gap in emlp_epoch_gaps(policy, transcript, problem.theta_star):
            if 3 <= k <= 14:
                sums[k].append(gap * (tau + 1) / problem.dim)
    worst = -np.inf
    for k, values in sums.items():
        assert len(values) == 20, f"epoch {k} missing from some repetitions"
        statistic = float(np.mean(values))
        worst = max(worst, statistic)
        assert statistic <= bound, f"epoch {k}: scaled surrogate gap {statistic:.3f} > bound {bound:.3f}"
    print(
        f"ACCEPTANCE 6 PASS: scaled per-epoch surrogate gaps (max {worst:.3f}) "
        f"below c_exp/c_down = {bound:.1f} for epochs 3..14 over 20 repetitions"
    )


def test_criterion_7_lower_bound_geometry():
    result = check_lower_bound_geometry(fast=False)
    assert result.passed, result.detail
    print(
        "ACCEPTANCE 7 PASS: for sigma in {0.6, 0.75, 0.9} the mismatched greedy price sits below "
        "the fixed point by >= (2/5)(1-sigma) with a 1/60-quadratic revenue margin"
    )
