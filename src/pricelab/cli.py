"""Command-line front end.

Subcommands:

* ``run [config.json]`` - execute every (policy, scenario) pair in the
  config (built-in defaults when no path is given), write one CSV trace per
  pair plus a run-level ``summary.json``.  EMLP pairs record how many MLE
  fits did not converge, and a nonzero count prints a warning line.  Exit 0
  on success; 1 on an aborted episode or a policy that cannot be built,
  such as ONSP whose theory defaults break an invariant (one line on
  stderr); 2 on an invalid config or ``--seed`` (with per-key diagnostics)
  or a ``--workers`` below 1 (one line on stderr).  ``--workers N`` plays
  the run's (policy, scenario, repetition) jobs through one process pool of
  min(N, jobs) workers, and in this process when that is 1.
* ``verify`` - run the invariant suite, one PASS/FAIL line per check; exit
  1 if anything fails.
* ``lower-bound-demo --t T --reps R --seed S [--policy ...]`` - run one
  policy against the two nearly indistinguishable fixed-valuation markets
  and report the summed regret next to the sqrt(T)/24000 floor.  Purely
  demonstrative: the floor is a statement about all policies, the demo
  measures one.  Exit 2 on invalid arguments (one line on stderr).
* ``constants --sigma S --b B`` - print the analysis constants of a
  Gaussian market; exit 2 on invalid arguments, 1 when a constant breaks
  its invariant (one line on stderr either way).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, build_policy, build_scenario, default_config, load_config, parse_config
from .environments import FIXED_VALUATION, FixedValuationScenario, lower_bound_pair
from .harness import (
    EpisodeAbort,
    aggregate,
    dyadic_checkpoints,
    episode_seed,
    fit_slope,
    run_episode,
    run_horizon_envelope,
    write_summary_json,
    write_trace_csv,
)
from .noise import GaussianNoise
from .pricing import InvariantViolation, compute_constants

__all__ = ["main", "run_experiments", "lower_bound_demo"]

# the demo's policies as config specs, built for the unit-noise market they believe in
DEMO_POLICIES = {
    "onsp": {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
    "emlp": {"kind": "emlp"},
    "oracle-sigma1": {"kind": "oracle"},
}


def _play(job: tuple) -> tuple:
    """Play one job: (policy spec, the problem the policy believes, scenario, horizon, seed).

    Returns the regret trace and, for EMLP, the number of MLE fits that did
    not report convergence (None for the other kinds).  Process-pool safe.
    """
    spec, problem, scenario, horizon, seed = job
    if spec["kind"] == "exp4":
        # grid sizes depend on the horizon, so the growth law is measured
        # across one independent run per dyadic horizon
        builder = partial(build_policy, spec, problem)
        return run_horizon_envelope(builder, scenario, dyadic_checkpoints(horizon), seed), None
    policy = build_policy(spec, problem, horizon)
    _, trace = run_episode(policy, scenario, horizon, seed)
    return trace, (policy.mle_warnings if spec["kind"] == "emlp" else None)


def run_experiments(config: ExperimentConfig, out_dir=None, workers: int = 1) -> dict:
    """Execute all (policy, scenario) pairs; returns the summary payload.

    One job per (pair, repetition), played in order as the module docstring
    says; each pair is written once its repetitions arrive, and an abort
    cancels the jobs still queued.
    """
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [episode_seed(config.master_seed, rep) for rep in range(config.repetitions)]
    summary: dict = {"config": config.raw, "pairs": [], "seeds": [seed.entropy for seed in seeds]}
    scenarios = {name: build_scenario(name, config.problem) for name in config.scenarios}
    pairs = [(spec, name, config.effective_horizon(spec)) for spec in config.policies for name in config.scenarios]
    jobs = [(spec, config.problem, scenarios[name], horizon, seed) for spec, name, horizon in pairs for seed in seeds]
    size = min(workers, len(jobs))  # a fork pool starts all its workers at its first job
    pool = None
    if size > 1:  # imported here: a run in this process loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=size)
    try:
        # both paths return the jobs in order
        results = pool.map(_play, jobs) if pool else map(_play, jobs)
        for spec, scenario_name, horizon in pairs:
            traces, mle_warnings = zip(*islice(results, config.repetitions))
            stats = aggregate(traces)
            window = config.fit_window(spec)
            # the oracle is the regret comparator: its regret is zero, so no slope
            fit = None if spec["kind"] == "oracle" else fit_slope(stats, window)
            name = f"{spec['kind']}_{scenario_name}"
            write_trace_csv(out / f"{name}.csv", traces, stats)
            summary["pairs"].append(
                {
                    "policy": spec,
                    "scenario": scenario_name,
                    "horizon": horizon,
                    "repetitions": config.repetitions,
                    "final_regret_mean": float(stats.mean[-1]),
                    "slope": None if fit is None else fit.slope,
                    "slope_stderr": None if fit is None else fit.stderr,
                    "slope_window": list(window),
                    "trace_csv": f"{name}.csv",
                }
            )
            if spec["kind"] == "emlp":
                # MLE fits that did not report convergence, summed over repetitions
                summary["pairs"][-1]["mle_warnings"] = sum(mle_warnings)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    write_summary_json(out / "summary.json", summary)
    return summary


def lower_bound_demo(horizon: int, reps: int, seed: int, policy_kind: str = "onsp") -> dict:
    """Summed regret of one policy on the indistinguishable noise-scale pair.

    The policy believes the unit-noise market; the reported floor
    sqrt(T)/24000 is what no policy can beat on the pair's sum.
    """
    if horizon <= 16:
        raise ValueError("horizon must exceed 16 for a meaningful pair")
    if reps < 1:
        raise ValueError("repetitions must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if policy_kind not in DEMO_POLICIES:
        raise ValueError(f"policy must be one of {tuple(DEMO_POLICIES)}")
    sigma1, sigma2 = lower_bound_pair(horizon)
    scenarios = [FixedValuationScenario.build(sigma=sigma1), FixedValuationScenario.build(sigma=sigma2)]
    # the policy believes the sigma-1 market: its model, region and theta*
    spec, believed = DEMO_POLICIES[policy_kind], scenarios[0].problem
    seeds = [episode_seed(seed, rep) for rep in range(reps)]
    jobs = [(spec, believed, scenario, horizon, rep_seed) for scenario in scenarios for rep_seed in seeds]
    finals = [trace.total for trace, _ in map(_play, jobs)]
    totals = [float(np.mean(finals[:reps])), float(np.mean(finals[reps:]))]
    floor = float(np.sqrt(horizon) / 24000.0)
    return {
        "policy": policy_kind,
        "horizon": horizon,
        "repetitions": reps,
        "fixed_valuation": FIXED_VALUATION,
        "sigma_pair": [sigma1, sigma2],
        "regret_sigma1": totals[0],
        "regret_sigma2": totals[1],
        "regret_sum": totals[0] + totals[1],
        "floor_sqrt_t_over_24000": floor,
        "exceeds_floor": totals[0] + totals[1] >= floor,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pricelab", description="dynamic pricing regret lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiments of a config file")
    p_run.add_argument("config", nargs="?", default=None, help="JSON config path (defaults built in)")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--workers", type=int, default=1, help="worker processes for the run's episodes")

    sub.add_parser("verify", help="run the invariant suite")

    p_demo = sub.add_parser("lower-bound-demo", help="two-market indistinguishability demo")
    p_demo.add_argument("--t", type=int, required=True, help="horizon T")
    p_demo.add_argument("--reps", type=int, default=5)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--policy", choices=DEMO_POLICIES, default="onsp")

    p_const = sub.add_parser("constants", help="print Gaussian analysis constants")
    p_const.add_argument("--sigma", type=float, required=True)
    p_const.add_argument("--b", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "run":
        if args.workers < 1:
            print("error: workers must be at least 1", file=sys.stderr)
            return 2
        try:
            config = load_config(args.config) if args.config else default_config()
            if args.seed is not None:
                config = parse_config({**config.raw, "master_seed": args.seed})
        except ConfigError as exc:
            for line in exc.problems:
                print(f"config error: {line}", file=sys.stderr)
            return 2
        try:
            summary = run_experiments(config, out_dir=args.out, workers=args.workers)
        except (EpisodeAbort, InvariantViolation) as exc:
            print(f"run aborted: {exc}", file=sys.stderr)
            return 1
        for pair in summary["pairs"]:
            slope = "n/a" if pair["slope"] is None else f"{pair['slope']:.3f}+-{pair['slope_stderr']:.3f}"
            print(
                f"{pair['policy']['kind']:>6s} x {pair['scenario']:<11s} "
                f"T={pair['horizon']:<6d} Reg(T)={pair['final_regret_mean']:.3f} slope={slope}"
            )
            if pair.get("mle_warnings"):
                print(
                    f"warning: {pair['policy']['kind']} x {pair['scenario']}: "
                    f"{pair['mle_warnings']} MLE fits did not converge",
                    file=sys.stderr,
                )
        return 0

    if args.command == "verify":
        from .verify import run_checks  # the invariant suite, loaded by this subcommand alone

        results = run_checks()
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    if args.command == "lower-bound-demo":
        try:
            report = lower_bound_demo(args.t, args.reps, args.seed, args.policy)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2))
        return 0

    # argparse requires a subcommand, so this is "constants"
    try:
        constants = compute_constants(GaussianNoise(args.sigma), args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(constants.__dict__, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
