"""Self test of the benchmark: fast mode, then every check fed a corrupted result.

Usage, from the root of a source checkout: ``python3 perfbench/selftest.py``.
Exit code 0 when every expectation holds.

Fast mode runs each workload at a tiny horizon, traced and untraced, and
requires every check to pass.  Then each check is fed one real result, which
it must pass, and the same result corrupted (one altered price, an inflated
slope, a perturbed MLE, ...), which it must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
FAST_HORIZON = 512
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'}  {what}")
    if not condition:
        failures.append(what)


def fast_mode() -> None:
    for workload in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "0.1",
                 "--trace", trace, "--horizon", str(FAST_HORIZON)],
                capture_output=True, text=True, timeout=170,
            )  # fmt: skip
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            what = f"fast mode {workload} --trace {trace}: exit {proc.returncode}"
            if proc.returncode:
                what += ", " + proc.stderr[-300:]
            expect(proc.returncode == 0 and result.get("correct") is True and result.get("failed") == 0, what)


def corrupted_results() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import checks
    import numpy as np
    from pricelab.config import build_policy, build_scenario, parse_config
    from pricelab.harness import dyadic_checkpoints, episode_seed, run_episode

    config = parse_config(workloads.config_raw("emlp-stochastic", 7, FAST_HORIZON))
    problem = config.problem
    sigma, radius = problem.model.sigma, problem.region.radius
    policy = build_policy(config.policies[0], problem, config.horizon)
    transcript, trace = run_episode(policy, build_scenario("stochastic", problem), config.horizon, episode_seed(7, 0))
    reported = dict(zip(trace.checkpoints.tolist(), trace.cumulative.tolist()))
    points = sorted(reported)

    def regret(prices):
        return checks.reference_regret(transcript.features, prices, problem.theta_star, sigma)

    expect(checks.check_regret("regret", regret(transcript.prices), points, reported)[1], "regret passes")
    altered = transcript.prices.copy()
    altered[300] += 1e-3
    expect(not checks.check_regret("regret", regret(altered), points, reported)[1], "regret fails on one altered price")

    cps = dyadic_checkpoints(config.horizon)
    window = [64, config.horizon]
    for exponent, passes in ((0.3, True), (0.7, False)):
        growth = [{int(t): float(t) ** exponent for t in cps}, {int(t): 2.0 * float(t) ** exponent for t in cps}]
        expect(checks.check_growth("growth", window, growth)[1] is passes, f"growth t^{exponent} {'passes' if passes else 'fails'}")
    growth = {0: {int(t): float(t) ** 0.3 for t in cps}}
    expect(checks.check_slope("slope", {"slope_window": window, "slope": 0.3}, growth)[1], "slope passes when the summary matches")
    inflated = {"slope_window": window, "slope": 0.4}
    expect(not checks.check_slope("slope", inflated, growth)[1], "slope fails when the summary inflates it")

    falling = {0: {int(t): float(t) ** 0.7 for t in cps}}
    rising = {0: {int(t): float(t) ** 1.2 for t in cps}}
    expect(checks.check_envelope("envelope", falling)[1], "envelope passes on Reg(t) ~ t^0.7")
    expect(not checks.check_envelope("envelope", rising)[1], "envelope fails on Reg(t) ~ t^1.2")
    # linear regret: flat Reg(t)/t on the envelope's 13 horizons, with the
    # scatter of a real envelope (residual sd of log Reg(t)/t about 0.26)
    rng = np.random.default_rng(11)
    horizons = [1 << k for k in range(13)]
    linear = [{0: {t: t * rng.lognormal(0.0, 0.26) for t in horizons}} for _ in range(100)]
    passed = sum(checks.check_envelope("envelope", trace)[1] for trace in linear)
    expect(passed == 0, f"envelope fails on Reg(t) ~ t times noise: {passed} of 100 noisy draws pass")

    fits = checks.emlp_refits(policy, transcript)
    rounds, start, fitted = fits[-1]
    expect(checks.check_emlp_refit("mle", transcript, rounds, start, fitted, sigma, radius)[1], "mle passes")
    perturbed = np.asarray(fitted) * (1.0 - 1e-3)
    expect(not checks.check_emlp_refit("mle", transcript, rounds, start, perturbed, sigma, radius)[1], "mle fails when perturbed")

    expect(checks.check_oracle("oracle", 0.0)[1], "oracle passes at zero regret")
    expect(not checks.check_oracle("oracle", 1e-6)[1], "oracle fails at regret 1e-6")

    scratch = HERE.parent / ".bench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        first, second = scratch / "a", scratch / "b"
        for d in (first, second):
            d.mkdir(parents=True)
            (d / "summary.json").write_text('{"slope": 0.1}\n')
        expect(checks.check_reproducible("same", first, second)[1], "reproducibility passes on equal files")
        (second / "summary.json").write_text('{"slope": 0.2}\n')
        expect(not checks.check_reproducible("same", first, second)[1], "reproducibility fails on one changed byte")
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    corrupted_results()
    fast_mode()
    print(f"{len(failures)} expectation(s) failed" if failures else "self test passed")
    sys.exit(1 if failures else 0)
