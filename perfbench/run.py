"""pricelab benchmark: one workload played through ``pricelab.cli.run_experiments``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It plays the workload's config (see workloads.py) in one process with
``workers=1`` for about S seconds, as calls of ``run_experiments``, the code
path of ``pricelab run``.  One cycle of calls plays the workload's fixed list
of master-seed draws, all derived from N (see workloads.py); the run plays
whole cycles, at least one, while the next fits in S seconds.  It then
checks the outputs (checks.py) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one episode or one check.  With ``--trace 0`` the metrics are the end-to-end
ones, measured without tracing; with ``--trace 1`` call 0 is traced
(tracer.py) and the metrics are the per-layer ones.  Outputs go to
``.bench_out/`` in the checkout.  Exit code 0 when every check passed, 1
when one failed, 2 when the checkout holds no pricelab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9  # the first is a warm-up that fills the bytecode cache


def probe_setup(workload: str, master_seed: int) -> float:
    """Seconds from starting a fresh process to its first round."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(master_seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


class EpisodeRecorder:
    """Keeps (policy, horizon, transcript) of every episode while installed."""

    SITES = ("pricelab.cli", "pricelab.harness")

    def __init__(self):
        self.episodes: list[tuple] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name in self.SITES:
            module = sys.modules[name]
            original = module.run_episode
            self._saved.append((module, original))
            module.run_episode = self._recording(original)

    def remove(self) -> None:
        for module, original in self._saved:
            module.run_episode = original
        self._saved.clear()

    def _recording(self, run_episode):
        def recorded(policy, scenario, horizon, seed, *args, **kwargs):
            transcript, trace = run_episode(policy, scenario, horizon, seed, *args, **kwargs)
            self.episodes.append((policy, int(horizon), transcript))
            return transcript, trace

        return recorded


def run_checks(config, plan, call_dirs: list[Path], summaries: list[dict], episodes: list[tuple]):
    """Every output check of one run; returns [(name, passed, detail)]."""
    import checks
    from pricelab.config import build_scenario
    from pricelab.harness import episode_seed, run_episode
    from pricelab.policies import EmlpPolicy, OraclePolicy

    problem = config.problem
    sigma, radius = problem.model.sigma, problem.region.radius
    spec, scenario_name = config.policies[0], config.scenarios[0]
    csv_name = f"{spec['kind']}_{scenario_name}.csv"
    traces = [checks.read_trace_csv(d / csv_name) for d in call_dirs]
    results = []

    # (a) regret of every episode of call 0, recomputed from its transcript
    per_rep = len(episodes) // config.repetitions
    for k, (policy, horizon, transcript) in enumerate(episodes):
        rep = k // per_rep
        regret = checks.reference_regret(transcript.features, transcript.prices, problem.theta_star, sigma)
        reported = traces[0][rep]
        points = [horizon] if spec["kind"] == "exp4" else sorted(reported)
        results.append(checks.check_regret(f"regret rep{rep} T={horizon}", regret, points, reported))

    # (b) every call's summary slope matches its CSV, (c) the envelope's Reg(t)/t falls in every call
    for i, (summary, trace) in enumerate(zip(summaries, traces)):
        if spec["kind"] == "exp4":
            results.append(checks.check_envelope(f"envelope call{i}", trace))
        else:
            results.append(checks.check_slope(f"slope call{i}", summary["pairs"][0], trace))

    # (b) sub-sqrt(T) growth of EMLP and ONSP, over every repetition of the cycle's distinct seeds
    if spec["kind"] != "exp4":
        distinct = {draw: traces[i] for i, draw in enumerate(plan)}
        repetitions = [rep for trace in distinct.values() for rep in trace.values()]
        window = summaries[0]["pairs"][0]["slope_window"]
        results.append(checks.check_growth("growth over the cycle's seeds", window, repetitions))

    # (d) every EMLP refit of call 0 against SLSQP on an independent likelihood
    for k, (policy, _, transcript) in enumerate(episodes):
        if isinstance(policy, EmlpPolicy):
            for rounds, start, fitted in checks.emlp_refits(policy, transcript):
                name = f"mle rep{k} rounds {rounds.start + 1}-{rounds.stop}"
                results.append(checks.check_emlp_refit(name, transcript, rounds, start, fitted, sigma, radius))

    # (e) the oracle has zero regret on each scenario
    for name in config.scenarios:
        oracle = OraclePolicy(problem.model, problem.region, problem.feature_bound, problem.theta_star)
        _, trace = run_episode(oracle, build_scenario(name, problem), config.horizon, episode_seed(config.master_seed, 0))
        results.append(checks.check_oracle(f"oracle {name}", trace.total))

    # (f) calls 0 and 1 share a master seed, where the workload's cycle repeats draw 0
    if plan[:2] == (0, 0):
        results.append(checks.check_reproducible("same seed, same outputs", call_dirs[0], call_dirs[1]))
    return results


def run_workload(workload: str, seed: int, seconds: float, trace: bool, horizon: int | None = None) -> dict:
    """Play one run and return its result object (see the module docstring)."""
    metrics: dict[str, dict] = {}
    if not trace:
        times = [probe_setup(workload, workloads.master_seed(seed, 0)) for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = {"value": statistics.median(times[1:]), "unit": "s"}

    sys.path.insert(0, str(SRC))
    import pricelab
    import pricelab.cli
    from pricelab.config import parse_config

    if not Path(pricelab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pricelab was imported from {pricelab.__file__}, not from {SRC}")

    plan = workloads.WORKLOADS[workload][4]
    configs = {
        draw: parse_config(workloads.config_raw(workload, workloads.master_seed(seed, draw), horizon))
        for draw in plan
    }
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)

    recorder = EpisodeRecorder()
    call_times: list[float] = []
    call_dirs: list[Path] = []
    summaries: list[dict] = []
    start = time.perf_counter()
    cycle_s = 0.0
    while not call_times or time.perf_counter() - start + cycle_s <= seconds:
        cycle_began = time.perf_counter()
        for draw in plan:
            call = len(call_times)
            call_dirs.append(out / f"call{call}")
            if call == 0:
                recorder.install()
            if tracer is not None:
                tracer.enabled = call == 0
            began = time.perf_counter()
            summaries.append(pricelab.cli.run_experiments(configs[draw], out_dir=call_dirs[-1], workers=1))
            call_times.append(time.perf_counter() - began)
            recorder.remove()
        cycle_s = time.perf_counter() - cycle_began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = sum(length for _, length, _ in recorder.episodes)
    if tracer is None:
        metrics["run_s"] = {"value": statistics.median(call_times), "unit": "s"}
        metrics["rounds_per_s"] = {"value": rounds / metrics["run_s"]["value"], "unit": "rounds/s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        if plan[:2] == (0, 0):
            print(f"tracing overhead: traced call {call_times[0]:.3f} s, untraced call on its seed {call_times[1]:.3f} s")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
        from tracer import PER_LAYER_UNITS

        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        tracer.write_spans(out / "spans.csv")

    print(f"{len(call_times)} calls: " + ", ".join(f"{t:.3f}" for t in call_times) + " s")
    results = run_checks(configs[0], plan, call_dirs, summaries, recorder.episodes)
    failed = 0
    for name, passed, detail in results:
        failed += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return {
        "correct": failed == 0,
        "attempted": len(recorder.episodes) * len(call_times) + len(results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--horizon", type=int, default=None, help="shrink the horizon (the self test's fast mode)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.horizon is not None and args.horizon < 4):
        parser.error("--seed must be >= 0, --seconds > 0 and --horizon >= 4")
    if not (SRC / "pricelab" / "__init__.py").is_file():
        print(f"no pricelab sources under {SRC}", file=sys.stderr)
        return 2
    # one process, one BLAS thread; children inherit the setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.horizon)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
