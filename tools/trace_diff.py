"""Compare pricelab's outputs in the working tree with those of a git revision.

    python tools/trace_diff.py REV

Extracts ``git archive REV`` into a temporary directory and plays the same
fixed set on both sides, each in its own subprocess with that side's
``src`` on PYTHONPATH and one BLAS thread:

* episodes of EMLP, tuned ONSP (gamma = epsilon = 1), theory-default ONSP,
  Exp4 and the oracle on both scenarios of the reference market, T = 8192,
  repetitions 0 and 1 of the default master seed: features, prices,
  outcomes, regret increments, Reg(t) and Reg(t)/ln t at the dyadic
  checkpoints; for Exp4 also the final expert weights and ``clip_events``;
* the oracle and EMLP at T = 2^17 + 3 and tuned ONSP at T = 2^16 + 3 on
  both scenarios of the reference market, repetition 0, under the
  ``<scenario>-T<horizon>`` keys: longer than one of ``run_episode``'s
  blocks of 2^16 rounds, so the comparison crosses a block boundary;
* the same five policies on stochastic features of a d = 3 market with
  theta* = (0.6, 0.3, 0.2), T = 4096, repetitions 0 and 1, under the
  ``d3-stochastic`` keys: unlike the reference theta* = (0.5, 0.5), whose
  products x'theta* are exact, this market shows how valuations round;
* the same five policies on both scenarios of a market with region "ball"
  and theta* = (0.5, -0.2), T = 4096, repetitions 0 and 1, under the
  ``ball-<scenario>`` keys: its projections and negative valuations are
  those of the ball, which the reference orthant-ball market never reaches;
* all five policies on both scenarios of a market with region "ball" and
  theta* = (0.5, 0.5), T = 4096, repetitions 0 and 1, under the
  ``ball-exp4-<scenario>`` keys, and Exp4's horizon envelope up to 4096 on
  it: the features are nonnegative, so x'theta* is too, while the ball's
  experts with negative coordinates value rounds below 0;
* the same policies but Exp4 on both scenarios of the reference market
  with logistic noise of scale 0.3, T = 4096, repetitions 0 and 1, under
  the ``logistic-<scenario>`` keys: its hazard is the logistic's, which
  ONSP's update and EMLP's fits read and the Gaussian markets never do;
* Exp4's horizon envelope up to 4096 on both scenarios, repetitions 0 and
  1: Reg(T) and Reg(T)/ln T per horizon, and each horizon's final expert
  weights and ``clip_events``;
* ``pricelab run`` on a four-policy config (T = 4096, R = 2): its stdout,
  each trace CSV and ``summary.json``; and the same with ``--workers 2``,
  whose episodes play in a process pool, under the ``run-workers2`` names;
* ``pricelab run`` on each config of a fixed corpus, one per family of
  config error, plus an omitted ``slope_window`` at T = 512, a repeated
  scenario and each lone ONSP override: its exit code and stderr lines,
  so a change that rewords or reorders a diagnostic shows;
* ``pricelab verify``: its stdout;
* ``pricelab lower-bound-demo --t 1024 --reps 2`` for each demo policy,
  which plays the fixed-valuation markets: its stdout.

An episode that aborts leaves its message under ``<key>/aborted`` in place
of its arrays, so an episode that aborts on one side only prints as
differing lines, the message among them.  Prints one line per array or
output, "identical" when its bytes agree and otherwise the largest relative
difference (or the first differing line), and exits 1 when anything
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
HORIZON = 8192
ENVELOPE_CAP = 4096
REPETITIONS = (0, 1)
EPISODE_POLICIES = {
    "emlp": {"kind": "emlp"},
    "onsp-tuned": {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
    "onsp-default": {"kind": "onsp"},
    "exp4": {"kind": "exp4"},
    "oracle": {"kind": "oracle"},
}
# label -> horizon: each crosses a block boundary of run_episode
LONG_HORIZONS = {"oracle": 2**17 + 3, "emlp": 2**17 + 3, "onsp-tuned": 2**16 + 3}
RUN_HORIZON = 4096
RUN_POLICIES = [
    {"kind": "emlp"},
    {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
    {"kind": "exp4", "horizon_cap": 1024},
    {"kind": "oracle"},
]
DEMO_POLICIES = ("onsp", "emlp", "oracle-sigma1")
ROUNDING_MARKET = {"dimension": 3, "theta_star": [0.6, 0.3, 0.2]}
BALL_MARKET = {"region": "ball", "theta_star": [0.5, -0.2]}
BALL_EXP4_MARKET = {"region": "ball", "theta_star": [0.5, 0.5]}
LOGISTIC_MARKET = {"noise": {"kind": "logistic", "scale": 0.3}}
SMALL_HORIZON = 4096
CORPUS_BASE = {
    "problem": {"theta_star": [0.5, 0.5]},
    "policies": [{"kind": "emlp"}, {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}],
    "horizon": 128,
    "repetitions": 1,
    "scenarios": ["stochastic"],
    "slope_window": [8, 128],
}
# name -> the top-level keys that replace CORPUS_BASE's; None drops the key
CORPUS = {
    "unknown-top-key": {"horizn": 128},
    "unknown-problem-key": {"problem": {"theta_star": [0.5, 0.5], "sigma": 0.5}},
    "unknown-noise-key": {"problem": {"theta_star": [0.5, 0.5], "noise": {"kind": "gaussian", "scale": 0.5}}},
    "unknown-policy-key": {"policies": [{"kind": "onsp", "gama": 0.5}]},
    "json-true": {"problem": {"theta_star": [0.5, 0.5], "dimension": True}},
    "beyond-float-range": {"problem": {"theta_star": [0.5, 0.5], "parameter_radius": 10**400}},
    "missing-theta-star": {"problem": {}},
    "adversarial-in-d3": {"problem": {"dimension": 3, "theta_star": [0.5, 0.5, 0.1]}, "scenarios": ["adversarial"]},
    "too-few-checkpoints": {"horizon": 2, "slope_window": [1, 2]},
    "repeated-kind": {"policies": [{"kind": "onsp"}, {"kind": "emlp"}, {"kind": "onsp"}]},
    "lone-gamma": {"policies": [{"kind": "onsp", "gamma": 1.0}]},
    "lone-epsilon": {"policies": [{"kind": "onsp", "epsilon": 1.0}]},
    "unknown-noise-kind": {"problem": {"theta_star": [0.5, 0.5], "noise": {"kind": "cauchy"}}},
    "unknown-region": {"problem": {"theta_star": [0.5, 0.5], "region": "cube"}},
    # the README's rules for an omitted window and a repeated scenario: a revision older than
    # those rules exits 2 on the first, for a key the file never gave, and plays the second's pair twice
    "omitted-window-at-512": {"horizon": 512, "policies": [{"kind": "emlp"}], "slope_window": None},
    "repeated-scenario": {"scenarios": ["stochastic", "stochastic"]},
}


def _exp4_state(arrays: dict, key: str, policy) -> None:
    arrays[f"{key}/weights"] = policy.weights
    arrays[f"{key}/clip_events"] = np.array(policy.clip_events)


def _episodes(arrays: dict, problem, scenario, scenario_key: str, rep: int, seed, horizon: int, skip=()) -> None:
    from pricelab.config import build_policy
    from pricelab.harness import EpisodeAbort, run_episode

    for label, spec in EPISODE_POLICIES.items():
        if label in skip:
            continue
        policy = build_policy(spec, problem, horizon)
        key = f"{label}/{scenario_key}/rep{rep}"
        try:
            transcript, trace = run_episode(policy, scenario, horizon, seed)
        except EpisodeAbort as exc:
            arrays[f"{key}/aborted"] = np.array(str(exc))
            continue
        arrays[f"{key}/features"] = transcript.features
        arrays[f"{key}/prices"] = transcript.prices
        arrays[f"{key}/accepted"] = transcript.accepted
        arrays[f"{key}/increments"] = trace.increments
        arrays[f"{key}/regret"] = trace.cumulative
        arrays[f"{key}/regret_over_log"] = trace.over_log
        if spec["kind"] == "exp4":
            _exp4_state(arrays, key, policy)


def _envelope(arrays: dict, problem, scenario, key: str, seed) -> None:
    """Exp4's horizon envelope up to ENVELOPE_CAP: Reg(T), Reg(T)/ln T and each horizon's final state."""
    from pricelab.config import build_policy
    from pricelab.harness import dyadic_checkpoints, run_horizon_envelope

    built = []

    def exp4(horizon):
        built.append(build_policy({"kind": "exp4"}, problem, horizon))
        return built[-1]

    envelope = run_horizon_envelope(exp4, scenario, dyadic_checkpoints(ENVELOPE_CAP), seed)
    arrays[f"{key}/regret"] = envelope.cumulative
    arrays[f"{key}/regret_over_log"] = envelope.over_log
    for policy in built:
        _exp4_state(arrays, f"{key}/T{policy.horizon:04d}", policy)


def play(out: Path) -> None:
    """One side: write every array to ``arrays.npz`` and every text output under ``out``."""
    import pricelab
    from pricelab.cli import main
    from pricelab.config import build_scenario, default_raw, parse_config
    from pricelab.harness import episode_seed

    print(f"pricelab from {Path(pricelab.__file__).parent}", file=sys.stderr)
    config = parse_config(default_raw())
    arrays = {}
    for scenario_name in config.scenarios:
        scenario = build_scenario(scenario_name, config.problem)
        for rep in REPETITIONS:
            seed = episode_seed(config.master_seed, rep)
            _episodes(arrays, config.problem, scenario, scenario_name, rep, seed, HORIZON)
            _envelope(arrays, config.problem, scenario, f"exp4-envelope/{scenario_name}/rep{rep}", seed)
        seed = episode_seed(config.master_seed, 0)
        for label, horizon in LONG_HORIZONS.items():
            skip = set(EPISODE_POLICIES) - {label}
            _episodes(arrays, config.problem, scenario, f"{scenario_name}-T{horizon}", 0, seed, horizon, skip)
    raw = default_raw()
    markets = (
        ("d3", ROUNDING_MARKET, ["stochastic"], ()),
        ("ball", BALL_MARKET, raw["scenarios"], ()),
        ("ball-exp4", BALL_EXP4_MARKET, raw["scenarios"], ()),
        ("logistic", LOGISTIC_MARKET, raw["scenarios"], ("exp4",)),
    )
    for label, market, scenarios, skip in markets:
        small = parse_config({**raw, "problem": {**raw["problem"], **market}, "scenarios": scenarios})
        for scenario_name in small.scenarios:
            scenario = build_scenario(scenario_name, small.problem)
            for rep in REPETITIONS:
                seed = episode_seed(small.master_seed, rep)
                _episodes(arrays, small.problem, scenario, f"{label}-{scenario_name}", rep, seed, SMALL_HORIZON, skip)
                if label == "ball-exp4":
                    _envelope(arrays, small.problem, scenario, f"exp4-envelope/{label}-{scenario_name}/rep{rep}", seed)
    np.savez(out / "arrays.npz", **arrays)

    raw = {**default_raw(), "horizon": RUN_HORIZON, "repetitions": 2, "policies": RUN_POLICIES}
    raw["slope_window"] = [64, RUN_HORIZON]
    (out / "run.json").write_text(json.dumps(raw))
    commands = {
        "run": ["run", str(out / "run.json"), "--out", str(out / "run")],
        "run-workers2": ["run", str(out / "run.json"), "--out", str(out / "run-workers2"), "--workers", "2"],
        "verify": ["verify"],
    }
    for kind in DEMO_POLICIES:
        commands[f"demo-{kind}"] = ["lower-bound-demo", "--t", "1024", "--reps", "2", "--policy", kind]
    for name, argv in commands.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(argv)
        (out / f"{name}.stdout").write_text(f"{buffer.getvalue()}exit {status}\n")

    (out / "corpus").mkdir()
    for name, overrides in CORPUS.items():
        raw = {key: value for key, value in {**CORPUS_BASE, **overrides}.items() if value is not None}
        path = out / "corpus" / f"{name}.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["run", str(path), "--out", str(out / "corpus" / name)])
        (out / "corpus" / f"{name}.stderr").write_text(f"{err.getvalue()}exit {status}\n")


def _array_line(name: str, a: np.ndarray, b: np.ndarray) -> tuple[bool, str]:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False, f"{name}: {a.dtype}{a.shape} against {b.dtype}{b.shape}"
    if a.tobytes() == b.tobytes():
        return True, f"{name}: identical"
    if a.dtype == bool:
        return False, f"{name}: {int(np.count_nonzero(a != b))} of {a.size} differ"
    both_nan = np.isnan(a) & np.isnan(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(both_nan | (a == b), 0.0, np.abs(a - b) / scale)
    moved = int(np.count_nonzero(rel))
    return False, f"{name}: largest relative difference {float(np.nanmax(rel)):.3e} ({moved} of {a.size} differ)"


def _text_line(name: str, a: bytes, b: bytes) -> tuple[bool, str]:
    if a == b:
        return True, f"{name}: identical"
    lines = zip(a.decode().splitlines(), b.decode().splitlines())
    first = next((i for i, (x, y) in enumerate(lines) if x != y), None)
    where = "in length" if first is None else f"first at line {first + 1}"
    return False, f"{name}: differs {where}"


def compare(here: Path, there: Path) -> list[tuple[bool, str]]:
    """One (same, line) per array and text output; ``there`` is the revision's side."""
    out = []
    with np.load(here / "arrays.npz") as a, np.load(there / "arrays.npz") as b:
        for name in sorted(set(a.files) | set(b.files)):
            if name not in a.files or name not in b.files:
                side, where = (a, "in the tree") if name in a.files else (b, "at the revision")
                message = f": {side[name]}" if side[name].dtype.kind == "U" else ""
                out.append((False, f"{name}: only {where}{message}"))
            else:
                out.append(_array_line(name, a[name], b[name]))
    texts = ["run.stdout", "run-workers2.stdout", "verify.stdout", *(f"demo-{kind}.stdout" for kind in DEMO_POLICIES)]
    texts += [f"corpus/{name}.stderr" for name in CORPUS]
    for run in ("run", "run-workers2"):
        texts += sorted({p.relative_to(side).as_posix() for side in (here, there) for p in (side / run).iterdir()})
    for name in texts:
        files = [side / name for side in (here, there)]
        if not all(f.is_file() for f in files):
            out.append((False, f"{name}: only on one side"))
        else:
            out.append(_text_line(name, files[0].read_bytes(), files[1].read_bytes()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--play", metavar="DIR", help=argparse.SUPPRESS)  # one side, run in a subprocess
    args = parser.parse_args()
    if args.play:
        play(Path(args.play))
        return 0

    with tempfile.TemporaryDirectory(prefix="trace_diff_") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=REPO, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        sides = {"tree": REPO, "rev": tmp / "rev"}
        procs = []
        for name, root in sides.items():
            (tmp / f"out-{name}").mkdir()
            env = {**os.environ, **threads, "PYTHONPATH": str(root / "src")}
            cmd = [sys.executable, __file__, args.rev, "--play", str(tmp / f"out-{name}")]
            procs.append(subprocess.Popen(cmd, env=env, cwd=tmp))
        if any([proc.wait() != 0 for proc in procs]):  # a list: wait for both
            print("a side failed to play", file=sys.stderr)
            return 2
        results = compare(tmp / "out-tree", tmp / "out-rev")
    for _, line in results:
        print(line)
    differ = sum(not same for same, _ in results)
    print(f"{len(results) - differ}/{len(results)} identical against {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
