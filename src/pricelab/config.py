"""Experiment configuration: JSON schema, validation, policy construction.

A config file is one JSON object.  Its schema is ``default_raw()``, the one
home of every default, which the README's ``## Config schema`` shows and
explains: a key a file omits takes its value there, a key it does not hold
is rejected, and every error is reported together with its JSON path.  Each
kind family (noise law, region, scenario, policy) is one table below, from
which ``parse_config`` validates and ``build_scenario`` and ``build_policy``
construct.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environments import AlternatingScenario, PricingProblem, Scenario, StochasticScenario
from .harness import dyadic_checkpoints
from .noise import GaussianNoise, LogisticNoise
from .policies import EmlpPolicy, Exp4Policy, OnspPolicy, OraclePolicy, PricingPolicy
from .regions import Ball, OrthantBall

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "default_config", "build_policy", "build_scenario"]

# each noise kind's one parameter and its law
NOISES = {"gaussian": ("sigma", GaussianNoise), "logistic": ("scale", LogisticNoise)}
REGIONS = {"orthant-ball": OrthantBall, "ball": Ball}
SCENARIOS = {"stochastic": StochasticScenario, "adversarial": AlternatingScenario}
# each policy kind's keys besides "kind" and "horizon_cap" (every kind takes
# horizon_cap: _effective_horizon honours it for all of them), which come
# together as positive reals, and its constructor from (spec, problem, horizon)
POLICIES = {
    "emlp": ((), lambda spec, p, horizon: EmlpPolicy(p.model, p.region, p.feature_bound)),
    "onsp": (
        ("gamma", "epsilon"),
        lambda spec, p, horizon: OnspPolicy(
            p.model, p.region, p.feature_bound, gamma=spec.get("gamma"), epsilon=spec.get("epsilon")
        ),
    ),
    "exp4": ((), lambda spec, p, horizon: Exp4Policy(p.model, p.region, p.feature_bound, horizon=horizon)),
    "oracle": ((), lambda spec, p, horizon: OraclePolicy(p.model, p.region, p.feature_bound, p.theta_star)),
}
POLICY_KINDS = tuple(POLICIES)

# empirically tuned Newton-step hyperparameters for the reference experiment;
# the theory values freeze the iterate at desk-scale horizons
ONSP_TUNED_GAMMA = 1.0
ONSP_TUNED_EPSILON = 1.0


class ConfigError(ValueError):
    """Invalid experiment configuration; ``problems`` lists every offence."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class ExperimentConfig:
    problem: PricingProblem
    scenarios: list[str]
    policies: list[dict]
    horizon: int
    repetitions: int
    master_seed: int
    slope_window: tuple[int, int]
    output_dir: str
    raw: dict = field(repr=False)

    def effective_horizon(self, policy_spec: dict) -> int:
        return _effective_horizon(self.horizon, policy_spec)

    def fit_window(self, policy_spec: dict) -> tuple[int, int]:
        """The slope window clipped to the policy's horizon."""
        return _clip_window(self.slope_window, self.effective_horizon(policy_spec))


def _effective_horizon(horizon: int, policy_spec: dict) -> int:
    cap = policy_spec.get("horizon_cap")
    return min(horizon, cap) if cap else horizon


def _clip_window(window, horizon: int) -> tuple[int, int]:
    return min(window[0], horizon // 4), min(window[1], horizon)


def default_raw() -> dict:
    return {
        "problem": {
            "dimension": 2,
            "parameter_radius": 1.0,
            "feature_bound": 1.0,
            "region": "orthant-ball",
            "noise": {"kind": "gaussian", "sigma": 0.25},
            "theta_star": [0.5, 0.5],
        },
        "horizon": 2**16,
        "repetitions": 5,
        "master_seed": 20240501,
        "scenarios": ["stochastic", "adversarial"],
        "policies": [
            {"kind": "emlp"},
            {"kind": "onsp", "gamma": ONSP_TUNED_GAMMA, "epsilon": ONSP_TUNED_EPSILON},
            {"kind": "exp4", "horizon_cap": 2**12},
        ],
        "slope_window": [2**10, 2**16],
        "output_dir": "results",
    }


def default_config() -> ExperimentConfig:
    return parse_config(default_raw())


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config; raises ConfigError with diagnostics."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"]) from exc
    return parse_config(raw)


# JSON true and false load as bool, a subclass of int: neither is a number here
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:  # a finite float; JSON 10**400 loads as an int that no float holds
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _positive_int(value, path, problems, default=None):
    if not _is_int(value) or not 1 <= value < 2**63:  # counts and checkpoints are int64
        problems.append(f"{path} must be a positive integer below 2**63")
        return default
    return value


def _positive_real(value, path, problems):
    if not _is_real(value) or value <= 0:
        problems.append(f"{path} must be a positive real")
        return None
    return float(value)


def _reject_unknown(raw: dict, known, path: str, problems) -> None:
    for key in raw:
        if key not in known:
            problems.append(f"{path}{key} is not a known key; expected one of {', '.join(known)}")


def _lookup(table: dict, name):
    """The table's entry for a name, or None; a JSON list or object names nothing."""
    return table.get(name) if isinstance(name, str) else None


def _choices(table: dict) -> str:
    return " or ".join(map(repr, table))


def _once(first: dict, name: str, path: str, i: int, label: str, problems) -> None:
    # each pair's trace is <kind>_<scenario>.csv, so a second use of a name would overwrite the first's
    if name in first:
        problems.append(f"{path}[{i}]{label} {name!r} repeats {path}[{first[name]}]")
    first.setdefault(name, i)


def _parse_noise(raw, problems):
    if not isinstance(raw, dict):
        problems.append("problem.noise must be an object")
        return None
    entry = _lookup(NOISES, raw.get("kind"))
    if entry is None:
        problems.append(f"problem.noise.kind must be {_choices(NOISES)}")
        return None
    key, law = entry
    _reject_unknown(raw, ("kind", key), "problem.noise.", problems)
    value = _positive_real(raw.get(key), f"problem.noise.{key}", problems)
    return law(value) if value else None


def _parse_policy(spec, i: int, first_kind: dict, problems) -> None:
    entry = _lookup(POLICIES, spec.get("kind")) if isinstance(spec, dict) else None
    if entry is None:
        problems.append(f"policies[{i}].kind must be one of {POLICY_KINDS}")
        return
    kind, keys = spec["kind"], entry[0]
    _once(first_kind, kind, "policies", i, ".kind", problems)
    _reject_unknown(spec, ("kind", "horizon_cap", *keys), f"policies[{i}].", problems)
    present = [key for key in keys if key in spec]
    if present and len(present) < len(keys):  # the one line that names a missing key
        problems.append(f"policies[{i}]: override {' and '.join(keys)} together")
    for key in present:
        _positive_real(spec[key], f"policies[{i}].{key}", problems)
    if spec.get("horizon_cap") is not None:
        _positive_int(spec["horizon_cap"], f"policies[{i}].horizon_cap", problems)


def parse_config(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top-level config must be a JSON object"])
    default = default_raw()
    _reject_unknown(raw, default, "", problems)
    given = {**default, **raw}

    prob_raw = raw.get("problem")
    problem = None
    if not isinstance(prob_raw, dict):
        problems.append("problem must be an object")
    else:
        _reject_unknown(prob_raw, default["problem"], "problem.", problems)
        given_problem = {**default["problem"], **prob_raw}
        dim = _positive_int(given_problem["dimension"], "problem.dimension", problems, default=2)
        b1 = _positive_real(given_problem["parameter_radius"], "problem.parameter_radius", problems)
        b2 = _positive_real(given_problem["feature_bound"], "problem.feature_bound", problems)
        model = _parse_noise(given_problem["noise"], problems)
        region = _lookup(REGIONS, given_problem["region"])
        if region is None:
            problems.append(f"problem.region must be {_choices(REGIONS)}")
        theta = prob_raw.get("theta_star")
        if theta is None:
            problems.append("problem.theta_star is required")
        elif not (isinstance(theta, list) and len(theta) == dim and all(_is_real(t) for t in theta)):
            problems.append(f"problem.theta_star must be a list of {dim} reals")
            theta = None
        if not problems and theta is not None:
            try:
                problem = PricingProblem(model, region(b1, dim), np.array(theta, dtype=float), b2)
            except ValueError as exc:
                problems.append(f"problem: {exc}")

    horizon = _positive_int(given["horizon"], "horizon", problems, default=2**16)
    reps = _positive_int(given["repetitions"], "repetitions", problems)
    seed = given["master_seed"]
    if not _is_int(seed) or seed < 0:
        problems.append("master_seed must be a nonnegative integer")

    scenarios = given["scenarios"]
    if not (isinstance(scenarios, list) and scenarios and all(_lookup(SCENARIOS, s) for s in scenarios)):
        problems.append(f"scenarios must be a nonempty list drawn from {tuple(SCENARIOS)}")
        scenarios = ["stochastic"]
    first_scenario: dict[str, int] = {}
    for i, name in enumerate(scenarios):
        _once(first_scenario, name, "scenarios", i, "", problems)

    policies = raw.get("policies")
    if not (isinstance(policies, list) and policies):
        problems.append("policies must be a nonempty list")
        policies = []
    first_kind: dict[str, int] = {}
    for i, spec in enumerate(policies):
        _parse_policy(spec, i, first_kind, problems)

    if "slope_window" in raw:
        window = raw["slope_window"]
        if not (
            isinstance(window, list)
            and len(window) == 2
            and all(_is_int(w) and w >= 1 for w in window)
            and window[0] < window[1]
        ):
            problems.append("slope_window must be [t_lo, t_hi] with 1 <= t_lo < t_hi")
    else:  # [2^10, horizon], clipped as each fit window is, so it holds at any horizon
        window = _clip_window((default["slope_window"][0], horizon), horizon)

    out_dir = given["output_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        problems.append("output_dir must be a nonempty string")

    if problem is not None and problem.dim != 2 and "adversarial" in scenarios:
        problems.append(f"scenarios: 'adversarial' needs problem.dimension 2, got {problem.dim}")
    if not problems:
        for i, spec in enumerate(policies):
            pair_horizon = _effective_horizon(horizon, spec)
            lo, hi = _clip_window(window, pair_horizon)
            cps = dyadic_checkpoints(pair_horizon)
            held = int(np.count_nonzero((cps >= lo) & (cps <= hi)))
            if held < 3:
                problems.append(
                    f"slope_window: policies[{i}] clips it to [{lo}, {hi}] at horizon {pair_horizon}, "
                    f"which holds {held} dyadic checkpoints; the slope fit needs 3"
                )

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        problem=problem,
        scenarios=list(scenarios),
        policies=list(policies),
        horizon=horizon,
        repetitions=reps,
        master_seed=seed,
        slope_window=(window[0], window[1]),
        output_dir=out_dir,
        raw=raw,
    )


def build_scenario(name: str, problem: PricingProblem) -> Scenario:
    scenario = _lookup(SCENARIOS, name)
    if scenario is None:
        raise ValueError(f"unknown scenario {name!r}")
    return scenario(problem)


def build_policy(spec: dict, problem: PricingProblem, horizon: int) -> PricingPolicy:
    entry = _lookup(POLICIES, spec["kind"])
    if entry is None:
        raise ValueError(f"unknown policy kind {spec['kind']!r}")
    return entry[1](spec, problem, horizon)
