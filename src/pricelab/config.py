"""Experiment configuration: JSON schema, validation, policy construction.

A config file is one JSON object; every key below is validated at load, a
key not shown is rejected, and errors are reported together with their JSON
path:

    {
      "problem": {
        "dimension": 2,
        "parameter_radius": 1.0,        # B1
        "feature_bound": 1.0,           # B2
        "region": "orthant-ball",       # or "ball" (centered at 0)
        "noise": {"kind": "gaussian", "sigma": 0.25},   # or logistic/scale
        "theta_star": [0.5, 0.5]
      },
      "horizon": 65536,
      "repetitions": 5,
      "master_seed": 20240501,
      "scenarios": ["stochastic", "adversarial"],
      "policies": [
        {"kind": "emlp"},
        {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
        {"kind": "exp4", "horizon_cap": 4096}
      ],                                # each kind at most once; each kind takes
                                        # "horizon_cap", and onsp also takes
                                        # "gamma" and "epsilon", together
      "slope_window": [1024, 65536],
      "output_dir": "results"
    }

Defaults (``default_config()``) reproduce the reference experiment:
d=2, B1=B2=1, Gaussian sigma=0.25, T=2^16, 5 repetitions, the experts
baseline capped at T=2^12, log-log fits over [2^10, 2^16].  ``default_raw()``
is each default's one home: a key a file omits takes its value there, but
for ``problem.theta_star`` and ``policies``, which a file must give, and
``slope_window``, whose default [2^10, horizon] follows the horizon.
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

SCENARIO_NAMES = ("stochastic", "adversarial")

# the keys each level of a config may hold; any other key is an error, so a
# misspelt option cannot silently fall back to its default
TOP_KEYS = ("problem", "horizon", "repetitions", "master_seed", "scenarios", "policies", "slope_window", "output_dir")
PROBLEM_KEYS = ("dimension", "parameter_radius", "feature_bound", "region", "noise", "theta_star")
NOISE_KEYS = {"gaussian": ("kind", "sigma"), "logistic": ("kind", "scale")}
# every kind takes horizon_cap: _effective_horizon honours it for all of them
POLICY_KEYS = {
    "emlp": ("kind", "horizon_cap"),
    "onsp": ("kind", "horizon_cap", "gamma", "epsilon"),
    "exp4": ("kind", "horizon_cap"),
    "oracle": ("kind", "horizon_cap"),
}
POLICY_KINDS = tuple(POLICY_KEYS)

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


def _parse_noise(raw, problems):
    if not isinstance(raw, dict):
        problems.append("problem.noise must be an object")
        return None
    kind = raw.get("kind")
    if kind in NOISE_KEYS:
        _reject_unknown(raw, NOISE_KEYS[kind], "problem.noise.", problems)
    if kind == "gaussian":
        sigma = _positive_real(raw.get("sigma"), "problem.noise.sigma", problems)
        return GaussianNoise(sigma) if sigma else None
    if kind == "logistic":
        scale = _positive_real(raw.get("scale"), "problem.noise.scale", problems)
        return LogisticNoise(scale) if scale else None
    problems.append("problem.noise.kind must be 'gaussian' or 'logistic'")
    return None


def parse_config(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top-level config must be a JSON object"])
    _reject_unknown(raw, TOP_KEYS, "", problems)
    default = default_raw()
    given = {**default, **raw}

    prob_raw = raw.get("problem")
    problem = None
    if not isinstance(prob_raw, dict):
        problems.append("problem must be an object")
    else:
        _reject_unknown(prob_raw, PROBLEM_KEYS, "problem.", problems)
        given_problem = {**default["problem"], **prob_raw}
        dim = _positive_int(given_problem["dimension"], "problem.dimension", problems, default=2)
        b1 = _positive_real(given_problem["parameter_radius"], "problem.parameter_radius", problems)
        b2 = _positive_real(given_problem["feature_bound"], "problem.feature_bound", problems)
        model = _parse_noise(given_problem["noise"], problems)
        region_kind = given_problem["region"]
        if region_kind not in ("orthant-ball", "ball"):
            problems.append("problem.region must be 'orthant-ball' or 'ball'")
            region_kind = "orthant-ball"
        theta = prob_raw.get("theta_star")
        if theta is None:
            problems.append("problem.theta_star is required")
        elif not (isinstance(theta, list) and len(theta) == dim and all(_is_real(t) for t in theta)):
            problems.append(f"problem.theta_star must be a list of {dim} reals")
            theta = None
        if not problems and theta is not None:
            region = OrthantBall(b1, dim) if region_kind == "orthant-ball" else Ball(b1, dim)
            try:
                problem = PricingProblem(model, region, np.array(theta, dtype=float), b2)
            except ValueError as exc:
                problems.append(f"problem: {exc}")

    horizon = _positive_int(given["horizon"], "horizon", problems, default=2**16)
    reps = _positive_int(given["repetitions"], "repetitions", problems, default=5)
    seed = given["master_seed"]
    if not _is_int(seed) or seed < 0:
        problems.append("master_seed must be a nonnegative integer")

    scenarios = given["scenarios"]
    if not (isinstance(scenarios, list) and scenarios and all(s in SCENARIO_NAMES for s in scenarios)):
        problems.append(f"scenarios must be a nonempty list drawn from {SCENARIO_NAMES}")
        scenarios = ["stochastic"]

    policies = raw.get("policies")
    if not (isinstance(policies, list) and policies):
        problems.append("policies must be a nonempty list")
        policies = []
    else:
        first_of_kind: dict[str, int] = {}
        for i, spec in enumerate(policies):
            if not isinstance(spec, dict) or spec.get("kind") not in POLICY_KINDS:
                problems.append(f"policies[{i}].kind must be one of {POLICY_KINDS}")
                continue
            # each pair's trace is <kind>_<scenario>.csv, so a second spec of a kind would overwrite the first's
            kind = spec["kind"]
            if kind in first_of_kind:
                problems.append(f"policies[{i}].kind {kind!r} repeats policies[{first_of_kind[kind]}]")
            first_of_kind.setdefault(kind, i)
            _reject_unknown(spec, POLICY_KEYS[kind], f"policies[{i}].", problems)
            if kind == "onsp":
                has_g, has_e = "gamma" in spec, "epsilon" in spec
                if has_g != has_e:
                    problems.append(f"policies[{i}]: override gamma and epsilon together")
                if has_g:
                    _positive_real(spec.get("gamma"), f"policies[{i}].gamma", problems)
                    _positive_real(spec.get("epsilon"), f"policies[{i}].epsilon", problems)
            if spec.get("horizon_cap") is not None:
                _positive_int(spec["horizon_cap"], f"policies[{i}].horizon_cap", problems)

    window = raw.get("slope_window", [2**10, horizon])
    if not (
        isinstance(window, list)
        and len(window) == 2
        and all(_is_int(w) and w >= 1 for w in window)
        and window[0] < window[1]
    ):
        problems.append("slope_window must be [t_lo, t_hi] with 1 <= t_lo < t_hi")
        window = [2**10, horizon]

    out_dir = given["output_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        problems.append("output_dir must be a nonempty string")
        out_dir = "results"

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
    if name == "stochastic":
        return StochasticScenario(problem)
    if name == "adversarial":
        return AlternatingScenario(problem)
    raise ValueError(f"unknown scenario {name!r}")


def build_policy(spec: dict, problem: PricingProblem, horizon: int) -> PricingPolicy:
    kind = spec["kind"]
    if kind == "emlp":
        return EmlpPolicy(problem.model, problem.region, problem.feature_bound)
    if kind == "onsp":
        return OnspPolicy(
            problem.model,
            problem.region,
            problem.feature_bound,
            gamma=spec.get("gamma"),
            epsilon=spec.get("epsilon"),
        )
    if kind == "exp4":
        return Exp4Policy(problem.model, problem.region, problem.feature_bound, horizon=horizon)
    if kind == "oracle":
        return OraclePolicy(problem.model, problem.region, problem.feature_bound, problem.theta_star)
    raise ValueError(f"unknown policy kind {kind!r}")
