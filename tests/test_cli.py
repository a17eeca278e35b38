"""CLI surface: run/verify/demo/constants, config validation, outputs."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pricelab.cli as cli_module
import pricelab.loss as loss_module
import pricelab.policies as policies_module
import pricelab.verify as verify_mod
from pricelab.cli import lower_bound_demo, main
from pricelab.config import (
    POLICY_KINDS,
    ConfigError,
    build_policy,
    build_scenario,
    default_config,
    default_raw,
    load_config,
    parse_config,
)
from pricelab.environments import StochasticScenario
from pricelab.loss import BatchObjective
from pricelab.noise import GaussianNoise, LogisticNoise
from pricelab.pricing import AnalysisConstants
from pricelab.regions import Ball, OrthantBall


@pytest.fixture
def small_raw():
    raw = default_raw()
    raw["horizon"] = 128
    raw["repetitions"] = 2
    raw["policies"] = [
        {"kind": "emlp"},
        {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0},
        {"kind": "exp4", "horizon_cap": 64},
    ]
    raw["slope_window"] = [8, 128]
    return raw


def _mis_scaled_likelihood(init):
    # the loss is built on a noise 20% wider than the market's: value and gradient stay consistent
    def wrapped(self, features, prices, accepted, model):
        init(self, features, prices, accepted, dataclasses.replace(model, sigma=1.2 * model.sigma))

    return wrapped


def _gaussian_c_down_at_lower_end(f):
    # the Gaussian curvature floor lies at the window's upper end; the
    # logistic one is held to its closed form apart from the grid
    def wrapped(model, b):
        constants = f(model, b)
        if not isinstance(model, GaussianNoise):
            return constants
        c_down = float(min(model.log_sf_curvature(-b), model.log_cdf_curvature(-b)))
        return dataclasses.replace(constants, c_down=c_down, alpha=c_down / constants.c_exp)

    return wrapped


def _scaled(grad_factor, hess_factor):
    # gradient_hessian with its gradient and its Hessian each scaled
    def fault(f):
        def wrapped(self, theta):
            grad, hess = f(self, theta)
            return grad_factor * grad, hess_factor * hess

        return wrapped

    return fault


def _record_pools(monkeypatch) -> list:
    """Replace the process pool by one that plays its jobs lazily in this process: no process starts.

    Returns the list its events go to: ("open", size) and ("shutdown", cancel_futures).
    """
    events = []

    class RecordingPool:
        def __init__(self, max_workers):
            events.append(("open", max_workers))

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            events.append(("shutdown", cancel_futures))

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", RecordingPool)
    return events


def _region_faults(check, fault, label):
    return [
        pytest.param(check, region, "project_weighted", fault, id=f"{label}-{region.__name__}")
        for region in (Ball, OrthantBall)
    ]


# (check, owner, attribute, fault): fault maps the true attribute to a broken one
_FAULTS = [
    pytest.param(
        verify_mod.check_log_concavity,
        GaussianNoise,
        "log_cdf",
        lambda f: lambda self, w: f(self, w) + 1e-3 * np.square(w),
        id="log-concavity",
    ),
    pytest.param(
        verify_mod.check_density_consistency,
        GaussianNoise,
        "pdf_derivative",
        lambda f: lambda self, w: f(self, w) * (1.0 + 1e-4),
        id="derivative-consistency",
    ),
    pytest.param(
        verify_mod.check_hazard_monotone,
        GaussianNoise,
        "hazard",
        lambda f: lambda self, w: np.maximum(f(self, w), 1e-3),
        id="hazard-monotone",
    ),
    pytest.param(
        verify_mod.check_hazard_monotone,
        GaussianNoise,
        "reverse_hazard",
        lambda f: lambda self, w: np.maximum(f(self, w), 1e-3),
        id="reverse-hazard-monotone",
    ),
    pytest.param(
        verify_mod.check_hazard_asymptotics,
        GaussianNoise,
        "hazard",
        lambda f: lambda self, w: f(self, w) + 1e-12,
        id="hazard-cube-decay",
    ),
    pytest.param(
        verify_mod.check_hazard_asymptotics,
        GaussianNoise,
        "hazard",
        lambda f: lambda self, w: f(self, w) * (1.0 + 1e-4),
        id="hazard-mills-asymptote",
    ),
    pytest.param(
        verify_mod.check_tail_identity,
        GaussianNoise,
        "log_sf",
        lambda f: lambda self, w: f(self, w) + 1e-8,
        id="tail-identity",
    ),
    pytest.param(
        verify_mod.check_reward_unimodal,
        verify_mod,
        "greedy_price",
        lambda f: lambda model, u: f(model, u) + 0.01,
        id="reward-unimodal",
    ),
    pytest.param(
        verify_mod.check_price_contraction,
        verify_mod,
        "greedy_price_vec",
        lambda f: lambda model, u: f(model, u) + (u if model == LogisticNoise(1.0) else 0.0),
        id="contraction-logistic-unit",
    ),
    pytest.param(
        verify_mod.check_fixed_point_and_scaling,
        verify_mod,
        "greedy_price",
        lambda f: lambda model, u: f(model, u) + 1e-8,
        id="fixed-point-and-scaling",
    ),
    pytest.param(
        verify_mod.check_first_order_residual,
        verify_mod,
        "greedy_price",
        lambda f: lambda model, u: f(model, u) + (1e-6 if u > 1.0 else 0.0),
        id="first-order-residual-above-1",
    ),
    pytest.param(
        verify_mod.check_quadratic_regret_bound,
        verify_mod,
        "compute_constants",
        lambda f: lambda model, b: dataclasses.replace(f(model, b), c_quad=0.1 * f(model, b).c_quad),
        id="quadratic-regret-bound",
    ),
    pytest.param(
        verify_mod.check_constants,
        verify_mod,
        "compute_constants",
        lambda f: lambda model, b: dataclasses.replace(f(model, b), alpha=2.0),
        id="analysis-constants-alpha",
    ),
    pytest.param(
        verify_mod.check_constants,
        verify_mod,
        "compute_constants",
        _gaussian_c_down_at_lower_end,
        id="analysis-constants-gaussian-c_down-wrong-end",
    ),
    pytest.param(
        verify_mod.check_gradient_hessian_fd,
        BatchObjective,
        "gradient_hessian",
        _scaled(1.0 + 1e-5, 1.0),
        id="gradient-finite-difference",
    ),
    pytest.param(
        verify_mod.check_gradient_hessian_fd,
        BatchObjective,
        "gradient_hessian",
        _scaled(1.0, 0.5),
        id="hessian-finite-difference",
    ),
    pytest.param(
        verify_mod.check_gradient_hessian_fd,
        BatchObjective,
        "gradient_hessian",
        _scaled(1.0, 0.1),
        id="hessian-finite-difference-tenth",
    ),
    pytest.param(
        verify_mod.check_psd_sandwich,
        BatchObjective,
        "gradient_hessian",
        _scaled(2.0, 1.0),
        id="psd-sandwich-gradient-ceiling",
    ),
    pytest.param(
        verify_mod.check_psd_sandwich,
        BatchObjective,
        "gradient_hessian",
        _scaled(1.0, -1.0),
        id="psd-sandwich-negated-hessian",
    ),
    pytest.param(
        verify_mod.check_truth_is_stationary,
        BatchObjective,
        "__init__",
        _mis_scaled_likelihood,
        id="truth-stationary",
    ),
    *_region_faults(
        verify_mod.check_weighted_projection, lambda f: lambda self, y, a: self.project(y), "projection-ignores-weight"
    ),
    *_region_faults(
        verify_mod.check_weighted_projection,
        lambda f: lambda self, y, a: f(self, y, a) * (1.0 + 1e-11),
        "projection-membership-1e-12",
    ),
    pytest.param(
        verify_mod.check_scenario_contract,
        StochasticScenario,
        "features",
        lambda f: lambda self, horizon, rng: 2.0 * f(self, horizon, rng),
        id="feature-contract",
    ),
    pytest.param(
        verify_mod.check_lower_bound_geometry,
        verify_mod,
        "greedy_price",
        lambda f: lambda model, u: u,
        id="lower-bound-geometry",
    ),
    pytest.param(
        verify_mod.check_slope_recovery,
        verify_mod,
        "fit_slope",
        lambda f: lambda source, window: dataclasses.replace(f(source, window), slope=1.001 * f(source, window).slope),
        id="slope-recovery",
    ),
]


def _write(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_default_pairs_emit_six_csv_files(self, tmp_path, small_raw):
        cfg = _write(tmp_path, small_raw)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == [
            "emlp_adversarial.csv",
            "emlp_stochastic.csv",
            "exp4_adversarial.csv",
            "exp4_stochastic.csv",
            "onsp_adversarial.csv",
            "onsp_stochastic.csv",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["pairs"]) == 6
        assert summary["config"]["horizon"] == 128

    def test_summary_reproduces_run(self, tmp_path, small_raw):
        cfg = _write(tmp_path, small_raw)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        echoed = json.loads((out1 / "summary.json").read_text())["config"]
        cfg2 = _write(tmp_path, echoed, "echo.json")
        assert main(["run", str(cfg2), "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["pairs"] == s2["pairs"]
        # repetition r plays SeedSequence([master_seed, r])
        assert s1["seeds"] == [[small_raw["master_seed"], 0], [small_raw["master_seed"], 1]]

    def test_parallel_workers_match_sequential(self, tmp_path, small_raw):
        # every pair's repetitions through one pool, Exp4's horizon envelope included
        cfg = _write(tmp_path, small_raw)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", str(cfg), "--out", str(seq)]) == 0
        assert main(["run", str(cfg), "--out", str(par), "--workers", "2"]) == 0
        files = sorted(p.name for p in seq.iterdir())
        assert files == sorted(p.name for p in par.iterdir()) and len(files) == 7
        for name in files:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    @pytest.mark.parametrize(
        "reps, scenarios, workers, pools",
        [
            (2, ["stochastic"], 64, [2]),
            (1, ["stochastic"], 64, []),
            (2, ["stochastic", "adversarial"], 64, [8]),
            (2, ["stochastic", "adversarial"], 3, [3]),
            (2, ["stochastic", "adversarial"], 1, []),
        ],
        ids=["two-reps", "one-rep", "several-pairs", "fewer-workers", "one-worker"],
    )
    def test_a_run_opens_one_pool_of_at_most_its_jobs(
        self, tmp_path, small_raw, monkeypatch, reps, scenarios, workers, pools
    ):
        # one pair, or two policies on two scenarios: 2 x 2 pairs x 2 repetitions are 8 jobs
        events = _record_pools(monkeypatch)
        small_raw["repetitions"] = reps
        small_raw["policies"] = [{"kind": "oracle"}, {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}][: len(scenarios)]
        small_raw["scenarios"] = scenarios
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--workers", str(workers)]) == 0
        assert events == [event for size in pools for event in (("open", size), ("shutdown", True))]

    def test_an_abort_cancels_the_queued_jobs(self, tmp_path, small_raw, monkeypatch, capsys):
        # theory-default ONSP cannot be built at sigma 0.02, so the first of eight jobs aborts
        events, played, play = _record_pools(monkeypatch), [], cli_module._play
        monkeypatch.setattr(cli_module, "_play", lambda job: played.append(job) or play(job))
        small_raw["problem"]["noise"]["sigma"] = 0.02
        small_raw["policies"] = [{"kind": "onsp"}, {"kind": "oracle"}]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--workers", "2"]) == 1
        assert capsys.readouterr().err.startswith("run aborted: strong-convexity floor underflowed")
        assert len(played) == 1 and events == [("open", 2), ("shutdown", True)]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, small_raw, capsys, workers):
        # these used to run the repetitions serially
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: workers must be at least 1\n"
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, tmp_path, small_raw, capsys):
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "config error: master_seed must be a nonnegative integer\n"
        assert not out.exists()

    def test_repeated_policy_kind_exits_2(self, tmp_path, small_raw, capsys):
        # two onsp specs would write one onsp_stochastic.csv
        small_raw["policies"].append({"kind": "onsp", "gamma": 0.5, "epsilon": 0.5})
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: policies[3].kind 'onsp' repeats policies[1]\n"
        assert not out.exists()

    def test_repeated_scenario_exits_2(self, tmp_path, small_raw, capsys):
        # both would write <kind>_stochastic.csv, and summary.json would list each pair twice
        small_raw["scenarios"] = ["stochastic", "adversarial", "stochastic"]
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: scenarios[2] 'stochastic' repeats scenarios[0]\n"
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [16, 512, 1024])
    def test_an_omitted_window_holds_at_a_short_horizon(self, tmp_path, small_raw, horizon):
        # the default [1024, horizon] failed the file's own t_lo < t_hi check, for a key it never gave
        del small_raw["slope_window"]
        small_raw["horizon"] = horizon
        config = parse_config(small_raw)
        for spec in config.policies:
            pair_horizon = config.effective_horizon(spec)
            assert config.fit_window(spec) == (pair_horizon // 4, pair_horizon)
        small_raw.update(repetitions=1, scenarios=["stochastic"], policies=[small_raw["policies"][1]])
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        pair = json.loads((out / "summary.json").read_text())["pairs"][0]
        assert pair["slope_window"] == [horizon // 4, horizon]

    @pytest.mark.parametrize("kind", [["gaussian"], {"kind": "gaussian"}], ids=["list", "object"])
    def test_a_json_list_or_object_is_no_noise_kind_exits_2(self, tmp_path, small_raw, capsys, kind):
        # the kind table's lookup raised TypeError (unhashable type) on either
        small_raw["problem"]["noise"] = {"kind": kind, "sigma": 0.25}
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: problem.noise.kind must be 'gaussian' or 'logistic'\n"
        assert not out.exists()

    def test_exp4_cap_honored(self, tmp_path, small_raw):
        cfg = _write(tmp_path, small_raw)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        exp4 = [p for p in summary["pairs"] if p["policy"]["kind"] == "exp4"]
        assert all(p["horizon"] == 64 for p in exp4)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "sigma, line",
        [
            # c_down underflows to 0
            (0.02, "run aborted: strong-convexity floor underflowed to 0.0 at this noise scale"),
            # alpha is 6e-255, so 1/(gamma D)^2 has no double
            (0.03, "run aborted: theory-default epsilon = 1/(gamma D)^2 overflows at gamma 3.0"),
        ],
    )
    def test_uncomputable_onsp_defaults_exit_1(self, tmp_path, small_raw, capsys, workers, sigma, line):
        small_raw["problem"]["noise"]["sigma"] = sigma
        small_raw["policies"] = [{"kind": "onsp"}]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(line)

    def test_missing_theta_star_exits_2(self, tmp_path, small_raw, capsys):
        del small_raw["problem"]["theta_star"]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg)]) == 2
        assert "theta_star" in capsys.readouterr().err

    def test_adversarial_in_three_dimensions_exits_2(self, tmp_path, small_raw, capsys):
        small_raw["problem"]["dimension"] = 3
        small_raw["problem"]["theta_star"] = [0.5, 0.5, 0.1]
        small_raw["scenarios"] = ["adversarial"]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: scenarios" in err and "problem.dimension" in err

    def test_window_with_too_few_checkpoints_exits_2(self, tmp_path, small_raw, capsys):
        small_raw["horizon"] = 2
        small_raw["slope_window"] = [1, 2]
        small_raw["policies"] = [{"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}]
        small_raw["scenarios"] = ["stochastic"]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: slope_window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, line",
        [
            (("problem", "dimension"), "config error: problem.dimension must be a positive integer"),
            (("policies", 2, "horizon_cap"), "config error: policies[2].horizon_cap must be a positive integer"),
            (("slope_window", 0), "config error: slope_window must be [t_lo, t_hi]"),
            (("problem", "theta_star", 0), "config error: problem.theta_star must be a list of 2 reals"),
        ],
        ids=["dimension", "horizon_cap", "slope_window", "theta_star"],
    )
    def test_json_true_is_not_a_number_exits_2(self, tmp_path, small_raw, capsys, path, line):
        # JSON true loads as Python True, which isinstance(..., int) accepts
        target = small_raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, line",
        [
            (("problem", "noise", "sigma"), "config error: problem.noise.sigma must be a positive real"),
            (("problem", "parameter_radius"), "config error: problem.parameter_radius must be a positive real"),
            (("problem", "feature_bound"), "config error: problem.feature_bound must be a positive real"),
            (("problem", "theta_star", 0), "config error: problem.theta_star must be a list of 2 reals"),
            (("policies", 1, "gamma"), "config error: policies[1].gamma must be a positive real"),
            (("policies", 1, "epsilon"), "config error: policies[1].epsilon must be a positive real"),
            (("policies", 2, "horizon_cap"), "config error: policies[2].horizon_cap must be a positive integer below 2**63"),
            (("horizon",), "config error: horizon must be a positive integer"),
        ],
        ids=["sigma", "parameter_radius", "feature_bound", "theta_star", "gamma", "epsilon", "horizon_cap",
             "horizon"],
    )
    def test_integer_beyond_float_range_exits_2(self, tmp_path, small_raw, capsys, path, line):
        # JSON 10**400 loads as a Python int that no float holds; np.isfinite
        # and np.log2 raised TypeError on it
        target = small_raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, line",
        [
            (("horizn",), "config error: horizn is not a known key"),
            (("problem", "sigma"), "config error: problem.sigma is not a known key"),
            (("problem", "noise", "scale"), "config error: problem.noise.scale is not a known key"),
            (("policies", 1, "gama"), "config error: policies[1].gama is not a known key"),
            (("policies", 0, "gamma"), "config error: policies[0].gamma is not a known key"),
            (("policies", 2, "exploration"), "config error: policies[2].exploration is not a known key"),
            (("policies", 2, "learning_rate"), "config error: policies[2].learning_rate is not a known key"),
        ],
        ids=["top", "problem", "noise", "policy", "policy-of-another-kind", "exp4-exploration", "exp4-learning-rate"],
    )
    def test_unknown_key_exits_2(self, tmp_path, small_raw, capsys, path, line):
        # each used to be ignored, and the run went on with the key's default
        target = small_raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 0.5
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, line",
        [
            ((), "config error: top-level config must be a JSON object"),
            (("problem",), "config error: problem must be an object"),
            (("problem", "noise"), "config error: problem.noise must be an object"),
            (("problem", "region"), "config error: problem.region must be 'orthant-ball' or 'ball'"),
            (("scenarios",), "config error: scenarios must be a nonempty list drawn from"),
            (("policies",), "config error: policies must be a nonempty list"),
            (("policies", 0), "config error: policies[0].kind must be one of"),
            (("output_dir",), "config error: output_dir must be a nonempty string"),
        ],
        ids=["top", "problem", "noise", "region", "scenarios", "policies", "policy", "output_dir"],
    )
    def test_a_number_in_place_of_a_section_or_name_exits_2(self, tmp_path, small_raw, capsys, path, line):
        target = small_raw
        for key in path[:-1]:
            target = target[key]
        if path:
            target[path[-1]] = 0.5
        cfg = _write(tmp_path, small_raw if path else 0.5)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "region, theta_star",
        [("ball", [0.5, -0.2]), ("orthant-ball", [0.5, -5e-10])],
        ids=["ball-negative-valuations", "orthant-boundary"],
    )
    def test_a_feasible_theta_star_plays_every_policy(self, tmp_path, small_raw, region, theta_star):
        # x'theta* may fall below 0 here: the episode checks the features, not the
        # valuations, and J prices every real valuation.  Exp4 plays T = 2^12, its
        # default cap, where its arms below J(0) beat a comparator that priced
        # x'theta* clipped at 0
        small_raw["problem"].update(region=region, theta_star=theta_star)
        small_raw["horizon"] = small_raw["policies"][2]["horizon_cap"] = 2**12
        small_raw["policies"].append({"kind": "oracle"})
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(json.loads((tmp_path / "out" / "summary.json").read_text())["pairs"]) == 8

    def test_oracle_pair_has_no_slope(self, tmp_path, small_raw, capsys):
        small_raw["horizon"] = 64
        small_raw["slope_window"] = [16, 64]
        small_raw["policies"] = [{"kind": "oracle"}]
        cfg = _write(tmp_path, small_raw)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("slope=n/a") == 2
        pairs = json.loads((out / "summary.json").read_text())["pairs"]
        assert [(p["slope"], p["slope_stderr"]) for p in pairs] == [(None, None), (None, None)]
        assert all(abs(p["final_regret_mean"]) <= 1e-9 for p in pairs)

    def test_nonconverged_mle_fits_are_counted_and_warned(self, tmp_path, small_raw, monkeypatch, capsys):
        small_raw["policies"] = [{"kind": "emlp"}, {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}]
        small_raw["scenarios"] = ["stochastic"]
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        assert "warning" not in capsys.readouterr().err
        pairs = json.loads((tmp_path / "ok" / "summary.json").read_text())["pairs"]
        assert pairs[0]["mle_warnings"] == 0 and "mle_warnings" not in pairs[1]
        # one iteration only tests convergence at the warm start
        monkeypatch.setattr(loss_module, "MLE_MAX_ITER", 1)
        assert main(["run", str(cfg), "--out", str(tmp_path / "capped")]) == 0
        count = json.loads((tmp_path / "capped" / "summary.json").read_text())["pairs"][0]["mle_warnings"]
        assert count > 0
        assert f"warning: emlp x stochastic: {count} MLE fits did not converge" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2


class TestConfigValidation:
    def test_default_raw_parses(self):
        config = parse_config(default_raw())
        assert config.horizon == 2**16
        assert config.repetitions == 5
        assert config.effective_horizon({"kind": "exp4", "horizon_cap": 2**12}) == 2**12

    def test_omitted_keys_take_the_default_run(self, tmp_path):
        # a file with only the required keys plays what `pricelab run` with no file plays
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"problem": {"theta_star": [0.5, 0.5]}, "policies": [{"kind": "emlp"}]}))
        config, reference = load_config(path), default_config()
        assert config.master_seed == reference.master_seed == 20240501
        assert config.scenarios == reference.scenarios == ["stochastic", "adversarial"]
        assert config.problem.model == reference.problem.model
        assert config.problem.region == reference.problem.region
        assert config.problem.feature_bound == reference.problem.feature_bound
        for key in ("horizon", "repetitions", "slope_window", "output_dir"):
            assert getattr(config, key) == getattr(reference, key), key

    def test_the_readme_schema_is_default_raw(self):
        # the defaults the README documents are the ones a run plays
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_raw()

    def test_every_kind_takes_a_horizon_cap(self):
        raw = default_raw()
        raw["policies"] = [{"kind": kind, "horizon_cap": 2**12} for kind in POLICY_KINDS]
        config = parse_config(raw)
        assert [config.effective_horizon(spec) for spec in config.policies] == [2**12] * len(POLICY_KINDS)

    def test_bad_fields_all_reported(self):
        raw = default_raw()
        raw["horizon"] = -4
        raw["repetitions"] = 0
        raw["problem"]["noise"] = {"kind": "cauchy"}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        text = str(err.value)
        assert "horizon" in text and "repetitions" in text and "noise.kind" in text

    def test_infeasible_truth_rejected(self):
        raw = default_raw()
        raw["problem"]["theta_star"] = [1.0, 1.0]  # norm sqrt(2) > radius 1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_onsp_overrides_must_pair(self):
        raw = default_raw()
        raw["policies"] = [{"kind": "onsp", "gamma": 1.0}]
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("key", ["gamma", "epsilon"])
    def test_a_lone_onsp_override_names_its_missing_partner_once(self, key):
        raw = default_raw()
        raw["policies"] = [{"kind": "onsp", key: 1.0}]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.problems == ["policies[0]: override gamma and epsilon together"]

    @pytest.mark.parametrize("key", ["gamma", "epsilon"])
    def test_a_lone_onsp_override_is_range_checked(self, key):
        raw = default_raw()
        raw["policies"] = [{"kind": "onsp", key: -1.0}]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.problems == [
            "policies[0]: override gamma and epsilon together",
            f"policies[0].{key} must be a positive real",
        ]

    def test_builders_reject_unknown_names(self):
        problem = default_config().problem
        with pytest.raises(ValueError, match="^unknown scenario 'nope'$"):
            build_scenario("nope", problem)
        with pytest.raises(ValueError, match="^unknown policy kind 'nope'$"):
            build_policy({"kind": "nope"}, problem, 64)

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"horizon": }')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":1:" in str(err.value)


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS  noise.log-concavity" in out
        assert "FAIL" not in out

    def test_fault_injection_names_the_sandwich(self, capsys, monkeypatch):
        true_fn = verify_mod.compute_constants

        def corrupted(model, b):
            constants = true_fn(model, b)
            return AnalysisConstants(
                b_f=constants.b_f,
                b_fprime=constants.b_fprime,
                j0=constants.j0,
                c_quad=constants.c_quad,
                c_down=-constants.c_down,
                c_exp=constants.c_exp,
                alpha=constants.alpha,
            )

        monkeypatch.setattr(verify_mod, "compute_constants", corrupted)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  loss.psd-sandwich" in out

    def test_onsp_state_check_reads_the_matrix_floor(self, monkeypatch):
        # A starts at (epsilon/2) I: only the floor is wrong
        reset = policies_module.OnspPolicy._reset_state

        def half_floor(self):
            reset(self)
            self.matrix = 0.5 * self.matrix

        monkeypatch.setattr(policies_module.OnspPolicy, "_reset_state", half_floor)
        passed, detail = verify_mod.check_onsp_state()
        assert not passed
        assert "floor eigenvalue" in detail

    @pytest.mark.parametrize("check, owner, attr, fault", _FAULTS)
    def test_check_catches_fault(self, monkeypatch, check, owner, attr, fault):
        # each structural invariant lives only in its check, so each check must fail on a broken program
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        passed, detail = check()
        assert not passed, detail


class TestLowerBoundDemo:
    def test_report_structure_and_floor(self):
        report = lower_bound_demo(2**10, reps=2, seed=0, policy_kind="oracle-sigma1")
        assert report["sigma_pair"][0] == 1.0
        assert report["sigma_pair"][1] == pytest.approx(1.0 - 2 ** (-2.5))
        assert report["floor_sqrt_t_over_24000"] == pytest.approx(32.0 / 24000.0)
        # the sigma-1 oracle is exactly optimal in the sigma-1 market and
        # strictly suboptimal in the other
        assert report["regret_sigma1"] == pytest.approx(0.0, abs=1e-9)
        assert report["regret_sigma2"] > 0.0
        assert report["exceeds_floor"]

    def test_floor_value_at_2_16(self):
        # sqrt(2^16)/24000 = 256/24000
        assert 256.0 / 24000.0 == pytest.approx(0.010667, abs=1e-6)

    def test_cli_prints_json(self, capsys):
        assert main(["lower-bound-demo", "--t", "256", "--reps", "1", "--seed", "1", "--policy", "oracle-sigma1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["horizon"] == 256

    def test_requires_meaningful_horizon(self):
        with pytest.raises(ValueError):
            lower_bound_demo(16, 1, 0)

    def test_requires_a_repetition(self):
        with pytest.raises(ValueError):
            lower_bound_demo(64, 0, 0)

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--t", "10"], "error: horizon must exceed 16 for a meaningful pair"),
            (["--t", "64", "--reps", "0"], "error: repetitions must be at least 1"),
            (["--t", "64", "--seed", "-1"], "error: seed must be a nonnegative integer"),
        ],
    )
    def test_invalid_arguments_exit_2(self, capsys, argv, line):
        assert main(["lower-bound-demo", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line + "\n"


class TestConstantsCommand:
    def test_prints_the_reference_constants(self, capsys):
        assert main(["constants", "--sigma", "0.25", "--b", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_down"] > 0
        assert payload["c_exp"] > payload["c_down"]
        assert payload["c_quad"] == pytest.approx(2 * payload["b_f"] + (1 + payload["j0"]) * payload["b_fprime"])

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--sigma", "-1", "--b", "1"], "error: sigma must be a positive real"),
            (["--sigma", "0.25", "--b", "0"], "error: valuation bound must be a positive real"),
            (["--sigma", "0.25", "--b", "nan"], "error: valuation bound must be a positive real"),
        ],
    )
    def test_invalid_arguments_exit_2(self, capsys, argv, line):
        assert main(["constants", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line + "\n"

    def test_broken_invariant_exits_1(self, capsys):
        # c_down underflows to 0 at sigma = 0.02: the law is still log-concave
        assert main(["constants", "--sigma", "0.02", "--b", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("invariant violated: strong-convexity floor underflowed to 0.0 at this noise scale")
        assert "log-concavity" not in captured.err

    def test_negative_floor_blames_log_concavity(self, capsys, monkeypatch):
        monkeypatch.setattr(GaussianNoise, "log_sf_curvature", lambda self, w: -np.ones(np.shape(w)))
        assert main(["constants", "--sigma", "0.25", "--b", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.endswith("got -1.0 (log-concavity broken?)\n")


def test_module_entry_point(source_env):
    done = subprocess.run(
        [sys.executable, "-m", "pricelab", "--help"], capture_output=True, text=True, env=source_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "usage: pricelab" in done.stdout
