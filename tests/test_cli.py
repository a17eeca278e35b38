"""CLI surface: run/verify/demo/constants, config validation, outputs."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import pricelab.loss as loss_module
import pricelab.policies as policies_module
import pricelab.verify as verify_mod
from pricelab.cli import lower_bound_demo, main
from pricelab.config import ConfigError, default_raw, load_config, parse_config
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
        "gradient",
        lambda f: lambda self, theta: f(self, theta) * (1.0 + 1e-5),
        id="gradient-finite-difference",
    ),
    pytest.param(
        verify_mod.check_gradient_hessian_fd,
        BatchObjective,
        "hessian",
        lambda f: lambda self, theta: 0.5 * f(self, theta),
        id="hessian-finite-difference",
    ),
    pytest.param(
        verify_mod.check_gradient_hessian_fd,
        BatchObjective,
        "hessian",
        lambda f: lambda self, theta: 0.1 * f(self, theta),
        id="hessian-finite-difference-tenth",
    ),
    pytest.param(
        verify_mod.check_psd_sandwich,
        BatchObjective,
        "gradient",
        lambda f: lambda self, theta: 2.0 * f(self, theta),
        id="psd-sandwich-gradient-ceiling",
    ),
    pytest.param(
        verify_mod.check_psd_sandwich,
        BatchObjective,
        "hessian",
        lambda f: lambda self, theta: -f(self, theta),
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
        small_raw["policies"] = [{"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}]
        small_raw["scenarios"] = ["stochastic"]
        cfg = _write(tmp_path, small_raw)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", str(cfg), "--out", str(seq)]) == 0
        assert main(["run", str(cfg), "--out", str(par), "--workers", "2"]) == 0
        s = json.loads((seq / "summary.json").read_text())["pairs"]
        p = json.loads((par / "summary.json").read_text())["pairs"]
        assert s == p
        assert (seq / "onsp_stochastic.csv").read_text() == (par / "onsp_stochastic.csv").read_text()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, small_raw, capsys, workers):
        # these used to run the repetitions serially
        cfg, out = _write(tmp_path, small_raw), tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: workers must be at least 1\n"
        assert not out.exists()

    def test_exp4_cap_honored(self, tmp_path, small_raw):
        cfg = _write(tmp_path, small_raw)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        exp4 = [p for p in summary["pairs"] if p["policy"]["kind"] == "exp4"]
        assert all(p["horizon"] == 64 for p in exp4)

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
        "key, value, line",
        [
            ("exploration", 5, "config error: policies[2].exploration must be a real in [0, 1]"),
            ("exploration", -1, "config error: policies[2].exploration must be a real in [0, 1]"),
            ("exploration", "x", "config error: policies[2].exploration must be a real in [0, 1]"),
            ("learning_rate", 0, "config error: policies[2].learning_rate must be a positive real"),
            ("learning_rate", "x", "config error: policies[2].learning_rate must be a positive real"),
        ],
    )
    def test_bad_exp4_rates_exit_2(self, tmp_path, small_raw, capsys, key, value, line):
        # these used to pass the config and end the run in a traceback
        small_raw["policies"][2][key] = value
        cfg = _write(tmp_path, small_raw)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exp4_rates_in_range_parse(self, small_raw):
        small_raw["policies"][2].update(exploration=1, learning_rate=0.05)
        assert parse_config(small_raw).policies[2]["exploration"] == 1
        small_raw["policies"][2].update(exploration=0.0)
        parse_config(small_raw)

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

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"horizon": }')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":1:" in str(err.value)


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
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
        assert main(["verify", "--fast"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  loss.psd-sandwich" in out

    def test_onsp_state_check_reads_the_matrix_floor(self, monkeypatch):
        # A starts at (epsilon/2) I: only the floor is wrong
        reset = policies_module.OnspPolicy._reset_state

        def half_floor(self):
            reset(self)
            self.matrix = 0.5 * self.matrix

        monkeypatch.setattr(policies_module.OnspPolicy, "_reset_state", half_floor)
        result = verify_mod.check_onsp_state(fast=True)
        assert not result.passed
        assert "floor eigenvalue" in result.detail

    @pytest.mark.parametrize("check, owner, attr, fault", _FAULTS)
    def test_check_catches_fault(self, monkeypatch, check, owner, attr, fault):
        # each structural invariant lives only in its check, so each check must fail on a broken program
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        result = check(fast=True)
        assert not result.passed, result.detail


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
