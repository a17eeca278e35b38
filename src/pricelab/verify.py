"""Invariant suite: every structural property the package relies on, runnable
as one batch (CLI ``verify``).

Each check returns a :class:`CheckResult`; a failing check carries the
offending values in ``detail``.  ``fast=True`` shrinks grids and sample
counts to finish in seconds; default densities match the contracts the
tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environments import FIXED_VALUATION, AlternatingScenario, PricingProblem, StochasticScenario
from .harness import fit_slope
from .loss import BatchObjective
from .noise import GaussianNoise, LogisticNoise
from .policies import OnspPolicy
from .pricing import (
    compute_constants,
    expected_reward,
    first_order_residual,
    greedy_price,
    greedy_price_vec,
    virtual_valuation,
)
from .regions import Ball, OrthantBall

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _models(fast: bool):
    models = [GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(1.0)]
    return models[:2] if fast else models


def _window_grid(model, b: float, n: int) -> np.ndarray:
    j0 = greedy_price(model, 0.0)
    return np.linspace(-b, b + j0, n)


def _default_problem() -> PricingProblem:
    return PricingProblem(
        model=GaussianNoise(0.25),
        region=OrthantBall(1.0, 2),
        theta_star=np.array([0.5, 0.5]),
        feature_bound=1.0,
    )


def _random_rounds(rng, problem, count) -> list[BatchObjective]:
    """Batches of one round each: stochastic feature, uniform price, fair-coin sale."""
    scenario = StochasticScenario(problem)
    x = scenario.features(count, rng)
    v = rng.uniform(0.0, problem.price_window, count)
    acc = rng.random(count) < 0.5
    return [BatchObjective(x[i], v[i], acc[i], problem.model) for i in range(count)]


# -- noise ----------------------------------------------------------------


def check_log_concavity(fast: bool) -> CheckResult:
    """Central-difference d2 of log F and log(1-F) <= -1e-12 on the window."""
    n = 400 if fast else 1000
    h = 1e-4
    worst = -np.inf
    for model in _models(fast):
        grid = _window_grid(model, 1.0, n)
        for fn in (model.log_cdf, model.log_sf):
            second = (fn(grid + h) - 2.0 * fn(grid) + fn(grid - h)) / h**2
            worst = max(worst, float(np.max(second)))
    return CheckResult("noise.log-concavity", worst <= -1e-12, f"max second derivative {worst:.3e}")


def check_density_consistency(fast: bool) -> CheckResult:
    """cdf' matches pdf and pdf' matches pdf_derivative to rel 1e-6.

    The cdf is differenced through whichever tail representation is small
    (cdf left of 0, sf right of 0); differencing the saturated side would
    hit 1.0-cancellation noise that has nothing to do with the identity.
    """
    n = 400 if fast else 1000
    h = 1e-6
    worst = 0.0
    for model in _models(fast):
        grid = _window_grid(model, 1.0, n)
        fd_pdf = np.where(
            grid <= 0.0,
            (model.cdf(grid + h) - model.cdf(grid - h)) / (2.0 * h),
            -(model.sf(grid + h) - model.sf(grid - h)) / (2.0 * h),
        )
        rel1 = np.max(np.abs(fd_pdf - model.pdf(grid)) / np.abs(model.pdf(grid)))
        fd_dpdf = (model.pdf(grid + h) - model.pdf(grid - h)) / (2.0 * h)
        scale = np.maximum(np.abs(model.pdf_derivative(grid)), 1e-3 * model.b_fprime)
        rel2 = np.max(np.abs(fd_dpdf - model.pdf_derivative(grid)) / scale)
        worst = max(worst, float(rel1), float(rel2))
    return CheckResult("noise.derivative-consistency", worst <= 1e-6, f"max relative error {worst:.3e}")


def check_hazard_monotone(fast: bool) -> CheckResult:
    n = 400 if fast else 1000
    ok = True
    detail = []
    for model in _models(fast):
        grid = _window_grid(model, 1.0, n)
        lam = np.asarray(model.hazard(grid))
        if not np.all(np.diff(lam) > 0.0):
            ok = False
            detail.append(f"{type(model).__name__}: hazard not strictly increasing")
    return CheckResult("noise.hazard-monotone", ok, "; ".join(detail) or "strictly increasing on the window")


def check_hazard_asymptotics(fast: bool) -> CheckResult:
    """Left tail vanishes faster than any power; right tail is w + 1/w + O(1/w^3)."""
    model = GaussianNoise(1.0)
    left = abs(8.0**3 * model.hazard(-8.0))
    ok = left <= 1e-10
    details = [f"|w|^3 hazard at -8: {left:.3e}"]
    for w in (10.0, 20.0, 30.0):
        err = abs(model.hazard(w) - w - 1.0 / w)
        bound = 3.0 / w**3
        details.append(f"w={w:g}: |hazard-w-1/w|={err:.3e} bound={bound:.3e}")
        ok = ok and err <= bound
    return CheckResult("noise.hazard-asymptotics", ok, "; ".join(details))


def _log1mexp(a: np.ndarray) -> np.ndarray:
    """log(1 - e^a) for a < 0: expm1 branch near 0, log1p branch in the tail."""
    out = np.empty_like(a)
    near = a > -math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[near] = np.log(-np.expm1(a[near]))
        out[~near] = np.log1p(-np.exp(a[~near]))
    return out


def check_tail_identity(fast: bool) -> CheckResult:
    """log_cdf and log_sf reconstruct each other through log(1 - exp(.)).

    Checked wherever the computation is representable in doubles: the input
    log must be nonzero to machine precision (magnitude >= 1e-290) and its
    exp normal (magnitude <= 700); outside that band one side has rounded
    away and no finite-precision identity can recover it.
    """
    n = 2001 if fast else 8001
    worst = 0.0
    for model in _models(fast):
        grid = np.linspace(-40.0, 40.0, n) * model.spread
        for src, ref in ((model.log_sf, model.log_cdf), (model.log_cdf, model.log_sf)):
            a = np.asarray(src(grid))
            mask = (np.abs(a) >= 1e-290) & (np.abs(a) <= 700.0)
            recon = _log1mexp(a[mask])
            want = np.asarray(ref(grid))[mask]
            rel = np.abs(recon - want) / np.maximum(np.abs(want), 1e-300)
            rel = rel[np.abs(want) > 0]
            if rel.size:
                worst = max(worst, float(np.max(rel)))
    return CheckResult("noise.tail-identity", worst <= 1e-10, f"max relative error {worst:.3e}")


# -- pricing ---------------------------------------------------------------


def check_reward_unimodal(fast: bool) -> CheckResult:
    """g(., u) has exactly one interior local max, at the greedy price."""
    rng = np.random.default_rng(11)
    n_u = 50 if fast else 200
    n_v = 2000 if fast else 10_000
    for model in (GaussianNoise(0.25), GaussianNoise(1.0)):
        cap = 1.0 + greedy_price(model, 0.0)
        grid = np.linspace(0.0, cap, n_v)
        for u in rng.uniform(0.0, 1.0, n_u):
            vals = expected_reward(model, grid, u)
            inner = np.diff(vals)
            flips = np.flatnonzero(np.sign(inner[:-1]) > np.sign(inner[1:]))
            if flips.size != 1:
                return CheckResult(
                    "pricing.reward-unimodal", False, f"u={u:.4f}: {flips.size} local maxima"
                )
            peak = grid[flips[0] + 1]
            if abs(peak - greedy_price(model, float(u))) > cap / (n_v - 1) + 1e-12:
                return CheckResult(
                    "pricing.reward-unimodal", False, f"u={u:.4f}: argmax off the greedy price"
                )
    return CheckResult("pricing.reward-unimodal", True, "one interior max at the greedy price")


def check_price_contraction(fast: bool) -> CheckResult:
    """0 < J(u2) - J(u1) < u2 - u1 for every ordered pair tested."""
    rng = np.random.default_rng(5)
    n = 100 if fast else 400
    for model in (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(0.7)):
        u = np.sort(rng.uniform(0.0, 1.0, n))
        j = greedy_price_vec(model, u)
        du, dj = np.diff(u), np.diff(j)
        keep = du > 1e-8
        if not np.all((dj[keep] > 0.0) & (dj[keep] < du[keep])):
            return CheckResult("pricing.contraction", False, f"{type(model).__name__} violates 0 < dJ < du")
    return CheckResult("pricing.contraction", True, "greedy price is a strict contraction")


def check_fixed_point_and_scaling(fast: bool) -> CheckResult:
    """J at the unit-noise fixed point; Gaussian scale identity J_s(u) = s*J_1(u/s)."""
    fp_err = abs(greedy_price(GaussianNoise(1.0), FIXED_VALUATION) - FIXED_VALUATION)
    rng = np.random.default_rng(23)
    n = 30 if fast else 100
    worst = 0.0
    unit = GaussianNoise(1.0)
    for _ in range(n):
        s = rng.uniform(0.1, 1.0)
        u = rng.uniform(0.0, 1.0)
        worst = max(worst, abs(greedy_price(GaussianNoise(s), u) - s * greedy_price(unit, u / s)))
    ok = fp_err <= 1e-9 and worst <= 1e-9
    return CheckResult(
        "pricing.fixed-point-and-scaling", ok, f"fixed point err {fp_err:.2e}; scaling err {worst:.2e}"
    )


def check_first_order_residual(fast: bool) -> CheckResult:
    rng = np.random.default_rng(3)
    n = 100 if fast else 500
    worst = 0.0
    for model in (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(1.0)):
        u = rng.uniform(0.0, 1.0, n)
        j = np.array([greedy_price(model, x) for x in u])
        worst = max(worst, float(np.max(first_order_residual(model, u, j))))
    return CheckResult("pricing.first-order-residual", worst <= 1e-10, f"max residual {worst:.3e}")


def check_quadratic_regret_bound(fast: bool) -> CheckResult:
    """Pricing under a wrong parameter loses at most C*(x'(theta-theta*))^2."""
    rng = np.random.default_rng(7)
    n = 200 if fast else 1000
    model = GaussianNoise(0.25)
    consts = compute_constants(model, 1.0)
    worst = -np.inf
    for _ in range(n):
        u_true = rng.uniform(0.0, 1.0)
        u_est = rng.uniform(0.0, 1.0)
        loss_val = expected_reward(model, greedy_price(model, u_true), u_true) - expected_reward(
            model, greedy_price(model, u_est), u_true
        )
        slack = consts.c_quad * (u_true - u_est) ** 2 - loss_val
        worst = max(worst, -slack)
    return CheckResult("pricing.quadratic-regret-bound", worst <= 1e-10, f"max bound violation {worst:.3e}")


def check_constants(fast: bool) -> CheckResult:
    g = compute_constants(GaussianNoise(0.25), 1.0)
    g1 = compute_constants(GaussianNoise(1.0), 1.0)
    details = []
    ok = g.c_down > 0 and g1.c_down > 0
    if not ok:
        details.append("nonpositive curvature floor")
    haz_end = GaussianNoise(0.25).hazard(1.0 + g.j0)
    if g.c_exp < haz_end**2 - 1e-9:
        ok = False
        details.append("c_exp below the endpoint hazard square")
    if not (g.c_exp / g.c_down > g1.c_exp / g1.c_down):
        ok = False
        details.append("conditioning does not worsen as noise shrinks")
    # logistic curvature has the closed form f/s; both branches coincide
    lg = LogisticNoise(1.0)
    lc = compute_constants(lg, 1.0)
    w = 1.0 + lc.j0
    c_down_exact = lg.pdf(w) / lg.scale
    c_exp_exact = float(lg.cdf(w) / lg.scale) ** 2
    if abs(lc.c_down - c_down_exact) > 1e-8 or abs(lc.c_exp - c_exp_exact) > 1e-8:
        ok = False
        details.append(
            f"logistic grid vs closed form: {lc.c_down:.3e} vs {c_down_exact:.3e}, "
            f"{lc.c_exp:.3e} vs {c_exp_exact:.3e}"
        )
    return CheckResult("pricing.analysis-constants", ok, "; ".join(details) or "floors/ceilings consistent")


# -- loss ------------------------------------------------------------------


def check_gradient_hessian_fd(fast: bool) -> CheckResult:
    """Analytic gradient matches central differences to rel 1e-6."""
    rng = np.random.default_rng(29)
    problem = _default_problem()
    n = 100 if fast else 400
    h = 1e-6
    worst = 0.0
    for row in _random_rounds(rng, problem, n):
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        grad = row.gradient(theta)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (row.value(theta + e) - row.value(theta - e)) / (2 * h)
            scale = max(abs(grad[i]), 1e-4)
            worst = max(worst, abs(fd - grad[i]) / scale)
    return CheckResult("loss.gradient-finite-difference", worst <= 1e-6, f"max relative error {worst:.3e}")


def check_psd_sandwich(fast: bool) -> CheckResult:
    """Full curvature chain: Hessian >= c_down xx' >= alpha grad grad' >= 0,
    plus grad grad' <= c_exp xx'."""
    rng = np.random.default_rng(31)
    problem = _default_problem()
    consts = compute_constants(problem.model, problem.valuation_bound)
    n = 300 if fast else 1000
    worst = 0.0
    for row in _random_rounds(rng, problem, n):
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        xx = np.outer(row.features[0], row.features[0])
        hess = row.hessian(theta)
        grad = row.gradient(theta)
        gg = np.outer(grad, grad)
        links = (
            hess - consts.c_down * xx,
            consts.c_down * xx - consts.alpha * gg,
            consts.alpha * gg,
            consts.c_exp * xx - gg,
        )
        for link in links:
            worst = max(worst, -float(np.min(np.linalg.eigvalsh(link))))
    return CheckResult("loss.psd-sandwich", worst <= 1e-10, f"max eigenvalue violation {worst:.3e}")


def check_exp_concavity(fast: bool) -> CheckResult:
    """Hessian dominates alpha * gradient outer product."""
    rng = np.random.default_rng(37)
    problem = _default_problem()
    consts = compute_constants(problem.model, problem.valuation_bound)
    n = 300 if fast else 1000
    worst = 0.0
    for row in _random_rounds(rng, problem, n):
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        hess = row.hessian(theta)
        grad = row.gradient(theta)
        ev = np.min(np.linalg.eigvalsh(hess - consts.alpha * np.outer(grad, grad)))
        worst = max(worst, -float(ev))
    return CheckResult("loss.exp-concavity", worst <= 1e-10, f"max eigenvalue violation {worst:.3e}")


def check_truth_is_stationary(fast: bool) -> CheckResult:
    """Averaging the gradient over the sale indicator at theta* gives ~0,
    and the expected loss gap dominates (c_down/2)(x'(theta-theta*))^2."""
    rng = np.random.default_rng(41)
    problem = _default_problem()
    model = problem.model
    consts = compute_constants(model, problem.valuation_bound)
    n = 60 if fast else 200
    worst_grad, worst_gap = 0.0, -np.inf
    scen = StochasticScenario(problem)
    xs = scen.features(n, rng)
    for x in xs:
        v = rng.uniform(0.0, problem.price_window)
        u = float(x @ problem.theta_star)
        p_sale = model.sf(v - u)
        yes = BatchObjective(x, v, True, model)
        no = BatchObjective(x, v, False, model)
        grad = p_sale * yes.gradient(problem.theta_star) + (1 - p_sale) * no.gradient(problem.theta_star)
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        gap = p_sale * (yes.value(theta) - yes.value(problem.theta_star)) + (1 - p_sale) * (
            no.value(theta) - no.value(problem.theta_star)
        )
        quad = 0.5 * consts.c_down * float(x @ (theta - problem.theta_star)) ** 2
        worst_gap = max(worst_gap, quad - gap)
    ok = worst_grad <= 1e-6 and worst_gap <= 1e-10
    return CheckResult(
        "loss.truth-stationary",
        ok,
        f"max expected-gradient norm {worst_grad:.3e}; max quadratic-bound violation {worst_gap:.3e}",
    )


# -- regions / policies -----------------------------------------------------


def check_weighted_projection(fast: bool) -> CheckResult:
    """Variational inequality (theta-y)'A(z-theta) >= -1e-8 for z in H, cond(A) from 1 to 1e8."""
    rng = np.random.default_rng(43)
    n = 30 if fast else 100
    samples = 60 if fast else 200
    worst = -np.inf
    for region in (Ball(np.zeros(2), 1.0), OrthantBall(1.0, 2)):
        for cond in np.logspace(0.0, 8.0, n):
            rotation, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a = (rotation * [1.0, 1.0 / cond]) @ rotation.T
            y = rng.uniform(-2.0, 2.0, 2)
            theta = region.project_weighted(y, a)
            if not region.contains(theta, tol=1e-10):
                return CheckResult("regions.weighted-projection-vi", False, "output left the region")
            others = np.array([region.project(rng.uniform(-1.5, 1.5, 2)) for _ in range(samples)])
            vals = (others - theta) @ (a @ (theta - y))
            worst = max(worst, -float(np.min(vals)))
    return CheckResult("regions.weighted-projection-vi", worst <= 1e-8, f"max VI violation {worst:.3e}")


def check_woodbury(fast: bool) -> CheckResult:
    """Maintained inverse tracks direct inversion over 100 rank-one updates."""
    rng = np.random.default_rng(47)
    steps = 100
    eps = 0.5
    a = eps * np.eye(2)
    inv = np.eye(2) / eps
    worst = 0.0
    for _ in range(steps):
        g = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
        a = a + np.outer(g, g)
        ag = inv @ g
        inv = inv - np.outer(ag, ag) / (1.0 + float(g @ ag))
        worst = max(worst, float(np.max(np.abs(inv - np.linalg.inv(a)))))
    return CheckResult("policies.woodbury", worst <= 1e-8, f"max entry error {worst:.3e} over {steps} steps")


def check_onsp_state(fast: bool) -> CheckResult:
    """On a short run: prices in window, matrix floor at epsilon, inverse fresh."""
    problem = _default_problem()
    policy = OnspPolicy(problem.model, problem.region, 1.0, gamma=1.0, epsilon=1.0)
    scen = AlternatingScenario(problem)
    rng = np.random.default_rng(53)
    x = scen.features(256, rng)
    noise = problem.model.sample(rng, 256)
    u = x @ problem.theta_star
    policy.reset(0)
    ok = True
    details = []
    for t in range(256):
        v = policy.propose(x[t])
        if not (0.0 <= v <= problem.price_window * (1 + 1e-9)):
            ok, details = False, [f"price {v} out of window at t={t}"]
            break
        policy.feedback(bool(v <= u[t] + noise[t]))
    if ok:
        ev = float(np.min(np.linalg.eigvalsh(policy.matrix)))
        if ev < policy.epsilon - 1e-9:
            ok = False
            details.append(f"matrix eigenvalue {ev} below epsilon")
        drift = float(np.max(np.abs(policy.matrix_inv @ policy.matrix - np.eye(2))))
        if drift > 1e-8:
            ok = False
            details.append(f"inverse drift {drift:.2e}")
    return CheckResult("policies.onsp-state", ok, "; ".join(details) or "window, floor and inverse hold")


# -- environments / harness ---------------------------------------------------


def check_scenario_contract(fast: bool) -> CheckResult:
    problem = _default_problem()
    rng = np.random.default_rng(59)
    n = 2000 if fast else 20_000
    try:
        for scen in (StochasticScenario(problem), AlternatingScenario(problem)):
            scen.check_features(scen.features(n, rng))
    except AssertionError as exc:
        return CheckResult("environments.feature-contract", False, str(exc))
    return CheckResult("environments.feature-contract", True, "norms, signs and valuations in range")


def check_lower_bound_geometry(fast: bool) -> CheckResult:
    """At the unit-noise fixed point, smaller noise prices strictly below,
    with a linear-in-(1-s) gap and a quadratic revenue margin."""
    u_star = FIXED_VALUATION
    n_v = 200 if fast else 1000
    details = []
    ok = True
    for s in (0.6, 0.75, 0.9):
        model = GaussianNoise(s)
        v_best = greedy_price(model, u_star)
        if not v_best < u_star - 1e-9:
            ok = False
            details.append(f"s={s}: greedy price {v_best} not below u*")
            continue
        gap = u_star - v_best
        if gap < 0.4 * (1.0 - s) - 1e-9:
            ok = False
            details.append(f"s={s}: gap {gap:.4f} below 0.4*(1-s)")
        grid = np.linspace(1e-9, u_star - 1e-9, n_v)
        margin = expected_reward(model, v_best, u_star) - expected_reward(model, grid, u_star)
        slack = margin - (v_best - grid) ** 2 / 60.0
        if float(np.min(slack)) < -1e-9:
            ok = False
            details.append(f"s={s}: quadratic revenue margin violated by {-float(np.min(slack)):.2e}")
    return CheckResult("environments.lower-bound-geometry", ok, "; ".join(details) or "all three inequalities hold")


def check_slope_recovery(fast: bool) -> CheckResult:
    t = 2 ** np.arange(1, 17)
    lin = fit_slope((t, 3.0 * t.astype(float)), (2, 2**16)).slope
    twothirds = fit_slope((t, 0.5 * t.astype(float) ** (2 / 3)), (2, 2**16)).slope
    logc = fit_slope((t, 2.0 * np.log(t.astype(float))), (2**10, 2**16)).slope
    ok = abs(lin - 1.0) <= 1e-12 and abs(twothirds - 2 / 3) <= 1e-12 and logc <= 0.2
    return CheckResult(
        "harness.slope-recovery", ok, f"linear {lin:.4f}, power {twothirds:.4f}, log curve {logc:.4f}"
    )


_CHECKS: list[tuple[str, Callable[[bool], CheckResult]]] = [
    ("noise.log-concavity", check_log_concavity),
    ("noise.derivative-consistency", check_density_consistency),
    ("noise.hazard-monotone", check_hazard_monotone),
    ("noise.hazard-asymptotics", check_hazard_asymptotics),
    ("noise.tail-identity", check_tail_identity),
    ("pricing.reward-unimodal", check_reward_unimodal),
    ("pricing.contraction", check_price_contraction),
    ("pricing.fixed-point-and-scaling", check_fixed_point_and_scaling),
    ("pricing.first-order-residual", check_first_order_residual),
    ("pricing.quadratic-regret-bound", check_quadratic_regret_bound),
    ("pricing.analysis-constants", check_constants),
    ("loss.gradient-finite-difference", check_gradient_hessian_fd),
    ("loss.psd-sandwich", check_psd_sandwich),
    ("loss.exp-concavity", check_exp_concavity),
    ("loss.truth-stationary", check_truth_is_stationary),
    ("regions.weighted-projection-vi", check_weighted_projection),
    ("policies.woodbury", check_woodbury),
    ("policies.onsp-state", check_onsp_state),
    ("environments.feature-contract", check_scenario_contract),
    ("environments.lower-bound-geometry", check_lower_bound_geometry),
    ("harness.slope-recovery", check_slope_recovery),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def run_checks(fast: bool = False) -> list[CheckResult]:
    """Run every invariant check; order is fixed and names are stable."""
    return [check(fast) for _, check in _CHECKS]
