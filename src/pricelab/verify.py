"""Invariant suite: every structural property the package relies on, runnable
as one batch (CLI ``verify``).

This suite is the home of each structural invariant, and the acceptance
gate runs every check.  Three unit tests assert one of them again, and each
stays because it covers what its check does not: ``test_contraction_everywhere``
draws the noise scale sigma by hypothesis, where ``pricing.contraction``
takes four fixed laws; ``test_gradient_finite_differences`` differences a
64-row batch, whose 1/n scaling one-row batches cannot show; and
``TestExactWeightedProjection`` checks the variational inequality at
d <= 5, where ``regions.weighted-projection-vi`` takes d = 2.
Each check has one grid and sample count, so the density the gate runs is
the one the fault-injection tests break.  Each check returns a
``(passed, detail)`` pair, and :func:`run_checks` names it as a
:class:`CheckResult`; a failing check carries the offending values in
``detail``.  The ONSP check plays real episodes through
:func:`pricelab.harness.run_episode` and reads the policy's matrix floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environments import FIXED_VALUATION, AlternatingScenario, PricingProblem, StochasticScenario
from .harness import EpisodeAbort, fit_slope, run_episode
from .loss import BatchObjective
from .noise import GaussianNoise, LogisticNoise
from .policies import OnspPolicy
from .pricing import (
    compute_constants,
    expected_reward,
    first_order_residual,
    greedy_price,
    greedy_price_vec,
    price_cap,
)
from .regions import Ball, OrthantBall

__all__ = ["CheckResult", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


Outcome = tuple[bool, str]  # what a check returns: (passed, detail)

_MODELS = (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(1.0))


def _window_grid(model, b: float, n: int) -> np.ndarray:
    return np.linspace(-b, price_cap(model, b), n)


def _default_problem() -> PricingProblem:
    return PricingProblem(
        model=GaussianNoise(0.25),
        region=OrthantBall(1.0, 2),
        theta_star=np.array([0.5, 0.5]),
        feature_bound=1.0,
    )


def _features(rng, problem, count) -> np.ndarray:
    """count features of the stochastic scenario, then count uniform on the
    unit box scaled into the unit ball."""
    box = rng.uniform(0.0, 1.0, (count, 2))
    box /= np.maximum(np.linalg.norm(box, axis=1), 1.0)[:, None]
    return np.vstack([StochasticScenario(problem).features(count, rng), box])


def _random_rounds(rng, problem, count) -> list[BatchObjective]:
    """Batches of one round each: a feature from :func:`_features`, uniform price, fair-coin sale."""
    x = _features(rng, problem, count)
    v = rng.uniform(0.0, problem.price_window, len(x))
    acc = rng.random(len(x)) < 0.5
    return [BatchObjective(x[i], v[i], acc[i], problem.model) for i in range(len(x))]


# -- noise ----------------------------------------------------------------


def check_log_concavity() -> Outcome:
    """Central-difference d2 of log F and log(1-F) <= -1e-12 on the window
    and on [-1, 1 + 0.76 spread]."""
    n = 1000
    h = 1e-4
    worst = -np.inf
    for model in _MODELS:
        grid = np.concatenate([_window_grid(model, 1.0, n), np.linspace(-1.0, 1.0 + 0.76 * model.spread, n)])
        for fn in (model.log_cdf, model.log_sf):
            second = (fn(grid + h) - 2.0 * fn(grid) + fn(grid - h)) / h**2
            worst = max(worst, float(np.max(second)))
    return worst <= -1e-12, f"max second derivative {worst:.3e}"


def check_density_consistency() -> Outcome:
    """cdf' matches pdf to rel 1e-6; pdf' matches pdf_derivative to within
    min(1e-6 max(|f'|, 1e-3 B_f'), 1e-9 + 2e-5 |f'|).  On the window and on
    [-0.9, 0.9] spread.

    The cdf is differenced through whichever tail representation is small
    (cdf left of 0, sf right of 0); differencing the saturated side would
    hit 1.0-cancellation noise that has nothing to do with the identity.
    """
    n = 1000
    h = 1e-6
    worst = 0.0
    for model in _MODELS:
        grid = np.concatenate([_window_grid(model, 1.0, n), np.linspace(-0.9, 0.9, n // 2) * model.spread])
        fd_pdf = np.where(
            grid <= 0.0,
            (model.cdf(grid + h) - model.cdf(grid - h)) / (2.0 * h),
            -(model.sf(grid + h) - model.sf(grid - h)) / (2.0 * h),
        )
        rel1 = np.max(np.abs(fd_pdf - model.pdf(grid)) / np.abs(model.pdf(grid)))
        fd_dpdf = (model.pdf(grid + h) - model.pdf(grid - h)) / (2.0 * h)
        dpdf = np.abs(model.pdf_derivative(grid))
        bound = np.minimum(1e-6 * np.maximum(dpdf, 1e-3 * model.b_fprime), 1e-9 + 2e-5 * dpdf)
        over = np.max(np.abs(fd_dpdf - model.pdf_derivative(grid)) / bound)
        worst = max(worst, float(rel1) / 1e-6, float(over))
    return worst <= 1.0, f"max error over its bound {worst:.3e}"


def check_hazard_monotone() -> Outcome:
    """Hazard strictly increasing and reverse hazard strictly decreasing on
    the window and on [-1, 1 + 1.76 spread]."""
    n = 1000
    detail = []
    for model in _MODELS:
        grids = (_window_grid(model, 1.0, n), np.linspace(-1.0, 1.0 + 1.76 * model.spread, n))
        if not all(np.all(np.diff(model.hazard(grid)) > 0.0) for grid in grids):
            detail.append(f"{type(model).__name__}: hazard not strictly increasing")
        if not all(np.all(np.diff(model.reverse_hazard(grid)) < 0.0) for grid in grids):
            detail.append(f"{type(model).__name__}: reverse hazard not strictly decreasing")
    return not detail, "; ".join(detail) or "strictly monotone on both grids"


def check_hazard_asymptotics() -> Outcome:
    """Left tail vanishes faster than any power; right tail is w + 1/w + O(1/w^3)."""
    model = GaussianNoise(1.0)
    left = abs(8.0**3 * model.hazard(-8.0))
    ok = left < 1e-10
    details = [f"|w|^3 hazard at -8: {left:.3e}"]
    for w in (10.0, 20.0, 30.0):
        err = abs(model.hazard(w) - w - 1.0 / w)
        bound = 3.0 / w**3
        details.append(f"w={w:g}: |hazard-w-1/w|={err:.3e} bound={bound:.3e}")
        ok = ok and err <= bound
    return ok, "; ".join(details)


def _log1mexp(a: np.ndarray) -> np.ndarray:
    """log(1 - e^a) for a < 0: expm1 branch near 0, log1p branch in the tail."""
    out = np.empty_like(a)
    near = a > -math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[near] = np.log(-np.expm1(a[near]))
        out[~near] = np.log1p(-np.exp(a[~near]))
    return out


def check_tail_identity() -> Outcome:
    """log_cdf and log_sf reconstruct each other through log(1 - exp(.)).

    ``log_sf`` is the CDF at -w, so for a law that is not symmetric about 0
    the identity fails: this check also holds the symmetry every mirrored
    kernel relies on (``sf``, ``reverse_hazard``, ``log_cdf_curvature`` and
    the miss rows of the sale likelihood).

    Checked wherever the computation is representable in doubles: the input
    log must be nonzero to machine precision (magnitude >= 1e-290) and its
    exp normal (magnitude <= 700); outside that band one side has rounded
    away and no finite-precision identity can recover it.
    """
    worst = 0.0
    for model in _MODELS:
        grid = np.linspace(-40.0, 40.0, 8001) * model.spread
        for src, ref in ((model.log_sf, model.log_cdf), (model.log_cdf, model.log_sf)):
            a = np.asarray(src(grid))
            mask = (np.abs(a) >= 1e-290) & (np.abs(a) <= 700.0)
            recon = _log1mexp(a[mask])
            want = np.asarray(ref(grid))[mask]
            rel = np.abs(recon - want) / np.maximum(np.abs(want), 1e-300)
            rel = rel[np.abs(want) > 0]
            if rel.size:
                worst = max(worst, float(np.max(rel)))
    return worst <= 1e-10, f"max relative error {worst:.3e}"


# -- pricing ---------------------------------------------------------------


def check_reward_unimodal() -> Outcome:
    """g(., u) has exactly one interior local max, at the greedy price."""
    rng = np.random.default_rng(11)
    n_u = 200
    n_v = 10_000
    for model in (GaussianNoise(0.25), GaussianNoise(1.0)):
        cap = price_cap(model, 1.0)
        grid = np.linspace(0.0, cap, n_v)
        for u in rng.uniform(0.0, 1.0, n_u):
            vals = expected_reward(model, grid, u)
            inner = np.diff(vals)
            flips = np.flatnonzero(np.sign(inner[:-1]) > np.sign(inner[1:]))
            if flips.size != 1:
                return False, f"u={u:.4f}: {flips.size} local maxima"
            peak = grid[flips[0] + 1]
            if abs(peak - greedy_price(model, float(u))) > cap / (n_v - 1) + 1e-12:
                return False, f"u={u:.4f}: argmax off the greedy price"
    return True, "one interior max at the greedy price"


def check_price_contraction() -> Outcome:
    """0 < J(u2) - J(u1) < u2 - u1 for every ordered pair tested, u in [-1, 1]."""
    rng = np.random.default_rng(5)
    for model in (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(0.7), LogisticNoise(1.0)):
        u = np.sort(rng.uniform(-1.0, 1.0, 400))
        j = greedy_price_vec(model, u)
        du, dj = np.diff(u), np.diff(j)
        keep = du > 1e-9
        if not np.all((dj[keep] > 0.0) & (dj[keep] < du[keep])):
            return False, f"{type(model).__name__} violates 0 < dJ < du"
    return True, "greedy price is a strict contraction"


def check_fixed_point_and_scaling() -> Outcome:
    """J at the unit-noise fixed point; Gaussian scale identity J_s(u) = s*J_1(u/s)."""
    fp_err = abs(greedy_price(GaussianNoise(1.0), FIXED_VALUATION) - FIXED_VALUATION)
    rng = np.random.default_rng(23)
    worst = 0.0
    unit = GaussianNoise(1.0)
    for _ in range(100):
        s = rng.uniform(0.1, 1.0)
        u = rng.uniform(0.0, 1.0)
        worst = max(worst, abs(greedy_price(GaussianNoise(s), u) - s * greedy_price(unit, u / s)))
    ok = fp_err <= 1e-9 and worst <= 1e-9
    return ok, f"fixed point err {fp_err:.2e}; scaling err {worst:.2e}"


def check_first_order_residual() -> Outcome:
    """|1 - F(J-u) - J f(J-u)| <= 1e-10 on u in [-1, 1], and on u in [-2, 2]
    at small noise, where |u|/spread reaches 2000; plus sigma = 0.01 at u = 0.384."""
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = [(model, 1.0) for model in (GaussianNoise(0.25), GaussianNoise(1.0), LogisticNoise(1.0))]
    cases += [(model, 2.0) for model in (GaussianNoise(0.01), GaussianNoise(0.05), LogisticNoise(0.001))]
    for model, u_hi in cases:
        u = rng.uniform(-u_hi, u_hi, 500)
        j = np.array([greedy_price(model, x) for x in u])
        worst = max(worst, float(np.max(first_order_residual(model, u, j))))
    # u/sigma = 38.4, where Newton on m(z) - z - c (not its log) crawls
    worst = max(worst, first_order_residual(GaussianNoise(0.01), 0.384, greedy_price(GaussianNoise(0.01), 0.384)))
    return worst <= 1e-10, f"max residual {worst:.3e}"


def check_quadratic_regret_bound() -> Outcome:
    """Pricing under a wrong parameter loses at most C*(x'(theta-theta*))^2."""
    rng = np.random.default_rng(7)
    model = GaussianNoise(0.25)
    consts = compute_constants(model, 1.0)
    worst = -np.inf
    for _ in range(1000):
        u_true = rng.uniform(0.0, 1.0)
        u_est = rng.uniform(0.0, 1.0)
        loss_val = expected_reward(model, greedy_price(model, u_true), u_true) - expected_reward(
            model, greedy_price(model, u_est), u_true
        )
        slack = consts.c_quad * (u_true - u_est) ** 2 - loss_val
        worst = max(worst, -slack)
    return worst <= 1e-12, f"max bound violation {worst:.3e}"


def check_constants() -> Outcome:
    """compute_constants takes c_exp and c_down at the window's two ends:
    for each law at B in {0.5, 1, 2}, c_exp is at least and c_down at most
    its extremum over a dense grid of the window, within 1e-12 relative.
    Gaussian sigma in {0.25, 1}: c_down > 0, c_exp >= hazard(B + J(0))^2,
    0 < alpha <= 1, and c_exp/c_down grows as sigma shrinks; the logistic
    constants match their closed forms."""
    details = []
    for model in _MODELS:
        for b in (0.5, 1.0, 2.0):
            c = compute_constants(model, b)
            grid = _window_grid(model, b, 20001)
            steep = float(np.max(np.maximum(model.hazard(grid), model.reverse_hazard(grid))) ** 2)
            floor = float(np.min(np.minimum(model.log_sf_curvature(grid), model.log_cdf_curvature(grid))))
            if c.c_exp < steep * (1.0 - 1e-12) or c.c_down > floor * (1.0 + 1e-12):
                details.append(
                    f"{model}, B={b}: c_exp {c.c_exp:.6e} < {steep:.6e} or c_down {c.c_down:.6e} > {floor:.6e}"
                )
    g = compute_constants(GaussianNoise(0.25), 1.0)
    g1 = compute_constants(GaussianNoise(1.0), 1.0)
    for sigma, c in ((0.25, g), (1.0, g1)):
        if not (c.c_down > 0 and 0 < c.alpha <= 1):
            details.append(f"sigma={sigma}: c_down {c.c_down:.3e}, alpha {c.alpha:.3e}")
        if c.c_exp < GaussianNoise(sigma).hazard(1.0 + c.j0) ** 2 - 1e-12:
            details.append(f"sigma={sigma}: c_exp below the endpoint hazard square")
    if not (g.c_exp / g.c_down > g1.c_exp / g1.c_down):
        details.append("conditioning does not worsen as noise shrinks")
    # logistic curvature has the closed form f/s; both branches coincide
    lg = LogisticNoise(1.0)
    lc = compute_constants(lg, 1.0)
    w = 1.0 + lc.j0
    c_down_exact = lg.pdf(w) / lg.scale
    c_exp_exact = float(lg.cdf(w) / lg.scale) ** 2
    if abs(lc.c_down - c_down_exact) > 1e-8 or abs(lc.c_exp - c_exp_exact) > 1e-8:
        details.append(
            f"logistic grid vs closed form: {lc.c_down:.3e} vs {c_down_exact:.3e}, "
            f"{lc.c_exp:.3e} vs {c_exp_exact:.3e}"
        )
    return not details, "; ".join(details) or "floors/ceilings consistent"


# -- loss ------------------------------------------------------------------


def check_gradient_hessian_fd() -> Outcome:
    """Central differences of ``value`` match the gradient of
    ``gradient_hessian`` entrywise, and central differences of that gradient
    match its Hessian relative to the Hessian's largest entry; both to rel
    1e-6 with a 1e-4 scale floor."""
    rng = np.random.default_rng(29)
    problem = _default_problem()
    h = 1e-6
    steps = h * np.eye(2)
    worst_grad = worst_hess = 0.0
    for row in _random_rounds(rng, problem, 400):
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        grad, hess = row.gradient_hessian(theta)
        fd_grad = np.array([row.value(theta + e) - row.value(theta - e) for e in steps]) / (2 * h)
        fd_cols = [row.gradient_hessian(theta + e)[0] - row.gradient_hessian(theta - e)[0] for e in steps]
        fd_hess = np.column_stack(fd_cols) / (2 * h)
        worst_grad = max(worst_grad, float(np.max(np.abs(fd_grad - grad) / np.maximum(np.abs(grad), 1e-4))))
        worst_hess = max(worst_hess, float(np.max(np.abs(fd_hess - hess))) / max(float(np.max(np.abs(hess))), 1e-4))
    detail = f"max relative error: gradient {worst_grad:.3e}, Hessian {worst_hess:.3e}"
    return max(worst_grad, worst_hess) <= 1e-6, detail


def check_psd_sandwich() -> Outcome:
    """Full curvature chain on ``gradient_hessian`` of single rounds:
    Hessian >= c_down xx' >= alpha grad grad' >= 0, plus
    grad grad' <= c_exp xx'.  The first two links give exp-concavity,
    Hessian >= alpha grad grad'."""
    rng = np.random.default_rng(31)
    problem = _default_problem()
    c = compute_constants(problem.model, problem.valuation_bound)
    worst = 0.0
    for row in _random_rounds(rng, problem, 1000):
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        xx, (grad, hess) = np.outer(row.features[0], row.features[0]), row.gradient_hessian(theta)
        gg = np.outer(grad, grad)
        for link in (hess - c.c_down * xx, c.c_down * xx - c.alpha * gg, c.alpha * gg, c.c_exp * xx - gg):
            worst = max(worst, -float(np.min(np.linalg.eigvalsh(link))))
    return worst <= 1e-10, f"max eigenvalue violation {worst:.3e}"


def check_truth_is_stationary() -> Outcome:
    """Averaging the gradient over the sale indicator at theta* gives ~0,
    and the expected loss gap dominates (c_down/2)(x'(theta-theta*))^2."""
    rng = np.random.default_rng(41)
    problem = _default_problem()
    model = problem.model
    consts = compute_constants(model, problem.valuation_bound)
    worst_grad, worst_gap = 0.0, -np.inf
    for x in _features(rng, problem, 200):
        v = rng.uniform(0.0, problem.price_window)
        u = float(x @ problem.theta_star)
        p_sale = model.sf(v - u)
        yes = BatchObjective(x, v, True, model)
        no = BatchObjective(x, v, False, model)
        g_sale, g_miss = (batch.gradient_hessian(problem.theta_star)[0] for batch in (yes, no))
        grad = p_sale * g_sale + (1 - p_sale) * g_miss
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
        theta = problem.region.project(rng.uniform(0.0, 1.0, 2))
        gap = p_sale * (yes.value(theta) - yes.value(problem.theta_star)) + (1 - p_sale) * (
            no.value(theta) - no.value(problem.theta_star)
        )
        quad = 0.5 * consts.c_down * float(x @ (theta - problem.theta_star)) ** 2
        worst_gap = max(worst_gap, quad - gap)
    ok = worst_grad <= 1e-6 and worst_gap <= 1e-10
    return ok, f"max expected-gradient norm {worst_grad:.3e}; max quadratic-bound violation {worst_gap:.3e}"


# -- regions / policies -----------------------------------------------------


def _least_linear_value(region, g: np.ndarray) -> float:
    """min of g'z over z in the region, at Frank-Wolfe's linear minimizer
    (Jaggi 2013): z = -r g/||g|| on a ball, and z = -r g-/||g-|| with
    g- = min(g, 0) on the orthant-ball."""
    if isinstance(region, Ball):
        return -region.radius * float(np.linalg.norm(g))
    return -region.radius * float(np.linalg.norm(np.minimum(g, 0.0)))


def check_weighted_projection() -> Outcome:
    """Membership within 1e-12 and the variational inequality
    g'(z-theta) >= -1e-8 for every z in H, with g = A(theta-y), taken at its
    exact minimum over H.  A is rotated with cond(A) from 1 to 1e8,
    MM' + 0.2I for Gaussian M, or [[3, 0.5], [0.5, 1]]."""
    rng = np.random.default_rng(43)
    n = 100
    worst = -np.inf
    for region in (Ball(1.0, 2), OrthantBall(1.0, 2)):
        weights = []
        for cond in np.logspace(0.0, 8.0, n):
            rotation, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            weights.append((rotation * [1.0, 1.0 / cond]) @ rotation.T)
        weights += [m @ m.T + 0.2 * np.eye(2) for m in rng.standard_normal((n // 2, 2, 2))]
        weights += [np.array([[3.0, 0.5], [0.5, 1.0]])] * n
        for a in weights:
            y = rng.uniform(-2.0, 2.0, 2)
            theta = region.project_weighted(y, a)
            if not region.contains(theta, tol=1e-12):
                return False, f"output {theta} left the region"
            g = a @ (theta - y)
            worst = max(worst, float(g @ theta) - _least_linear_value(region, g))
    return worst <= 1e-8, f"max VI violation {worst:.3e}"


class _RecordedOnsp(OnspPolicy):
    """OnspPolicy that keeps, for each round, the round's likelihood gradient
    at the estimate it priced with."""

    def _reset_state(self) -> None:
        super()._reset_state()
        self.gradients: list[np.ndarray] = []

    def play_block(self, x, sell) -> None:
        def recorded(prices):
            accepted = sell(prices)
            self.gradients.append(BatchObjective(x, prices, accepted, self.model).gradient_hessian(self.theta)[0])
            return accepted

        super().play_block(x, recorded)


def check_onsp_state() -> Outcome:
    """Adversarial episodes (epsilon 1 for 256 rounds, 0.7 for 200): every
    price in the window, A - sum g g' >= epsilon I for the rounds' likelihood
    gradients g, and A >= epsilon I."""
    problem = _default_problem()
    details = []
    for epsilon, horizon, seed in ((1.0, 256, 53), (0.7, 200, 11)):
        policy = _RecordedOnsp(problem.model, problem.region, 1.0, gamma=1.0, epsilon=epsilon)
        try:
            run_episode(policy, AlternatingScenario(problem), horizon, seed)
        except EpisodeAbort as exc:
            details.append(f"epsilon={epsilon}: {exc}")
            continue
        grads = np.array(policy.gradients)
        floor = float(np.min(np.linalg.eigvalsh(policy.matrix - grads.T @ grads)))
        ev = float(np.min(np.linalg.eigvalsh(policy.matrix)))
        if min(floor, ev) < epsilon - 1e-9:
            details.append(f"epsilon={epsilon}: floor eigenvalue {floor}, matrix eigenvalue {ev}")
    return not details, "; ".join(details) or "window and floor hold"


# -- environments / harness ---------------------------------------------------


def check_scenario_contract() -> Outcome:
    problem = _default_problem()
    rng = np.random.default_rng(59)
    try:
        for scen in (StochasticScenario(problem), AlternatingScenario(problem)):
            x = scen.features(20_000, rng)
            scen.check_features(x)
            u = x @ problem.theta_star
            if np.any(u < -1e-12) or np.any(u > problem.valuation_bound * (1.0 + 1e-9)):
                return False, f"{scen.name}: x'theta* left [0, B]"
    except ValueError as exc:
        return False, str(exc)
    return True, "norms, signs and valuations in range"


def check_lower_bound_geometry() -> Outcome:
    """At the unit-noise fixed point, smaller noise prices strictly below,
    with a linear-in-(1-s) gap and a quadratic revenue margin."""
    u_star = FIXED_VALUATION
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
        grid = np.linspace(1e-9, u_star - 1e-9, 1000)
        margin = expected_reward(model, v_best, u_star) - expected_reward(model, grid, u_star)
        slack = margin - (v_best - grid) ** 2 / 60.0
        if float(np.min(slack)) < -1e-9:
            ok = False
            details.append(f"s={s}: quadratic revenue margin violated by {-float(np.min(slack)):.2e}")
    return ok, "; ".join(details) or "all three inequalities hold"


def check_slope_recovery() -> Outcome:
    """Slopes 1 and 2/3 to 1e-12 from t = 1 or 2 up to 2^16; a log curve fits at most 0.2."""
    t = 2 ** np.arange(0, 17).astype(float)
    lin = fit_slope((t[1:], 3.0 * t[1:]), (2, 2**16)).slope
    twothirds = max(
        abs(fit_slope((t[k:], c * t[k:] ** (2 / 3)), (2**k, 2**16)).slope - 2 / 3) for k, c in ((1, 0.5), (0, 0.3))
    )
    logc = max(fit_slope((t[1:], c * np.log(t[1:])), (2**10, 2**16)).slope for c in (2.0, 4.0))
    ok = abs(lin - 1.0) <= 1e-12 and twothirds <= 1e-12 and logc <= 0.2
    return ok, f"linear {lin:.4f}, power error {twothirds:.1e}, log curve {logc:.4f}"


_CHECKS: list[tuple[str, Callable[[], Outcome]]] = [
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
    ("loss.truth-stationary", check_truth_is_stationary),
    ("regions.weighted-projection-vi", check_weighted_projection),
    ("policies.onsp-state", check_onsp_state),
    ("environments.feature-contract", check_scenario_contract),
    ("environments.lower-bound-geometry", check_lower_bound_geometry),
    ("harness.slope-recovery", check_slope_recovery),
]


def run_checks() -> list[CheckResult]:
    """Run every invariant check; order is fixed and names are stable."""
    return [CheckResult(name, *check()) for name, check in _CHECKS]
