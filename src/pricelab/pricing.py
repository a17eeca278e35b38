"""Greedy pricing against a known demand curve.

For expected valuation u and posted price v the expected revenue is
g(v, u) = v * (1 - F(v - u)).  Under strict log-concavity g(., u) has a
unique maximizer J(u) = u + phi^{-1}(u) where phi(w) = (1-F(w))/f(w) - w is
the virtual valuation; phi is strictly decreasing with slope < -1, so J is a
strict contraction (0 < J' < 1).

J is computed on the standardized scale z = (J - u)/spread, where the
first-order condition reads m(z) = z + c with c = u/spread and m the
standardized Mills ratio.  Both solvers run one safeguarded Newton iteration
on the log form q(z) = log m(z) - log(z + c).  On z > -c, q is convex and
decreasing and grows only quadratically in the left tail, where m(z) - z - c
grows like exp(z^2/2).  The bracket is [-c/2, c + 10]: m(z) > -z puts the
root right of -c/2, and m(z) < 2 for z > 0 puts it left of c + 10.  The
iteration starts from the root read off a table: the roots z(c) at
ROOT_TABLE_POINTS even points of [0, ROOT_TABLE_MAX], found once per noise
law by this same loop started at z = 1, and interpolated linearly in c.  A c
beyond the table starts at z = 1.  Each step evaluates m once, shrinks the
bracket by the sign of q, and takes the Newton step if it lands in the
bracket (ends included), else bisects.  It stops once a step moves z by
less than tol/spread; from the table 1-3 steps suffice (3-8 from z = 1, for
spreads from 1e-3 to 5), and reaching NEWTON_CAP steps raises
InvariantViolation instead of returning a price.

The inverse J^{-1}(p) reads the same condition backwards: at price p,
m(z) = r with r = p/spread, and u = p - spread*z.  The same loop solves
q(z) = log m(z) - log r, which is decreasing and, as m is log-convex for
both shipped laws, convex, so a Newton step from left of the root never
overshoots it.  It starts at z = 0 inside the bracket [-r, 1/(r - m(inf))]:
m(z) > -z puts the root right of -r, and m(z) < m(inf) + 1/z for z > 0 puts
it left of the upper end.  J is strictly increasing, so the arm nearest
J(u) on a grid of spacing D changes only where u crosses one of the
thresholds J^{-1}((k + 1/2) D).

Also computed here, at the two ends of the working window [-B, B + J(0)]
where their extrema lie: the curvature/steepness constants of the demand
model that size regret bounds, solver step sizes and Newton-step
hyperparameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel

__all__ = [
    "AnalysisConstants",
    "InvariantViolation",
    "expected_reward",
    "virtual_valuation",
    "virtual_valuation_slope",
    "greedy_price",
    "greedy_price_vec",
    "greedy_price_inverse",
    "price_cap",
    "first_order_residual",
    "compute_constants",
    "squared_hazard_ceiling",
]


# Newton steps allowed per greedy price; 1-3 are taken from the root table,
# 3-8 from z = 1 for spreads from 1e-3 to 5
NEWTON_CAP = 60
# absolute price tolerance: iteration stops once a step moves the price less
PRICE_TOL = 1e-13
# The greedy-price root table: z(c) at c = k/64, k = 0 .. 4096.  The range
# covers c <= B/spread of every shipped config and tested market (4 at the
# reference sigma = 0.25, 50 at the smallest spread, 0.02); linear
# interpolation starts a price within 5e-6 of its root.
ROOT_TABLE_MAX = 64.0
ROOT_TABLE_POINTS = 4097
_ROOT_TABLE_SCALE = (ROOT_TABLE_POINTS - 1) / ROOT_TABLE_MAX


class InvariantViolation(RuntimeError):
    """A quantity that the model guarantees positive/finite came out otherwise."""


def expected_reward(model: NoiseModel, price, valuation):
    """Expected revenue v * (1 - F(v - u)).

    Evaluated as v * exp(log_sf(v-u)) so deep-tail prices neither underflow
    to 0*inf artifacts nor lose relative accuracy.
    """
    v = np.asarray(price, dtype=float)
    if np.any(v < 0):
        raise ValueError("price must be nonnegative")
    out = v * np.exp(model.log_sf(v - np.asarray(valuation, dtype=float)))
    return float(out) if np.ndim(price) == 0 and np.ndim(valuation) == 0 else out


def virtual_valuation(model: NoiseModel, omega):
    """phi(w) = (1 - F(w))/f(w) - w, strictly decreasing with phi' < -1."""
    out = np.asarray(model.mills_ratio(omega)) - np.asarray(omega, dtype=float)
    return float(out) if np.ndim(omega) == 0 else out


def virtual_valuation_slope(model: NoiseModel, omega):
    """phi'(w) = -2 - (f'/f)(w) * mills(w); always < -1."""
    m = np.asarray(model.mills_ratio(omega))
    out = -2.0 - np.asarray(model.log_pdf_slope(omega)) * m
    return float(out) if np.ndim(omega) == 0 else out


# One table per noise class: the standardized Mills ratio m is a function of
# the law alone, so GaussianNoise(0.25) and GaussianNoise(0.02) share a table
# and a process holds one per class, however many models it builds.  A table
# takes about 2 ms to build and 66 kB to hold.
_ROOT_TABLES: dict[type, tuple[np.ndarray, np.ndarray]] = {}


def _root_table(model: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """z(c) at the table's points but the last, and the step to the next point.

    Built on first use by the greedy-price loop started at z = 1.
    """
    table = _ROOT_TABLES.get(type(model))
    if table is None:
        c = np.arange(ROOT_TABLE_POINTS) / _ROOT_TABLE_SCALE
        roots = _newton_array(model, 1.0, c, -0.5 * c, c + 10.0, np.ones_like(c), PRICE_TOL)
        table = _ROOT_TABLES[type(model)] = (roots[:-1], np.diff(roots))
    return table


def _table_start(model: NoiseModel, c: np.ndarray) -> np.ndarray:
    """_newton_scalar's start at each c: the interpolated root, or 1 beyond the table.

    z(c) decreases in c, so an interpolated root lies between two roots and
    inside the bracket [-c/2, c + 10].
    """
    roots, steps = _root_table(model)
    pos = c * _ROOT_TABLE_SCALE
    inside = pos < ROOT_TABLE_POINTS - 1
    i = np.where(inside, pos, 0.0).astype(np.intp)
    return np.where(inside, roots[i] + (pos - i) * steps[i], 1.0)


def _newton_scalar(model: NoiseModel, c: float, ztol: float) -> float:
    """Root of q(z) = log m(z) - log(z + c) by safeguarded Newton, on floats."""
    pos = c * _ROOT_TABLE_SCALE
    if pos < ROOT_TABLE_POINTS - 1:
        roots, steps = _root_table(model)
        i = int(pos)
        z = roots.item(i) + (pos - i) * steps.item(i)
    else:
        z = 1.0
    lo, hi = -0.5 * c, c + 10.0
    for _ in range(NEWTON_CAP):
        m = float(model._mills(z))
        if not m > 0.0:
            raise InvariantViolation(f"Mills ratio {m} at z={z} is not positive")
        q = math.log(m) - math.log(z + c)
        if q > 0.0:
            lo = z
        else:
            hi = z
        slope = model._mills_prime(z, m) / m - 1.0 / (z + c)
        step = z - q / slope if slope != 0.0 else math.nan  # as numpy's q/0: no step, bisect
        nxt = step if lo <= step <= hi else 0.5 * (lo + hi)
        if abs(nxt - z) < ztol:
            return nxt
        z = nxt
    raise InvariantViolation(f"greedy price not converged in {NEWTON_CAP} Newton steps at u/spread={c}")


def _newton_array(model: NoiseModel, a: float, c, lo, hi, z, ztol: float) -> np.ndarray:
    """Root of q(z) = log m(z) - log(a*z + c) elementwise, for a = 1 or 0.

    a = 1 is the greedy-price condition, and with the greedy-price bracket
    and _table_start's start each element takes the steps _newton_scalar
    would take; a = 0 is the inverse's condition m(z) = c.  An element
    stops once a step moves it less than ztol, or lands on an end of its
    bracket: the step has then run into the Mills kernel's rounding error
    (the inverse's roots reach z = 500 at spread 5, where ztol is finer than
    one ulp of z).
    """
    out = np.empty_like(c)
    if c.size == 0:
        return out
    idx = np.arange(c.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_CAP):
            m = model._mills(z)
            if not np.all(m > 0.0):
                bad = np.flatnonzero(~(m > 0.0))[0]
                raise InvariantViolation(f"Mills ratio {m[bad]} at z={z[bad]} is not positive")
            zc = a * z + c
            q = np.log(m) - np.log(zc)
            above = q > 0.0
            lo = np.where(above, z, lo)
            hi = np.where(above, hi, z)
            step = z - q / (model._mills_prime(z, m) / m - a / zc)
            nxt = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            done = (np.abs(nxt - z) < ztol) | (nxt == lo) | (nxt == hi)
            if done.any():
                out[idx[done]] = nxt[done]
                if done.all():
                    return out
                keep = ~done
                idx, c, lo, hi, nxt = idx[keep], c[keep], lo[keep], hi[keep], nxt[keep]
            z = nxt
    raise InvariantViolation(
        f"root of log m(z) = log({a:g}*z + c) not converged in {NEWTON_CAP} Newton steps at c={c[0]}"
    )


def greedy_price(model: NoiseModel, valuation: float) -> float:
    """Revenue-maximizing price J(u) = u + phi^{-1}(u) for u >= 0.

    On the standardized scale z = (J - u)/spread the first-order condition
    is m(z) = z + c with c = u/spread and m the standardized Mills ratio;
    the root is found by safeguarded Newton on q(z) = log m(z) - log(z + c)
    as described in the module docstring, over Python floats (ONSP calls
    this once per round; EMLP and the oracle price whole blocks with
    greedy_price_vec).  Starts from the root table's interpolated root (z = 1
    for u/spread beyond ROOT_TABLE_MAX), stops when a step moves z by less
    than PRICE_TOL/spread and raises InvariantViolation after NEWTON_CAP
    steps.
    """
    u = float(valuation)
    if not math.isfinite(u) or u < 0:
        raise ValueError("valuation must be finite and nonnegative")
    spread = model.spread
    return u + spread * _newton_scalar(model, u / spread, PRICE_TOL / spread)


def greedy_price_vec(model: NoiseModel, valuations) -> np.ndarray:
    """J(u) elementwise: greedy_price's iteration run over arrays.

    Each element starts where the scalar loop would start, takes the Newton
    and bisection steps it would take, and stops when it has converged;
    InvariantViolation after NEWTON_CAP steps as there.
    """
    u = np.asarray(valuations, dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u < 0):
        raise ValueError("valuations must be finite and nonnegative")
    spread = model.spread
    c = (u / spread).reshape(-1)
    z = _newton_array(model, 1.0, c, -0.5 * c, c + 10.0, _table_start(model, c), PRICE_TOL / spread)
    return u + spread * z.reshape(u.shape)


def greedy_price_inverse(model: NoiseModel, prices) -> np.ndarray:
    """J^{-1}(p) elementwise for prices p > 0: the valuation u with J(u) = p.

    The first-order condition read backwards, as in the module docstring:
    m(z) = p/spread gives z, and u = p - spread*z.  Where p/spread is at
    most m(+inf), every J(u) exceeds p and -inf is returned (the logistic
    law, whose J stays above its scale s).  InvariantViolation after
    NEWTON_CAP steps, as for greedy_price.
    """
    p = np.asarray(prices, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p <= 0):
        raise ValueError("prices must be finite and positive")
    spread = model.spread
    r = (p / spread).reshape(-1)
    floor = float(model._mills(np.array(np.inf)))
    if not floor >= 0.0:
        raise InvariantViolation(f"Mills ratio {floor} at z=inf is not nonnegative")
    found = r > floor
    r = r[found]
    z = _newton_array(model, 0.0, r, -r, 1.0 / (r - floor), np.zeros_like(r), PRICE_TOL / spread)
    u = np.full(p.size, -np.inf)
    u[found] = p.reshape(-1)[found] - spread * z
    return u.reshape(p.shape)


def price_cap(model: NoiseModel, b: float) -> float:
    """Price search window V_max = B + J(0); every policy prices inside [0, V_max]."""
    if not 0.0 < b < math.inf:
        raise ValueError("valuation bound must be positive and finite")
    return b + greedy_price(model, 0.0)


def first_order_residual(model: NoiseModel, valuation, price):
    """|1 - F(v-u) - v f(v-u)|, the stationarity defect of a candidate price."""
    w = np.asarray(price, dtype=float) - np.asarray(valuation, dtype=float)
    out = np.abs(model.sf(w) - np.asarray(price) * model.pdf(w))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class AnalysisConstants:
    """Demand-model constants on the window [-B, B + J(0)], taken at its ends.

    c_quad bounds the pricing regret by a quadratic in the valuation error;
    c_down is the strong-convexity floor of both log-likelihood branches;
    c_exp the squared-hazard ceiling; alpha = c_down/c_exp is the
    exp-concavity level of the per-round loss.
    """

    b_f: float
    b_fprime: float
    j0: float
    c_quad: float
    c_down: float
    c_exp: float
    alpha: float


def _window_ends(model: NoiseModel, b: float) -> tuple[float, np.ndarray]:
    """J(0) and the window's two ends, -B and price_cap's V_max = B + J(0)."""
    if not (math.isfinite(b) and b > 0):
        raise ValueError("valuation bound must be a positive real")
    j0 = greedy_price(model, 0.0)
    return j0, np.array([-b, b + j0])


def squared_hazard_ceiling(model: NoiseModel, b: float) -> float:
    """c_exp: the largest squared hazard or reverse hazard at the window's two ends.

    A log-concave law's hazard rises and its reverse hazard falls, so both
    peak at an end.  Solver step bounds need only this ceiling; it never
    evaluates c_down, which underflows to 0 at small noise.
    """
    ends = _window_ends(model, b)[1]
    return float(np.max(np.maximum(model.hazard(ends), model.reverse_hazard(ends))) ** 2)


def compute_constants(model: NoiseModel, b: float) -> AnalysisConstants:
    """The analysis constants: c_quad in closed form, 2*B_f + (B + J(0))*B_f',
    c_exp from squared_hazard_ceiling, and c_down as the smallest curvature of
    the two log-likelihood branches at the window's two ends, where the floor
    of both shipped laws lies (the Gaussian's branch curvatures are monotone,
    the logistic's f/s is unimodal); ``pricelab verify`` holds both against a
    dense grid.
    """
    j0, ends = _window_ends(model, b)
    c_down = float(np.min(np.minimum(model.log_sf_curvature(ends), model.log_cdf_curvature(ends))))
    if c_down == 0.0:
        raise InvariantViolation(
            f"strong-convexity floor underflowed to 0.0 at this noise scale ({model}, window [{ends[0]:g}, {ends[1]:g}])"
        )
    if not np.isfinite(c_down) or c_down < 0.0:
        raise InvariantViolation(
            f"strong-convexity floor must be positive, got {c_down} (log-concavity broken?)"
        )

    c_exp = squared_hazard_ceiling(model, b)
    c_quad = 2.0 * model.b_f + (b + j0) * model.b_fprime
    return AnalysisConstants(
        b_f=model.b_f,
        b_fprime=model.b_fprime,
        j0=j0,
        c_quad=c_quad,
        c_down=c_down,
        c_exp=c_exp,
        alpha=c_down / c_exp,
    )
