"""Greedy pricing against a known demand curve.

For expected valuation u and posted price v the expected revenue is
g(v, u) = v * (1 - F(v - u)).  Under strict log-concavity g(., u) has a
unique maximizer J(u) = u + phi^{-1}(u) where phi(w) = (1-F(w))/f(w) - w is
the virtual valuation; phi is strictly decreasing with slope < -1, so J is a
strict contraction (0 < J' < 1).

J is computed on the standardized scale z = (J - u)/spread, where the
first-order condition reads m(z) = z + c with c = u/spread and m the
standardized Mills ratio.  One safeguarded Newton loop, _newton_array,
solves it on the log form q(z) = log m(z) - log(z + c).  On z > -c, q is
convex and decreasing and grows only quadratically in the left tail, where
m(z) - z - c grows like exp(z^2/2).  J is defined for every real u.  The
bracket is [max(-c/2, -c), |c| + 10]: m(z) > -z and m(z) > 0 put the root
right of -c/2 and of -c, and m(z) < 2 for z > 0 left of |c| + 10.  The loop
starts from the root read off a table: the roots z(c) at ROOT_TABLE_POINTS
even points of [0, ROOT_TABLE_MAX], found once per noise law by this same
loop started at z = 1, with their slopes dz/dc = 1/(m'(z) - 1), and
interpolated by the cubic Hermite polynomial through both.  The start is
within 4e-14 of the root for both shipped laws.  A c beyond the table starts
at z = 1, and one below 0 at z = 1 - c.  Each step evaluates m once, shrinks
the bracket by the sign of q, and takes the Newton step if it lands in the
bracket (ends included), else bisects.  It stops once a step moves z by less
than tol/spread; from the table the first step does so for spreads up to 2.5
(tol/spread = 4e-14 there), from z = 1 it takes 3-8 steps and from z = 1 - c
up to 24 (spreads from 1e-3 to 5, u >= -1).  Reaching NEWTON_CAP steps
raises InvariantViolation instead of returning a price.  greedy_price takes
the first step on floats, and runs the loop only where that step does not
settle.

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
    "greedy_price",
    "greedy_price_vec",
    "greedy_price_inverse",
    "price_cap",
    "first_order_residual",
    "compute_constants",
    "squared_hazard_ceiling",
]


# Newton steps allowed per greedy price; one is taken from the root table
# for spreads up to 2.5, and at most 24 off it (spreads from 1e-3 to 5, u >= -1)
NEWTON_CAP = 60
# absolute price tolerance: iteration stops once a step moves the price less
PRICE_TOL = 1e-13
# The greedy-price root table: z(c) and dz/dc at c = k/256, k = 0 .. 16384.
# The range covers c <= B/spread of every shipped config and tested market
# (4 at the reference sigma = 0.25, 50 at the smallest spread, 0.02); the
# cubic Hermite interpolant starts a price within ROOT_TABLE_START_ERROR of
# its root on the standardized scale (3.5e-14 measured for the Gaussian,
# 2.9e-14 for the logistic).
ROOT_TABLE_MAX = 64.0
ROOT_TABLE_POINTS = 16385
ROOT_TABLE_START_ERROR = 4e-14
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


# One table per noise class: the standardized Mills ratio m is a function of
# the law alone, so GaussianNoise(0.25) and GaussianNoise(0.02) share a table
# and a process holds one per class, however many models it builds.  A table
# takes about 10 ms to build and 512 kB to hold.  It is filled in place,
# _ROOT_TABLE_CHUNK rows at a time, so the build peaks at 0.75 MB traced,
# the table included, where solving every row at once peaked at 3.2 MB.
_ROOT_TABLES: dict[type, np.ndarray] = {}
_ROOT_TABLE_CHUNK = 1024


def _root_table(model: NoiseModel) -> np.ndarray:
    """Row k: the cubic in t = c*_ROOT_TABLE_SCALE - k on [k, k + 1], lowest power first.

    The Hermite cubic through z(c) and dz/dc = 1/(m'(z) - 1) (from m(z) =
    z + c) at the two ends, so column 0 holds the roots.  Built on first use
    by the greedy-price loop started at z = 1, chunk by chunk: a chunk's
    rows solve their own ends, the last one shared with the next chunk, and
    every root is elementwise, so the table has the bits of one solve.
    """
    table = _ROOT_TABLES.get(type(model))
    if table is None:
        table = np.empty((ROOT_TABLE_POINTS - 1, 4))
        for start in range(0, ROOT_TABLE_POINTS - 1, _ROOT_TABLE_CHUNK):
            rows = table[start : start + _ROOT_TABLE_CHUNK]
            c = np.arange(start, start + len(rows) + 1) / _ROOT_TABLE_SCALE
            roots = _newton_array(model, 1.0, c, -0.5 * c, c + 10.0, np.ones_like(c), PRICE_TOL)
            slopes = 1.0 / (_ROOT_TABLE_SCALE * (model._mills_prime(roots, model._mills(roots)) - 1.0))
            rise, s0, s1 = np.diff(roots), slopes[:-1], slopes[1:]
            rows[:] = np.column_stack([roots[:-1], s0, 3.0 * rise - 2.0 * s0 - s1, s0 + s1 - 2.0 * rise])
        _ROOT_TABLES[type(model)] = table
    return table


def _table_start(model: NoiseModel, c: np.ndarray) -> np.ndarray:
    """The greedy-price start at each c: the interpolated root, or 1 - min(c, 0) off the table.

    The interpolant lies within ROOT_TABLE_START_ERROR of the root, and so
    well inside the bracket [-c/2, c + 10].
    """
    pos = c * _ROOT_TABLE_SCALE
    inside = (pos >= 0.0) & (pos < ROOT_TABLE_POINTS - 1)
    pos = np.where(inside, pos, 0.0)
    i = pos.astype(np.intp)
    t = pos - i
    a0, a1, a2, a3 = _root_table(model).take(i, axis=0).T  # take, not table[i]: ten times faster
    return np.where(inside, a0 + t * (a1 + t * (a2 + t * a3)), 1.0 - np.minimum(c, 0.0))


def _newton_array(model: NoiseModel, a: float, c, lo, hi, z, ztol: float) -> np.ndarray:
    """Root of q(z) = log m(z) - log(a*z + c) elementwise, for a = 1 or 0.

    a = 1 is the greedy-price condition, started from _table_start in the
    bracket [max(-c/2, -c), |c| + 10]; a = 0 is the inverse's condition
    m(z) = c.  An element stops once a step moves it less than ztol, or
    lands on an end of its bracket: the step has then run into the Mills
    kernel's rounding error (the inverse's roots reach z = 500 at spread 5,
    where ztol is finer than one ulp of z).
    """
    out, idx = np.empty_like(c), np.arange(c.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_CAP):
            m = model._mills(z)
            if not (m > 0.0).all():
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
            if done.all():
                out[idx] = nxt
                return out
            if done.any():
                out[idx[done]] = nxt[done]
                keep = ~done
                idx, c, lo, hi, nxt = idx[keep], c[keep], lo[keep], hi[keep], nxt[keep]
            z = nxt
    raise InvariantViolation(
        f"root of log m(z) = log({a:g}*z + c) not converged in {NEWTON_CAP} Newton steps at c={c[0]}"
    )


def greedy_price(model: NoiseModel, valuation: float) -> float:
    """Revenue-maximizing price J(u) = u + phi^{-1}(u) for every finite u.

    greedy_price_vec of one valuation, ONSP's price of a round.  On floats it
    takes _newton_array's first step from the root table and returns it when
    it lands in the bracket and moves z by less than PRICE_TOL/spread; every
    other case (off the table, a spread above 2.5, a broken Mills kernel)
    runs greedy_price_vec, which starts there and rejects a non-finite u.
    """
    u = float(valuation)
    spread = model.spread
    c = u / spread
    pos = c * _ROOT_TABLE_SCALE
    if 0.0 <= pos < ROOT_TABLE_POINTS - 1:
        i = int(pos)
        t = pos - i
        a0, a1, a2, a3 = _root_table(model)[i].tolist()
        z = a0 + t * (a1 + t * (a2 + t * a3))
        m = model._mills(z)
        if m > 0.0:
            q = math.log(m) - math.log(z + c)
            lo, hi = (z, c + 10.0) if q > 0.0 else (-0.5 * c, z)
            slope = model._mills_prime(z, m) / m - 1.0 / (z + c)
            step = z - q / slope if slope != 0.0 else math.nan  # as numpy's q/0: no step
            if lo <= step <= hi and abs(step - z) < PRICE_TOL / spread:
                return u + spread * step
    return float(greedy_price_vec(model, u))


def greedy_price_vec(model: NoiseModel, valuations) -> np.ndarray:
    """J(u) elementwise: _newton_array from _table_start, as in the module docstring.

    Stops each element when it has converged; InvariantViolation after
    NEWTON_CAP steps or on a Mills ratio that is not positive.  Below u = 0
    the price is spread*m(z), which u + spread*z equals at the root.
    """
    u = np.asarray(valuations, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("valuations must be finite")
    spread = model.spread
    c = (u / spread).reshape(-1)
    lo, hi = np.maximum(-0.5 * c, -c), np.abs(c) + 10.0
    z = _newton_array(model, 1.0, c, lo, hi, _table_start(model, c), PRICE_TOL / spread)
    price = u.reshape(-1) + spread * z
    below = c < 0.0  # J = spread*m(z) at the root, where u + spread*z cancels u (5e-10 at spread 1e-3, u = -1.9)
    price[below] = spread * model._mills(z[below])
    return price.reshape(u.shape)


def greedy_price_inverse(model: NoiseModel, prices) -> np.ndarray:
    """J^{-1}(p) elementwise for prices p > 0: the valuation u with J(u) = p.

    The first-order condition read backwards, as in the module docstring:
    m(z) = p/spread gives z, and u = p - spread*z.  Where p/spread is at
    most m(+inf), every J(u) exceeds p and -inf is returned (the logistic
    law, whose J stays above its scale s).  InvariantViolation after
    NEWTON_CAP steps, as for greedy_price.
    """
    p = np.asarray(prices, dtype=float)
    if not ((p > 0.0) & (p < math.inf)).all():
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
    """Price search window V_max = B + J(0), the window's upper end; every policy prices inside [0, V_max]."""
    return float(_window_ends(model, b)[1][1])


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
    """J(0) and the window's two ends, -B and V_max = B + J(0): where B is validated and J(0) solved."""
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
    return _squared_hazard_at(model, _window_ends(model, b)[1])


def _squared_hazard_at(model: NoiseModel, ends: np.ndarray) -> float:
    return float(np.max(np.maximum(model.hazard(ends), model.reverse_hazard(ends))) ** 2)


def compute_constants(model: NoiseModel, b: float) -> AnalysisConstants:
    """The analysis constants: c_quad in closed form, 2*B_f + (B + J(0))*B_f',
    c_exp as squared_hazard_ceiling takes it (on the one J(0) solve both
    constants share), and c_down as the smallest curvature of
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

    c_exp = _squared_hazard_at(model, ends)
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
