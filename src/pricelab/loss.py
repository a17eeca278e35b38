"""Sale likelihood: the batch loss, its slope and curvature, and the batch MLE.

One observed round (x, v, accepted) contributes the negative log-likelihood

    l(theta) = -log(1 - F(w))   if the sale happened,
               -log F(w)        otherwise,

of its margin w = v - x'theta: a convex, exp-concave function of theta that
depends on theta only through x'theta, so a row's gradient is its slope
times x and its Hessian its curvature times xx'.  The noise law is
symmetric, so a miss at w is a sale at -w: log F(w) = log(1 - F(-w)).  Each
row's margin is mirrored to s = w on a sale and -w on a miss, by multiplying
with the row's +-1 sign, and one call of a sale kernel covers the whole
batch.  All scalars come from the stable log-space forms in
:mod:`pricelab.noise`.

:class:`BatchObjective` is the one implementation of the likelihood: its
``value`` averages the rows' losses, and its ``gradient_hessian`` takes every
row's slope and curvature from one hazard evaluation.  It is the one place a
batch's features and prices are validated; theta is checked where it
enters, in ``margins``.  :func:`round_slope` is the slope of the single
round of an online update, on a Python float, and :func:`solve_linear` is
the one linear solve of a Newton step, the online update's and the batch
MLE's.  The batch's constrained minimizer is found by projected Newton
(Bertsekas 1982): each step minimizes the local quadratic model exactly
over the feasible set with the region's weighted projection, and Armijo
backtracking runs along the segment to that point.
When the batch does not span the parameter space the optimum is only unique
along the data span and the returned point inherits the warm-start's
component in the null space - deliberate, and exercised by the adversarial
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .noise import NoiseModel
from .pricing import squared_hazard_ceiling
from .regions import Region

__all__ = [
    "BatchObjective",
    "MleResult",
    "round_slope",
    "solve_linear",
    "solve_mle",
]

ARMIJO = 1e-4
# gradient-mapping norm at which a fit counts as converged
MLE_TOL = 1e-9
# Newton iterations after which a fit stops and reports converged=False
MLE_MAX_ITER = 100
# ridge added to the Hessian, relative to the curvature bound L: it makes the
# Newton metric positive definite on batches that do not span the space
RIDGE = 1e-12

# c_exp of each (noise model, valuation bound) a fit has used: one J(0) solve
# and four hazard evaluations, which every fit on that pair would repeat
_CEILINGS: dict[tuple[NoiseModel, float], float] = {}


def round_slope(model: NoiseModel, w: float, accepted: bool) -> float:
    """Derivative of one round's loss in x'theta: -hazard(w) on a sale, hazard(-w) on a miss.

    Calls the unchecked kernel, on w as a Python float, whose arithmetic
    gives the bits of the array kernel without its errstate: the margin is
    built from a feature and a price validated where they entered.
    """
    w = float(w)
    return -model._hazard(w) if accepted else model._hazard(-w)


@np.errstate(all="ignore")  # a singular system comes back as NaN, an overflow as inf: both are caught below
def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x with a x = b, for a (d, d) matrix a and a length-d vector b.

    Calls the LAPACK gesv gufunc that ``np.linalg.solve`` hands a vector
    right-hand side to, with the same signature, so x has its bits; what
    goes is that wrapper's per-call conversions and checks, most of the
    cost of a small solve.  LinAlgError when a is singular or x is not
    finite, as a NaN in a or b makes it.
    """
    x = _umath_linalg.solve1(a, b, signature="dd->d")
    if not all(map(math.isfinite, x.tolist())):
        raise LinAlgError("linear system is singular or its solution is not finite")
    return x


class BatchObjective:
    """Average negative log-likelihood of a batch of rounds."""

    def __init__(self, features, prices, accepted, model: NoiseModel):
        self.features = np.atleast_2d(np.asarray(features, dtype=float))
        self.prices = np.asarray(prices, dtype=float).ravel()
        self.accepted = np.asarray(accepted, dtype=bool).ravel()
        self.model = model
        n = self.features.shape[0]
        if not (self.prices.shape[0] == n and self.accepted.shape[0] == n):
            raise ValueError("features, prices and indicators must have equal length")
        if n == 0:
            raise ValueError("batch must be nonempty")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.prices))):
            raise ValueError("features and prices must be finite")
        if np.any(self.prices < 0.0):
            raise ValueError("prices must be nonnegative")
        # a row's margin times its sign is its mirrored margin
        self._sign = np.where(self.accepted, 1.0, -1.0)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def max_feature_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.features, axis=1)))

    def margins(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        return self.prices - self.features @ theta

    def value(self, theta) -> float:
        # the rows' -log(1 - F(s)) = -log F(-s), negated after the mean
        s = self.margins(theta) * self._sign
        return -float(np.mean(self.model._log_cdf(-s / self.model.spread)))

    def gradient_hessian(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of ``value``, from one margin and one hazard evaluation."""
        hazard, curvatures = self.model._hazard_curvature(self.margins(theta) * self._sign)
        n = len(self)
        return ((-hazard * self._sign) @ self.features) / n, (self.features.T * curvatures) @ self.features / n


@dataclass
class MleResult:
    theta: np.ndarray
    converged: bool
    iterations: int
    objective: float


def solve_mle(batch: BatchObjective, region: Region, theta_init, valuation_bound: float) -> MleResult:
    """Constrained batch MLE by projected Newton.

    At theta, with the batch's gradient g and Hessian H, the trial point is
    ``region.project_weighted(theta - H^{-1} g, H)``: the exact minimizer of
    the quadratic model over the region.  Armijo backtracking (constant
    1e-4) runs along the segment from theta to it.  H carries a ridge of
    1e-12 L, so batches that do not span the space (one row, or features
    along one axis) still give a positive definite metric; g lies in H's
    range there, so the step keeps the warm start's null-space component.
    Each iteration first tests convergence: the gradient-mapping norm
    ||theta - P(theta - g/L)|| L at the base step 1/L is at most MLE_TOL.
    L bounds the gradient's Lipschitz constant: c_exp on the pricing window
    of ``valuation_bound`` (:func:`squared_hazard_ceiling`) times the batch's
    largest squared feature norm; the ceiling is computed once per
    (model, bound) pair.  ``converged`` is True exactly when
    such a test passed; hitting the MLE_MAX_ITER cap, or a line search that
    finds no representable decrease, returns the current iterate with
    ``converged=False``, which callers surface as a warning, not a failure.
    """
    theta = region.project(np.asarray(theta_init, dtype=float))
    key = (batch.model, valuation_bound)
    ceiling = _CEILINGS.get(key)
    if ceiling is None:
        ceiling = _CEILINGS[key] = squared_hazard_ceiling(batch.model, valuation_bound)
    ell = ceiling * batch.max_feature_norm**2
    if ell <= 0.0:
        # all-zero features: objective is constant in theta
        return MleResult(theta, True, 0, batch.value(theta))

    ridge = RIDGE * ell * np.eye(batch.dim)
    value = batch.value(theta)
    noise_floor = 1e-14 * max(1.0, abs(value))

    iterations, converged = 0, False
    while iterations < MLE_MAX_ITER:
        iterations += 1
        grad, hess = batch.gradient_hessian(theta)
        converged = float(np.linalg.norm(theta - region.project(theta - grad / ell))) * ell <= MLE_TOL
        if converged:
            break
        metric = hess + ridge
        move = region.project_weighted(theta - solve_linear(metric, grad), metric) - theta
        descent = ARMIJO * float(grad @ move)
        step = 1.0
        for _ in range(60):
            trial = theta + step * move
            trial_value = batch.value(trial)
            if trial_value <= value + step * descent + noise_floor:
                break
            step *= 0.5
        else:
            break  # no representable decrease left along the segment
        theta, value = trial, trial_value
    return MleResult(theta, converged, iterations, value)
