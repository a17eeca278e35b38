"""Sale likelihood: per-row loss, slope and curvature, and the batch MLE.

One observed round (x, v, accepted) contributes the negative log-likelihood

    l(theta) = -log(1 - F(w))   if the sale happened,
               -log F(w)        otherwise,

of its margin w = v - x'theta: a convex, exp-concave function of theta that
depends on theta only through x'theta.  :func:`row_losses`,
:func:`row_slopes` and :func:`row_curvatures` give l and its first and
second derivatives in x'theta for arrays of margins and outcomes, so a
row's gradient is slope * x and its Hessian curvature * xx'.  The noise law
is symmetric, so a miss at w is a sale at -w: log F(w) = log(1 - F(-w)).
Each row's margin is mirrored to s = w on a sale and -w on a miss, and one
call of each sale kernel (log_sf, hazard, log_sf_curvature) covers the
whole batch.  The single round of an online update, a 0-d margin with one
bool outcome, is mirrored as a scalar.  All scalars come from the stable
log-space forms in :mod:`pricelab.noise`.

:class:`BatchObjective` averages the rows of a batch and is the one place a
batch's features and prices are validated.  Its constrained minimizer is
found by projected Newton (Bertsekas 1982): each step minimizes the local
quadratic model exactly over the feasible set with the region's weighted
projection, and Armijo backtracking runs along the segment to that point.
When the batch does not span the parameter space the optimum is only unique
along the data span and the returned point inherits the warm-start's
component in the null space - deliberate, and exercised by the adversarial
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel
from .pricing import squared_hazard_ceiling
from .regions import Region

__all__ = [
    "BatchObjective",
    "MleResult",
    "row_losses",
    "row_slopes",
    "row_curvatures",
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


def _mirror(w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """w on sales, -w on misses."""
    if np.ndim(w) == 0:
        return w if accepted else -w
    return np.where(accepted, w, -w)


def row_losses(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """-log(1 - F(s)) at the mirrored margin s: -log(1 - F(w)) on sales, -log F(w) on misses."""
    return -model.log_sf(_mirror(w, accepted))


def row_slopes(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """Derivative of each row's loss in x'theta: -hazard(w) on sales, hazard(-w) on misses.

    Calls the unchecked kernel: margins are built from features and prices
    validated where they entered.
    """
    return _mirror(-model._hazard(_mirror(w, accepted)), accepted)


def row_curvatures(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """Second derivative of each row's loss in x'theta: the sale curvature at the mirrored margin."""
    return model.log_sf_curvature(_mirror(w, accepted))


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

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def max_feature_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.features, axis=1)))

    def margins(self, theta) -> np.ndarray:
        return self.prices - self.features @ np.asarray(theta, dtype=float)

    def value(self, theta) -> float:
        return float(np.mean(row_losses(self.model, self.margins(theta), self.accepted)))

    def gradient(self, theta) -> np.ndarray:
        return self._gradient(self.margins(theta))

    def hessian(self, theta) -> np.ndarray:
        return self._hessian(self.margins(theta))

    def gradient_hessian(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian from one margin computation."""
        w = self.margins(theta)
        return self._gradient(w), self._hessian(w)

    def _gradient(self, w: np.ndarray) -> np.ndarray:
        return (row_slopes(self.model, w, self.accepted) @ self.features) / len(self)

    def _hessian(self, w: np.ndarray) -> np.ndarray:
        curvatures = row_curvatures(self.model, w, self.accepted)
        return (self.features.T * curvatures) @ self.features / len(self)


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
    largest squared feature norm.  ``converged`` is True exactly when
    such a test passed; hitting the MLE_MAX_ITER cap, or a line search that
    finds no representable decrease, returns the current iterate with
    ``converged=False``, which callers surface as a warning, not a failure.
    """
    theta = region.project(np.asarray(theta_init, dtype=float))
    ell = squared_hazard_ceiling(batch.model, valuation_bound) * batch.max_feature_norm**2
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
        move = region.project_weighted(theta - np.linalg.solve(metric, grad), metric) - theta
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
