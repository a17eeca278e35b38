"""Sale likelihood: per-row loss, slope and curvature, and the batch MLE.

One observed round (x, v, accepted) contributes the negative log-likelihood

    l(theta) = -log(1 - F(w))   if the sale happened,
               -log F(w)        otherwise,

of its margin w = v - x'theta: a convex, exp-concave function of theta that
depends on theta only through x'theta.  :func:`row_losses`,
:func:`row_slopes` and :func:`row_curvatures` give l and its first and
second derivatives in x'theta for arrays of margins and outcomes, so a
row's gradient is slope * x and its Hessian curvature * xx'.  Each noise
kernel runs only on the rows with its outcome (hazard, log_sf and
log_sf_curvature on sales; reverse_hazard, log_cdf and log_cdf_curvature on
misses) and is skipped when that outcome has no rows; all scalars come from
the stable log-space forms in :mod:`pricelab.noise`.

:class:`BatchObjective` averages the rows of a batch and is the one place a
batch's features and prices are validated.  Its constrained minimizer is
found by projected gradient with a fixed 1/L step plus monotone Armijo
backtracking.  When the batch does not span the parameter space the optimum
is only unique along the data span and the returned point inherits the
warm-start's component in the null space - deliberate, and exercised by the
adversarial experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel
from .pricing import compute_constants
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


def _by_outcome(w: np.ndarray, accepted: np.ndarray, on_sale, on_miss) -> np.ndarray:
    out = np.empty_like(w)
    if accepted.any():
        out[accepted] = on_sale(w[accepted])
    missed = ~accepted
    if missed.any():
        out[missed] = on_miss(w[missed])
    return out


def row_losses(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """-log(1 - F(w)) on sales, -log F(w) on misses."""
    return -_by_outcome(w, accepted, model.log_sf, model.log_cdf)


def row_slopes(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """Derivative of each row's loss in x'theta: -hazard(w) on sales, reverse_hazard(w) on misses."""
    return _by_outcome(w, accepted, lambda s: -model.hazard(s), model.reverse_hazard)


def row_curvatures(model: NoiseModel, w: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """Second derivative of each row's loss in x'theta: the log-concavity curvatures."""
    return _by_outcome(w, accepted, model.log_sf_curvature, model.log_cdf_curvature)


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
        slopes = row_slopes(self.model, self.margins(theta), self.accepted)
        return (slopes @ self.features) / len(self)

    def hessian(self, theta) -> np.ndarray:
        curvatures = row_curvatures(self.model, self.margins(theta), self.accepted)
        return (self.features.T * curvatures) @ self.features / len(self)


@dataclass
class MleResult:
    theta: np.ndarray
    converged: bool
    iterations: int
    objective: float


def curvature_step_bound(batch: BatchObjective, region: Region) -> float:
    """Gradient-Lipschitz bound c_exp * (max ||x||)^2 over the batch."""
    r = batch.max_feature_norm
    if r == 0.0:
        return 0.0
    constants = compute_constants(batch.model, region.radius * r)
    return constants.c_exp * r * r


def solve_mle(
    batch: BatchObjective,
    region: Region,
    theta_init,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    step_bound: float | None = None,
) -> MleResult:
    """Constrained batch MLE by projected gradient with momentum.

    Fixed step 1/L (L = curvature bound over the batch) with Nesterov
    momentum; the momentum is restarted and the step halved (Armijo test,
    constant 1e-4) whenever a step would increase the objective beyond float
    noise, so the objective is monotone up to machine precision.  Converged
    means the gradient-mapping norm ||theta - P(theta - s g)||/s at the base
    step s = 1/L drops below ``tol``.  Hitting the iteration cap returns the
    best iterate with ``converged=False``; callers surface that as a
    warning, not a failure.
    """
    theta = region.project(np.asarray(theta_init, dtype=float))
    ell = curvature_step_bound(batch, region) if step_bound is None else step_bound
    if ell <= 0.0:
        # all-zero features: objective is constant in theta
        return MleResult(theta, True, 0, batch.value(theta))

    base = 1.0 / ell
    value = batch.value(theta)
    noise_floor = 1e-14 * max(1.0, abs(value))

    def mapping_gap(point: np.ndarray) -> float:
        image = region.project(point - base * batch.gradient(point))
        return float(np.linalg.norm(point - image)) / base

    momentum_from = theta
    tk = 1.0
    iterations = 0
    converged = False
    stationary = False
    for iterations in range(1, max_iter + 1):
        lookahead = theta + ((tk - 1.0) / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)))) * (
            theta - momentum_from
        )
        candidate = region.project(lookahead - base * batch.gradient(lookahead))
        cand_value = batch.value(candidate)
        if cand_value <= value + noise_floor:
            momentum_from = theta
            tk = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            theta, value = candidate, min(value, cand_value)
        else:
            # momentum overshoot or too-optimistic step: restart and backtrack
            tk = 1.0
            momentum_from = theta
            grad = batch.gradient(theta)
            step = base
            trial = region.project(theta - step * grad)
            trial_value = batch.value(trial)
            for _ in range(60):
                move = trial - theta
                if trial_value <= value - (ARMIJO / step) * float(move @ move) + noise_floor:
                    break
                step *= 0.5
                trial = region.project(theta - step * grad)
                trial_value = batch.value(trial)
            if trial_value > value + noise_floor:
                stationary = True  # no representable descent direction left
            else:
                theta, value = trial, min(value, trial_value)
        if stationary or iterations % 16 == 0:
            gap = mapping_gap(theta)
            if gap <= tol or stationary:
                converged = gap <= max(tol, 1e-6)
                break
    else:
        converged = mapping_gap(theta) <= tol
    return MleResult(theta, converged, iterations, value)
