"""Online pricing policies.

All policies speak the same two-phase block protocol:

    n = policy.frozen_rounds()           # rounds priceable without feedback
    prices = policy.propose_block(X)     # post prices for up to n feature rows
    policy.feedback_block(accepted)      # observe the block's sale outcomes

plus ``reset(seed)`` for a fresh, reproducible run.  ``propose_block``
validates the block once and range-checks its prices, a block of one as a
float and a longer one by its minimum and maximum, locating the offending
row only when one falls outside, so every proposed price lies in
[0, V_max] with V_max = B + J(0); ``feedback_block``
passes (X, prices, accepted) to the policy's update unchecked.  A policy
whose estimate is frozen over a stretch prices the stretch with one
``greedy_price_vec`` call; the others take blocks of one row.

EmlpPolicy   - epoch-doubling batch maximum-likelihood pricing: prices each
               epoch greedily under the previous epoch's MLE, as one block,
               and refits at epoch boundaries only (O(log T) policy
               switches).
OnspPolicy   - per-round online Newton step on the sale likelihood: a
               rank-one updated matrix, one linear solve for the Newton
               direction, and matrix-weighted projection back onto the
               feasible set.
Exp4Policy   - discretized experts-and-arms baseline: a parameter grid of
               experts each recommending the arm nearest its greedy price,
               found by a sorted search of precomputed valuation thresholds,
               exponential weights over importance-weighted rewards.
OraclePolicy - prices greedily under the true parameter (the regret
               comparator), the whole episode as one block.
"""

from __future__ import annotations

import abc
import math
import sys
from typing import NamedTuple

import numpy as np

from .loss import BatchObjective, row_slopes, solve_mle
from .noise import NoiseModel
from .pricing import (
    AnalysisConstants,
    compute_constants,
    greedy_price,
    greedy_price_inverse,
    greedy_price_vec,
    price_cap,
)
from .regions import OrthantBall, Region

__all__ = [
    "PricingPolicy",
    "PriceWindowError",
    "EmlpPolicy",
    "OnspPolicy",
    "Exp4Policy",
    "OraclePolicy",
    "EpochRecord",
    "onsp_default_hyperparams",
]


def onsp_default_hyperparams(constants: AnalysisConstants, b1: float, b2: float) -> tuple[float, float]:
    """Theory-default Newton-step hyperparameters (gamma, epsilon).

    gamma = 0.5*min{1/(4GD), alpha} and epsilon = 1/(gamma^2 D^2) with
    D = 2*B1 (diameter) and G = sqrt(c_exp)*B2 (gradient bound).  At small
    noise scales these are far too conservative for desk-scale horizons;
    experiment configs override them.
    """
    diameter = 2.0 * b1
    grad_bound = math.sqrt(constants.c_exp) * b2
    gamma = 0.5 * min(1.0 / (4.0 * grad_bound * diameter), constants.alpha)
    epsilon = 1.0 / (gamma**2 * diameter**2)
    return gamma, epsilon


class PriceWindowError(RuntimeError):
    """A proposed price outside [0, V_max]; ``row`` is its index in the block."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class PricingPolicy(abc.ABC):
    """Two-phase online policy base: propose one block, then its feedback.

    A subclass implements ``_reset_state``, ``_propose_block`` and
    ``_feedback_block``, and overrides ``frozen_rounds`` when its estimate
    stays frozen over more than one round.
    """

    name: str = "policy"

    def __init__(self, model: NoiseModel, region: Region, feature_bound: float):
        if not 0.0 < feature_bound < math.inf:
            raise ValueError("feature bound must be positive and finite")
        self.model = model
        self.region = region
        self.feature_bound = feature_bound
        self.valuation_bound = region.radius * feature_bound
        self.price_cap = price_cap(model, self.valuation_bound)
        # the window check's upper end, with room for the solver's rounding
        self._ceiling = self.price_cap * (1.0 + 1e-9) + 1e-12
        self._rng = np.random.default_rng()
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._reset_state()

    # -- protocol ------------------------------------------------------------

    def reset(self, seed=None) -> None:
        self._rng = np.random.default_rng(seed)
        self._pending = None
        self._reset_state()

    def frozen_rounds(self) -> int:
        """How many upcoming rounds the policy can price without feedback."""
        return 1

    def propose_block(self, features) -> np.ndarray:
        """Prices for a (rounds, d) block of at most ``frozen_rounds()`` rows.

        Raises PriceWindowError, naming the first row whose price lies
        outside [0, V_max], when the block's minimum or maximum does.
        """
        if self._pending is not None:
            raise RuntimeError("propose called twice without feedback")
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError("features must be a finite (rounds, d) array")
        if not 1 <= len(x) <= self.frozen_rounds():
            raise ValueError(f"a block of {len(x)} rounds, where {self.frozen_rounds()} can be priced")
        prices = self._propose_block(x)
        ceiling = self._ceiling
        # a NaN fails every comparison
        if len(prices) == 1:
            inside = 0.0 <= float(prices[0]) <= ceiling
        else:
            inside = prices.min() >= 0.0 and prices.max() <= ceiling
        if not inside:
            row = int(np.argmin((prices >= 0.0) & (prices <= ceiling)))
            raise PriceWindowError(f"{self.name} priced {prices[row]} outside [0, {self.price_cap}]", row)
        self._pending = (x, prices)
        return prices

    def feedback_block(self, accepted) -> None:
        """The sale outcome of each round of the pending block."""
        if self._pending is None:
            raise RuntimeError("feedback without a pending propose")
        x, prices = self._pending
        accepted = np.asarray(accepted, dtype=bool)
        if accepted.shape != prices.shape:
            raise ValueError(f"outcomes of shape {accepted.shape} for prices of shape {prices.shape}")
        self._pending = None
        self._feedback_block(x, prices, accepted)

    def clipped_valuation(self, x, theta):
        # x'theta lies in [0, B] for theta in H by assumption; clamp is a
        # numerical guard only.
        return (x @ theta).clip(0.0, self.valuation_bound)

    def clipped_valuations(self, x: np.ndarray, theta) -> np.ndarray:
        """``clipped_valuation`` of each row of a block, summed row by row.

        A BLAS matrix-vector product rounds a row differently in a block of
        one and in a longer block; a row's price must not depend on its block.
        """
        return (x * theta).sum(axis=1).clip(0.0, self.valuation_bound)

    # -- subclass hooks --------------------------------------------------------

    @abc.abstractmethod
    def _reset_state(self) -> None: ...

    @abc.abstractmethod
    def _propose_block(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _feedback_block(self, x: np.ndarray, prices: np.ndarray, accepted: np.ndarray) -> None: ...


class EpochRecord(NamedTuple):
    """One completed pricing epoch: its index, its length and the estimate that priced it."""

    index: int
    length: int
    theta_used: np.ndarray


class EmlpPolicy(PricingPolicy):
    """Epoch-doubling maximum-likelihood pricing.

    Round 1 posts a uniform random price in [0, V_max] and fits the first
    estimate on that single observation.  Epoch k then lasts 2^(k-1) rounds,
    prices J(x'theta_k) throughout, and refits on exactly that epoch's batch
    at the boundary (warm-started at the current estimate).  The estimate is
    frozen within an epoch, so the rest of the epoch is one block, priced by
    one ``greedy_price_vec`` call.  Only the current epoch's features, prices
    and outcomes are held, in arrays of its length; ``epoch_log`` keeps each
    completed epoch's index, length and estimate.
    """

    name = "emlp"

    def _reset_state(self) -> None:
        self.epoch = 0  # 0 = bootstrap round not yet played
        self.epoch_length = 1
        self.position = 0
        self.theta = self.region.interior_point()
        self.mle_warnings = 0
        self.epoch_log: list[EpochRecord] = []
        self._new_batch()

    def _new_batch(self) -> None:
        self._features = np.empty((self.epoch_length, self.region.dim))
        self._prices = np.empty(self.epoch_length)
        self._accepted = np.empty(self.epoch_length, dtype=bool)

    def _solve(self, batch: BatchObjective, init: np.ndarray) -> np.ndarray:
        result = solve_mle(batch, self.region, init, self.valuation_bound)
        if not result.converged:
            self.mle_warnings += 1
        return result.theta

    def frozen_rounds(self) -> int:
        return self.epoch_length - self.position  # the bootstrap round is an epoch of one

    def _propose_block(self, x: np.ndarray) -> np.ndarray:
        if self.epoch == 0:
            return np.array([self._rng.uniform(0.0, self.price_cap)])
        return greedy_price_vec(self.model, self.clipped_valuations(x, self.theta))

    def _feedback_block(self, x: np.ndarray, prices: np.ndarray, accepted: np.ndarray) -> None:
        rows = slice(self.position, self.position + len(prices))
        self._features[rows] = x
        self._prices[rows] = prices
        self._accepted[rows] = accepted
        self.position = rows.stop
        if self.position < self.epoch_length:
            return
        batch = BatchObjective(self._features, self._prices, self._accepted, self.model)
        if self.epoch == 0:
            # the bootstrap round: epoch 1 then lasts one round as well
            self.theta = self._solve(batch, self.region.interior_point())
        else:
            self.epoch_log.append(EpochRecord(self.epoch, self.epoch_length, self.theta.copy()))
            self.theta = self._solve(batch, self.theta)
            self.epoch_length *= 2
        self.epoch += 1
        self.position = 0
        self._new_batch()

    @property
    def switch_count(self) -> int:
        """Number of distinct estimates adopted so far."""
        return (1 if self.epoch >= 1 else 0) + len(self.epoch_log)


class OnspPolicy(PricingPolicy):
    """Online Newton-step pricing on the sale likelihood.

    Per round: price J(x'theta_t); after the outcome, take the gradient g
    of the round's sale likelihood (its row slope times x), rank-one update
    A += g g', Newton step theta - (1/gamma) A^{-1} g with A^{-1} g from one
    linear solve, and A-weighted projection back onto the feasible set.
    The state is theta and A alone; between a round's price and its outcome
    the policy also keeps that round's x'theta, which both use.
    """

    name = "onsp"

    def __init__(self, model, region, feature_bound, gamma: float | None = None, epsilon: float | None = None):
        if (gamma is None) != (epsilon is None):
            raise ValueError("override gamma and epsilon together or not at all")
        if gamma is None:
            constants = compute_constants(model, region.radius * feature_bound)
            gamma, epsilon = onsp_default_hyperparams(constants, region.radius, feature_bound)
        if not (0.0 < gamma < math.inf and 0.0 < epsilon < math.inf):
            raise ValueError("gamma and epsilon must be positive and finite")
        self.gamma = float(gamma)
        self.epsilon = float(epsilon)
        super().__init__(model, region, feature_bound)

    def _reset_state(self) -> None:
        self.theta = self.region.project(self.region.interior_point())
        self.matrix = self.epsilon * np.eye(self.region.dim)
        self._xtheta = 0.0  # x'theta of the pending round

    def _propose_block(self, x: np.ndarray) -> np.ndarray:
        self._xtheta = float(x[0] @ self.theta)
        # clipped_valuation on a Python float: max(0.0, -0.0) is 0.0, as np.clip gives
        u = min(max(0.0, self._xtheta), self.valuation_bound)
        return np.array([greedy_price(self.model, u)])

    def _feedback_block(self, x: np.ndarray, prices: np.ndarray, accepted: np.ndarray) -> None:
        slope = row_slopes(self.model, prices[0] - self._xtheta, accepted[0])
        grad = slope * x[0]
        self.matrix = self.matrix + grad[:, None] * grad
        newton = self.theta - np.linalg.solve(self.matrix, grad) / self.gamma
        self.theta = self.region.project_weighted(newton, self.matrix)


class Exp4Policy(PricingPolicy):
    """Exponential-weights baseline over a discretized parameter/price grid.

    The horizon must be known in advance: both grids use spacing
    (scale) * T^{-1/3}.  Experts are the grid points of the feasible set;
    each deterministically recommends the arm nearest its greedy price
    J(x'theta_e).  J is strictly increasing, so that arm is the number of
    thresholds J^{-1}((k + 1/2) * spacing), k = 0 .. K-2, lying below
    x'theta_e; the thresholds are computed once, with the grids, and each
    round takes one sorted search in place of a greedy-price solve.  The
    played arm is drawn from the weight mixture of recommendations blended
    with uniform exploration; the chosen arm's importance-weighted reward
    (r/V_max)/p(arm) updates every expert that recommended it.

    Defaults: learning rate eta = sqrt(2 ln N / (T K)), exploration K*eta.
    """

    name = "exp4"

    def __init__(
        self,
        model,
        region,
        feature_bound,
        horizon: int,
        exploration: float | None = None,
        learning_rate: float | None = None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if learning_rate is not None and not 0.0 < learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if exploration is not None and not 0.0 <= exploration <= 1.0:
            raise ValueError("exploration must lie in [0, 1]")
        self.horizon = int(horizon)
        # the grids exist before the base constructor resets the weights over them
        cap = price_cap(model, region.radius * feature_bound)
        per_axis = int(math.floor(self.horizon ** (1.0 / 3.0) + 1e-9)) + 1
        self.experts = self._parameter_grid(region, per_axis)
        self.arms = np.linspace(0.0, cap, per_axis)
        self.arm_spacing = self.arms[1] - self.arms[0] if per_axis > 1 else cap
        # J(u) is nearest arm k + 1 rather than arm k once u passes J^{-1}((k + 1/2) spacing)
        self.thresholds = greedy_price_inverse(model, (np.arange(per_axis - 1) + 0.5) * self.arm_spacing)
        n, k = len(self.experts), len(self.arms)
        self.learning_rate = (
            math.sqrt(2.0 * math.log(max(n, 2)) / (self.horizon * k))
            if learning_rate is None
            else float(learning_rate)
        )
        self.exploration = (
            min(1.0, k * self.learning_rate) if exploration is None else float(exploration)
        )
        super().__init__(model, region, feature_bound)

    def _reset_state(self) -> None:
        self.weights = np.full(len(self.experts), 1.0 / len(self.experts))
        self.clip_events = 0
        self._last: tuple[np.ndarray, np.ndarray, int] | None = None

    @staticmethod
    def _parameter_grid(region: Region, per_axis: int) -> np.ndarray:
        if isinstance(region, OrthantBall):
            axes = [np.linspace(0.0, region.radius, per_axis)] * region.dim
        else:  # Ball: cover [center - r, center + r] at the same spacing
            span = np.linspace(-region.radius, region.radius, 2 * per_axis - 1)
            center = np.asarray(region.center, dtype=float)
            axes = [center[i] + span for i in range(region.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, region.dim)
        points = [p for p in mesh if region.contains(p, tol=1e-9)]
        if not points:
            points.append(region.interior_point())
        return np.asarray(points)

    def recommendations(self, x: np.ndarray) -> np.ndarray:
        """Arm index each expert recommends for feature x: the number of thresholds below x'theta_e."""
        if len(self.arms) == 1:
            return np.zeros(len(self.experts), dtype=int)
        return self.thresholds.searchsorted(self.clipped_valuation(self.experts, x))

    def arm_distribution(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rec = self.recommendations(x)
        mixture = np.bincount(rec, weights=self.weights, minlength=len(self.arms))
        mixture = mixture / mixture.sum()
        probs = (1.0 - self.exploration) * mixture + self.exploration / len(self.arms)
        return rec, probs / probs.sum()

    def _propose_block(self, x: np.ndarray) -> np.ndarray:
        rec, probs = self.arm_distribution(x[0])
        # Generator.choice(K, p=probs) without its per-call validation of p:
        # the same cumulative sum, the same one uniform draw
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        arm = int(cdf.searchsorted(self._rng.random(), side="right"))
        self._last = (rec, probs, arm)
        return self.arms[[arm]]

    def _feedback_block(self, x: np.ndarray, prices: np.ndarray, accepted: np.ndarray) -> None:
        rec, probs, arm = self._last
        self._last = None
        reward = float(prices[0]) if accepted[0] else 0.0
        prob = float(probs[arm])
        if prob < 1e-12:
            prob = 1e-12
            self.clip_events += 1
        estimate = (reward / self.price_cap) / prob
        # eta*estimate <= 1 whenever exploration = K*eta; the clamp guards
        # the clipped-probability path only
        boost = math.exp(min(self.learning_rate * estimate, 50.0))
        np.multiply(self.weights, boost, out=self.weights, where=rec == arm)
        self.weights /= self.weights.sum()


class OraclePolicy(PricingPolicy):
    """Greedy pricing under the true parameter: the regret comparator."""

    name = "oracle"

    def __init__(self, model, region, feature_bound, theta_star):
        self.theta_star = np.asarray(theta_star, dtype=float)
        super().__init__(model, region, feature_bound)

    def _reset_state(self) -> None:
        pass

    def frozen_rounds(self) -> int:
        return sys.maxsize  # the true parameter prices every remaining round

    def _propose_block(self, x: np.ndarray) -> np.ndarray:
        return greedy_price_vec(self.model, self.clipped_valuations(x, self.theta_star))

    def _feedback_block(self, x: np.ndarray, prices: np.ndarray, accepted: np.ndarray) -> None:
        pass
