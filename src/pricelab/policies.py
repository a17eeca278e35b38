"""Online pricing policies.

Every policy speaks one block protocol:

    n = policy.frozen_rounds()      # rounds priceable without feedback
    policy.play_block(X, sell)      # price up to n feature rows, sell once, update

plus ``reset(seed)`` for a fresh, reproducible run.  ``play_block`` prices
the rows of X, calls ``sell(prices)`` exactly once for the block's sale
outcomes and then updates; the harness's ``sell`` checks the block, so a
policy trusts the features it is given and the outcomes it gets back.  The
outcomes of a one-row block are a shared, read-only array.  A
policy whose estimate is frozen over a stretch prices the stretch with one
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
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .loss import BatchObjective, round_slope, solve_linear, solve_mle
from .noise import NoiseModel
from .pricing import (
    AnalysisConstants,
    InvariantViolation,
    compute_constants,
    greedy_price,
    greedy_price_inverse,
    greedy_price_vec,
    price_cap,
)
from .regions import OrthantBall, Region

__all__ = [
    "PricingPolicy",
    "EmlpPolicy",
    "OnspPolicy",
    "Exp4Policy",
    "OraclePolicy",
    "EpochRecord",
    "onsp_default_hyperparams",
    "valuations",
]


def valuations(x: np.ndarray, theta) -> np.ndarray:
    """x'theta of each row of x, accumulated column by column: unlike a BLAS
    product, a row's value does not depend on its block.  The block policies
    and the regret comparator's u* share it, so the oracle's regret is 0."""
    u = x[:, 0] * theta[0]
    for j in range(1, len(theta)):
        u += x[:, j] * theta[j]
    return u


def onsp_default_hyperparams(constants: AnalysisConstants, b1: float, b2: float) -> tuple[float, float]:
    """Theory-default Newton-step hyperparameters (gamma, epsilon).

    gamma = 0.5*min{1/(4GD), alpha} and epsilon = 1/(gamma^2 D^2) with
    D = 2*B1 (diameter) and G = sqrt(c_exp)*B2 (gradient bound).  At small
    noise scales these are far too conservative for desk-scale horizons;
    experiment configs override them.  InvariantViolation when epsilon
    overflows, for alpha below about 7e-155 when D = 2 (the Gaussian at
    sigma = 0.03 with B = 1 has 6e-255).
    """
    diameter = 2.0 * b1
    grad_bound = math.sqrt(constants.c_exp) * b2
    gamma = 0.5 * min(1.0 / (4.0 * grad_bound * diameter), constants.alpha)
    squared = gamma**2 * diameter**2
    epsilon = 1.0 / squared if squared else math.inf
    if epsilon == math.inf:
        raise InvariantViolation(
            f"theory-default epsilon = 1/(gamma D)^2 overflows at gamma {gamma:.3e}, D {diameter:g}"
        )
    return gamma, epsilon


class PricingPolicy(abc.ABC):
    """Online policy base: one ``play_block`` per block of rounds.

    A subclass implements ``_reset_state`` and ``play_block``, and overrides
    ``frozen_rounds`` when its estimate stays frozen over more than one round.
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
        self._rng = np.random.default_rng()
        self._reset_state()

    def reset(self, seed=None) -> None:
        self._rng = np.random.default_rng(seed)
        self._reset_state()

    def frozen_rounds(self) -> int:
        """How many upcoming rounds the policy can price without feedback."""
        return 1

    @abc.abstractmethod
    def _reset_state(self) -> None: ...

    @abc.abstractmethod
    def play_block(self, x: np.ndarray, sell) -> None:
        """Price the rows of a (rounds, d) block of at most ``frozen_rounds()``
        rows, call ``sell(prices)`` once for their sale outcomes, and update."""


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

    def play_block(self, x: np.ndarray, sell) -> None:
        if self.epoch == 0:
            prices = np.array([self._rng.uniform(0.0, self.price_cap)])
        else:
            prices = greedy_price_vec(self.model, valuations(x, self.theta))
        rows = slice(self.position, self.position + len(prices))
        self._accepted[rows] = sell(prices)
        self._features[rows] = x
        self._prices[rows] = prices
        self.position = rows.stop
        if self.position < self.epoch_length:
            return
        if self.epoch > 0:  # the bootstrap round is not logged, and epoch 1 lasts one round as well
            self.epoch_log.append(EpochRecord(self.epoch, self.epoch_length, self.theta.copy()))
            self.epoch_length *= 2
        batch = BatchObjective(self._features, self._prices, self._accepted, self.model)
        self.theta = self._solve(batch, self.theta)  # from the interior point after the bootstrap round
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
    of the round's sale likelihood (its ``round_slope`` times x), rank-one
    update A += g g' in place, Newton step theta - (1/gamma) A^{-1} g with
    A^{-1} g from one ``solve_linear``, and A-weighted projection back onto
    the feasible set.
    The state is theta and A alone; ``reset`` makes a new A.
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
        self.theta = self.region.interior_point()
        self.matrix = self.epsilon * np.eye(self.region.dim)

    def play_block(self, x: np.ndarray, sell) -> None:
        row = x[0]
        xtheta = float(row @ self.theta)
        price = greedy_price(self.model, xtheta)
        grad = round_slope(self.model, price - xtheta, sell(np.array([price]))[0]) * row
        self.matrix += grad[:, None] * grad
        newton = self.theta - solve_linear(self.matrix, grad) / self.gamma
        self.theta = self.region.project_weighted(newton, self.matrix)


@functools.cache
def _exp4_thresholds(model: NoiseModel, arm_spacing: float, per_axis: int) -> np.ndarray:
    """J^{-1}((k + 1/2) spacing), k = 0 .. per_axis - 2: past the k-th, J(u) is
    nearest arm k + 1 rather than arm k.

    A function of the law and the arm grid alone, which the noise model, the
    valuation bound and the per-axis count fix, so every Exp4 policy on one
    market shares the solve (a horizon envelope builds a policy per horizon);
    read-only, as it is shared.
    """
    thresholds = greedy_price_inverse(model, (np.arange(per_axis - 1) + 0.5) * arm_spacing)
    thresholds.flags.writeable = False
    return thresholds


class Exp4Policy(PricingPolicy):
    """Exponential-weights baseline over a discretized parameter/price grid.

    The horizon must be known in advance: both grids use spacing
    (scale) * T^{-1/3}.  Experts are the grid points of the feasible set;
    each recommends the arm nearest its greedy price J(x'theta_e), which,
    J being strictly increasing, is the number of thresholds
    J^{-1}((k + 1/2) * spacing), k = 0 .. K-2, below x'theta_e: the
    thresholds are solved once per market and grid, and a round takes one
    sorted search over them, whatever the sign of x'theta_e.  The played
    arm is drawn from the weight mixture of recommendations blended with
    uniform exploration.  A sale's importance-weighted reward
    (r/V_max)/p(arm) boosts every expert that recommended the arm, and the
    weights, 1/N at the start, are renormalized, so they sum to 1; a miss
    earns 0 and leaves them untouched.  ``clip_events`` counts the rounds
    whose played arm had probability below the 1e-12 floor.

    Rates: learning rate eta = sqrt(2 ln N / (T K)) and exploration
    min(1, K*eta), fixed by N, K and T.
    """

    name = "exp4"

    def __init__(self, model, region, feature_bound, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = int(horizon)
        # at least 2 per axis for every T >= 1
        per_axis = int(math.floor(self.horizon ** (1.0 / 3.0) + 1e-9)) + 1
        # the experts exist before the base constructor resets the weights over them
        self.experts = self._parameter_grid(region, per_axis)
        super().__init__(model, region, feature_bound)
        self.arms = np.linspace(0.0, self.price_cap, per_axis)
        self.arm_spacing = self.arms[1] - self.arms[0]
        self.thresholds = _exp4_thresholds(model, float(self.arm_spacing), per_axis)
        n, k = len(self.experts), len(self.arms)
        self.learning_rate = math.sqrt(2.0 * math.log(n) / (self.horizon * k))
        self.exploration = min(1.0, k * self.learning_rate)
        # the round's constants as Python numbers
        self._arm_count = k
        self._mixed = 1.0 - self.exploration
        self._uniform = self.exploration / k
        self._arm_prices = self.arms.tolist()

    def _reset_state(self) -> None:
        self.weights = np.full(len(self.experts), 1.0 / len(self.experts))
        self.clip_events = 0

    @staticmethod
    def _parameter_grid(region: Region, per_axis: int) -> np.ndarray:
        if isinstance(region, OrthantBall):
            axes = [np.linspace(0.0, region.radius, per_axis)] * region.dim
        else:  # Ball: cover [-r, r] at the same spacing
            axes = [np.linspace(-region.radius, region.radius, 2 * per_axis - 1)] * region.dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, region.dim)
        # region.contains(p, tol=1e-9) on every point at once (the orthant mesh is
        # nonnegative); holds the origin and at least one more point
        return mesh[np.linalg.norm(mesh, axis=1) <= region.radius * (1.0 + 1e-9) + 1e-9]

    def recommendations(self, x: np.ndarray) -> np.ndarray:
        """Arm index each expert recommends for feature x: the number of
        thresholds below x'theta_e."""
        return self.thresholds.searchsorted(self.experts @ x)

    def arm_distribution(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each expert's arm, and the arm probabilities, which sum to 1 because the weights do."""
        rec = self.recommendations(x)
        probs = np.bincount(rec, weights=self.weights, minlength=self._arm_count)
        probs *= self._mixed
        probs += self._uniform
        return rec, probs

    def play_block(self, x: np.ndarray, sell) -> None:
        rec, probs = self.arm_distribution(x[0])
        # Generator.choice(K, p=probs) without its per-call validation of p:
        # the same cumulative sum, the same one uniform draw; the ufuncs are
        # those of the cumsum and sum methods, without their wrappers
        cdf = np.add.accumulate(probs)
        cdf /= cdf[-1]
        arm = int(cdf.searchsorted(self._rng.random(), side="right"))
        price = self._arm_prices[arm]
        accepted = sell(np.array([price]))
        prob = float(probs[arm])
        if prob < 1e-12:
            prob = 1e-12
            self.clip_events += 1
        if not accepted[0]:
            return  # reward 0: every boost is exp(0) = 1
        estimate = (price / self.price_cap) / prob
        # eta*estimate <= 1 whenever exploration = K*eta; the clamp guards the clipped-probability path only
        boost = math.exp(min(self.learning_rate * estimate, 50.0))
        np.multiply(self.weights, boost, out=self.weights, where=rec == arm)
        self.weights /= np.add.reduce(self.weights)


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

    def play_block(self, x: np.ndarray, sell) -> None:
        sell(greedy_price_vec(self.model, valuations(x, self.theta_star)))
