"""Simulated markets: the feature sequences customers arrive with.

Three scenarios ship:

* ``StochasticScenario`` - i.i.d. features: direction uniform on the
  nonnegative-orthant unit arc (d=2) or unit-sphere patch (d>2), magnitude
  uniform in [0.5, 1].  The law is a lab default; the policies' guarantees
  are distribution-free.
* ``AlternatingScenario`` - the adversarial two-dimensional sequence whose
  dyadic blocks alternate between the two basis vectors: rounds
  [2^(k-1), 2^k) emit e1 for odd k and e2 for even k.  It trains exactly one
  coordinate at a time, which is what breaks epoch-refitting policies.
* ``FixedValuationScenario`` - a constant feature with x'theta* pinned at
  ``FIXED_VALUATION``; paired with two close noise scales it realizes the
  indistinguishability construction behind the sqrt(T) lower bound for
  unknown noise.

Every scenario guarantees the bounded-feature contract: ||x|| <= B2,
componentwise x >= 0, hence |x'theta| <= B for all theta in H, and
x'theta >= 0 on the orthant-ball.
:func:`pricelab.harness.run_episode` checks the features on each episode
(``Scenario.check_features``) and makes the customer's purchase decision, a
sale when the price is at most x'theta* + noise; ``pricelab verify`` also
checks the valuations x'theta* of the shipped scenarios.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .noise import GaussianNoise, NoiseModel
from .pricing import price_cap
from .regions import OrthantBall, Region

__all__ = [
    "PricingProblem",
    "Scenario",
    "StochasticScenario",
    "AlternatingScenario",
    "FixedValuationScenario",
    "lower_bound_pair",
    "FIXED_VALUATION",
]

# the valuation at which the unit-noise greedy price is a fixed point
FIXED_VALUATION = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class PricingProblem:
    """Market description: noise law, feasible set, truth, feature bound."""

    model: NoiseModel
    region: Region
    theta_star: np.ndarray
    feature_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float))
        if not 0.0 < self.feature_bound < math.inf:
            raise ValueError("feature bound must be positive and finite")
        if self.theta_star.shape != (self.region.dim,):
            raise ValueError("theta_star dimension does not match the region")
        if not self.region.contains(self.theta_star, tol=1e-9):
            raise ValueError("theta_star must lie in the feasible region")

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def valuation_bound(self) -> float:
        """B = B1 * B2, the ceiling of x'theta over features and H."""
        return self.region.radius * self.feature_bound

    @cached_property
    def price_window(self) -> float:
        """V_max = B + J(0)."""
        return price_cap(self.model, self.valuation_bound)


class Scenario(abc.ABC):
    """A pricing problem plus a rule for emitting the feature sequence."""

    name: str = "scenario"

    def __init__(self, problem: PricingProblem):
        self.problem = problem

    @abc.abstractmethod
    def features(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """(horizon, d) array of feature vectors for rounds 1..horizon."""

    def check_features(self, x: np.ndarray) -> None:
        """Raise ValueError unless an emitted batch is finite, nonnegative and within B2."""
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        if np.any(x < -1e-12):
            raise ValueError("features must be componentwise nonnegative")
        norms = np.linalg.norm(x, axis=-1)
        if np.any(norms > self.problem.feature_bound * (1.0 + 1e-9)):
            raise ValueError("feature norm exceeds the bound")


class StochasticScenario(Scenario):
    """I.i.d. features on the nonnegative orthant, magnitude in [0.5, 1]."""

    name = "stochastic"

    def features(self, horizon, rng):
        d = self.problem.dim
        if d == 2:
            angle = rng.uniform(0.0, math.pi / 2.0, horizon)
            direction = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        else:
            raw = np.abs(rng.standard_normal((horizon, d)))
            direction = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        magnitude = rng.uniform(0.5, 1.0, horizon)
        return self.problem.feature_bound * magnitude[:, None] * direction


class AlternatingScenario(Scenario):
    """Adversarial d=2 sequence: dyadic blocks alternate basis vectors.

    Round t belongs to block k = floor(log2 t) + 1; odd blocks emit e1,
    even blocks e2.
    """

    name = "adversarial"

    def __init__(self, problem: PricingProblem):
        if problem.dim != 2:
            raise ValueError("the alternating sequence is defined for d=2")
        super().__init__(problem)

    def features(self, horizon, rng):
        t = np.arange(1, horizon + 1)
        block = np.floor(np.log2(t)).astype(int) + 1
        x = np.zeros((horizon, 2))
        odd = block % 2 == 1
        x[odd, 0] = self.problem.feature_bound
        x[~odd, 1] = self.problem.feature_bound
        return x


class FixedValuationScenario(Scenario):
    """Constant feature e1 with x'theta* = FIXED_VALUATION every round."""

    name = "fixed-valuation"

    @classmethod
    def build(cls, sigma: float):
        """Gaussian(sigma) market in d=2 whose expected valuation is pinned at FIXED_VALUATION."""
        problem = PricingProblem(
            model=GaussianNoise(sigma),
            region=OrthantBall(radius=FIXED_VALUATION, dim=2),
            theta_star=np.array([FIXED_VALUATION, 0.0]),
            feature_bound=1.0,
        )
        return cls(problem)

    def features(self, horizon, rng):
        x = np.zeros((horizon, self.problem.dim))
        x[:, 0] = 1.0
        return x


def lower_bound_pair(horizon: int) -> tuple[float, float]:
    """The two noise scales (1, 1 - T^{-1/4}) of the indistinguishable pair."""
    if horizon <= 2:
        raise ValueError("horizon must exceed 2")
    return 1.0, 1.0 - horizon ** (-0.25)
