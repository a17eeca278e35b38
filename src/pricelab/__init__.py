"""pricelab: feature-based dynamic pricing with censored binary feedback.

A seller posts a price for each arriving feature vector and observes only
whether the customer bought.  This package provides the pricing machinery
(stable demand-curve evaluation, greedy pricing, sale-likelihood losses),
online policies with logarithmic-regret behavior plus an experts baseline,
simulated stochastic/adversarial/fixed-valuation markets, and a harness
that measures exact ex-ante regret with reproducible seeding.
"""

from .environments import (
    FIXED_VALUATION,
    AlternatingScenario,
    FixedValuationScenario,
    PricingProblem,
    Scenario,
    StochasticScenario,
    lower_bound_pair,
)
from .harness import (
    AggregateStats,
    RegretTrace,
    Transcript,
    aggregate,
    dyadic_checkpoints,
    episode_seed,
    fit_slope,
    run_episode,
    run_horizon_envelope,
)
from .loss import BatchObjective, MleResult, solve_mle
from .noise import GaussianNoise, LogisticNoise, NoiseModel
from .policies import EmlpPolicy, Exp4Policy, OnspPolicy, OraclePolicy, PricingPolicy, onsp_default_hyperparams
from .pricing import (
    AnalysisConstants,
    compute_constants,
    expected_reward,
    greedy_price,
    greedy_price_vec,
    price_cap,
)
from .regions import Ball, OrthantBall

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "AlternatingScenario",
    "AnalysisConstants",
    "Ball",
    "BatchObjective",
    "EmlpPolicy",
    "Exp4Policy",
    "FIXED_VALUATION",
    "FixedValuationScenario",
    "GaussianNoise",
    "LogisticNoise",
    "MleResult",
    "NoiseModel",
    "OnspPolicy",
    "OraclePolicy",
    "OrthantBall",
    "PricingPolicy",
    "PricingProblem",
    "RegretTrace",
    "Scenario",
    "StochasticScenario",
    "Transcript",
    "aggregate",
    "compute_constants",
    "dyadic_checkpoints",
    "episode_seed",
    "expected_reward",
    "fit_slope",
    "greedy_price",
    "greedy_price_vec",
    "lower_bound_pair",
    "onsp_default_hyperparams",
    "price_cap",
    "run_episode",
    "run_horizon_envelope",
    "solve_mle",
]
