"""Episode runner and regret measurement.

Regret is ex-ante: each round contributes
rho_t = g(J(u*_t), u*_t) - g(v_t, u*_t) computed analytically from the true
expected valuation u*_t = x_t'theta* and the environment's noise law - never
from realized payoffs.  J(u*_t) is the best price at every u*_t, a negative
one on a ``ball`` region included, so no increment is negative.  Cumulative regret is sampled at the dyadic
checkpoints 1, 2, 4, ..., and the final round; repetitions aggregate into
means with 95% Wald half-widths, and growth rates come from least squares on
(log2 t, log2 Reg(t)).

Randomness: an episode seed s expands as SeedSequence([s]) -> (environment
stream, policy stream); repetition r of a run with master seed m uses
episode seed derived from SeedSequence([m, r]).  Everything downstream is a
pure function of those integers, so repetitions can run in any order or in
parallel without changing results.

One loop, in ``run_episode``, plays every policy: it asks the policy how
many rounds it can price without feedback (``frozen_rounds``) and hands it
those rows with ``sell``, which takes the block's prices and returns its
sale outcomes, a sale when the price is at most x'theta* + noise.  A block
of one row is sold on Python scalars, and its outcome is one of two shared
one-element arrays, which are read-only.

The episode is played BLOCK = 2^16 rounds at a time, so its memory is its
transcript and increments (33 bytes a round at d = 2) plus one block's
working arrays, whatever the horizon.  The features are drawn up front;
each block then draws its noise, forms u* and the reservations, plays the
policy with every policy block cut at the block's end, and evaluates its
regret increments.  Reg(t) is one sequential sum carried from block to
block.  Every draw, row and sum is that of one block the episode's length:
where the blocks end shows in no output.

The episode's contract is checked here, once: the scenario's features
before the policy is reset (a finite (horizon, d) array with x >= 0 and
||x|| <= B2, else ValueError), and in ``sell`` each block's
prices (one per row, each in [0, V_max], else EpisodeAbort at the round of
the first offending price).  A policy that can price no round, or sells a
block twice or not at all, aborts at the block's first round, and so does
any other RuntimeError of the policy, such as a solver's InvariantViolation.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .environments import BLOCK, Scenario
from .loss import BatchObjective
from .policies import EmlpPolicy, PricingPolicy, valuations
from .pricing import expected_reward, greedy_price_vec

__all__ = [
    "Transcript",
    "RegretTrace",
    "AggregateStats",
    "SlopeFit",
    "EpisodeAbort",
    "dyadic_checkpoints",
    "episode_seed",
    "run_episode",
    "run_horizon_envelope",
    "aggregate",
    "fit_slope",
    "emlp_epoch_gaps",
    "write_trace_csv",
    "write_summary_json",
]


class EpisodeAbort(RuntimeError):
    """A policy violated the episode contract (e.g. priced outside [0, V_max]) or failed in a round."""


@dataclass
class Transcript:
    """Everything the policy saw and did: (x_t, v_t, sale_t) for all rounds."""

    features: np.ndarray
    prices: np.ndarray
    accepted: np.ndarray


@dataclass
class RegretTrace:
    """Per-round regret increments plus dyadic-checkpoint summaries.

    ``increments`` is None for horizon-envelope traces (one final regret per
    sub-run, no single per-round sequence exists).
    """

    increments: np.ndarray | None
    checkpoints: np.ndarray
    cumulative: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    @property
    def over_log(self) -> np.ndarray:
        """Reg(t)/ln t at each checkpoint, NaN at t=1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.checkpoints >= 2, self.cumulative / np.log(self.checkpoints), np.nan)


@dataclass
class AggregateStats:
    """Across-repetition means and 95% Wald half-widths per checkpoint."""

    checkpoints: np.ndarray
    mean: np.ndarray
    halfwidth: np.ndarray | None  # None when a single repetition was run
    mean_over_log: np.ndarray
    halfwidth_over_log: np.ndarray | None
    repetitions: int


@dataclass
class SlopeFit:
    slope: float
    stderr: float
    n_points: int


def dyadic_checkpoints(horizon: int) -> np.ndarray:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    powers = 2 ** np.arange(int(horizon).bit_length(), dtype=np.int64)
    return powers if powers[-1] == horizon else np.append(powers, horizon)


def episode_seed(master_seed: int, repetition: int) -> np.random.SeedSequence:
    """Documented splitting rule: SeedSequence([master_seed, repetition])."""
    return np.random.SeedSequence([int(master_seed), int(repetition)])


def _spawn(seed, n: int = 2) -> list[np.random.SeedSequence]:
    """n child streams of a seed (an integer s means SeedSequence([s])); an
    episode's two are its (environment, policy) streams.

    They are the first n children ``seed.spawn(n)`` would give, built
    without calling it: ``spawn`` advances the caller's SeedSequence, and a
    second run on the same object would get other streams.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence([int(seed)])
    return [
        np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size)
        for i in range(n)
    ]


# the outcome ``sell`` returns for a block of one row: shared, so read-only
_SALE, _MISS = np.array([True]), np.array([False])
_SALE.flags.writeable = _MISS.flags.writeable = False


def run_episode(policy: PricingPolicy, scenario: Scenario, horizon: int, seed) -> tuple[Transcript, RegretTrace]:
    """Play the four-step protocol for ``horizon`` rounds, BLOCK rounds at a time.

    The policy is reset here with its derived stream; identical
    (policy config, scenario, seed) inputs give bit-identical outputs.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    env_stream, policy_stream = _spawn(seed)
    env_rng = np.random.default_rng(env_stream)

    problem, model = scenario.problem, scenario.problem.model
    features = scenario.features(horizon, env_rng)
    if np.shape(features) != (horizon, problem.dim):
        raise ValueError(f"{scenario.name} features of shape {np.shape(features)}, not ({horizon}, {problem.dim})")
    for start in range(0, horizon, BLOCK):
        scenario.check_features(features[start : start + BLOCK])

    policy.reset(policy_stream)
    prices = np.empty(horizon)
    accepted = np.empty(horizon, dtype=bool)
    rho = np.empty(horizon)
    cps = dyadic_checkpoints(horizon)
    cumulative = np.empty(len(cps))
    regret = 0.0  # Reg before the block
    # the window's upper end, with room for the solver's rounding
    ceiling = policy.price_cap * (1.0 + 1e-9) + 1e-12
    t = stop = sold = 0  # the policy block's rounds t .. stop - 1 (from 0), and the rounds sold so far

    def sell(block: np.ndarray) -> np.ndarray:
        nonlocal sold
        if sold != t:
            raise EpisodeAbort(f"round {t + 1}: {policy.name} sold its block twice")
        if block.shape != (stop - t,):
            raise EpisodeAbort(f"round {t + 1}: {policy.name} sold {block.shape} prices for {stop - t} rounds")
        if stop - t == 1:  # one row, on Python scalars
            price = float(block[0])
            if not 0.0 <= price <= ceiling:  # a NaN fails every comparison
                raise EpisodeAbort(f"round {t + 1}: {policy.name} priced {block[0]} outside [0, {policy.price_cap}]")
            sale = price <= reservation[t - start]
            prices[t] = price
            accepted[t] = sale
            sold = stop
            return _SALE if sale else _MISS
        if not (block.min() >= 0.0 and block.max() <= ceiling):
            row = int(np.argmin((block >= 0.0) & (block <= ceiling)))
            raise EpisodeAbort(f"round {t + row + 1}: {policy.name} priced {block[row]} outside [0, {policy.price_cap}]")
        outcome = block <= reservation[t - start : stop - start]
        prices[t:stop] = block
        accepted[t:stop] = outcome
        sold = stop
        return outcome

    for start in range(0, horizon, BLOCK):  # the block's rounds start .. end - 1
        end = min(start + BLOCK, horizon)
        u_star = valuations(features[start:end], problem.theta_star)  # the oracle's rule, so its regret is exactly 0
        reservation = u_star + np.asarray(model.sample(env_rng, end - start))
        while t < end:
            stop = t + min(policy.frozen_rounds(), end - t)
            if stop <= t:
                raise EpisodeAbort(f"round {t + 1}: {policy.name} can price no round")
            try:
                policy.play_block(features[t:stop], sell)
            except EpisodeAbort:
                raise
            except RuntimeError as exc:
                raise EpisodeAbort(f"round {t + 1}: {exc}") from exc
            if sold == t:
                raise EpisodeAbort(f"round {t + 1}: {policy.name} did not sell its block")
            t = sold

        increments = rho[start:end]
        best = expected_reward(model, greedy_price_vec(model, u_star), u_star)
        np.subtract(best, expected_reward(model, prices[start:end], u_star), out=increments)
        if float(np.min(increments)) < -1e-12:
            raise EpisodeAbort("negative regret increment: comparator not optimal")
        # one sequential sum on from Reg before the block: the rounding of one cumsum over the episode
        running = np.cumsum(np.concatenate(([regret], increments)))
        inside = (cps > start) & (cps <= end)
        cumulative[inside] = running[cps[inside] - start]
        regret = float(running[-1])
        del best, running  # not held while the next block plays

    return Transcript(features, prices, accepted), RegretTrace(rho, cps, cumulative)


def run_horizon_envelope(
    policy_builder,
    scenario: Scenario,
    horizons,
    seed,
) -> RegretTrace:
    """Final regret of one independent run per horizon, as one trace.

    For policies that must know the horizon in advance (their grids scale
    with T), the growth law lives across horizons, not within a single run:
    ``policy_builder(T)`` makes the policy for horizon T, the sub-run plays
    exactly T rounds, and checkpoint T of the returned trace records that
    run's final regret.
    """
    horizons = np.asarray(sorted(int(t) for t in horizons))
    if horizons.size == 0 or horizons[0] < 1:
        raise ValueError("horizons must be positive")
    streams = _spawn(seed, len(horizons))
    finals = np.empty(len(horizons))
    for i, horizon in enumerate(horizons):
        policy = policy_builder(int(horizon))
        _, trace = run_episode(policy, scenario, int(horizon), streams[i])
        finals[i] = trace.total
    return RegretTrace(None, horizons, finals)


def aggregate(traces: list[RegretTrace]) -> AggregateStats:
    if not traces:
        raise ValueError("need at least one trace")
    cps = traces[0].checkpoints
    for tr in traces[1:]:
        if not np.array_equal(tr.checkpoints, cps):
            raise ValueError("checkpoint grids differ between traces")
    cum = np.stack([tr.cumulative for tr in traces])
    over = np.stack([tr.over_log for tr in traces])
    reps = len(traces)
    mean = cum.mean(axis=0)
    mean_over = over.mean(axis=0)
    if reps >= 2:
        hw = 1.96 * cum.std(axis=0, ddof=1) / np.sqrt(reps)
        hw_over = 1.96 * over.std(axis=0, ddof=1) / np.sqrt(reps)
    else:
        hw = hw_over = None
    return AggregateStats(cps, mean, hw, mean_over, hw_over, reps)


def fit_slope(source, window: tuple[float, float]) -> SlopeFit:
    """OLS slope of log2 value on log2 x over the points with x inside ``window``.

    ``source`` is an AggregateStats (x is the checkpoint t, value the mean
    regret), or an ``(x, values)`` pair holding any positive series, such as
    estimation error against sample size.
    Abscissae may repeat: each (x, value) pair is one observation.  Points
    with nonpositive value are excluded with a warning.  ``stderr`` is the
    usual OLS standard error of the slope, with n - 2 degrees of freedom.
    """
    if isinstance(source, AggregateStats):
        cps, values = source.checkpoints, source.mean
    else:
        cps, values = source
        cps, values = np.asarray(cps), np.asarray(values)
    lo, hi = window
    mask = (cps >= lo) & (cps <= hi)
    bad = mask & (values <= 0.0)
    if np.any(bad):
        warnings.warn(f"excluding {int(bad.sum())} nonpositive regret checkpoints from slope fit")
        mask &= values > 0.0
    if mask.sum() < 3:
        raise ValueError("need at least 3 positive checkpoints inside the window")
    lx = np.log2(cps[mask].astype(float))
    ly = np.log2(values[mask])
    n = lx.size
    vx = lx - lx.mean()
    slope = float(vx @ (ly - ly.mean()) / (vx @ vx))
    resid = ly - (ly.mean() + slope * vx)
    stderr = float(np.sqrt((resid @ resid) / max(n - 2, 1) / (vx @ vx)))
    return SlopeFit(slope, stderr, int(n))


def emlp_epoch_gaps(policy: EmlpPolicy, transcript: Transcript, theta_star) -> list[tuple[int, int, float]]:
    """Per-epoch surrogate gaps (k, tau_k, L_k(theta_k) - L_k(theta*)).

    L_k is the likelihood of epoch k's batch, rebuilt from the episode's
    transcript: round 1 is the bootstrap and epoch k covers rounds
    2^(k-1)+1 .. 2^k.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    out = []
    for record in policy.epoch_log:
        rows = slice(record.length, 2 * record.length)
        batch = BatchObjective(
            transcript.features[rows], transcript.prices[rows], transcript.accepted[rows], policy.model
        )
        gap = batch.value(record.theta_used) - batch.value(theta_star)
        out.append((record.index, record.length, float(gap)))
    return out


# -- file output ----------------------------------------------------------


def write_trace_csv(path, traces: list[RegretTrace], stats: AggregateStats) -> None:
    """One row per (repetition, checkpoint); aggregate columns only when R >= 2."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with_interval = stats.halfwidth is not None
    header = ["rep", "t", "regret_cum", "regret_over_logt"]
    if with_interval:
        header += ["mean", "wald_halfwidth"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rep, trace in enumerate(traces):
            normalized = trace.over_log
            for i, t in enumerate(trace.checkpoints):
                row = [
                    rep,
                    int(t),
                    f"{trace.cumulative[i]:.10g}",
                    "" if np.isnan(normalized[i]) else f"{normalized[i]:.10g}",
                ]
                if with_interval:
                    row += [f"{stats.mean[i]:.10g}", f"{stats.halfwidth[i]:.10g}"]
                writer.writerow(row)


def write_summary_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
