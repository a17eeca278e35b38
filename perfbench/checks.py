"""Output checks of the benchmark.

Each check compares pricelab's output with an independent computation or
with a property the method must have, never with a stored copy of an earlier
output.  Every check returns ``(name, passed, detail)``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import optimize, special
from scipy.stats import norm

REGRET_RTOL = 1e-9
REGRET_ATOL = 1e-13
SLOPE_CEILING = 0.5
# Reg(t)/t of T^(2/3) regret falls with log-log slope -1/3; linear regret gives 0
ENVELOPE_SLOPE_CEILING = -0.1
MLE_OBJECTIVE_TOL = 1e-9
ORACLE_TOL = 1e-9


def read_trace_csv(path) -> dict[int, dict[int, float]]:
    """rep -> {t: regret_cum} from one trace CSV."""
    out: dict[int, dict[int, float]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(int(row["rep"]), {})[int(row["t"])] = float(row["regret_cum"])
    return out


def greedy_price_reference(u: float, sigma: float) -> float:
    """J(u) as the root of 1 - F(v-u) - v f(v-u) by brentq.

    The root lies in [0, u + 10 sigma]: J(u) - u <= sigma * m(0) < 1.26 sigma.
    """

    def foc(v: float) -> float:
        z = (v - u) / sigma
        return special.ndtr(-z) - (v / sigma) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    return optimize.brentq(foc, 0.0, u + 10.0 * sigma, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def reference_regret(features, prices, theta_star, sigma: float) -> np.ndarray:
    """Per-round ex-ante regret g(J(u), u) - g(v, u) with g(v, u) = v (1 - F(v - u))."""
    u = np.asarray(features) @ np.asarray(theta_star)
    values, index = np.unique(u, return_inverse=True)
    best = np.array([greedy_price_reference(float(x), sigma) for x in values])[index]

    def reward(v):
        return v * norm.sf(v - u, scale=sigma)

    return reward(best) - reward(np.asarray(prices))


def check_regret(name: str, regret: np.ndarray, checkpoints, reported) -> tuple[str, bool, str]:
    """Cumulative reference regret against the reported values at each checkpoint."""
    cum = np.cumsum(regret)
    worst = 0.0
    for t in checkpoints:
        want, got = cum[t - 1], reported[t]
        if abs(got - want) > REGRET_RTOL * abs(want) + REGRET_ATOL:
            return name, False, f"t={t}: reported {got!r}, recomputed {want!r}"
        worst = max(worst, abs(got - want) / max(abs(want), REGRET_ATOL))
    return name, True, f"{len(checkpoints)} checkpoints, worst relative error {worst:.1e}"


def log_log_slope(points: dict[int, float], window) -> float:
    """OLS slope of log value on log t over the checkpoints inside ``window``."""
    ts = np.array([t for t in sorted(points) if window[0] <= t <= window[1]], dtype=float)
    values = np.array([points[int(t)] for t in ts])
    return float(np.polyfit(np.log(ts), np.log(values), 1)[0])


def repetition_mean(repetitions) -> dict[int, float]:
    """t -> mean regret over the given repetitions ({t: regret_cum} each)."""
    repetitions = list(repetitions)
    return {t: float(np.mean([rep[t] for rep in repetitions])) for t in repetitions[0]}


def check_slope(name: str, pair: dict, traces: dict[int, dict[int, float]]) -> tuple[str, bool, str]:
    """The summary's slope is the one its CSV gives, refitted from the repetition means."""
    slope = log_log_slope(repetition_mean(traces.values()), pair["slope_window"])
    ok = abs(slope - pair["slope"]) <= 1e-9
    return name, ok, f"summary slope {pair['slope']!r}, refitted from the CSV {slope!r}"


def check_growth(name: str, window, repetitions: list[dict[int, float]]) -> tuple[str, bool, str]:
    """Reg(t) grows slower than sqrt(t): the log-log slope of the mean over all repetitions is <= 0.5.

    The repetitions are those of every seed a run plays.  One call's slope,
    over a window of 4 checkpoints and 2 repetitions, is too noisy to gate
    alone: on one ONSP seed in about 180 it was 0.51.
    """
    slope = log_log_slope(repetition_mean(repetitions), window)
    detail = f"slope {slope:.3f} over {len(repetitions)} repetitions (ceiling {SLOPE_CEILING})"
    return name, slope <= SLOPE_CEILING, detail


def check_envelope(name: str, traces: dict[int, dict[int, float]]) -> tuple[str, bool, str]:
    """Reg(t)/t of the envelope falls along its horizons.

    Each horizon is an independent sub-run, so neighbouring horizons can trade
    places by chance; the check is on the trend, the log-log slope of the mean
    Reg(t)/t over all horizons.  It must be at most ENVELOPE_SLOPE_CEILING, so
    that linear regret (a flat Reg(t)/t, slope about 0 plus noise) fails.
    """
    mean = {t: regret / t for t, regret in repetition_mean(traces.values()).items()}
    if min(mean.values()) <= 0.0:
        return name, False, "nonpositive envelope regret"
    slope = log_log_slope(mean, (1, max(mean)))
    ok = slope <= ENVELOPE_SLOPE_CEILING
    return name, ok, f"trend of Reg(t)/t has log-log slope {slope:.3f} (ceiling {ENVELOPE_SLOPE_CEILING})"


def reference_nll(theta, features, prices, accepted, sigma: float) -> float:
    """Average negative log-likelihood of sale outcomes, written with scipy.stats.norm."""
    w = (prices - features @ theta) / sigma
    return float(-np.mean(np.where(accepted, norm.logsf(w), norm.logcdf(w))))


def _reference_nll_gradient(theta, features, prices, accepted, sigma: float) -> np.ndarray:
    w = (prices - features @ theta) / sigma
    log_pdf = norm.logpdf(w)
    scalars = np.where(accepted, -np.exp(log_pdf - norm.logsf(w)), np.exp(log_pdf - norm.logcdf(w)))
    return (scalars @ features) / (sigma * len(prices))


def reference_mle(features, prices, accepted, sigma: float, radius: float, start) -> np.ndarray:
    """Minimiser of the likelihood over the orthant ball by SLSQP."""
    args = (features, prices, accepted, sigma)
    result = optimize.minimize(
        reference_nll,
        np.asarray(start, dtype=float),
        args=args,
        jac=_reference_nll_gradient,
        method="SLSQP",
        bounds=[(0.0, radius)] * features.shape[1],
        constraints=[{"type": "ineq", "fun": lambda th: radius**2 - th @ th, "jac": lambda th: -2.0 * th}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return result.x


def emlp_refits(policy, transcript):
    """(rounds, warm start, fitted estimate) of every solve an EMLP episode made.

    Round 1 is the bootstrap, fitted from the region's interior point; epoch k
    then covers rounds 2^(k-1)+1 .. 2^k and is refitted from the estimate that
    priced it.  Only complete epochs were refitted.
    """
    log = policy.epoch_log
    fits = [(slice(0, 1), policy.region.interior_point(), log[0].theta_used if log else policy.theta)]
    for k, record in enumerate(log):
        start = 1 << (record.index - 1)
        if record.length != start:
            raise ValueError(f"epoch {record.index} has length {record.length}, not {start}")
        fitted = log[k + 1].theta_used if k + 1 < len(log) else policy.theta
        fits.append((slice(start, 2 * start), record.theta_used, fitted))
    return fits


def check_emlp_refit(name: str, transcript, rounds: slice, start, fitted, sigma, radius) -> tuple[str, bool, str]:
    """The EMLP estimate minimises the epoch's likelihood as well as SLSQP does."""
    data = (transcript.features[rounds], transcript.prices[rounds], transcript.accepted[rounds], sigma)
    reference = reference_mle(*data[:3], sigma, radius, start)
    got, want = reference_nll(np.asarray(fitted), *data), reference_nll(reference, *data)
    ok = abs(got - want) <= MLE_OBJECTIVE_TOL
    return name, ok, f"n={len(data[1])}: objective {got:.9f}, minus SLSQP's {got - want:.1e}"


def check_oracle(name: str, total: float) -> tuple[str, bool, str]:
    """Greedy pricing under the true parameter has zero regret."""
    return name, abs(total) <= ORACLE_TOL, f"oracle regret {total:.2e}"


def check_reproducible(name: str, first: Path, second: Path) -> tuple[str, bool, str]:
    """Two calls on one master seed write byte-identical outputs."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return name, False, "the two calls wrote different files"
    for file_name in names:
        if (first / file_name).read_bytes() != (second / file_name).read_bytes():
            return name, False, f"{file_name} differs between two calls on one seed"
    return name, True, f"{len(names)} files identical"
