"""The benchmark's workloads: configs in pricelab's JSON schema.

Every workload is the reference problem of the paper's experiments (d=2,
B1=B2=1, Gaussian sigma=0.25, theta*=(0.5, 0.5), orthant-ball region) with
one (policy, scenario) pair, scaled down from the default config so that one
`run_experiments` call takes seconds.  This module imports nothing from
pricelab, so the set-up probe can time that import itself.
"""

from __future__ import annotations

import hashlib

REFERENCE_PROBLEM = {
    "dimension": 2,
    "parameter_radius": 1.0,
    "feature_bound": 1.0,
    "region": "orthant-ball",
    "noise": {"kind": "gaussian", "sigma": 0.25},
    "theta_star": [0.5, 0.5],
}

ONSP_TUNED = {"kind": "onsp", "gamma": 1.0, "epsilon": 1.0}

# name -> (horizon, repetitions, scenario, policy spec, cycle)
# A cycle lists the master-seed draws of its calls.  A run plays whole cycles,
# so the seeds it times do not depend on how fast the program is.  Draw 0
# played twice gives the same-seed check its second call.  EMLP plays every
# draw once: on rare master seeds solve_mle stalls for about 100 s on a tiny
# batch, and a second call on such a seed would stall again and push the run
# past its time limit.  A cycle takes about 24 s on the machine in README.md.
WORKLOADS = {
    # per-round path only: scalar greedy_price, point_gradient, the Woodbury
    # update and project_weighted; two repetitions for a lockstep engine to batch
    "onsp-adversarial": (8192, 2, "adversarial", ONSP_TUNED, (0, 0, 1, 2, 3, 4, 5, 6)),
    # epoch-boundary solve_mle calls over doubling batches do most of the work
    "emlp-stochastic": (16384, 2, "stochastic", {"kind": "emlp"}, (0, 1, 2, 3)),
    # one greedy_price_vec solve over the whole expert grid per round
    "exp4-envelope": (4096, 1, "stochastic", {"kind": "exp4", "horizon_cap": 4096}, (0, 0)),
}


def config_raw(workload: str, master_seed: int, horizon: int | None = None) -> dict:
    """The workload's config; ``horizon`` shrinks it (the self test's fast mode)."""
    default_horizon, reps, scenario, policy, _ = WORKLOADS[workload]
    horizon = default_horizon if horizon is None else horizon
    policy = dict(policy)
    if "horizon_cap" in policy:
        policy["horizon_cap"] = horizon
    return {
        "problem": dict(REFERENCE_PROBLEM),
        "horizon": horizon,
        "repetitions": reps,
        "master_seed": master_seed,
        "scenarios": [scenario],
        "policies": [policy],
        "slope_window": [1024, 65536],
        "output_dir": "results",
    }


def master_seed(seed: int, draw: int) -> int:
    """Master seed number ``draw`` of a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"pricelab-bench:{seed}:{draw}".encode()).digest()
    return int.from_bytes(digest[:4], "little")
