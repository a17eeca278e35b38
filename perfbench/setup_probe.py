"""Set-up probe: one fresh process doing what `pricelab run` does before its first round.

It imports pricelab, parses the workload's config and builds its scenarios
and policies, then prints ``ready``.  run.py times it from process start to
that line.  Usage: ``python3 perfbench/setup_probe.py WORKLOAD MASTER_SEED``.
"""

import sys
from pathlib import Path

import workloads


def main(workload: str, master_seed: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pricelab.cli import build_policy, build_scenario
    from pricelab.config import parse_config

    config = parse_config(workloads.config_raw(workload, master_seed))
    for spec in config.policies:
        for name in config.scenarios:
            build_scenario(name, config.problem)
            build_policy(spec, config.problem, config.effective_horizon(spec))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
