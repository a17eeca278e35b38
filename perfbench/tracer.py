"""Span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: the tracer replaces
each public name with a wrapper where its caller resolves it, such as
``pricelab.policies.greedy_price`` for the policies and
``pricelab.harness.greedy_price_vec`` for the regret evaluation, and methods
on the class the caller looks them up on.  Each span has a name, a start, an
end, a parent and an element count; spans are kept in memory and turned
into per-layer metrics, and written out, when the run ends.  A call into the
noise layer from inside the noise layer is not a layer boundary and is not
recorded.  A name that no longer exists is reported as absent, and its
metrics read 0.
"""

from __future__ import annotations

import csv
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

NOISE_METHODS = (
    "cdf", "sf", "log_cdf", "log_sf", "log_pdf", "pdf", "pdf_derivative", "log_pdf_slope",
    "mills_ratio", "hazard", "hazard_detail", "reverse_hazard", "log_sf_curvature",
    "log_cdf_curvature", "sample", "_mills", "_mills_slope",
)  # fmt: skip

# (module, attribute, span name): functions replaced where their caller resolves them
FUNCTION_SITES = (
    ("pricelab.cli", "run_experiments", "cli.run_experiments"),
    ("pricelab.config", "parse_config", "config.parse"),
    ("pricelab.cli", "build_scenario", "config.build"),
    ("pricelab.cli", "build_policy", "config.build"),
    ("pricelab.cli", "run_episode", "harness.run_episode"),
    ("pricelab.harness", "run_episode", "harness.run_episode"),
    # no metric of their own: their spans keep harness work out of cli.run_experiments.self_s
    ("pricelab.cli", "aggregate", "harness.aggregate"),
    ("pricelab.cli", "fit_slope", "harness.fit_slope"),
    ("pricelab.cli", "write_trace_csv", "harness.output"),
    ("pricelab.cli", "write_summary_json", "harness.output"),
    ("pricelab.harness", "greedy_price_vec", "pricing.greedy_price_vec"),
    ("pricelab.harness", "expected_reward", "pricing.expected_reward"),
    ("pricelab.policies", "greedy_price", "pricing.greedy_price"),
    ("pricelab.policies", "greedy_price_vec", "pricing.greedy_price_vec"),
    ("pricelab.policies", "compute_constants", "pricing.compute_constants"),
    ("pricelab.loss", "compute_constants", "pricing.compute_constants"),
    ("pricelab.policies", "solve_mle", "loss.solve_mle"),
    ("pricelab.policies", "point_gradient", "loss.point_gradient"),
)

# (module, class, method, span name): methods replaced on the class callers look them up on
METHOD_SITES = (
    ("pricelab.policies", "PricingPolicy", "propose", "policies.propose"),
    ("pricelab.policies", "PricingPolicy", "feedback", "policies.feedback"),
    ("pricelab.loss", "BatchObjective", "value", "loss.batch"),
    ("pricelab.loss", "BatchObjective", "gradient", "loss.batch"),
    ("pricelab.regions", "OrthantBall", "project", "regions.project"),
    ("pricelab.regions", "OrthantBall", "project_weighted", "regions.project_weighted"),
    ("pricelab.environments", "StochasticScenario", "features", "environments.features"),
    ("pricelab.environments", "AlternatingScenario", "features", "environments.features"),
) + tuple(("pricelab.noise", "GaussianNoise", m, "noise") for m in NOISE_METHODS)

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "noise.calls": "count",
    "noise.scalar_calls": "count",
    "noise.elements": "count",
    "noise.self_s": "s",
    "noise.ns_per_element": "ns",
    "pricing.greedy_price.calls": "count",
    "pricing.greedy_price.us_per_call": "us",
    "pricing.greedy_price_vec.elements": "count",
    "pricing.greedy_price_vec.ns_per_element": "ns",
    "pricing.compute_constants.calls": "count",
    "pricing.compute_constants.self_s": "s",
    "loss.solve_mle.calls": "count",
    "loss.solve_mle.iterations": "count",
    "loss.solve_mle.nonconverged": "count",
    "loss.solve_mle.self_s": "s",
    "loss.solve_mle.us_per_iteration": "us",
    "loss.batch.evals": "count",
    "loss.batch.self_s": "s",
    "loss.point_gradient.calls": "count",
    "loss.point_gradient.us_per_call": "us",
    "loss.loss_points": "count",
    "regions.project_weighted.calls": "count",
    "regions.project_weighted.active": "count",
    "regions.project_weighted.active_share": "share",
    "regions.project_weighted.us_per_call": "us",
    "regions.project.calls": "count",
    "regions.project.self_s": "s",
    "policies.propose.self_us": "us",
    "policies.feedback.self_us": "us",
    "policies.emlp.switches": "count",
    "policies.exp4.experts": "count",
    "policies.exp4.clip_events": "count",
    "environments.features.self_s": "s",
    "harness.round_loop.self_us": "us",
    "harness.regret_eval.s": "s",
    "harness.output.s": "s",
    "harness.output.bytes": "bytes",
    "config.parse.s": "s",
    "config.build.s": "s",
    "cli.run_experiments.self_s": "s",
}


def _arg_size(args) -> tuple[int, bool]:
    """(elements, scalar) of the array argument of a noise or vector-pricing call."""
    if len(args) > 1 and isinstance(args[1], np.random.Generator):  # sample(rng, size)
        size = args[2] if len(args) > 2 else None
        return (1, True) if size is None else (int(np.prod(size)), False)
    arg = args[1] if len(args) > 1 else None
    return int(np.size(arg)), np.ndim(arg) == 0


class Tracer:
    """Records spans around pricelab's layer boundaries while ``enabled``."""

    def __init__(self):
        self.enabled = True
        self.absent: list[str] = []
        self.spans: list[tuple] = []  # (name, start, end, parent index, elements)
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(getattr(module, attr), span))
        for module_name, class_name, method, span in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            if cls is None or not hasattr(cls, method):
                self.absent.append(f"{module_name}.{class_name}.{method}")
                continue
            setattr(cls, method, self._wrap(getattr(cls, method), span))
        policies = importlib.import_module("pricelab.policies")
        if hasattr(policies, "LossPoint"):
            policies.LossPoint = self._counting(policies.LossPoint, "loss.loss_points")
        else:
            self.absent.append("pricelab.policies.LossPoint")

    def _counting(self, fn, key):
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counted = name in ("noise", "pricing.greedy_price_vec")
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            if not self.enabled or (name == "noise" and stack and spans[stack[-1]][0] == "noise"):
                return fn(*args, **kwargs)
            elements = 0
            if counted:
                elements, scalar = _arg_size(args)
                if scalar and name == "noise":
                    self.counts["noise.scalar_calls"] += 1
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, elements))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = spans[index][:1] + (start, end) + spans[index][3:]
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "elements"])
            for i, (name, start, end, parent, elements) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, elements])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        n = len(self.spans)
        names = [s[0] for s in self.spans]
        duration = np.array([s[2] - s[1] for s in self.spans], dtype=float)
        parents = np.array([s[3] for s in self.spans], dtype=int)
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_time = duration - covered

        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        elements: dict[str, int] = defaultdict(int)
        regret_eval = 0.0
        for i, name in enumerate(names):
            calls[name] += 1
            total[name] += duration[i]
            own[name] += self_time[i]
            elements[name] += self.spans[i][4]
            if name in ("pricing.greedy_price_vec", "pricing.expected_reward") and parents[i] >= 0:
                if names[parents[i]] == "harness.run_episode":
                    regret_eval += duration[i]

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        rounds = calls["policies.propose"]
        c = self.counts
        out = {
            "noise.calls": calls["noise"],
            "noise.scalar_calls": c["noise.scalar_calls"],
            "noise.elements": elements["noise"],
            "noise.self_s": own["noise"],
            "noise.ns_per_element": ratio(own["noise"], elements["noise"], 1e9),
            "pricing.greedy_price.calls": calls["pricing.greedy_price"],
            "pricing.greedy_price.us_per_call": ratio(total["pricing.greedy_price"], calls["pricing.greedy_price"], 1e6),
            "pricing.greedy_price_vec.elements": elements["pricing.greedy_price_vec"],
            "pricing.greedy_price_vec.ns_per_element": ratio(
                total["pricing.greedy_price_vec"], elements["pricing.greedy_price_vec"], 1e9
            ),
            "pricing.compute_constants.calls": calls["pricing.compute_constants"],
            "pricing.compute_constants.self_s": own["pricing.compute_constants"],
            "loss.solve_mle.calls": calls["loss.solve_mle"],
            "loss.solve_mle.iterations": c["loss.solve_mle.iterations"],
            "loss.solve_mle.nonconverged": c["loss.solve_mle.nonconverged"],
            "loss.solve_mle.self_s": own["loss.solve_mle"],
            "loss.solve_mle.us_per_iteration": ratio(total["loss.solve_mle"], c["loss.solve_mle.iterations"], 1e6),
            "loss.batch.evals": calls["loss.batch"],
            "loss.batch.self_s": own["loss.batch"],
            "loss.point_gradient.calls": calls["loss.point_gradient"],
            "loss.point_gradient.us_per_call": ratio(total["loss.point_gradient"], calls["loss.point_gradient"], 1e6),
            "loss.loss_points": c["loss.loss_points"],
            "regions.project_weighted.calls": calls["regions.project_weighted"],
            "regions.project_weighted.active": c["regions.project_weighted.active"],
            "regions.project_weighted.active_share": ratio(
                c["regions.project_weighted.active"], calls["regions.project_weighted"], 1.0
            ),
            "regions.project_weighted.us_per_call": ratio(
                total["regions.project_weighted"], calls["regions.project_weighted"], 1e6
            ),
            "regions.project.calls": calls["regions.project"],
            "regions.project.self_s": own["regions.project"],
            "policies.propose.self_us": ratio(own["policies.propose"], rounds, 1e6),
            "policies.feedback.self_us": ratio(own["policies.feedback"], rounds, 1e6),
            "policies.emlp.switches": c["policies.emlp.switches"],
            "policies.exp4.experts": c["policies.exp4.experts"],
            "policies.exp4.clip_events": c["policies.exp4.clip_events"],
            "environments.features.self_s": own["environments.features"],
            "harness.round_loop.self_us": ratio(own["harness.run_episode"], rounds, 1e6),
            "harness.regret_eval.s": regret_eval,
            "harness.output.s": total["harness.output"],
            "harness.output.bytes": c["harness.output.bytes"],
            "config.parse.s": total["config.parse"],
            "config.build.s": total["config.build"],
            "cli.run_experiments.self_s": own["cli.run_experiments"],
        }
        return {k: float(v) for k, v in out.items()}


# -- counts taken from a call's arguments and result --------------------------


def _after_solve(counts, args, result) -> None:
    counts["loss.solve_mle.iterations"] += result.iterations
    counts["loss.solve_mle.nonconverged"] += 0 if result.converged else 1


def _after_project_weighted(counts, args, result) -> None:
    # an inactive projection returns a copy of its input
    if not np.array_equal(result, np.asarray(args[1], dtype=float)):
        counts["regions.project_weighted.active"] += 1


def _after_episode(counts, args, result) -> None:
    policy = args[0]
    if hasattr(policy, "switch_count"):
        counts["policies.emlp.switches"] += policy.switch_count
    if hasattr(policy, "experts"):
        counts["policies.exp4.experts"] = max(counts["policies.exp4.experts"], len(policy.experts))
        counts["policies.exp4.clip_events"] += policy.clip_events


def _after_output(counts, args, result) -> None:
    counts["harness.output.bytes"] += Path(args[0]).stat().st_size


_AFTER = {
    "loss.solve_mle": _after_solve,
    "regions.project_weighted": _after_project_weighted,
    "harness.run_episode": _after_episode,
    "harness.output": _after_output,
}
