"""Per-layer metrics from a span file written by ``tracer.Tracer.dump``.

A span's self time is its duration minus the durations of its direct
children; children never overlap, because the program is single
threaded.  Every ratio is over the traced problems (root spans) or over
the calls it names.
"""

from __future__ import annotations

import numpy as np

# unit of every per-layer metric, in the order they are reported
UNITS = {
    "kernel.log_gap.calls_per_problem": "calls/problem",
    "kernel.log_gap.us_per_call": "us",
    "kernel.log_gap.tail_share": "share",
    "kernel.cdf.calls_per_problem": "calls/problem",
    "kernel.cdf.us_per_call": "us",
    "kernel.pdf.calls_per_problem": "calls/problem",
    "kernel.self_ms_per_problem": "ms",
    "energy.energy.calls_per_problem": "calls/problem",
    "energy.gradient.calls_per_problem": "calls/problem",
    "energy.hessian.calls_per_problem": "calls/problem",
    "energy.self_ms_per_problem": "ms",
    "energy.check_wellposedness.us_per_call": "us",
    "optimize.iterations_per_problem": "iters/problem",
    "optimize.log_gap_per_strip_iteration": "calls/strip-iter",
    "optimize.newton_step.self_ms_per_call": "ms",
    "optimize.line_search.trials_per_iteration": "trials/iter",
    "optimize.line_search.accept_ratio": "ratio",
    "optimize.minimize.self_ms_per_problem": "ms",
    "optimize.minimize.converged_ms": "ms",
    "optimize.minimize.diverged_ms": "ms",
    "solution.assemble.ms_per_problem": "ms",
    "solution.validate.ms_per_problem": "ms",
    "solution.evaluate_profile.us_per_point": "us",
    "cli.import_ms": "ms",
    "cli.check_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.profile_ms": "ms",
    "cli.dump_ms": "ms",
    "trace.overhead_problems_per_s": "problems/s",
}

KERNEL = ("kernel.cdf", "kernel.pdf", "kernel.log_pdf", "kernel.log_gap")
ENERGY = ("energy.energy", "energy.gradient", "energy.hessian_parts", "energy.hessian")


def merge(traces):
    """One trace from several (one per traced process), parents re-indexed."""
    out = {"names": traces[0]["names"], "name": [], "parent": [], "start_ns": [],
           "end_ns": [], "extra": {}, "log_gap_tail_calls": 0}
    for tr in traces:
        base = len(out["name"])
        out["name"] += tr["name"]
        out["parent"] += [p + base if p >= 0 else -1 for p in tr["parent"]]
        out["start_ns"] += tr["start_ns"]
        out["end_ns"] += tr["end_ns"]
        out["extra"].update({str(int(k) + base): v for k, v in tr["extra"].items()})
        out["log_gap_tail_calls"] += tr["log_gap_tail_calls"]
    return out


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(trace):
    names = trace["names"]
    ids = {name: i for i, name in enumerate(names)}
    name = np.asarray(trace["name"], dtype=np.int64)
    parent = np.asarray(trace["parent"], dtype=np.int64)
    dur = np.asarray(trace["end_ns"], dtype=np.int64) - np.asarray(trace["start_ns"], dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    self_ns = dur - child

    minimize_id = ids["optimize.minimize"]
    under_minimize = np.zeros(len(name), dtype=bool)
    up = parent.copy()
    while np.any(up >= 0):
        live = up >= 0
        under_minimize[live] |= name[up[live]] == minimize_id
        up[live] = parent[up[live]]

    def mask(*span_names):
        return np.isin(name, [ids[s] for s in span_names])

    def calls(*span_names):
        return int(np.count_nonzero(mask(*span_names)))

    def total(values, *span_names):
        return float(values[mask(*span_names)].sum())

    problems = calls("problem")
    minimize_idx = np.flatnonzero(name == minimize_id)
    infos = [trace["extra"][str(i)] for i in minimize_idx]  # [n, iterations, status]
    iterations = sum(info[1] for info in infos)
    strip_iterations = sum((info[0] + 1) * info[1] for info in infos)
    by_status = {}
    for i, info in zip(minimize_idx, infos):
        by_status.setdefault(info[2], []).append(dur[i] / 1e6)
    trials = int(np.count_nonzero(
        (name == ids["energy.energy"]) & has_parent & (name[np.maximum(parent, 0)] == minimize_id)
    )) - len(minimize_idx)
    log_gap_calls = calls("kernel.log_gap")

    def per_call_us(span):
        return _ratio(total(dur, span), calls(span)) / 1e3

    return {
        "kernel.log_gap.calls_per_problem": _ratio(log_gap_calls, problems),
        "kernel.log_gap.us_per_call": per_call_us("kernel.log_gap"),
        "kernel.log_gap.tail_share": _ratio(trace["log_gap_tail_calls"], log_gap_calls),
        "kernel.cdf.calls_per_problem": _ratio(calls("kernel.cdf"), problems),
        "kernel.cdf.us_per_call": per_call_us("kernel.cdf"),
        "kernel.pdf.calls_per_problem": _ratio(calls("kernel.pdf", "kernel.log_pdf"), problems),
        "kernel.self_ms_per_problem": _ratio(total(self_ns, *KERNEL), problems) / 1e6,
        "energy.energy.calls_per_problem": _ratio(calls("energy.energy"), problems),
        "energy.gradient.calls_per_problem": _ratio(calls("energy.gradient"), problems),
        "energy.hessian.calls_per_problem": _ratio(calls("energy.hessian"), problems),
        "energy.self_ms_per_problem": _ratio(total(self_ns, *ENERGY), problems) / 1e6,
        "energy.check_wellposedness.us_per_call": per_call_us("energy.check_wellposedness"),
        "optimize.iterations_per_problem": _ratio(iterations, problems),
        "optimize.log_gap_per_strip_iteration": _ratio(
            np.count_nonzero((name == ids["kernel.log_gap"]) & under_minimize), strip_iterations
        ),
        "optimize.newton_step.self_ms_per_call": _ratio(
            total(self_ns, "optimize.newton_step"), calls("optimize.newton_step")
        ) / 1e6,
        "optimize.line_search.trials_per_iteration": _ratio(trials, iterations),
        "optimize.line_search.accept_ratio": _ratio(iterations, trials),
        "optimize.minimize.self_ms_per_problem": _ratio(
            total(self_ns, "optimize.minimize"), problems
        ) / 1e6,
        "optimize.minimize.converged_ms": float(np.median(by_status.get("Converged", [0.0]))),
        "optimize.minimize.diverged_ms": float(np.median(by_status.get("Diverged", [0.0]))),
        "solution.assemble.ms_per_problem": _ratio(total(dur, "solution.assemble"), problems) / 1e6,
        "solution.validate.ms_per_problem": _ratio(total(dur, "solution.validate"), problems) / 1e6,
        "solution.evaluate_profile.us_per_point": per_call_us("solution.evaluate_profile"),
    }
