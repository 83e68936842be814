"""Program process of the in-process workloads.

    python3 perfbench/worker.py INPUT OUTPUT [--seconds S] [--min-rounds R]
                                [--traced-seconds T --spans FILE]

INPUT holds the generated specs and the profile grid (or null).  After
one untimed warm-up round the worker runs whole rounds of the specs,
one problem at a time, until S seconds have passed and at least R
rounds are done; with --spans it then runs traced rounds for T seconds
(at least one) and writes the spans to FILE.  Each problem is
check_wellposedness -> minimize -> assemble -> validate(33), then
evaluate_profile on the grid for converged problems when a grid is
given.  After each problem, outside its timing, the worker times one
call of ``reference.work()``, which shows how fast the host runs at that
moment.  OUTPUT gets per-phase latencies and reference times and every
distinct output of each problem with the number of times it was
produced; the benchmark process checks those against the oracle.

Only the standard library is imported before ``stefan``.
"""

import argparse
import json
import sys
import time

import stefan

import reference
import tracer as tracing

VALIDATE_SAMPLES = 33
# Traced rounds stop early once this many spans are held in memory.
SPAN_CAP = 400_000


def solve(spec, grid):
    """The timed pipeline for one problem; returns the program's objects,
    or the exception it raised."""
    try:
        return pipeline(spec, grid)
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        return exc


def pipeline(spec, grid):
    report = stefan.check_wellposedness(spec)
    result = stefan.minimize(spec)
    if result.status is not stefan.SolveStatus.CONVERGED:
        return report, result, None, None, None
    sol = stefan.assemble(spec, result.xi_star)
    residuals = stefan.validate(sol, VALIDATE_SAMPLES)
    samples = None
    if grid is not None:
        samples = (
            [stefan.evaluate_profile(sol, x) for x in grid],
            [stefan.evaluate_profile(sol, x) for x in sol.xi_star],
        )
    return report, result, sol, residuals, samples


def describe(produced):
    """Plain-data form of one pipeline output, built outside the timing."""
    if isinstance(produced, Exception):
        return {"error": f"{type(produced).__name__}: {produced}"}
    report, result, sol, residuals, samples = produced
    out = {
        "report": {
            "S_upper": list(report.S_upper),
            "S_lower": list(report.S_lower),
            "convexity_margins": list(report.convexity_margins),
            "coercive": report.coercive,
            "unique_solution_guaranteed": report.strictly_convex_sufficient,
        },
        "status": result.status.value,
        "iterations": result.iterations,
        "energy": result.energy_value,
        "xi": list(result.xi_star.xi) if result.xi_star is not None else None,
    }
    if sol is not None:
        if list(sol.xi_star) != out["xi"]:
            out["xi_assembled"] = list(sol.xi_star)
        out["validate"] = {
            "max_ode_residual": residuals.max_ode_residual,
            "max_stefan_residual": residuals.max_stefan_residual,
            "max_interface_jump": residuals.max_interface_jump,
            "samples": residuals.samples,
        }
    if samples is not None:
        out["profile"], out["at_fronts"] = samples
    return out


class Outputs:
    """Distinct outputs per problem slot, with how often each came back."""

    def __init__(self, slots):
        self.seen = [[] for _ in range(slots)]

    def add(self, slot, out):
        for entry in self.seen[slot]:
            if entry[0] == out:
                entry[1] += 1
                return
        self.seen[slot].append([out, 1])

    def dump(self):
        return [[slot, out, count] for slot, entries in enumerate(self.seen) for out, count in entries]


def run_rounds(specs, grid, outputs, seconds, min_rounds, tracer=None):
    latencies, refs = [], []
    rounds = 0
    began = time.perf_counter()
    while True:
        for slot, spec in enumerate(specs):
            t0 = time.perf_counter()
            if tracer is None:
                produced = solve(spec, grid)
            else:
                produced = tracer.root(lambda: solve(spec, grid))
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            refs.append(reference.timed())
            if outputs is not None:
                outputs.add(slot, describe(produced))
        rounds += 1
        if rounds < min_rounds:
            continue
        if time.perf_counter() - began >= seconds:
            break
        if tracer is not None and len(tracer) >= SPAN_CAP:
            break
    return {"rounds": rounds, "latencies": latencies, "refs": refs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    with open(args.input, encoding="utf-8") as fh:
        data = json.load(fh)
    grid = data["grid"]
    specs = [
        stefan.ProblemSpec(u=s["u"], a=s["a"], k=s["k"], d=s["d"]) for s in data["specs"]
    ]
    outputs = Outputs(len(specs))

    run_rounds(specs, grid, None, 0.0, 1)  # warm-up, not counted
    phases = {"plain": run_rounds(specs, grid, outputs, args.seconds, args.min_rounds)}
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phases["traced"] = run_rounds(
                specs, grid, outputs, args.traced_seconds, 1, tracer
            )
        finally:
            tracer.uninstall()
        tracer.dump(args.spans)

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({"phases": phases, "outputs": outputs.dump()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
