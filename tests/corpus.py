"""The parity corpus: every output of a fixed set of solves, in hex.

    python tests/corpus.py digest       # one sha256 per family
    python tests/corpus.py scoreboard   # how the fuzz draws end

Families:

  sweep-small  the benchmark's sweep-small rounds of seeds 0-9 (1280 solves)
  large-n      its large-n round of seed 0 (15 solves)
  fuzz         2000 coercive, strictly convex draws in a 10^+-3 box

Each solve is ``minimize``, then for a Converged result ``assemble``,
``validate(sol, 33)`` and ``evaluate_profile`` on the benchmark's
129-point grid.  It gives one line: the status, energy, grad_norm,
iterations, trace and fronts of the SolveResult, the ResidualReport and
the profile samples, every float as ``float.hex``, followed by the name
of the exception if a stage raised.  A family's digest is the sha256 of
its lines, so equal digests mean that no output moved by a bit.  The
bits come from the platform's libm, as those of ``test_bit_pins.py`` do.
``test_corpus.py`` holds each digest to a committed value.

The fuzz draw s takes rng = numpy.random.default_rng([s, 99]) and draws,
in this order: n in 1..6; du = 10^U(-3, 3) per phase, u = -1 + [0,
cumsum(du)]; a = 10^U(-1.5, 1.5); k = 10^U(-3, 3); and
d = -min(load_i, load_i+1) U(0, 1) / 2 with load = k du / a^2, so every
convexity margin is at least 0.  The scoreboard counts how its solves
end: Clean (Converged, max_stefan_residual <= 1e-10), an
``OverflowError`` from ``assemble``, a Stefan residual above 1e-10, and
MaxIterations; and, among the solves that assemble, those with a piece
whose two anchors disagree, |du - scale (cdf_hi - cdf_lo)| > 1e-6 du.
"""

import hashlib
import importlib.util
import os
import sys

import numpy as np

import stefan

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_loader = importlib.util.spec_from_file_location(
    "_corpus_workloads", os.path.join(_ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(workloads)

VALIDATE_SAMPLES = 33
FUZZ_DRAWS = 2000


def _problem(spec):
    return stefan.ProblemSpec(u=spec["u"], a=spec["a"], k=spec["k"], d=spec["d"])


def fuzz_spec(s):
    rng = np.random.default_rng([s, 99])
    n = int(rng.integers(1, 7))
    du = 10.0 ** rng.uniform(-3.0, 3.0, n + 1)
    u = -1.0 + np.concatenate(([0.0], np.cumsum(du)))
    a = 10.0 ** rng.uniform(-1.5, 1.5, n + 1)
    k = 10.0 ** rng.uniform(-3.0, 3.0, n + 1)
    load = k * du / a**2
    d = -0.5 * np.minimum(load[:-1], load[1:]) * rng.uniform(0.0, 1.0, n)
    return stefan.ProblemSpec(u=u.tolist(), a=a.tolist(), k=k.tolist(), d=d.tolist())


FAMILIES = {
    "sweep-small": lambda: [
        _problem(spec) for seed in range(10) for spec in workloads.sweep_small_round(seed)],
    "large-n": lambda: [_problem(spec) for spec in workloads.large_n_round(0)],
    "fuzz": lambda: [fuzz_spec(s) for s in range(FUZZ_DRAWS)],
}


def outcome(spec):
    """(result, sol, report, samples, error): each stage's output, None
    from the stage that raised on, whose exception is error."""
    result = sol = report = samples = error = None
    try:
        result = stefan.minimize(spec)
        if result.status is stefan.SolveStatus.CONVERGED:
            sol = stefan.assemble(spec, result.xi_star)
            report = stefan.validate(sol, VALIDATE_SAMPLES)
            samples = [stefan.evaluate_profile(sol, x) for x in workloads.PROFILE_GRID]
    except Exception as exc:  # the exception's name is part of the record
        error = exc
    return result, sol, report, samples, error


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def line(spec):
    """One solve's record, every float in hex."""
    result, _, report, samples, error = outcome(spec)
    fields = []
    if result is not None:
        fields += [
            result.status.value, _hex([result.energy_value, result.grad_norm]),
            str(result.iterations), ";".join(f"{r.iteration}:{_hex(r[1:])}" for r in result.trace),
            _hex(result.xi_star) if result.xi_star is not None else "-",
        ]
    if report is not None:
        fields += [_hex([report.max_ode_residual, report.max_stefan_residual,
                         report.max_interface_jump]), str(report.samples)]
    if samples is not None:
        fields.append(_hex(samples))
    if error is not None:
        fields.append(type(error).__name__)
    return " ".join(fields)


def digest(family):
    """The sha256 of a family's records, one line each."""
    h = hashlib.sha256()
    for spec in FAMILIES[family]():
        h.update(line(spec).encode() + b"\n")
    return h.hexdigest()


def _anchors_disagree(sol):
    return any(
        abs((p.u_hi - p.u_lo) - p.scale * (p.cdf_hi - p.cdf_lo)) > 1e-6 * (p.u_hi - p.u_lo)
        for p in sol.pieces
    )


def scoreboard(specs):
    """{outcome: count} over the solves of specs."""
    board = dict.fromkeys(("clean", "assemble OverflowError", "residual > 1e-10",
                           "MaxIterations", "other", "anchor failures"), 0)
    for spec in specs:
        result, sol, report, _, error = outcome(spec)
        if sol is not None and _anchors_disagree(sol):
            board["anchor failures"] += 1
        if error is None and report is not None:
            board["clean" if report.max_stefan_residual <= 1e-10 else "residual > 1e-10"] += 1
        elif isinstance(error, OverflowError) and result is not None and sol is None:
            board["assemble OverflowError"] += 1
        elif error is None and result.status is stefan.SolveStatus.MAX_ITERATIONS:
            board["MaxIterations"] += 1
        else:
            board["other"] += 1
    return board


def main(argv):
    if argv == ["digest"]:
        for family in FAMILIES:
            print(f"{family:12} {digest(family)}")
    elif argv == ["scoreboard"]:
        board = scoreboard(FAMILIES["fuzz"]())
        print("| Clean | `assemble` `OverflowError` | Residual > 1e-10 | `MaxIterations` "
              "| Other | Anchor failures |")
        print("|---|---|---|---|---|---|")
        print("| " + " | ".join(str(v) for v in board.values()) + " |")
    else:
        print("usage: python tests/corpus.py digest | scoreboard", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
