"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Shows that the oracle accepts the
program's answers and rejects wrong ones (a perturbed converged point,
the maximum at xi = 0 that fault F1 certifies, a flipped verdict, wrong
CLI exit codes and dump bits), then runs every workload for one round,
untraced and traced, and checks the printed result against the schema
and metric names of BENCHMARK.json.  Exits 1 on the first failed check.
"""

import copy
import json
import math
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from stefan import ProblemSpec  # noqa: E402


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def program_output(spec, grid=None):
    pspec = ProblemSpec(u=spec["u"], a=spec["a"], k=spec["k"], d=spec["d"])
    return worker.describe(worker.solve(pspec, grid))


def tag(verdict):
    return None if verdict is None else verdict[0]


def oracle_checks():
    grid = list(workloads.PROFILE_GRID)
    spec = workloads.convex_spec(np.random.default_rng(7), 3)
    good = program_output(spec, grid)
    expect(good["status"] == "Converged", "a small convex problem converges")
    expect(oracle.check_problem(spec, good, grid) is None, "oracle accepts the converged answer")

    bad = copy.deepcopy(good)
    bad["xi"][1] += 1e-6
    expect(tag(oracle.check_problem(spec, bad, grid)) == "other", "oracle rejects a perturbed xi")

    bad = copy.deepcopy(good)
    bad["profile"][64] += 1e-9
    expect(tag(oracle.check_problem(spec, bad, grid)) == "other", "oracle rejects a wrong profile sample")

    bad = copy.deepcopy(good)
    bad["report"]["coercive"] = False
    expect(tag(oracle.check_problem(spec, bad, grid)) == "other", "oracle rejects a flipped verdict")

    noncoercive = workloads.noncoercive_spec(np.random.default_rng(7), 3)
    out = program_output(noncoercive)
    expect(oracle.check_problem(noncoercive, out, None) is None, "oracle accepts Diverged on non-coercive data")
    bad = copy.deepcopy(out)
    bad["report"]["coercive"] = True
    expect(tag(oracle.check_problem(noncoercive, bad, None)) == "other", "oracle rejects a flipped non-coercive verdict")

    saddle = {"u": [-1.0, 0.0, 1.0], "a": [1.0, 1.0], "k": [1.0, 1.0], "d": [-1.5]}
    out = program_output(saddle)
    expect(tag(oracle.check_problem(saddle, out, None)) == "F1", "oracle tags F1's maximum at xi = 0")
    expect(oracle.Problem(saddle).local_min_drops(np.array([0.0])) > 1.0, "xi = 0 fails the local-minimum probe")

    stalled = dict(good, status="MaxIterations", xi=None, iterations=15)
    expect(tag(oracle.check_problem(spec, stalled, grid)) == "F2", "oracle tags a stall as F2")
    expect(tag(oracle.check_problem(spec, {"error": "boom"}, grid)) == "other", "oracle rejects a raised error")


def cli_checks(workdir):
    spawner = run.Spawner(workdir)
    try:
        configs = [os.path.join("configs", name) for name in workloads.PACKAGED_CONFIGS]
        two_phase, supercooled, missing = configs
        tally = run.Tally()
        for call in workloads.cli_round(configs, workdir):
            run.run_cli_call(spawner, call, tally)
        expect(tally.failed == {"F1": 2, "F2": 0, "other": 0}, "cli: only solve and profile of the supercooled config fail, as F1")

        _, code, _ = spawner.run(["-m", "stefan", "check", two_phase])
        stdout, stderr = spawner.read()
        expect(oracle.check_cli("check", two_phase, code, stdout, stderr) is None, "cli oracle accepts check")
        expect(tag(oracle.check_cli("check", two_phase, 2, stdout, stderr)) == "other", "cli oracle rejects a wrong exit code")

        _, code, _ = spawner.run(["-m", "stefan", "dump", two_phase])
        stdout, stderr = spawner.read()
        expect(oracle.check_cli("dump", two_phase, code, stdout, stderr) is None, "cli oracle accepts dump")
        flipped = stdout.replace("-0.4", "-0.4000000000000001")
        expect(tag(oracle.check_cli("dump", two_phase, code, flipped, stderr)) == "other", "cli oracle rejects changed dump bits")

        _, code, _ = spawner.run(["-m", "stefan", "solve", missing])
        stdout, stderr = spawner.read()
        expect(oracle.check_cli("solve", missing, code, stdout, stderr) is None, "cli oracle accepts exit 1 naming the missing key")
        expect(tag(oracle.check_cli("solve", missing, code, stdout, "error")) == "other", "cli oracle wants the missing key named")

        _, code, _ = spawner.run(["-m", "stefan", "check", supercooled])
        stdout, stderr = spawner.read()
        expect(oracle.check_cli("check", supercooled, code, stdout, stderr) is None, "cli oracle accepts check exit 2")
    finally:
        spawner.close()


def schema_checks():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect([w["name"] for w in bench["workloads"]] == list(run.SETTINGS), "BENCHMARK.json lists the workloads")
    for name in run.SETTINGS:
        for trace in (0, 1):
            tally, metrics, _ = run.run_workload(name, seed=1, seconds=0, trace=trace, min_rounds=1)
            line = json.loads(json.dumps(run.result_line(tally, metrics)))
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace {trace}: result keys")
            expect(line["correct"] is True and line["attempted"] >= 1, f"{name} trace {trace}: correct, attempted {line['attempted']}")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace {trace}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(m["value"], float) and math.isfinite(m["value"]) for m in line["metrics"].values()),
                   f"{name} trace {trace}: every value is a finite number")


def main():
    oracle_checks()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        cli_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    schema_checks()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
