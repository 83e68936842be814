"""Benchmark of the stefan solver: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload sweep-small|large-n|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is ``src/stefan`` of that
checkout, run in child processes with PYTHONPATH=src, one problem at a
time (a closed loop with one caller).  With ``--trace 0`` a run prints
the end-to-end metrics, with ``--trace 1`` the per-layer ones from a
traced run; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
reported at a reference speed of the host (see ``reference.py``).  Every
program output is checked by ``oracle.py``, which shares no code with
stefan.  A record of the run (failures by tag, Python and numpy
versions, nproc, wall-clock figures) is written under
``.bench_build/perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import layers
import oracle
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class BenchError(RuntimeError):
    """The benchmark could not run to its end."""


# Whole rounds a run attempts at least, and the latency_tail_ms percentile:
# the highest one with at least ten attempted problems beyond it at that
# count, moved down where needed so that it falls between two problems of
# the same kind rather than between two kinds.
SETTINGS = {
    "sweep-small": {"min_rounds": 8, "tail": 99},  # >= 1024 problems
    "large-n": {"min_rounds": 14, "tail": 95},  # >= 210 problems
    "cli": {"min_rounds": 4, "tail": 88},  # >= 96 processes
}
# fresh `import stefan` processes timed before and again after the rounds
SETUP_SAMPLES = 6
CLI_PROBE_REPEATS = 3

END_TO_END_UNITS = {
    "problems_per_s": "problems/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNITS = {**END_TO_END_UNITS, **layers.UNITS}
# Reference samples on each side of a problem that give the host's speed
# at the time of that problem (see at_reference_speed).
REF_WINDOW = 8


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def program_env():
    """Environment of every program process: the checkout's source tree,
    and single-threaded BLAS, since the loop has one caller on 2 cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Runs one Python process at a time, through launcher.py, with stdout
    and stderr in files of workdir."""

    def __init__(self, workdir):
        self.out = os.path.join(workdir, "stdout")
        self.err = os.path.join(workdir, "stderr")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=program_env(), text=True,
        )

    def close(self):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.terminate()
            self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, argv):
        """(wall seconds, exit code, peak RSS in MB) of `python3 argv...`."""
        request = {"argv": argv, "out": self.out, "err": self.err}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("launcher.py stopped")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["rss_mb"]

    def read(self):
        with open(self.out, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(self.err, encoding="utf-8") as fh:
            return stdout, fh.read()

    def timed(self, argv, repeats):
        """Wall seconds of `repeats` runs that must all exit 0."""
        times = []
        for _ in range(repeats):
            wall, code, _ = self.run(argv)
            if code != 0:
                raise BenchError(f"python3 {' '.join(argv)} exited {code}: {self.read()[1][-2000:]}")
            times.append(wall)
        return times


IMPORT = ["-c", "import stefan"]
BARE = ["-c", "pass"]


def setup_samples(spawner):
    """Wall times of SETUP_SAMPLES fresh `import stefan` processes, each
    followed by a bare interpreter: (import times, bare times)."""
    spawner.timed(IMPORT, 1)  # fills the bytecode and page caches
    full, bare = [], []
    for _ in range(SETUP_SAMPLES):
        full += spawner.timed(IMPORT, 1)
        bare += spawner.timed(BARE, 1)
    return full, bare


def setup_metric(before, after):
    """(setup_s at the start reference speed, setup_s in wall time): the
    median of the import times before and after the rounds."""
    at_speed = [
        t for full, bare in (before, after)
        for t in at_reference_speed(full, bare, reference.START_NOMINAL_S)
    ]
    return statistics.median(at_speed), statistics.median(before[0] + after[0])


def import_ms(spawner):
    """A fresh `import stefan` minus a bare interpreter, median of each, in ms."""
    full, bare = setup_samples(spawner)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class Tally:
    """Attempted problems and failures by tag (F1, F2, other)."""

    def __init__(self):
        self.attempted = 0
        self.failed = {"F1": 0, "F2": 0, "other": 0}
        self.reasons = []
        self.errors = []

    def add(self, verdict, count=1):
        self.attempted += count
        if verdict is not None:
            tag, reason = verdict
            self.failed[tag] += count
            if reason not in self.reasons and len(self.reasons) < 20:
                self.reasons.append(reason)

    def error(self, reason):
        """A wrong output outside the counted problems."""
        self.errors.append(reason)

    @property
    def ok_share(self):
        return 1.0 - sum(self.failed.values()) / self.attempted

    @property
    def correct(self):
        return self.failed["other"] == 0 and not self.errors


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_times(latencies, slots):
    """Median wall time of each problem of the round over its repetitions.

    Repetitions of a problem do identical work with identical output; what
    varies between them is interference from other tenants of the machine,
    which slows a process by up to 2x for seconds at a time.  The median
    ignores the repetitions such a burst hits, where a percentile over
    every attempt follows them: one burst moved the p99 of a sweep-small
    run from 12 to 25 ms.  The least time is no steadier either: it
    follows the rare moments when the host runs fast.  Over seven large-n
    runs it gave 19.7-32.3 problems/s where the median gave 15.9-17.8.
    """
    return [statistics.median(latencies[i::slots]) for i in range(slots)]


def at_reference_speed(latencies, refs, nominal):
    """Each wall time of `latencies` at the speed of the host at which the
    reference of `refs` takes `nominal` seconds.

    refs[j] is a reference time taken just after latencies[j]; each time
    is divided by the median of the 2 * REF_WINDOW + 1 reference times
    around it.  The host's speed swings by up to 2x between runs a few
    minutes apart, which the median over a run cannot remove: ten 30 s
    large-n runs in a row spread by 0.52 (IQR/median) in wall-clock
    problems_per_s, and ten cli runs by 0.21.  Cut into 20 s windows, a
    240 s large-n run ranged 85% in wall-clock problems_per_s and 5% at
    the reference speed; CLI process times in a 220 s run had an IQR of
    17% over such windows, and 3% at the speed of a bare interpreter.
    """
    return [
        t * nominal / statistics.median(refs[max(0, j - REF_WINDOW):j + REF_WINDOW + 1])
        for j, t in enumerate(latencies)
    ]


def at_cpu_speed(phase):
    """Wall times of an in-process phase at the host speed at which one
    `reference.work()` call takes NOMINAL_S."""
    return at_reference_speed(phase["latencies"], phase["refs"], reference.NOMINAL_S)


def throughput(tally, times):
    """Problems carried to a verified answer per second of timed wall time,
    for a round timed by its problems' median times."""
    return tally.ok_share * len(times) / sum(times)


def end_to_end(tally, times, tail, setup_s, rss_mb):
    return {
        "problems_per_s": throughput(tally, times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": percentile(times, tail) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_inprocess(name, seed, seconds, trace, workdir, spawner, min_rounds):
    if name == "sweep-small":
        specs, grid = workloads.sweep_small_round(seed), list(workloads.PROFILE_GRID)
    else:
        specs, grid = workloads.large_n_round(seed), None
    inp, outp = os.path.join(workdir, "specs.json"), os.path.join(workdir, "outputs.json")
    with open(inp, "w", encoding="utf-8") as fh:
        json.dump({"specs": specs, "grid": grid}, fh)
    spans = os.path.join(OUT_DIR, f"trace-{name}.json")
    argv = [os.path.join(HERE, "worker.py"), inp, outp]
    if trace:
        argv += ["--seconds", str(seconds / 2), "--traced-seconds", str(seconds / 2), "--spans", spans]
    else:
        argv += ["--seconds", str(seconds), "--min-rounds", str(min_rounds)]
    before = None if trace else setup_samples(spawner)
    _, code, rss_mb = spawner.run(argv)
    if code != 0:
        raise BenchError(f"worker exited {code}: {spawner.read()[1][-3000:]}")
    with open(outp, encoding="utf-8") as fh:
        data = json.load(fh)

    tally = Tally()
    for slot, out, count in data["outputs"]:
        tally.add(oracle.check_problem(specs[slot], out, grid), count)
    phase = data["phases"]["plain"]
    plain = median_times(at_cpu_speed(phase), len(specs))
    if not trace:
        setup_s, setup_wall = setup_metric(before, setup_samples(spawner))
        tail = SETTINGS[name]["tail"]
        wall = end_to_end(tally, median_times(phase["latencies"], len(specs)), tail, setup_wall, rss_mb)
        wall["reference_ms"] = statistics.median(phase["refs"]) * 1e3
        return tally, end_to_end(tally, plain, tail, setup_s, rss_mb), wall

    with open(spans, encoding="utf-8") as fh:
        metrics = layers.layer_metrics(json.load(fh))
    traced = median_times(at_cpu_speed(data["phases"]["traced"]), len(specs))
    metrics["trace.overhead_problems_per_s"] = throughput(tally, plain) - throughput(tally, traced)
    metrics.update(cli_probe(spawner, workdir, tally))
    return tally, metrics, None


def run_cli_call(spawner, call, tally, spans=None):
    """One CLI process, checked; returns (wall seconds, peak RSS MB, stdout)."""
    sub, argv, outdir = call
    if spans is None:
        full = ["-m", "stefan", *argv]
    else:
        full = [os.path.join(HERE, "traced_cli.py"), spans, *argv]
    wall, code, rss_mb = spawner.run(full)
    stdout, stderr = spawner.read()
    tally.add(oracle.check_cli(sub, argv[1], code, stdout, stderr, outdir, workloads.CLI_PROFILE))
    return wall, rss_mb, stdout


def check_dump_roundtrip(spawner, workdir, path, dumped, tally):
    """`dump` of a dumped config must print the same text again."""
    again = os.path.join(workdir, "redump.json")
    with open(again, "w", encoding="utf-8") as fh:
        fh.write(dumped)
    _, code, _ = spawner.run(["-m", "stefan", "dump", again])
    if code != 0 or spawner.read()[0] != dumped:
        tally.error(f"dump of the dump of {os.path.basename(path)} differs")


def cli_probe(spawner, workdir, tally):
    """cli.* layer metrics for workloads that start no CLI processes: each
    subcommand on the packaged two-phase config, median of a few runs."""
    configs = [os.path.join(ROOT, "configs", workloads.PACKAGED_CONFIGS[0])]
    probe = Tally()
    times = {}
    for call in workloads.cli_round(configs, workdir):
        times[call[0]] = [run_cli_call(spawner, call, probe)[0] for _ in range(CLI_PROBE_REPEATS)]
    if probe.failed["other"]:
        tally.error("cli probe: " + "; ".join(probe.reasons))
    out = {f"cli.{sub}_ms": statistics.median(t) * 1e3 for sub, t in times.items()}
    out["cli.import_ms"] = import_ms(spawner)
    return out


def run_cli(seed, seconds, trace, workdir, spawner, min_rounds):
    configs = workloads.cli_configs(seed, ROOT, workdir)
    calls = workloads.cli_round(configs, workdir)
    before = None if trace else setup_samples(spawner)
    tally = Tally()
    run_cli_call(spawner, calls[0], Tally())  # warm-up, not counted

    traces = []
    spans = os.path.join(workdir, "spans.json")

    def rounds(budget, least, traced):
        """Median times of the round's processes at the start reference
        speed and in wall time, median bare start, peak RSS."""
        latencies, starts, peak, done = [], [], 0.0, 0
        began = time.perf_counter()
        while done < least or time.perf_counter() - began < budget:
            for call in calls:
                wall, rss_mb, stdout = run_cli_call(spawner, call, tally, spans if traced else None)
                latencies.append(wall)
                starts += spawner.timed(BARE, 1)
                peak = max(peak, rss_mb)
                if traced:
                    with open(spans, encoding="utf-8") as fh:
                        traces.append(json.load(fh))
                if done == 0 and call[0] == "dump" and stdout:
                    check_dump_roundtrip(spawner, workdir, call[1][1], stdout, tally)
            done += 1
        at_speed = at_reference_speed(latencies, starts, reference.START_NOMINAL_S)
        return (
            median_times(at_speed, len(calls)), median_times(latencies, len(calls)),
            statistics.median(starts), peak,
        )

    tail = SETTINGS["cli"]["tail"]
    if not trace:
        plain, plain_wall, start, peak = rounds(seconds, min_rounds, False)
        setup_s, setup_wall = setup_metric(before, setup_samples(spawner))
        wall = end_to_end(tally, plain_wall, tail, setup_wall, peak)
        wall["bare_start_ms"] = start * 1e3
        return tally, end_to_end(tally, plain, tail, setup_s, peak), wall

    plain = rounds(seconds / 2, 1, False)[0]
    traced = rounds(seconds / 2, 1, True)[0]
    merged = layers.merge(traces)
    with open(os.path.join(OUT_DIR, "trace-cli.json"), "w", encoding="utf-8") as fh:
        json.dump(merged, fh)
    metrics = layers.layer_metrics(merged)
    metrics["trace.overhead_problems_per_s"] = throughput(tally, plain) - throughput(tally, traced)
    for sub in workloads.CLI_SUBCOMMANDS:
        times = [t for call, t in zip(calls, plain) if call[0] == sub]
        metrics[f"cli.{sub}_ms"] = statistics.median(times) * 1e3
    metrics["cli.import_ms"] = import_ms(spawner)
    return tally, metrics, None


def run_workload(name, seed, seconds, trace, min_rounds=None):
    """(tally, metrics, wall-clock metrics or None) of one run; min_rounds
    overrides the workload's floor."""
    os.makedirs(OUT_DIR, exist_ok=True)
    least = SETTINGS[name]["min_rounds"] if min_rounds is None else min_rounds
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    spawner = Spawner(workdir)
    try:
        if name == "cli":
            return run_cli(seed, seconds, trace, workdir, spawner, least)
        return run_inprocess(name, seed, seconds, trace, workdir, spawner, least)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(tally, metrics):
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": sum(tally.failed.values()),
        "metrics": {
            k: {"value": v, "unit": UNITS[k.rsplit("/", 1)[-1]]}
            for k, v in metrics.items()
        },
    }


def write_record(name, seed, trace, tally, metrics, wall):
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons + tally.errors,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "metrics": metrics,
        "wall_clock_metrics": wall,
    }
    path = os.path.join(OUT_DIR, f"record-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def report(name, tally, metrics, path):
    fails = ", ".join(f"{tag} {count}" for tag, count in tally.failed.items())
    print(f"{name}: attempted {tally.attempted}, failed {sum(tally.failed.values())} ({fails})")
    for reason in tally.reasons + tally.errors:
        print(f"  failure: {reason}")
    line = result_line(tally, metrics)
    for key, m in line["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*SETTINGS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stefan", "__init__.py")):
        print("error: run from the root of a stefan checkout (src/stefan not found)", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        print("error: configs/ not found in the checkout", file=sys.stderr)
        return 2

    names = list(SETTINGS) if args.workload == "all" else [args.workload]
    total, combined = Tally(), {}
    try:
        for name in names:
            tally, metrics, wall = run_workload(name, args.seed, args.seconds, args.trace)
            path = write_record(name, args.seed, args.trace, tally, metrics, wall)
            report(name, tally, metrics, path)
            total.attempted += tally.attempted
            for tag, count in tally.failed.items():
                total.failed[tag] += count
            total.reasons += tally.reasons
            total.errors += tally.errors
            combined.update(
                {f"{name}/{k}": v for k, v in metrics.items()} if len(names) > 1 else metrics
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(total, combined)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
