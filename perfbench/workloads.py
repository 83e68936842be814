"""Benchmark inputs: problem families and the fixed round of each workload.

The families restate those of the repository's test helpers here, so an
edit under ``tests/`` cannot change what the benchmark measures.  A spec
is a plain dict of float lists (``u``, ``a``, ``k``, ``d``) plus the
family name; the program only ever sees these numbers.

Every workload runs whole rounds of the same problems, so the share of
failed problems is the same in every run, whatever the seed and however
many rounds fit in the time.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("sweep-small", "large-n", "cli")

# Problems whose outcome varies with the draw come from this seed, not from
# --seed, so that the failed share is the same in every run (see README):
# the large-n problems, where fault F2 strikes a seed-dependent subset at
# every size, and the non-coercive ones, where about 0.3% of draws end in
# an exception or a wrong status.
FIXED_SEED = 2308
LARGE_N_SIZES = ((50, 9), (100, 4), (200, 2))  # (n, problems per round)

SWEEP_SIZES = range(1, 9)
SWEEP_CONVEX_PER_N = 8
SWEEP_COERCIVE_PER_N = 4
SWEEP_NONCOERCIVE_PER_N = 4

# Fixed similarity grid on which converged sweep-small profiles are sampled.
PROFILE_GRID = tuple(float(v) for v in np.linspace(-10.0, 10.0, 129))

PACKAGED_CONFIGS = (
    "two_phase_symmetric.json",
    "supercooled_noncoercive.json",
    "invalid_missing_key.json",
)
CLI_SUBCOMMANDS = ("check", "solve", "profile", "dump")
# `profile` samples a dense grid: t, x_min, x_max, samples
CLI_PROFILE = (1.0, -8.0, 8.0, 2001)


def _arrays(rng, n):
    jumps = rng.uniform(0.3, 1.5, size=n + 1)
    u0 = rng.uniform(-3.0, -1.0)
    u = np.concatenate(([u0], u0 + np.cumsum(jumps)))
    a = rng.uniform(0.6, 1.6, size=n + 1)
    k = rng.uniform(0.3, 2.0, size=n + 1)
    loads = k / a**2 * np.diff(u)
    return u, a, k, loads


def _spec(family, u, a, k, d):
    return {
        "family": family,
        "u": [float(v) for v in u],
        "a": [float(v) for v in a],
        "k": [float(v) for v in k],
        "d": [float(v) for v in d],
    }


def convex_spec(rng, n, margin_floor=0.05):
    """Every convexity margin clears margin_floor, so also coercive."""
    u, a, k, loads = _arrays(rng, n)
    mins = np.minimum(loads[1:], loads[:-1])
    d = 0.5 * (margin_floor - mins) + rng.uniform(0.0, 0.6, size=n)
    return _spec("convex", u, a, k, d)


def coercive_spec(rng, n):
    """Coercive term by term; convexity margins may go negative."""
    u, a, k, loads = _arrays(rng, n)
    mins = np.minimum(loads[1:], loads[:-1])
    d = -mins + 0.05 + rng.uniform(0.0, 0.4, size=n)
    return _spec("coercive", u, a, k, d)


def noncoercive_spec(rng, n):
    """Every upper partial sum is negative: unbounded below."""
    u, a, k, loads = _arrays(rng, n)
    d = -loads[:-1] - rng.uniform(0.4, 1.0, size=n)
    return _spec("noncoercive", u, a, k, d)


def _rng(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _fixed_rng(*key):
    return np.random.default_rng([FIXED_SEED, *key])


def sweep_small_round(seed):
    """128 problems: half convex, a quarter coercive (both seeded), and a
    fixed quarter that is not coercive; in a seeded order."""
    rng = _rng(seed, "sweep-small")
    fixed = _fixed_rng(0)
    specs = []
    for n in SWEEP_SIZES:
        specs += [convex_spec(rng, n) for _ in range(SWEEP_CONVEX_PER_N)]
        specs += [coercive_spec(rng, n) for _ in range(SWEEP_COERCIVE_PER_N)]
        specs += [noncoercive_spec(fixed, n) for _ in range(SWEEP_NONCOERCIVE_PER_N)]
    return [specs[i] for i in rng.permutation(len(specs))]


def large_n_round(seed):
    """Fixed convex problems at n = 50, 100, 200, in a seeded order."""
    specs = [
        convex_spec(_fixed_rng(n, i), n)
        for n, count in LARGE_N_SIZES
        for i in range(count)
    ]
    order = _rng(seed, "large-n").permutation(len(specs))
    return [specs[i] for i in order]


def _config(spec, solver=None):
    cfg = {
        "temperatures": spec["u"],
        "diffusivities": spec["a"],
        "conductivities": spec["k"],
        "stefan_numbers": spec["d"],
    }
    if solver is not None:
        cfg["solver"] = solver
    return cfg


def cli_configs(seed, root, workdir):
    """Config paths for one cli round: the packaged three, two seeded ones
    (convex, coercive) and a fixed non-coercive one, written to workdir."""
    rng = _rng(seed, "cli")
    generated = [
        ("seed_convex.json", _config(convex_spec(rng, int(rng.integers(1, 6))))),
        (
            "seed_coercive.json",
            _config(coercive_spec(rng, int(rng.integers(1, 6))), {"max_iter": 200}),
        ),
        ("fixed_noncoercive.json", _config(noncoercive_spec(_fixed_rng(1), 3))),
    ]
    paths = [os.path.join(root, "configs", name) for name in PACKAGED_CONFIGS]
    for name, cfg in generated:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        paths.append(path)
    return paths


def cli_round(configs, workdir):
    """(subcommand, argv after the program name, profile dir or None) per process."""
    calls = []
    for path in configs:
        stem = os.path.splitext(os.path.basename(path))[0]
        for sub in CLI_SUBCOMMANDS:
            argv = [sub, path]
            outdir = None
            if sub == "profile":
                outdir = os.path.join(workdir, "profile-" + stem)
                os.makedirs(outdir, exist_ok=True)
                t, x_min, x_max, samples = CLI_PROFILE
                argv += [
                    "--t", repr(t), "--x-min", repr(x_min), "--x-max", repr(x_max),
                    "--samples", str(samples), "--out", os.path.join(outdir, "profile.csv"),
                ]
            calls.append((sub, argv, outdir))
    return calls
