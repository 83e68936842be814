"""Correctness oracle for benchmark outputs, sharing no code with ``stefan``.

The similarity kernel is cdf(x) = Phi(x / sqrt 2), with Phi the standard
normal distribution, so every quantity here is built on
``scipy.special.log_ndtr`` and ``ndtr``; the existence verdict comes from
exact rational arithmetic over the spec's floats.

``check_problem`` and ``check_cli`` return None when an
output is right, or a (tag, reason) pair: tag "F1" for a saddle or
maximum certified as a solution, "F2" for a coercive problem stopped as
MaxIterations before the iteration limit, "other" for anything else.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np
from scipy.special import log_ndtr, ndtr

MAX_ITER = 200
VALIDATE_SAMPLES = 33

# Relative size of an interface flux residual, against the largest term
# of its balance, below which a front counts as stationary.
FLUX_TOL = 1e-10
# Relative agreement of reported sums and energies with the exact values.
SUM_TOL = 1e-12
ENERGY_TOL = 1e-10
# Step of the local-minimum probe, as a share of min(1, neighbouring gaps).
PROBE_STEP = 1e-3
_EPS = np.finfo(float).eps
# Absolute cdf accuracy stefan documents; with it a profile sample may be
# off by this much times the piece's scale (jump / cdf gap).
KERNEL_ABS_ERR = 1e-15

_SQRT2 = math.sqrt(2.0)
_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))


class Mismatch(Exception):
    """An output disagrees with the oracle."""


class Saddle(Mismatch):
    """A claimed solution that is not a local minimum."""


def _fail(reason):
    raise Mismatch(reason)


# ---------------------------------------------------------------------------
# exact verdict
# ---------------------------------------------------------------------------


def exact_sums(spec):
    """(S_upper, S_lower, convexity margins) as Fractions of the spec's floats."""
    u = [Fraction(v) for v in spec["u"]]
    a = [Fraction(v) for v in spec["a"]]
    k = [Fraction(v) for v in spec["k"]]
    d = [Fraction(v) for v in spec["d"]]
    n = len(d)
    load = [k[i] / (a[i] * a[i]) * (u[i + 1] - u[i]) for i in range(n + 1)]
    upper, lower = [], []
    acc = Fraction(0)
    for j in range(n):
        acc += load[j] + d[j]
        upper.append(acc)
    acc = Fraction(0)
    for j in reversed(range(n)):
        acc += load[j + 1] + d[j]
        lower.append(acc)
    lower.reverse()
    margins = [min(load[j], load[j + 1]) + 2 * d[j] for j in range(n)]
    return upper, lower, margins


def exact_coercive(spec):
    upper, lower, _ = exact_sums(spec)
    return all(v >= 0 for v in upper) and all(v >= 0 for v in lower)


def _close(got, want, tol, what):
    want = float(want)
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        _fail(f"{what}: {got!r} is not a finite number")
    if abs(got - want) > tol * max(1.0, abs(want)):
        _fail(f"{what}: {got!r} against exact {want!r}")


def check_report(spec, report):
    """A well-posedness report (the dict the CLI prints) against exact sums."""
    upper, lower, margins = exact_sums(spec)
    for key, exact in (("S_upper", upper), ("S_lower", lower), ("convexity_margins", margins)):
        got = report[key]
        if len(got) != len(exact):
            _fail(f"{key}: {len(got)} entries, expected {len(exact)}")
        for i, (g, e) in enumerate(zip(got, exact)):
            _close(g, e, SUM_TOL, f"{key}[{i}]")
    coercive = all(v >= 0 for v in upper) and all(v >= 0 for v in lower)
    if report["coercive"] is not coercive:
        _fail(f"verdict coercive={report['coercive']}, exact sums say {coercive}")
    convex = all(v >= 0 for v in margins)
    if report["unique_solution_guaranteed"] is not convex:
        _fail(f"uniqueness flag {report['unique_solution_guaranteed']}, margins say {convex}")
    return coercive


# ---------------------------------------------------------------------------
# energy, flux balance and the local-minimum probe, in log space
# ---------------------------------------------------------------------------


def log_gap(lo, hi):
    """log(cdf(hi) - cdf(lo)) elementwise, for lo < hi (ends may be infinite)."""
    s = np.asarray(lo, dtype=float) / _SQRT2
    t = np.asarray(hi, dtype=float) / _SQRT2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        right_a, right_b = log_ndtr(-s), log_ndtr(-t)
        left_a, left_b = log_ndtr(t), log_ndtr(s)
        right = right_a + np.log(-np.expm1(right_b - right_a))
        left = left_a + np.log(-np.expm1(left_b - left_a))
        missing = ndtr(s) + ndtr(-t)
        middle = np.where(missing < 0.5, np.log1p(-missing), np.log(ndtr(t) - ndtr(s)))
    return np.where(s >= 0.0, right, np.where(t <= 0.0, left, middle))


def _log_pdf(x):
    return -0.25 * x * x - _LOG_2_SQRT_PI


class Problem:
    """Spec arrays with the strip quantities the checks share."""

    def __init__(self, spec):
        self.u = np.array(spec["u"], dtype=float)
        self.a = np.array(spec["a"], dtype=float)
        self.k = np.array(spec["k"], dtype=float)
        self.d = np.array(spec["d"], dtype=float)
        self.n = len(self.d)
        self.du = np.diff(self.u)
        self.c = self.k * self.du  # weight of strip i in the energy

    def strips(self, xi):
        ext = np.concatenate(([-np.inf], xi, [np.inf]))
        lo = ext[:-1] / self.a
        hi = ext[1:] / self.a
        return lo, hi, log_gap(lo, hi)

    def energy(self, xi):
        _, _, lg = self.strips(xi)
        terms = np.concatenate((-self.c * lg, 0.25 * self.d * xi * xi))
        return math.fsum(terms), float(np.sum(np.abs(terms)))

    def flux_residuals(self, xi):
        """|balance| / largest term of the balance, per interface."""
        lo, hi, lg = self.strips(xi)
        right = self.c[1:] / self.a[1:] * np.exp(_log_pdf(lo[1:]) - lg[1:])
        left = self.c[:-1] / self.a[:-1] * np.exp(_log_pdf(hi[:-1]) - lg[:-1])
        latent = 0.5 * self.d * xi
        scale = np.maximum(np.maximum(np.abs(latent), right), left)
        return np.abs(latent + right - left) / scale

    def local_min_drops(self, xi):
        """Largest energy drop under a +-step of one coordinate, over tolerance.

        Only strips j and j+1 and the latent term of front j see a move of
        xi_j, so the change is formed from those terms alone; a value above
        1 means some move lowers the energy beyond roundoff.
        """
        ext = np.concatenate(([-np.inf], xi, [np.inf]))
        gaps = np.minimum(np.diff(ext)[:-1], np.diff(ext)[1:])
        step = PROBE_STEP * np.minimum(1.0, gaps)
        lo, hi, lg = self.strips(xi)
        base_l, base_r = lg[:-1], lg[1:]
        worst = 0.0
        for sign in (1.0, -1.0):
            moved = xi + sign * step
            new_l = log_gap(lo[:-1], moved / self.a[:-1])
            new_r = log_gap(moved / self.a[1:], hi[1:])
            change = (
                -self.c[:-1] * (new_l - base_l)
                - self.c[1:] * (new_r - base_r)
                + 0.25 * self.d * (moved * moved - xi * xi)
            )
            size = (
                np.abs(self.c[:-1] * base_l)
                + np.abs(self.c[1:] * base_r)
                + np.abs(0.25 * self.d * xi * xi)
            )
            tol = 64.0 * _EPS * np.maximum(size, 1.0)
            worst = max(worst, float(np.max(-change / tol)))
        return worst

    def profile(self, xi, x):
        """Profile values at points x and the allowed error of each."""
        x = np.asarray(x, dtype=float)
        piece = np.searchsorted(xi, x, side="right")
        ext = np.concatenate(([-np.inf], xi, [np.inf]))
        a = self.a[piece]
        lo, hi, z = ext[piece] / a, ext[piece + 1] / a, x / a
        lg = log_gap(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            below = np.exp(log_gap(lo, z) - lg)
            above = np.exp(log_gap(z, hi) - lg)
        du = self.du[piece]
        value = np.where(
            below <= 0.5, self.u[piece] + du * below, self.u[piece + 1] - du * above
        )
        allowed = 4.0 * KERNEL_ABS_ERR * du * np.exp(-lg) + 1e-13 * (self.u[-1] - self.u[0])
        return value, allowed


def check_solution(spec, xi, energy=None):
    """Tag-free checks of a claimed solution xi; raises Mismatch."""
    prob = Problem(spec)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (prob.n,) or not np.all(np.isfinite(xi)) or np.any(np.diff(xi) <= 0.0):
        _fail(f"xi is not {prob.n} finite increasing fronts")
    drop = prob.local_min_drops(xi)
    if drop > 1.0:
        raise Saddle(f"a +-{PROBE_STEP:g} move lowers the energy ({drop:.3g} x tolerance)")
    res = float(np.max(prob.flux_residuals(xi)))
    if not res <= FLUX_TOL:
        _fail(f"flux balance residual {res:.3g} above {FLUX_TOL:g}")
    if energy is not None:
        want, size = prob.energy(xi)
        if not abs(energy - want) <= ENERGY_TOL * max(1.0, size):
            _fail(f"energy {energy!r} against oracle {want!r}")
    return prob, xi


def check_profile(prob, xi, x, values):
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(x) or not np.all(np.isfinite(values)):
        _fail("profile samples missing or not finite")
    order = np.argsort(x, kind="stable")
    if np.any(np.diff(values[order]) < 0.0):
        _fail("profile decreases")
    if np.any(values < prob.u[0]) or np.any(values > prob.u[-1]):
        _fail("profile leaves [u_0, u_n+1]")
    want, allowed = prob.profile(xi, x)
    err = np.abs(values - want)
    if np.any(err > allowed):
        i = int(np.argmax(err / allowed))
        _fail(f"profile at xi={x[i]!r}: {values[i]!r} against oracle {want[i]!r}")


# ---------------------------------------------------------------------------
# in-process problems
# ---------------------------------------------------------------------------


def _tag_unconverged(coercive, status, iterations):
    if coercive and status == "MaxIterations" and iterations < MAX_ITER:
        return ("F2", f"coercive problem stalled as MaxIterations after {iterations} iterations")
    want = "Converged" if coercive else "Diverged"
    return ("other", f"status {status}, expected {want}")


def check_problem(spec, out, grid):
    """Check one in-process pipeline output (see worker.py for its fields)."""
    if "error" in out:
        return ("other", "raised " + out["error"])
    try:
        coercive = check_report(spec, out["report"])
        status = out["status"]
        if coercive and status == "Converged":
            prob, xi = check_solution(spec, out["xi"], out["energy"])
            if "xi_assembled" in out:
                _fail("assemble changed the fronts it was given")
            n = prob.n
            rep = out["validate"]
            if rep["samples"] != VALIDATE_SAMPLES * (n + 1):
                _fail(f"validate sampled {rep['samples']} points")
            for key in ("max_ode_residual", "max_interface_jump", "max_stefan_residual"):
                if not (math.isfinite(rep[key]) and rep[key] >= 0.0):
                    _fail(f"validate {key} = {rep[key]!r}")
            if grid is not None:
                check_profile(prob, xi, np.array(grid), out["profile"])
                if out["at_fronts"] != spec["u"][1:-1]:
                    _fail("profile at the fronts differs from the phase temperatures")
            return None
        if not coercive and status == "Diverged":
            if out["xi"] is not None:
                _fail("Diverged result carries a point")
            return None
        if not coercive and status == "Converged":
            check_solution(spec, out["xi"])
            return ("other", "Converged at a local minimum of non-coercive data")
        return _tag_unconverged(coercive, status, out["iterations"])
    except Saddle as exc:
        return ("F1", f"{out['status']} at a non-minimum: {exc}")
    except Mismatch as exc:
        return ("other", str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return ("other", f"malformed output: {exc!r}")


# ---------------------------------------------------------------------------
# cli processes
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("temperatures", "diffusivities", "conductivities", "stefan_numbers")
_REPORT_KEYS = {
    "S_upper", "S_lower", "convexity_margins", "coercive",
    "unique_solution_guaranteed", "borderline",
}
_SOLVE_KEYS = {"status", "xi_star", "energy", "grad_norm", "iterations", "residuals", "wellposedness"}
_RESIDUAL_KEYS = {"max_ode_residual", "max_stefan_residual", "max_interface_jump", "samples"}
_SOLVER_DEFAULTS = {
    "grad_tol": 1e-12, "max_iter": 200, "xi_max": 100.0,
    "boundary_fraction": 0.9, "damping_min": 1e-12,
}
EXIT_CODES = {"ok": 0, "invalid": 1, "noncoercive": 2, "Diverged": 3, "MaxIterations": 4}


def read_config(path):
    """(spec or None, missing key or None, raw dict) of a config file."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    missing = [key for key in _CONFIG_KEYS if key not in raw]
    if missing:
        return None, missing[0], raw
    spec = {
        "u": raw["temperatures"], "a": raw["diffusivities"],
        "k": raw["conductivities"], "d": raw["stefan_numbers"],
    }
    return spec, None, raw


def _json(stdout, keys):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        _fail(f"stdout is not JSON: {exc}")
    if set(payload) != keys:
        _fail(f"report keys {sorted(payload)}, expected {sorted(keys)}")
    return payload


def _exit(code, want):
    if code != want:
        _fail(f"exit code {code}, expected {want}")


def _read_csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        _fail(f"{path}: header {rows[:1]}, expected {header}")
    return rows[1:]


def _cli_check(sub, spec, raw, code, stdout, outdir, profile_args):
    """None if the process is right, a (tag, reason) pair for a known
    fault; raises Mismatch otherwise."""
    coercive = exact_coercive(spec)
    n = len(spec["d"])
    if sub == "check":
        _exit(code, EXIT_CODES["ok"] if coercive else EXIT_CODES["noncoercive"])
        check_report(spec, _json(stdout, _REPORT_KEYS))
    elif sub == "dump":
        _exit(code, 0)
        payload = _json(stdout, set(_CONFIG_KEYS) | {"solver"})
        for key in _CONFIG_KEYS:
            got = [float(v).hex() for v in payload[key]]
            if got != [float(v).hex() for v in raw[key]]:
                _fail(f"dump changed the bits of '{key}'")
        solver = dict(_SOLVER_DEFAULTS, **raw.get("solver", {}))
        if payload["solver"] != solver:
            _fail(f"dump solver {payload['solver']}, expected {solver}")
    elif sub == "solve":
        payload = _json(stdout, _SOLVE_KEYS)
        check_report(spec, payload["wellposedness"])
        status = payload["status"]
        if coercive and status == "Converged":
            _exit(code, 0)
            check_solution(spec, payload["xi_star"], payload["energy"])
            if set(payload["residuals"]) != _RESIDUAL_KEYS:
                _fail(f"residual keys {sorted(payload['residuals'])}")
            if payload["residuals"]["samples"] != VALIDATE_SAMPLES * (n + 1):
                _fail("residuals sampled the wrong number of points")
        elif not coercive and status == "Diverged":
            _exit(code, EXIT_CODES["Diverged"])
            if payload["xi_star"] is not None or payload["residuals"] is not None:
                _fail("Diverged report carries a point or residuals")
        elif not coercive and status == "Converged":
            check_solution(spec, payload["xi_star"])
            _fail("Converged at a local minimum of non-coercive data")
        else:
            if status == "MaxIterations":
                _exit(code, EXIT_CODES["MaxIterations"])
            return _tag_unconverged(coercive, status, payload["iterations"])
    elif sub == "profile":
        if not coercive:
            if code == 0:
                # the profile was written; judge the fronts it was built on
                rows = _read_csv(f"{outdir}/fronts.csv", ["i", "xi", "x_at_t"])
                check_solution(spec, [float(r[1]) for r in rows])
                _fail("profile written for non-coercive data")
            _exit(code, EXIT_CODES["Diverged"])
            return None
        _exit(code, 0)
        t, x_min, x_max, samples = profile_args
        rows = _read_csv(f"{outdir}/fronts.csv", ["i", "xi", "x_at_t"])
        if [r[0] for r in rows] != [str(i) for i in range(1, n + 1)]:
            _fail("fronts.csv does not list fronts 1..n")
        xi = [float(r[1]) for r in rows]
        prob, xi = check_solution(spec, xi)
        root_t = math.sqrt(t)
        for r, f in zip(rows, xi):
            _close(float(r[2]), f * root_t, 4 * _EPS, "fronts.csv x_at_t")
        rows = _read_csv(f"{outdir}/profile.csv", ["x", "xi", "u"])
        if len(rows) != samples:
            _fail(f"profile.csv has {len(rows)} rows, expected {samples}")
        data = np.array(rows, dtype=float)
        if not np.allclose(data[:, 0], np.linspace(x_min, x_max, samples), rtol=0.0, atol=1e-12):
            _fail("profile.csv x column is not the requested grid")
        if np.any(np.abs(data[:, 1] - data[:, 0] / root_t) > 4 * _EPS * np.abs(data[:, 1])):
            _fail("profile.csv xi column is not x / sqrt(t)")
        check_profile(prob, xi, data[:, 1], data[:, 2])
    return None


def check_cli(sub, config_path, code, stdout, stderr, outdir=None, profile_args=None):
    """Check one `stefan <sub> <config>` process from its exit code and outputs."""
    try:
        spec, missing, raw = read_config(config_path)
        if missing is not None:
            _exit(code, EXIT_CODES["invalid"])
            if f"'{missing}'" not in stderr or "missing" not in stderr:
                _fail(f"stderr does not name the missing key '{missing}': {stderr!r}")
            return None
        return _cli_check(sub, spec, raw, code, stdout, outdir, profile_args)
    except Saddle as exc:
        return ("F1", f"{sub} exit {code} on a non-minimum: {exc}")
    except Mismatch as exc:
        return ("other", f"{sub}: {exc}")
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return ("other", f"{sub}: malformed output: {exc!r}")
