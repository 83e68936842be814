"""Command line front end.

Subcommands:
  check    well-posedness report for a problem config
  solve    minimize the energy and report interface positions
  profile  sample a converged profile to CSV (plus fronts.csv)
  dump     echo the parsed config in normalized form

Configs are JSON objects with keys "temperatures" (n+2 values),
"diffusivities" (n+1), "conductivities" (n+1), "stefan_numbers" (n)
and an optional "solver" object whose keys mirror SolveOptions.
Numbers are printed with shortest round-trip formatting, so dumped
configs re-parse bit for bit.

profile writes its two CSV files in place: it opens each without
emptying it first (following a symlink, keeping the inode and its mode),
writes over it, and then cuts a regular file to the written length, on a
write error as well. The reason is ext4 (default auto_da_alloc): a file
emptied by open(path, "w") is flushed to disk when it is closed, so
rewriting an existing file that way made the process wait on the disk;
a new file costs the same either way. The cost is durability:
nothing is fsynced, and without that implicit flush a power loss or OS
crash in the half minute after profile exits can leave a file at the new
length that still holds some of the previous run's rows, where a file
emptied first could at worst be short or empty. A process killed mid-write
leaves the rows it wrote followed by the rest of the previous file.

Exit codes: 0 success (solve: Converged; check: coercive), 1 bad input,
unwritable output, a Hessian that is not finite, an energy that
overflows, an OverflowError or ZeroDivisionError in assemble or
validate at converged fronts (the layer is named on stderr) or an
output value that is not finite (JSON has no Infinity or NaN, so the
field is named on stderr instead), 2 check found a
non-coercive problem, 3 solve Diverged, 4 solve stopped at the
iteration limit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import stat
import sys
from typing import Optional, Tuple

# both solve layers are called through their modules, which `stefan` loads
# on first use (and with them the energy and the kernel), so check and dump
# load none of them
from . import optimize, solution
from .options import NewtonBreakdown, SolveOptions, SolveStatus
from .problem import EnergyOverflow, InvalidProblem, ProblemSpec, check_wellposedness

__all__ = ["main", "load_config", "ConfigError"]

# ProblemSpec field -> config key
_ARRAY_KEYS = {"u": "temperatures", "a": "diffusivities",
               "k": "conductivities", "d": "stefan_numbers"}
_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolveOptions))
_VALIDATE_SAMPLES = 33

_EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.DIVERGED: 3,
    SolveStatus.MAX_ITERATIONS: 4,
}


class ConfigError(ValueError):
    pass


def _require_number_list(raw: dict, key: str) -> list:
    if key not in raw:
        raise ConfigError(f"missing key '{key}'")
    value = raw[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' must be a non-empty array of numbers")
    if any(isinstance(item, bool) or not isinstance(item, (int, float)) for item in value):
        raise ConfigError(f"key '{key}' must contain only numbers")
    return value


def _with_options(opts: SolveOptions, fields: dict, where: str) -> SolveOptions:
    try:
        return dataclasses.replace(opts, **fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str) -> Tuple[ProblemSpec, SolveOptions]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    arrays = {field: _require_number_list(raw, key) for field, key in _ARRAY_KEYS.items()}
    try:
        spec = ProblemSpec(**arrays)
    except InvalidProblem as exc:
        # ProblemSpec opens every message with the name of the field at fault
        field, _, detail = str(exc).partition(": ")
        raise ConfigError(f"key '{_ARRAY_KEYS[field]}': {detail}") from exc

    opts = SolveOptions()
    solver = raw.get("solver")
    if solver is not None:
        if not isinstance(solver, dict):
            raise ConfigError("key 'solver' must be an object")
        fields = {}
        for key, value in solver.items():
            if key not in _SOLVER_KEYS:
                raise ConfigError(f"unknown solver key '{key}'")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"solver key '{key}' must be a number")
            try:
                # SolveOptions checks that max_iter is whole
                fields[key] = value if key == "max_iter" else float(value)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"solver key '{key}': {exc}") from exc
        opts = _with_options(opts, fields, "key 'solver'")
    return spec, opts


def _report_dict(spec: ProblemSpec) -> dict:
    rep = check_wellposedness(spec)
    return {
        "S_upper": list(rep.S_upper),
        "S_lower": list(rep.S_lower),
        "convexity_margins": list(rep.convexity_margins),
        "coercive": rep.coercive,
        "unique_solution_guaranteed": rep.strictly_convex_sufficient,
        "borderline": rep.borderline,
    }


def _non_finite(value, name: str = "") -> Optional[str]:
    """The key path of the first value in a JSON payload that is not finite."""
    if isinstance(value, dict):
        items = ((f"{name}.{key}" if name else key, v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((name, v) for v in value)
    else:
        return name if isinstance(value, float) and not math.isfinite(value) else None
    for key, v in items:
        found = _non_finite(v, key)
        if found is not None:
            return found
    return None


def _print_json(payload: dict) -> None:
    """Print payload as strict JSON; a value that is not finite is a
    ConfigError naming its field."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise ConfigError(f"output field '{_non_finite(payload)}' is not finite") from None
    print(text)


def _post_solve(layer, *args):
    """layer(*args), for assemble or validate at converged fronts; an
    OverflowError or ZeroDivisionError there, as fronts past |xi/a| of
    about 53 give, becomes a ConfigError naming the layer, so the
    command exits 1 with one line."""
    try:
        return layer(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"{layer.__name__} failed at the converged fronts: {exc}") from None


def cmd_check(args) -> int:
    spec, _ = load_config(args.config)
    report = _report_dict(spec)
    _print_json(report)
    return 0 if report["coercive"] else 2


def _apply_overrides(opts: SolveOptions, args) -> SolveOptions:
    fields = {}
    if args.grad_tol is not None:
        fields["grad_tol"] = args.grad_tol
    if args.max_iter is not None:
        fields["max_iter"] = args.max_iter
    return _with_options(opts, fields, "command line")


def cmd_solve(args) -> int:
    spec, opts = load_config(args.config)
    opts = _apply_overrides(opts, args)
    result = optimize.minimize(spec, opts)
    payload = {
        "status": result.status.value,
        "xi_star": list(result.xi_star.xi) if result.xi_star is not None else None,
        "energy": result.energy_value,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "residuals": None,
        "wellposedness": _report_dict(spec),
    }
    if result.status is SolveStatus.CONVERGED:
        sol = _post_solve(solution.assemble, spec, result.xi_star)
        report = _post_solve(solution.validate, sol, _VALIDATE_SAMPLES)
        payload["residuals"] = dataclasses.asdict(report)
    _print_json(payload)
    return _EXIT_BY_STATUS[result.status]


@contextlib.contextmanager
def _rewrite(path: str):
    """A text stream over `path` that leaves it holding exactly what was written.

    Unlike open(path, "w") the file is not emptied first; a regular file
    is cut to the written length on the way out, also when a write fails.
    The cut is made at the descriptor's own offset after the stream is
    closed, so it holds even when flushing the last rows fails. A FIFO or
    a device is never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="", closefd=False) as fh:
            yield fh
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def cmd_profile(args) -> int:
    spec, opts = load_config(args.config)
    if not 0.0 < args.t < math.inf:
        raise ConfigError("--t must be positive and finite")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    if not args.x_min < args.x_max:
        raise ConfigError("--x-min must be below --x-max")
    # the samples of numpy.linspace, bit for bit; an infinite end or a
    # difference past the largest double makes the step infinite
    step = (args.x_max - args.x_min) / (args.samples - 1)
    if step == math.inf:
        raise ConfigError("--x-min, --x-max and their difference must be finite")
    out_path = args.out
    fronts_path = os.path.join(os.path.dirname(os.path.abspath(out_path)), "fronts.csv")
    # the fronts table would be written over the samples
    if os.path.realpath(out_path) == os.path.realpath(fronts_path):
        raise ConfigError("--out must not be the fronts.csv written beside it")

    result = optimize.minimize(spec, opts)
    if result.status is not SolveStatus.CONVERGED:
        print(f"error: solve did not converge ({result.status.value})", file=sys.stderr)
        return _EXIT_BY_STATUS[result.status]
    sol = _post_solve(solution.assemble, spec, result.xi_star)

    sqrt_t = math.sqrt(args.t)
    xs = [args.x_min + i * step for i in range(args.samples - 1)] + [args.x_max]
    try:
        with _rewrite(out_path) as fh:
            fh.write("x,xi,u\n")
            for x in xs:
                xi = x / sqrt_t
                fh.write(f"{x!r},{xi!r},{solution.evaluate_profile(sol, xi)!r}\n")
        with _rewrite(fronts_path) as fh:
            fh.write("i,xi,x_at_t\n")
            for i, xi in enumerate(sol.xi_star, start=1):
                fh.write(f"{i},{xi!r},{xi * sqrt_t!r}\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_dump(args) -> int:
    spec, opts = load_config(args.config)
    payload = {key: list(getattr(spec, field)) for field, key in _ARRAY_KEYS.items()}
    payload["solver"] = dataclasses.asdict(opts)
    _print_json(payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every float spelling as a value.

    argparse by itself takes an argument that starts with "-" for a value
    only when it is a plain decimal such as -0.001, and reads -1e-3, -1E3
    or -inf as an unknown option: a usage error, exit 2.  Each parser of
    the tree is one of these (add_subparsers makes its subparsers of the
    parent's class).
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stefan",
        description="Self-similar solutions of multi-phase Stefan problems with Riemann data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="report the well-posedness criteria")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="minimize the interface energy")
    p_solve.add_argument("config")
    p_solve.add_argument("--grad-tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_profile = sub.add_parser("profile", help="sample the solved profile to CSV")
    p_profile.add_argument("config")
    p_profile.add_argument("--t", type=float, required=True)
    p_profile.add_argument("--x-min", type=float, required=True)
    p_profile.add_argument("--x-max", type=float, required=True)
    p_profile.add_argument("--samples", type=int, required=True)
    p_profile.add_argument("--out", required=True)
    p_profile.set_defaults(func=cmd_profile)

    p_dump = sub.add_parser("dump", help="print the parsed config, normalized")
    p_dump.add_argument("config")
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NewtonBreakdown, EnergyOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
