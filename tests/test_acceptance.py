"""Acceptance gate.

One test per criterion; `pytest tests/test_acceptance.py -v` prints one
pass/fail line for each.  Tolerances are pinned here and nowhere relaxed:

  1. kernel vs quadrature oracle, 1e-14 abs on [-10, 10]; tail ratio in
     [1 - 2/x^2, 1] within 1e-3 for x in {6, 8, 10, 12}
  2. analytic gradient/Hessian vs finite differences, 1e-6 relative,
     50 random instances with n in {1, 2, 3, 5}
  3. Hessian positive definite on 50 margin-positive specs x 20 points;
     one constructed margin-violating spec with an indefinite point
  4. 25 margin-positive specs x 10 random starts: all converge to the
     same point within 1e-8 with grad norm <= 1e-12
  5. single-front minimizer vs bisection root, 1e-8, 10 specs; two-front
     minimizer within one grid cell of brute force (box (-3,3)^2, 301
     points/axis), 5 specs
  6. symmetric single-front problem: front at 0 within 1e-10, energy
     2 ln 2 within 1e-12
  7. 10 non-coercive specs: ray energies strictly decreasing over
     sigma in {10, 20, 40, 80} and `solve` exits 3/Diverged; 10 coercive
     specs exit 0/Converged
  8. every converged solution: ODE residual <= 1e-12, interface jump
     exactly 0, balance residual <= 1e-10, nondecreasing on a 10^4-point
     grid, scale invariance to 1e-14, initial data recovered at
     t = 1e-8 to 1e-12
  9. CLI exit codes, report fields, CSV formats on the three packaged
     configs; dumped configs re-parse bit for bit
"""
import json
import math
import pathlib
import re

import numpy as np
import pytest

from stefan import (
    ProblemSpec,
    SolveStatus,
    assemble,
    check_wellposedness,
    energy,
    evaluate_profile,
    evaluate_spacetime,
    gradient,
    grid_search,
    hessian,
    minimize,
    ray_point,
    single_front_bisection,
    validate,
)
from stefan.cli import main
from stefan.kernel import cdf, log_gap

from helpers import (
    fd_gradient,
    fd_hessian,
    quad_cdf,
    random_coercive_spec,
    random_convex_spec,
    random_fronts,
    random_noncoercive_spec,
    rel_err,
)

SIZES = (1, 2, 3, 5)
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
THREE = ProblemSpec(
    u=(-2.0, -0.5, 0.7, 1.1, 2.4),
    a=(1.2, 0.8, 1.5, 0.9),
    k=(0.7, 1.9, 1.1, 0.6),
    d=(0.3, -0.2, 0.5),
)


def test_criterion_1_kernel_accuracy():
    for x in np.linspace(-10.0, 10.0, 1000):
        x = float(x)
        assert abs(cdf(x) - quad_cdf(x)) <= 1e-14
    for x in (6.0, 8.0, 10.0, 12.0):
        log_ratio = (
            log_gap(x, float("inf"))
            + 0.5 * math.log(math.pi)
            + math.log(x)
            + 0.25 * x * x
        )
        ratio = math.exp(log_ratio)
        assert 1.0 - 2.0 / (x * x) - 1e-3 <= ratio <= 1.0 + 1e-3


def test_criterion_2_derivative_consistency():
    rng = np.random.default_rng(101)
    for trial in range(50):
        n = SIZES[trial % len(SIZES)]
        spec = random_coercive_spec(rng, n)
        xi = random_fronts(rng, n)
        assert rel_err(gradient(spec, xi), fd_gradient(spec, xi)) <= 1e-6
        h = hessian(spec, xi)
        fd = fd_hessian(spec, xi)
        scale = max(1.0, float(np.max(np.abs(h))))
        assert float(np.max(np.abs(h - fd))) / scale <= 1e-6


def test_criterion_3_convexity():
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = SIZES[trial % len(SIZES)]
        spec = random_convex_spec(rng, n)
        assert check_wellposedness(spec).strictly_convex_sufficient
        for _ in range(20):
            np.linalg.cholesky(hessian(spec, random_fronts(rng, n)))
    # margin-violating spec exhibiting an indefinite Hessian point
    sink = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1, 1), k=(1, 1), d=(-1.5,))
    assert check_wellposedness(sink).convexity_margins[0] < 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(hessian(sink, (0.0,)))


def test_criterion_4_existence_uniqueness():
    rng = np.random.default_rng(303)
    for trial in range(25):
        n = SIZES[trial % len(SIZES)]
        spec = random_convex_spec(rng, n, margin_floor=0.2)
        points = []
        for _ in range(10):
            res = minimize(spec, start=random_fronts(rng, n))
            assert res.status is SolveStatus.CONVERGED
            assert res.grad_norm <= 1e-12
            points.append(np.array(res.xi_star.xi))
        for other in points[1:]:
            assert float(np.max(np.abs(other - points[0]))) <= 1e-8


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(10):
        spec = random_convex_spec(rng, 1)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        # the literal balance differences upper tails, so only plain
        # cdf underflow past |t/a| ~ 55 limits it; (-6, 6) holds every root
        root = single_front_bisection(spec, (-6.0, 6.0))
        assert abs(root - res.xi_star.xi[0]) <= 1e-8
    cell = 6.0 / 300.0
    for _ in range(5):
        spec = random_convex_spec(rng, 2)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        grid = grid_search(spec, [(-3.0, 3.0), (-3.0, 3.0)], 301)
        assert not grid.on_boundary
        for g, m in zip(grid.xi.xi, res.xi_star.xi):
            assert abs(g - m) <= cell


def test_criterion_6_symmetry_exactness():
    spec = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1, 1), k=(1, 1), d=(0.0,))
    res = minimize(spec)
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.xi_star.xi[0]) <= 1e-10
    assert abs(res.energy_value - 2.0 * math.log(2.0)) <= 1e-12


def _solve_config(tmp_path, capsys, spec, name):
    cfg = {
        "temperatures": list(spec.u),
        "diffusivities": list(spec.a),
        "conductivities": list(spec.k),
        "stefan_numbers": list(spec.d),
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_7_coercivity_dichotomy(tmp_path, capsys):
    rng = np.random.default_rng(505)
    for trial in range(10):
        n = (1, 2, 3)[trial % 3]
        spec = random_noncoercive_spec(rng, n)
        rep = check_wellposedness(spec)
        negatives = [j for j, s in enumerate(rep.S_upper, start=1) if s < 0.0]
        assert negatives
        r = negatives[0]
        ray_energies = [
            energy(spec, ray_point(spec, r, s)) for s in (10.0, 20.0, 40.0, 80.0)
        ]
        assert all(b < a for a, b in zip(ray_energies, ray_energies[1:]))
        code, payload = _solve_config(tmp_path, capsys, spec, f"esc{trial}.json")
        assert code == 3
        assert payload["status"] == "Diverged"
    for trial in range(10):
        n = SIZES[trial % len(SIZES)]
        spec = random_coercive_spec(rng, n)
        assert check_wellposedness(spec).coercive
        code, payload = _solve_config(tmp_path, capsys, spec, f"coe{trial}.json")
        assert code == 0
        assert payload["status"] == "Converged"


def test_criterion_8_solution_validity():
    rng = np.random.default_rng(606)
    specs = [THREE]
    for trial in range(12):
        specs.append(random_convex_spec(rng, SIZES[trial % len(SIZES)]))
    for spec in specs:
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        sol = assemble(spec, res.xi_star)
        report = validate(sol, 33)
        assert report.max_ode_residual <= 1e-12
        assert report.max_interface_jump == 0.0
        assert report.max_stefan_residual <= 1e-10
        xi = res.xi_star.xi
        grid = np.linspace(xi[0] - 10.0, xi[-1] + 10.0, 10_000)
        vals = [evaluate_profile(sol, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for _ in range(100):
            t = float(rng.uniform(0.25, 4.0))
            x = float(rng.uniform(-4.0, 4.0))
            lam = float(rng.uniform(0.5, 2.0))
            diff = evaluate_spacetime(sol, lam * lam * t, lam * x) - \
                evaluate_spacetime(sol, t, x)
            assert abs(diff) <= 1e-14
        assert abs(evaluate_spacetime(sol, 1e-8, -1.0) - spec.u[0]) <= 1e-12
        assert abs(evaluate_spacetime(sol, 1e-8, 1.0) - spec.u[-1]) <= 1e-12


def test_criterion_9_cli_contract(tmp_path, capsys):
    ok = str(CONFIG_DIR / "two_phase_symmetric.json")
    noncoercive = str(CONFIG_DIR / "supercooled_noncoercive.json")
    invalid = str(CONFIG_DIR / "invalid_missing_key.json")
    csv_charset = re.compile(r"^[0-9eE+.,-]+$")

    # check: exit codes and report fields
    assert main(["check", ok]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "S_upper", "S_lower", "convexity_margins",
        "coercive", "unique_solution_guaranteed", "borderline",
    }
    assert report["coercive"] is True
    assert report["unique_solution_guaranteed"] is True

    assert main(["check", noncoercive]) == 2
    assert json.loads(capsys.readouterr().out)["coercive"] is False

    assert main(["check", invalid]) == 1
    err = capsys.readouterr().err
    assert "conductivities" in err

    # solve: full report on the symmetric config
    assert main(["solve", ok]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "status", "xi_star", "energy", "grad_norm",
        "iterations", "residuals", "wellposedness",
    }
    assert payload["status"] == "Converged"
    assert payload["xi_star"] == pytest.approx([0.0], abs=1e-10)
    assert payload["residuals"]["max_interface_jump"] == 0.0

    # profile CSVs at t = 1 and t = 4
    def run_profile(t, out_name):
        out = tmp_path / out_name
        code = main([
            "profile", ok, "--t", str(t), "--x-min", "-5", "--x-max", "5",
            "--samples", "11", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().splitlines()
        fronts = (tmp_path / "fronts.csv").read_text().splitlines()
        return rows, fronts

    rows1, fronts1 = run_profile(1.0, "p1.csv")
    assert rows1[0] == "x,xi,u"
    assert len(rows1) == 12
    assert rows1[6] == "0.0,0.0,0.0"
    assert all(csv_charset.match(r) for r in rows1[1:])
    assert fronts1 == ["i,xi,x_at_t", "1,0.0,0.0"]

    rows4, fronts4 = run_profile(4.0, "p4.csv")
    x1 = float(fronts1[1].split(",")[2])
    x4 = float(fronts4[1].split(",")[2])
    assert x4 == 2.0 * x1

    # dump round-trip is bit-exact
    assert main(["dump", ok]) == 0
    dumped = capsys.readouterr().out
    echo = tmp_path / "echo.json"
    echo.write_text(dumped)
    from stefan.cli import load_config
    spec_a, opts_a = load_config(ok)
    spec_b, opts_b = load_config(str(echo))
    assert spec_a == spec_b
    assert opts_a == opts_b
    assert main(["dump", str(echo)]) == 0
    assert capsys.readouterr().out == dumped
