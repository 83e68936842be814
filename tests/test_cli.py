"""End-to-end CLI behavior: config parsing, exit codes, report and CSV
formats, and the dump round-trip."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stefan
from stefan import SolveOptions
from stefan.cli import ConfigError, load_config, main

SYM_OK = {
    "temperatures": [-1.0, 0.0, 1.0],
    "diffusivities": [1.0, 1.0],
    "conductivities": [1.0, 1.0],
    "stefan_numbers": [-0.4],
}
SYM_NONCOERCIVE = {
    "temperatures": [-1.0, 0.0, 1.0],
    "diffusivities": [1.0, 1.0],
    "conductivities": [1.0, 1.0],
    "stefan_numbers": [-1.5],
}
# asymmetric and non-coercive: the default start is not a stationary
# point, so the iterates genuinely escape
ESCAPING = {
    "temperatures": [-1.0, -0.2, 0.3, 1.0],
    "diffusivities": [1.0, 0.9, 1.1],
    "conductivities": [0.2, 0.3, 0.25],
    "stefan_numbers": [-1.0, -1.2],
}
ASYM = {
    "temperatures": [-1.0, 0.0, 2.0],
    "diffusivities": [1.0, 1.0],
    "conductivities": [1.0, 1.0],
    "stefan_numbers": [0.0],
}
# ASYM with latent heat: the zero-latent-heat start is not its solution,
# so the solve takes several Newton steps
ASYM_LATENT = dict(ASYM, stefan_numbers=[0.5])


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_golden(self, tmp_path):
        spec, opts = load_config(write_config(tmp_path, SYM_OK))
        assert spec.u == (-1.0, 0.0, 1.0)
        assert spec.a == (1.0, 1.0)
        assert spec.k == (1.0, 1.0)
        assert spec.d == (-0.4,)
        assert opts == SolveOptions()

    def test_solver_overrides(self, tmp_path):
        payload = dict(SYM_OK, solver={"grad_tol": 1e-9, "max_iter": 50})
        _, opts = load_config(write_config(tmp_path, payload))
        assert opts.grad_tol == 1e-9
        assert opts.max_iter == 50
        assert opts.xi_max == SolveOptions().xi_max

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: c.pop("conductivities"), "conductivities"),
            (lambda c: c.update(temperatures=[0.0, 1.0]), "temperatures"),
            (lambda c: c.update(diffusivities=[1.0]), "diffusivities"),
            (lambda c: c.update(temperatures=[1.0, 0.0, -1.0]), "increasing"),
            (lambda c: c.update(diffusivities=[1.0, 0.0]), "positive"),
            (lambda c: c.update(conductivities=[1.0, -2.0]), "positive"),
            (lambda c: c.update(stefan_numbers=[True]), "numbers"),
            (lambda c: c.update(stefan_numbers=["x"]), "numbers"),
            (lambda c: c.update(stefan_numbers=[]), "stefan_numbers"),
            (lambda c: c.update(solver=[1]), "solver"),
            (lambda c: c.update(solver={"bogus": 1}), "bogus"),
            (lambda c: c.update(solver={"grad_tol": -1.0}), "solver"),
            (lambda c: c.update(temperatures=[-1.0, math.nan, 1.0]), "'temperatures'.*finite"),
            (lambda c: c.update(diffusivities=[1.0, math.inf]), "'diffusivities'.*finite"),
            (lambda c: c.update(conductivities=[-math.inf, 1.0]), "'conductivities'.*finite"),
            (lambda c: c.update(stefan_numbers=[math.nan]), "'stefan_numbers'.*finite"),
            (lambda c: c.update(temperatures=[-1.0, 0.0, 10**400]), "'temperatures'"),
            (lambda c: c.update(solver={"max_iter": math.inf}), "max_iter"),
        ],
    )
    def test_rejects_bad_configs(self, tmp_path, mutate, fragment):
        payload = json.loads(json.dumps(SYM_OK))
        mutate(payload)
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, payload))

    def test_rejects_fractional_max_iter(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SYM_OK, solver={"max_iter": 2.5}))
        with pytest.raises(ConfigError, match="max_iter"):
            load_config(path)
        assert main(["dump", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "max_iter" in captured.err

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"temperatures": [-1, NaN, 1], "diffusivities": [1, 1],'
            ' "conductivities": [1, 1], "stefan_numbers": [0]}'
        )
        with pytest.raises(ConfigError, match="finite"):
            load_config(str(path))

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_rejects_broken_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{ nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="read"):
            load_config(str(tmp_path / "absent.json"))


class TestCheck:
    def test_coercive_convex(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, SYM_OK)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["coercive"] is True
        assert report["unique_solution_guaranteed"] is True
        assert report["borderline"] is False
        assert report["S_upper"] == pytest.approx([0.6])
        assert report["S_lower"] == pytest.approx([0.6])
        assert report["convexity_margins"] == pytest.approx([0.2])

    def test_noncoercive_exits_2(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, SYM_NONCOERCIVE)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["coercive"] is False

    def test_bad_config_exits_1(self, tmp_path, capsys):
        payload = dict(SYM_OK)
        payload.pop("conductivities")
        code = main(["check", write_config(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "conductivities" in captured.err


class TestSolve:
    def test_converged_report(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, SYM_OK)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "Converged"
        assert payload["xi_star"] == pytest.approx([0.0], abs=1e-10)
        assert payload["grad_norm"] <= 1e-12
        assert payload["iterations"] >= 0
        assert payload["residuals"]["max_stefan_residual"] <= 1e-10
        assert payload["residuals"]["max_interface_jump"] == 0.0
        assert payload["wellposedness"]["coercive"] is True

    def test_report_key_order(self, tmp_path, capsys):
        main(["solve", write_config(tmp_path, SYM_OK)])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "status", "xi_star", "energy", "grad_norm", "iterations",
            "residuals", "wellposedness",
        ]
        assert list(payload["residuals"]) == [
            "max_ode_residual", "max_stefan_residual", "max_interface_jump", "samples",
        ]

    def test_diverged_exits_3(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, ESCAPING)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["status"] == "Diverged"
        assert payload["xi_star"] is None
        assert payload["residuals"] is None

    def test_saddle_at_default_start_exits_3(self, tmp_path, capsys):
        # the default start xi = 0 is a stationary point with negative
        # curvature; it must not be reported as a solution
        code = main(["solve", write_config(tmp_path, SYM_NONCOERCIVE)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["status"] == "Diverged"
        assert payload["xi_star"] is None

    def test_iteration_limit_exits_4(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, ASYM_LATENT), "--max-iter", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 4
        assert payload["status"] == "MaxIterations"

    def test_grad_tol_override(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, ASYM), "--grad-tol", "1e-6"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["grad_norm"] <= 1e-6


class TestProfile:
    def run_profile(self, tmp_path, cfg, t, out_name="profile.csv", extra=()):
        out = tmp_path / out_name
        code = main(
            [
                "profile",
                write_config(tmp_path, cfg),
                "--t", str(t),
                "--x-min", "-5",
                "--x-max", "5",
                "--samples", "11",
                "--out", str(out),
                *extra,
            ]
        )
        return code, out

    def test_symmetric_profile_rows(self, tmp_path):
        code, out = self.run_profile(tmp_path, SYM_OK, 1.0)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,xi,u"
        assert len(lines) == 12
        assert lines[6] == "0.0,0.0,0.0"  # middle sample sits on the front

    def test_fronts_file(self, tmp_path):
        code, _ = self.run_profile(tmp_path, SYM_OK, 1.0)
        assert code == 0
        lines = (tmp_path / "fronts.csv").read_text().splitlines()
        assert lines == ["i,xi,x_at_t", "1,0.0,0.0"]

    def test_front_positions_scale_with_sqrt_t(self, tmp_path):
        code1, _ = self.run_profile(tmp_path, ASYM, 1.0, out_name="p1.csv")
        row1 = (tmp_path / "fronts.csv").read_text().splitlines()[1]
        code4, _ = self.run_profile(tmp_path, ASYM, 4.0, out_name="p4.csv")
        row4 = (tmp_path / "fronts.csv").read_text().splitlines()[1]
        assert code1 == 0 and code4 == 0
        x1 = float(row1.split(",")[2])
        x4 = float(row4.split(",")[2])
        assert x4 == 2.0 * x1
        assert row1.split(",")[1] == row4.split(",")[1]  # xi itself unchanged

    def test_values_roundtrip_through_repr(self, tmp_path):
        from stefan import ProblemSpec, assemble, evaluate_profile, minimize
        code, out = self.run_profile(tmp_path, ASYM, 2.25)
        assert code == 0
        spec = ProblemSpec(
            u=ASYM["temperatures"],
            a=ASYM["diffusivities"],
            k=ASYM["conductivities"],
            d=ASYM["stefan_numbers"],
        )
        sol = assemble(spec, minimize(spec).xi_star)
        for line in out.read_text().splitlines()[1:]:
            x, xi, u = (float(v) for v in line.split(","))
            assert xi == x / 1.5
            assert u == evaluate_profile(sol, xi)
        # the x column is numpy.linspace's, bit for bit, on uneven spacing too
        for x_min, x_max, samples in ((-5.0, 5.0, 11), (-4.3, 3.1, 37), (0.1, 0.7, 1000)):
            out = tmp_path / "linspace.csv"
            code = main(
                ["profile", write_config(tmp_path, ASYM),
                 "--t", "2.25", "--x-min", repr(x_min), "--x-max", repr(x_max),
                 "--samples", str(samples), "--out", str(out)]
            )
            assert code == 0
            xs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
            assert xs == np.linspace(x_min, x_max, samples).tolist()

    def test_rejects_bad_time(self, tmp_path, capsys):
        code, _ = self.run_profile(tmp_path, SYM_OK, 0.0)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_bad_sampling(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            ["profile", write_config(tmp_path, SYM_OK),
             "--t", "1", "--x-min", "-5", "--x-max", "5",
             "--samples", "1", "--out", str(out)]
        )
        assert code == 1
        code = main(
            ["profile", write_config(tmp_path, SYM_OK),
             "--t", "1", "--x-min", "5", "--x-max", "-5",
             "--samples", "11", "--out", str(out)]
        )
        assert code == 1

    def test_diverging_problem_reported(self, tmp_path, capsys):
        code, _ = self.run_profile(tmp_path, ESCAPING, 1.0)
        assert code == 3
        assert "Diverged" in capsys.readouterr().err

    def test_saddle_writes_no_profile(self, tmp_path, capsys):
        code, out = self.run_profile(tmp_path, SYM_NONCOERCIVE, 1.0)
        assert code == 3
        assert "Diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "p.csv"
        code = main(
            ["profile", write_config(tmp_path, SYM_OK),
             "--t", "1", "--x-min", "-5", "--x-max", "5",
             "--samples", "11", "--out", str(out)]
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestDump:
    def test_round_trip_is_bit_exact(self, tmp_path, capsys):
        cfg = {
            "temperatures": [-2.0, -0.5, 0.7, 1.1, 2.4],
            "diffusivities": [1.2, 0.8, 1.5, 0.9],
            "conductivities": [0.7, 1.9, 1.1, 0.6],
            "stefan_numbers": [0.3, -0.2, 0.5],
            "solver": {"grad_tol": 3.7e-13},
        }
        code = main(["dump", write_config(tmp_path, cfg)])
        dumped = capsys.readouterr().out
        assert code == 0
        spec1, opts1 = load_config(write_config(tmp_path, cfg, "a.json"))
        path2 = tmp_path / "b.json"
        path2.write_text(dumped)
        spec2, opts2 = load_config(str(path2))
        assert spec1 == spec2
        assert opts1 == opts2

    def test_every_solver_key_round_trips(self, tmp_path, capsys):
        solver = {
            "grad_tol": 3.7e-13,
            "max_iter": 77,
            "xi_max": 55.5,
            "boundary_fraction": 0.75,
            "damping_min": 1e-10,
        }
        want = SolveOptions(**solver)
        assert all(getattr(want, key) != getattr(SolveOptions(), key) for key in solver)
        path = write_config(tmp_path, dict(SYM_OK, solver=solver))
        _, opts = load_config(path)
        assert opts == want
        assert main(["dump", path]) == 0
        dumped = capsys.readouterr().out
        assert list(json.loads(dumped)["solver"].items()) == list(solver.items())
        path2 = tmp_path / "dumped.json"
        path2.write_text(dumped)
        assert load_config(str(path2))[1] == want
        assert main(["dump", str(path2)]) == 0
        assert capsys.readouterr().out == dumped

    def test_whole_float_max_iter_dumps_as_an_integer(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SYM_OK, solver={"max_iter": 50.0}))
        _, opts = load_config(path)
        assert type(opts.max_iter) is int and opts.max_iter == 50
        assert main(["dump", path]) == 0
        assert '"max_iter": 50,' in capsys.readouterr().out


class TestInfiniteLoad:
    """Loads k / a^2 that are infinite: a^2 underflowing to 0, or the
    quotient overflowing.  The well-posedness report is computed; a solve
    meets a Hessian that is not finite and exits 1 with a message."""

    CONFIGS = [
        dict(SYM_OK, diffusivities=[1e-170, 1.0], stefan_numbers=[0.3]),
        dict(SYM_OK, diffusivities=[1e-160, 1.0], stefan_numbers=[0.3]),
        dict(SYM_OK, diffusivities=[1e-10, 1.0], conductivities=[1e300, 1.0],
             stefan_numbers=[0.3]),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_check_reports_and_solve_exits_1(self, tmp_path, capsys, cfg):
        path = write_config(tmp_path, cfg)
        assert main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["S_upper"] == [math.inf]
        assert report["coercive"] is True
        profile = ["profile", path, "--t", "1", "--x-min", "-1", "--x-max", "1",
                   "--samples", "3", "--out", str(tmp_path / "p.csv")]
        for argv in (["solve", path], profile):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: Hessian is not finite\n"

    def test_solve_process_prints_no_traceback(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = write_config(tmp_path, self.CONFIGS[0])
        proc = subprocess.run(
            [sys.executable, "-m", "stefan", "solve", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestEnergyOverflow:
    """Finite energy terms or well-posedness sums that sum past the
    largest double: the command exits 1 with one error line, not a
    traceback."""

    CONFIG = {
        "temperatures": [-1.7e308, 0.0, 1.7e308],
        "diffusivities": [1.0, 1.0],
        "conductivities": [1.0, 1.0],
        "stefan_numbers": [0.0],
    }

    def test_solve_and_profile_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        assert main(["check", path]) == 0
        capsys.readouterr()
        profile = ["profile", path, "--t", "1", "--x-min", "-1", "--x-max", "1",
                   "--samples", "3", "--out", str(tmp_path / "p.csv")]
        for argv in (["solve", path], profile):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: energy terms sum past the largest double")
            assert captured.err.count("\n") == 1

    def test_solve_process_prints_no_traceback(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = write_config(tmp_path, self.CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "stefan", "solve", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    # finite loads whose well-posedness sum 1e308 + 1.7e308 overflows
    CHECK_CONFIG = {
        "temperatures": [-1.7e308, -1e308, 0.0, 1.7e308],
        "diffusivities": [1.0, 1.0, 1.0],
        "conductivities": [1.0, 1.0, 1.0],
        "stefan_numbers": [0.0, 0.0],
    }

    def test_check_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CHECK_CONFIG)
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: well-posedness sums pass the largest double")
        assert captured.err.count("\n") == 1

    def test_check_process_prints_no_traceback(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = write_config(tmp_path, self.CHECK_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "stefan", "check", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
