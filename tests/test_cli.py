"""End-to-end CLI behavior: config parsing, exit codes, report and CSV
formats, and the dump round-trip."""
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import stefan
import stefan.optimize
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
# asymmetric and non-coercive: Diverged although the default start is
# not a stationary point
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
# not coercive and not convex: its iterates used to escape by damped
# Newton steps; the coercivity sums now end it before any step
DAMPED = {
    "temperatures": [-1.0, 0.0, 3.0],
    "diffusivities": [1.0, 0.5],
    "conductivities": [1.0, 2.0],
    "stefan_numbers": [-1.5],
}
# coercive and not convex: the first Newton step from the default start
# is damped, and the solve converges
DAMPED_COERCIVE = {
    "temperatures": [-1.5, -0.5, 0.5, 1.5, 2.5],
    "diffusivities": [1.0, 1.0, 1.0, 1.0],
    "conductivities": [1.0, 1.0, 1.0, 1.0],
    "stefan_numbers": [5.0, -5.0, 5.0],
}


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

    def test_rejects_infinite_damping_min(self, tmp_path, capsys):
        # JSON's 1e309 parses to inf
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(DAMPED)[:-1] + ', "solver": {"damping_min": 1e309}}')
        with pytest.raises(ConfigError, match="damping_min"):
            load_config(str(path))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["grad_tol", "xi_max"])
    def test_rejects_infinite_tolerance_and_bound(self, tmp_path, capsys, key):
        # JSON's 1e309 parses to inf; an infinite grad_tol would certify
        # the start of this coercive problem, 0.13 from its root
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ASYM_LATENT)[:-1] + f', "solver": {{"{key}": 1e309}}}}')
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            load_config(str(path))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

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

    def test_damped_escape_exits_3(self, tmp_path, capsys, monkeypatch):
        lams = []
        damped = stefan.optimize._damped_step

        def recording(*args):
            step = damped(*args)
            lams.append(step[1])
            return step

        monkeypatch.setattr(stefan.optimize, "_damped_step", recording)
        code = main(["solve", write_config(tmp_path, DAMPED)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["status"] == "Diverged"
        assert payload["iterations"] == 0
        assert lams == []
        # on coercive data the damped step still serves: damping_min * 2**39,
        # about 0.55, then undamped steps to the minimum
        code = main(["solve", write_config(tmp_path, DAMPED_COERCIVE)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "Converged"
        assert lams == [math.ldexp(1e-12, 39)] + [0.0] * (payload["iterations"] - 1)
        assert payload["xi_star"] == pytest.approx([-0.4909, 0.0, 0.4909], abs=1e-4)

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

    @pytest.mark.parametrize(
        "grid",
        [
            ["--t", "inf", "--x-min", "-5", "--x-max", "5"],
            ["--t", "1", "--x-min=-inf", "--x-max", "5"],
            ["--t", "1", "--x-min", "-5", "--x-max", "inf"],
            # both ends finite, but the grid step overflows
            ["--t", "1", "--x-min=-1e308", "--x-max", "1e308"],
        ],
    )
    def test_rejects_a_non_finite_grid_before_solving(self, tmp_path, capsys, grid):
        out = tmp_path / "p.csv"
        code = main(["profile", write_config(tmp_path, SYM_OK), *grid,
                     "--samples", "11", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

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


class TestProfileRewrite:
    """profile writes over its CSV files in place and cuts them to the
    written length: the bytes equal a fresh write, and the inode, its
    mode and a symlink at --out stay as they were."""

    # two fronts, so a one-front run later writes a shorter fronts.csv
    TWO_FRONTS = {
        "temperatures": [-1.0, 0.0, 1.0, 2.0],
        "diffusivities": [1.0, 1.0, 1.0],
        "conductivities": [1.0, 1.0, 1.0],
        "stefan_numbers": [0.0, 0.0],
    }

    @staticmethod
    def profile(cfg_path, out, samples=11):
        return main(["profile", cfg_path, "--t", "1", "--x-min", "-5", "--x-max", "5",
                     "--samples", str(samples), "--out", str(out)])

    def fresh(self, tmp_path, cfg_path):
        """profile.csv and fronts.csv of an 11-sample write to a new directory."""
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert self.profile(cfg_path, fresh / "profile.csv") == 0
        return (fresh / "profile.csv").read_bytes(), (fresh / "fronts.csv").read_bytes()

    def test_shorter_rewrite_equals_a_fresh_write(self, tmp_path):
        cfg = write_config(tmp_path, SYM_OK)
        two = write_config(tmp_path, self.TWO_FRONTS, "two.json")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "profile.csv"
        assert self.profile(two, out, samples=101) == 0
        long_profile, long_fronts = out.read_bytes(), (out_dir / "fronts.csv").read_bytes()
        assert len(long_profile.splitlines()) == 102
        assert len(long_fronts.splitlines()) == 3
        out.chmod(0o600)
        inode = out.stat().st_ino

        assert self.profile(cfg, out) == 0
        profile, fronts = self.fresh(tmp_path, cfg)
        assert len(profile) < len(long_profile) and len(fronts) < len(long_fronts)
        assert out.read_bytes() == profile
        assert (out_dir / "fronts.csv").read_bytes() == fronts
        assert out.stat().st_ino == inode
        assert out.stat().st_mode & 0o777 == 0o600

    def test_symlinked_out_stays_a_symlink(self, tmp_path):
        cfg = write_config(tmp_path, SYM_OK)
        target = tmp_path / "target.csv"
        target.write_text("stale\n" * 1000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert self.profile(cfg, link) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh(tmp_path, cfg)[0]

    def test_failure_mid_write_leaves_the_rows_written(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, SYM_OK)
        profile, _ = self.fresh(tmp_path, cfg)
        out = tmp_path / "profile.csv"
        out.write_text("stale\n" * 1000)
        rows = 4
        calls = []
        evaluate_profile = stefan.cli.evaluate_profile

        def failing(sol, xi):
            if len(calls) == rows:
                raise OSError(28, "No space left on device")
            calls.append(xi)
            return evaluate_profile(sol, xi)

        monkeypatch.setattr(stefan.cli, "evaluate_profile", failing)
        capsys.readouterr()
        assert self.profile(cfg, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1, err
        assert out.read_bytes() == b"".join(profile.splitlines(keepends=True)[:1 + rows])

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
    @pytest.mark.parametrize("short", [25000, 100])
    def test_failing_write_still_cuts_the_file(self, tmp_path, short):
        # A file size limit `short` bytes below the full output makes the
        # stream's own writes fail with EFBIG (Python ignores SIGXFSZ), over
        # a longer file that already sits at --out: 25000 bytes short, a
        # write in the loop fails; 100 bytes short, only the flush of the
        # last rows when the stream is closed does.
        cfg = write_config(tmp_path, SYM_OK)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert self.profile(cfg, fresh / "profile.csv", samples=1001) == 0
        profile = (fresh / "profile.csv").read_bytes()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "profile.csv"
        assert self.profile(cfg, out, samples=2001) == 0
        limit = len(profile) - short
        assert limit > 0 and out.stat().st_size > len(profile)

        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import resource, sys\n"
            "from stefan.cli import main\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.RLIM_INFINITY))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "profile", cfg, "--t", "1", "--x-min", "-5",
             "--x-max", "5", "--samples", "1001", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: cannot write output"), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert out.read_bytes() == profile[:limit]

    def test_out_naming_a_directory_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYM_OK)
        out = tmp_path / "a-directory"
        out.mkdir()
        assert self.profile(cfg, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

    def test_fifo_is_written_and_not_truncated(self, tmp_path):
        cfg = write_config(tmp_path, SYM_OK)
        fifo = tmp_path / "profile.fifo"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        code = self.profile(cfg, fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0
        assert received == [self.fresh(tmp_path, cfg)[0]]
        assert len(received[0].splitlines()) == 12


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
    quotient overflowing.  The well-posedness report holds an infinite
    sum, which is not JSON, so check exits 1 naming the field; a solve
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
        assert stefan.check_wellposedness(load_config(path)[0]).S_upper == (math.inf,)
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: output field 'S_upper' is not finite\n"
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


class TestStrictJson:
    """Every report is strict JSON: a value that is not finite exits 1
    with one error line naming its field, never as Infinity or NaN."""

    def test_check_process_prints_one_error_line(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = write_config(tmp_path, TestInfiniteLoad.CONFIGS[0])
        proc = subprocess.run(
            [sys.executable, "-m", "stefan", "check", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: output field 'S_upper' is not finite\n"

    def test_dump_of_an_infinite_option(self, tmp_path, capsys):
        # JSON's 1e309 parses to inf, which the options reject on loading,
        # so dump exits 1 with that one line before printing anything
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SYM_OK)[:-1] + ', "solver": {"xi_max": 1e309}}')
        assert main(["dump", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: key 'solver': xi_max must be positive and finite\n"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_solve_with_a_residual_that_is_not_finite(
        self, tmp_path, capsys, monkeypatch, value
    ):
        report = stefan.ResidualReport(value, 0.0, 0.0, 66)
        monkeypatch.setattr(stefan.cli, "validate", lambda sol, m: report)
        path = write_config(tmp_path, SYM_OK)
        assert main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: output field 'residuals.max_ode_residual' is not finite\n"
        )


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

    def test_overflowing_sums_end_solve_with_exit_1(self, tmp_path, capsys):
        # finite energy terms, but the sum 2 + 2e308 of S_upper does not
        # fit; the solve raises before any step
        cfg = {
            "temperatures": [-1.0, 0.0, 1.0, 2.0],
            "diffusivities": [1.0, 1.0, 1.0],
            "conductivities": [1.0, 1.0, 1.0],
            "stefan_numbers": [1e308, 1e308],
        }
        assert main(["solve", write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: well-posedness sums pass the largest double")
        assert captured.err.count("\n") == 1

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


class TestPostSolveOverflow:
    """Coercive data whose converged front lies past |xi/a| of about 53,
    where assemble's exp(-log gap) overflows: solve and profile exit 1
    with one error line naming the layer, not a traceback."""

    # minimize converges to xi* = -7.36, so xi/a = -73.6 on phase 0
    CONFIG = {
        "temperatures": [-1.0, 0.0, 1000.0],
        "diffusivities": [0.1, 1.0],
        "conductivities": [1e-6, 1.0],
        "stefan_numbers": [0.0],
    }

    def _argvs(self, path, tmp_path):
        return [["solve", path],
                ["profile", path, "--t", "1", "--x-min", "-1", "--x-max", "1",
                 "--samples", "3", "--out", str(tmp_path / "p.csv")]]

    def test_solve_and_profile_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        assert main(["check", path]) == 0
        capsys.readouterr()
        for argv in self._argvs(path, tmp_path):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: assemble failed at the converged fronts: math range error\n")
        assert not (tmp_path / "p.csv").exists()

    def test_a_validate_error_names_validate(self, tmp_path, capsys, monkeypatch):
        def validate(sol, samples_per_phase):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(sys.modules["stefan.cli"], "validate", validate)
        assert main(["solve", write_config(tmp_path, SYM_OK)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: validate failed at the converged fronts: float division by zero\n")

    def test_processes_print_no_traceback(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(stefan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = write_config(tmp_path, self.CONFIG)
        for argv in self._argvs(path, tmp_path):
            proc = subprocess.run(
                [sys.executable, "-m", "stefan", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: assemble failed")
            assert proc.stderr.count("\n") == 1
            assert "Traceback" not in proc.stderr


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [100, 200])
def test_large_solve_prints_the_scalar_paths_bytes(tmp_path, capsys, monkeypatch, n):
    # n = 100 converges, n = 200 ends in the roundoff stall (exit 4)
    from helpers import random_convex_spec

    energy_module = sys.modules["stefan.energy"]
    spec = random_convex_spec(np.random.default_rng(0), n)
    path = write_config(tmp_path, {
        "temperatures": list(spec.u), "diffusivities": list(spec.a),
        "conductivities": list(spec.k), "stefan_numbers": list(spec.d),
    })
    outputs = []
    for threshold in (1, math.inf):
        monkeypatch.setattr(energy_module, "_VECTOR_N", threshold)
        code = main(["solve", path])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == (0 if n == 100 else 4)
    assert outputs[0] == outputs[1]
