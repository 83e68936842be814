"""Newton solver, divergence detection, and the brute-force oracles."""
import dataclasses
import importlib
import math
import re
import signal

import numpy as np
import pytest

import stefan.kernel
from stefan import (
    EnergyOverflow,
    InfeasiblePoint,
    NewtonBreakdown,
    ProblemSpec,
    SolveOptions,
    SolveStatus,
    check_wellposedness,
    energy,
    gradient,
    grid_search,
    hessian,
    minimize,
    newton_step,
    ray_point,
    single_front_bisection,
    stefan_residuals,
)

import stefan.optimize
from stefan.energy import _Point
from stefan.optimize import _damped_step, _default_start, _factor_solve, _negative_curvature

from helpers import (
    count_points,
    damped_step,
    dot,
    ldl_newton,
    random_coercive_spec,
    random_convex_spec,
    random_fronts,
    random_noncoercive_spec,
    strips,
    takes_series,
)

SYM = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.0,))
ASYM = ProblemSpec(u=(-1.0, 0.0, 2.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.0,))
MIRROR = ProblemSpec(u=(-2.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.0,))
THREE = ProblemSpec(
    u=(-2.0, -0.5, 0.7, 1.1, 2.4),
    a=(1.2, 0.8, 1.5, 0.9),
    k=(0.7, 1.9, 1.1, 0.6),
    d=(0.3, -0.2, 0.5),
)
TWO = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0), k=(1.0, 1.0, 1.0),
                  d=(0.0, 0.0))
SINK = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(-1.5,))
# coercive but not convex (margins 11, -9, 11): from the default start the
# first Newton step is damped, and the solve converges to a minimum near
# (-0.4909, 0, 0.4909)
WELL = ProblemSpec(
    u=(-1.5, -0.5, 0.5, 1.5, 2.5),
    a=(1.0, 1.0, 1.0, 1.0),
    k=(1.0, 1.0, 1.0, 1.0),
    d=(5.0, -5.0, 5.0),
)
SINK2 = ProblemSpec(
    u=(-1.0, -0.2, 0.3, 1.0),
    a=(1.0, 0.9, 1.1),
    k=(0.2, 0.3, 0.25),
    d=(-1.0, -1.2),
)

# root of the single-front balance for ASYM; the balance reduces to
# cdf(xi) = 1/3, value from the 60-digit inverse
ASYM_ROOT = -0.6091403883479712


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.grad_tol == 1e-12
        assert opts.max_iter == 200
        assert opts.xi_max == 1e2
        assert opts.boundary_fraction == 0.9
        assert opts.damping_min == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolveOptions(boundary_fraction=1.0)
        with pytest.raises(ValueError):
            SolveOptions(xi_max=-1.0)

    @pytest.mark.parametrize("field", ["grad_tol", "xi_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_tolerance_and_bound_must_be_positive_and_finite(self, field, value):
        # an infinite grad_tol certifies any start with positive pivots
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("damping_min", [0.0, -1e-12, math.inf, math.nan])
    def test_damping_min_must_be_positive_and_finite(self, damping_min):
        # an infinite damping_min damps every trial to p = 0
        with pytest.raises(ValueError, match="damping_min"):
            SolveOptions(damping_min=damping_min)

    def test_max_iter_must_be_whole(self):
        # the iteration count never equals a fractional limit, so it
        # would never stop the solve
        spec = random_convex_spec(np.random.default_rng(1), 50)
        for limit in (2.5, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="max_iter"):
                SolveOptions(max_iter=limit)
        opts = SolveOptions(max_iter=2.0)
        assert type(opts.max_iter) is int and opts == SolveOptions(max_iter=2)
        res = minimize(spec, opts)
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.iterations == 2


class TestNewtonStep:
    def test_zero_at_stationary_point(self):
        p, lam = newton_step(SYM, (0.0,))
        assert tuple(p) == (0.0,)
        assert lam == 0.0

    def test_points_downhill(self):
        p, lam = newton_step(SYM, (0.5,))
        assert lam == 0.0
        assert p[0] < 0.0

    @pytest.mark.parametrize("damping_min", [0.0, -1e-12, math.nan, math.inf])
    def test_damping_min_must_be_positive_and_finite(self, damping_min):
        # the rule of SolveOptions: 0 or a negative damping_min would never
        # double past the first trial, NaN never compares, and inf damps
        # every trial to p = 0
        with pytest.raises(ValueError, match="^damping_min must be positive and finite$"):
            newton_step(SINK, (0.0,), damping_min)

    def test_damps_indefinite_hessian(self):
        # margin is negative and the curvature at the origin is
        # 2/pi - 0.75 < 0, so undamped factorization must fail
        p, lam = newton_step(SINK, (0.0,))
        assert lam > 0.0

    @pytest.mark.parametrize("family", [random_convex_spec, random_coercive_spec])
    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_banded_solve_matches_dense(self, family, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            spec = family(rng, n)
            xi = random_fronts(rng, n)
            p, lam = newton_step(spec, xi)
            h = hessian(spec, xi) + lam * np.eye(n)
            want = np.linalg.solve(h, -gradient(spec, xi))
            np.testing.assert_allclose(p, want, rtol=1e-10, atol=0.0)

    def test_damped_solve_matches_dense(self):
        rng = np.random.default_rng(41)
        damped = 0
        for trial in range(40):
            n = (1, 2, 3, 5)[trial % 4]
            spec = random_noncoercive_spec(rng, n)
            xi = random_fronts(rng, n)
            p, lam = newton_step(spec, xi)
            if lam == 0.0:
                continue
            damped += 1
            h = hessian(spec, xi) + lam * np.eye(n)
            want = np.linalg.solve(h, -gradient(spec, xi))
            np.testing.assert_allclose(p, want, rtol=1e-10, atol=0.0)
            assert float(gradient(spec, xi) @ p) < 0.0
        assert damped >= 5

    def test_negative_curvature_certificate(self):
        # None exactly when the Hessian is positive definite, otherwise
        # a direction with v.H.v <= 0
        rng = np.random.default_rng(43)
        indefinite = 0
        for trial in range(40):
            n = (1, 2, 4, 7)[trial % 4]
            spec = random_noncoercive_spec(rng, n)
            xi = random_fronts(rng, n)
            h = hessian(spec, xi)
            v = _negative_curvature(list(np.diag(h)), list(np.diag(h, 1)))
            lowest = np.linalg.eigvalsh(h)[0]
            if lowest > 1e-12:
                assert v is None
            elif lowest < -1e-12:
                assert v is not None
                indefinite += 1
                v = np.array(v)
                assert max(abs(v)) == 1.0
                assert float(v @ h @ v) <= 1e-12
        assert indefinite >= 5

    def test_breakdown_only_on_nonfinite_hessian(self):
        g = [1.0, -1.0]
        # wildly indefinite but finite: the Gershgorin bound ends the schedule
        p, lam = _checked_step(g, [-1.9e15, 1.0], [3.0], 1e-12)
        assert lam > 1.9e15 and all(map(math.isfinite, p))
        for diag, off in (
            ([math.inf, 1.0], [0.0]),
            ([1.0, 1.0], [math.nan]),
            ([math.inf, 1.0], [-math.inf]),  # bands whose sum is NaN
        ):
            with pytest.raises(NewtonBreakdown, match="^Hessian is not finite$"):
                _damped_step(g, diag, off, 1e-12)

    def test_finite_bands_whose_sum_overflows(self):
        # the sum of the bands is inf, yet every entry is finite: a step
        g = [1.0, 1.0]
        p, lam = _checked_step(g, [1e308, 1e308], [0.0], 1e-12)
        assert lam.hex() == "0x0.0p+0"
        assert [v.hex() for v in p] == [(-1e-308).hex()] * 2
        # singular at lam = 0, so damped
        args = (g, [1e308, 1e308], [1e308], 1e-12)
        p, lam = _checked_step(*args)
        assert lam.hex() == "0x1.19799812dea11p+970"
        assert [v.hex() for v in p] == ["-0x0.330d67819e8d2p-1022", "-0x0.4000000000000p-1022"]
        assert _same_step((p, lam), damped_step(*args))


def _indefinite_bands(rng, n, need):
    """Random tridiagonal bands whose lowest eigenvalue is -need."""
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    lowest = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
    return [float(v) for v in diag - lowest - need], [float(v) for v in off]


def _checked_step(g, diag, off, damping_min):
    """_damped_step's (p, lam), once its third value is g.p bit for bit."""
    p, lam, slope = _damped_step(g, diag, off, damping_min)
    assert slope.hex() == dot(g, p).hex()
    return p, lam


def _same_step(got, want):
    return [v.hex() for v in got[0]] == [v.hex() for v in want[0]] and (
        got[1].hex() == want[1].hex()
    )


# (g, diag, off, damping_min): zero gradients, lambdas ending exactly
# at, just past and just short of the Gershgorin bound, the wildly
# indefinite case and other damping_min values
_SCHEDULE_EDGES = [
    ([0.0, 0.0, 0.0], [-1.0, 2.0, -3.0], [0.5, 0.5], 1e-12),
    ([0.0], [-7.0], [], 1e-12),
    ([0.0, 0.0], [2.0, 2.0], [1.0], 1e-12),
    ([1.0], [-1e-12 * 2.0**30], [], 1e-12),
    ([1.0], [math.nextafter(-1e-12 * 2.0**30, 0.0)], [], 1e-12),
    ([1.0], [math.nextafter(-1e-12 * 2.0**30, -1.0)], [], 1e-12),
    ([1.0, -2.0, 0.5], [-4.0, -4.0, -4.0], [0.0, 0.0], 1e-12),
    ([1.0, -1.0], [-1.9e15, 1.0], [3.0], 1e-12),
    ([1.0, 1.0], [-1.0, 1.0], [0.5], 5e-324),
    ([1.0, 1.0], [-1.0, 1.0], [0.5], 1.0),
    ([1.0, 1.0], [-1.0, 1.0], [0.5], 3e300),
    ([-1.0], [1e-3], [], 1e-12),
    # p underflows to zero, so only lam > bound makes the step usable
    ([5e-324], [-1e300], [], 1e-12),
    # -d_k / |v|^2 rounds up past lam = 1e-12, which the walk accepts
    (
        [1.0, 1.0, 1.0],
        [
            float.fromhex("0x1.e9b3d62d0eb64p+0"),
            float.fromhex("0x1.3fa8e58d4b0c2p+0"),
            float.fromhex("0x1.a67ffa69bd205p+0"),
        ],
        [float.fromhex("-0x1.8b514177b18cbp+0"), float.fromhex("-0x1.e1697b9431fbbp-5")],
        math.ldexp(1e-12, -60),
    ),
    # positive definite, but p underflows to zero: lam = 0 does not descend
    ([5e-324], [1e300], [], 1e-12),
]


def _same_factor_solve(g, diag, off, lam):
    """_factor_solve against the factor-then-solve oracle, in hex; returns k."""
    k, l, p = _factor_solve(diag, off, lam, g)
    want_k, want_l, want_p, want_slope = ldl_newton(g, diag, off, lam)
    assert k == want_k
    assert [v.hex() for v in l[1 : k + 1]] == [v.hex() for v in want_l[1:]]
    if want_p is None:
        assert p is None
    else:
        assert [v.hex() for v in p] == [v.hex() for v in want_p]
        assert dot(g, p).hex() == want_slope.hex()
    return k


class TestFactorSolve:
    """One pass that factors, tests and solves, against factor-then-solve."""

    @pytest.mark.parametrize("n", [1, 2, 8, 50, 200])
    def test_damping_schedule_matches_the_oracle(self, n):
        rng = np.random.default_rng([83, n])
        complete = incomplete = 0
        for trial in range(6):
            g = [float(v) for v in rng.normal(size=n)]
            if trial % 2:
                diag, off = _indefinite_bands(rng, n, 10.0 ** rng.uniform(-12.0, 3.0))
            else:  # diagonally dominant, so positive definite
                diag = [float(v) for v in rng.uniform(2.0, 3.0, size=n)]
                off = [float(v) for v in rng.uniform(-0.9, 0.9, size=n - 1)]
            for lam in [0.0] + [math.ldexp(1e-12, k) for k in range(0, 60, 3)]:
                if _same_factor_solve(g, diag, off, lam) == n:
                    complete += 1
                else:
                    incomplete += 1
        assert complete and incomplete

    @pytest.mark.parametrize("n", [1, 2, 8, 50, 200])
    def test_first_failing_pivot_anywhere(self, n):
        rng = np.random.default_rng([89, n])
        g = [float(v) for v in rng.normal(size=n)]
        diag = [float(v) for v in rng.uniform(2.0, 3.0, size=n)]
        off = [float(v) for v in rng.uniform(-0.9, 0.9, size=n - 1)]
        for j in sorted({0, n // 2, n - 1}):
            bad = list(diag)
            bad[j] = -1.0
            for lam in (0.0, 1e-12, 0.5):
                assert _same_factor_solve(g, bad, off, lam) == j
        # a pivot of exactly zero fails too
        bad = [0.0] + diag[1:]
        assert _same_factor_solve(g, bad, off, 0.0) == 0


class TestDampingSchedule:
    def test_random_bands_match_the_walk(self):
        rng = np.random.default_rng(71)
        lams = []
        for n in range(1, 51):
            for trial in range(4):
                need = 10.0 ** rng.uniform(-12.0, 6.0)
                diag, off = _indefinite_bands(rng, n, need)
                g = [0.0] * n if trial == 3 else [float(v) for v in rng.normal(size=n)]
                want = damped_step(g, diag, off, 1e-12)
                assert _same_step(_checked_step(g, diag, off, 1e-12), want), (n, need)
                lams.append(want[1])
        assert min(lams) < 1e-9 and max(lams) > 1e5

    @pytest.mark.parametrize("g, diag, off, damping_min", _SCHEDULE_EDGES)
    def test_edge_cases_match_the_walk(self, g, diag, off, damping_min):
        want = damped_step(g, diag, off, damping_min)
        assert _same_step(_checked_step(g, diag, off, damping_min), want)

    def test_overflowing_bound_breaks_down_like_the_walk(self):
        # the Gershgorin shift overflows and no finite damping helps
        args = ([1.0, 1.0], [-1e308, -1e308], [1e308], 1e-12)
        with pytest.raises(NewtonBreakdown):
            damped_step(*args)
        with pytest.raises(NewtonBreakdown):
            _damped_step(*args)

    def test_newton_step_matches_the_walk(self):
        rng = np.random.default_rng(73)
        damped = 0
        for trial in range(60):
            n = 1 + trial % 8
            spec = random_noncoercive_spec(rng, n)
            xi = random_fronts(rng, n)
            h = hessian(spec, xi)
            g = [float(v) for v in gradient(spec, xi)]
            want = damped_step(g, list(np.diag(h)), list(np.diag(h, 1)), 1e-12)
            p, lam = newton_step(spec, xi)
            assert _same_step((list(p), lam), want)
            damped += lam > 0.0
        assert damped >= 10

    @pytest.mark.parametrize("n", [1, 2, 8, 50])
    def test_positive_definite_bands_take_one_factorization(self, n, monkeypatch):
        calls = []
        factor_solve = stefan.optimize._factor_solve

        def counted(diag, off, lam, g):
            calls.append(lam)
            return factor_solve(diag, off, lam, g)

        monkeypatch.setattr(stefan.optimize, "_factor_solve", counted)
        rng = np.random.default_rng([97, n])
        for trial in range(8):
            # diagonally dominant, so positive definite
            diag = [float(v) for v in rng.uniform(2.0, 3.0, size=n)]
            off = [float(v) for v in rng.uniform(-0.9, 0.9, size=n - 1)]
            g = [0.0] * n if trial == 7 else [float(v) for v in rng.normal(size=n)]
            want = damped_step(g, diag, off, 1e-12)
            del calls[:]
            got = _checked_step(g, diag, off, 1e-12)
            assert calls == [0.0]
            assert got[1] == 0.0 and _same_step(got, want)

    def test_damped_step_tries_each_doubling_in_turn(self, monkeypatch):
        calls = []
        factor_solve = stefan.optimize._factor_solve

        def counted(diag, off, lam, g):
            calls.append(lam)
            return factor_solve(diag, off, lam, g)

        monkeypatch.setattr(stefan.optimize, "_factor_solve", counted)
        rng = np.random.default_rng(79)
        for n in (1, 2, 8, 50):
            for _ in range(10):
                need = 10.0 ** rng.uniform(-12.0, 6.0)
                diag, off = _indefinite_bands(rng, n, need)
                g = [float(v) for v in rng.normal(size=n)]
                del calls[:]
                _, lam = _checked_step(g, diag, off, 1e-12)
                k = math.frexp(lam)[1] - math.frexp(1e-12)[1]
                assert lam == math.ldexp(1e-12, k) and k >= 0
                # lam = 0, then damping_min doubled exactly up to lam
                assert calls == [0.0] + [math.ldexp(1e-12, j) for j in range(k + 1)]


class TestMinimize:
    def test_symmetric_converges_at_origin(self):
        res = minimize(SYM)
        assert res.status is SolveStatus.CONVERGED
        assert res.xi_star is not None
        assert abs(res.xi_star.xi[0]) <= 1e-10
        assert res.energy_value == pytest.approx(1.3862943611198906, rel=1e-15)
        assert res.iterations == 0  # the default start is already optimal

    def test_single_front_matches_frozen_root(self):
        res = minimize(ASYM)
        assert res.status is SolveStatus.CONVERGED
        assert res.xi_star.xi[0] == pytest.approx(ASYM_ROOT, abs=1e-10)

    def test_three_front_instance(self):
        res = minimize(THREE)
        assert res.status is SolveStatus.CONVERGED
        assert res.grad_norm <= 1e-12
        xi = res.xi_star.xi
        assert all(b > a for a, b in zip(xi, xi[1:]))
        # stationarity through an independent transcription of the balances
        resid = stefan_residuals(THREE, res.xi_star)
        assert max(abs(r) for r in resid) <= 1e-10

    def test_trace_strictly_decreasing(self):
        res = minimize(THREE)
        es = [rec.energy for rec in res.trace]
        assert len(es) >= 2
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_trace_shape(self):
        res = minimize(THREE)
        assert res.trace[0].iteration == 0
        assert res.trace[0].grad_norm > res.grad_norm
        its = [rec.iteration for rec in res.trace]
        assert its == sorted(its)

    def test_multistart_agreement(self):
        rng = np.random.default_rng(5)
        spec = random_convex_spec(rng, 3, margin_floor=0.2)
        solutions = []
        for _ in range(10):
            res = minimize(spec, start=random_fronts(rng, 3))
            assert res.status is SolveStatus.CONVERGED
            solutions.append(np.array(res.xi_star.xi))
        base = solutions[0]
        for other in solutions[1:]:
            assert float(np.max(np.abs(other - base))) <= 1e-8

    def test_divergence_on_noncoercive_spec(self):
        assert not check_wellposedness(SINK2).coercive
        res = minimize(SINK2)
        assert res.status is SolveStatus.DIVERGED
        assert res.xi_star is None
        # decided by the coercivity sums, before any step
        assert res.iterations == 0
        start = _default_start(SINK2)
        assert res.energy_value == start.energy
        assert res.grad_norm == start.grad_norm()
        assert res.trace == ((0, start.energy, start.grad_norm()),)

    def test_saddle_is_not_certified(self):
        # the origin is stationary for SINK but the curvature there is
        # 2/pi - 0.75 < 0; SINK is not coercive, so a start there ends
        # Diverged at once and is never reported as a solution
        assert tuple(gradient(SINK, (0.0,))) == (0.0,)
        res = minimize(SINK, start=(0.0,))
        assert res.status is SolveStatus.DIVERGED
        assert res.xi_star is None
        assert res.iterations == 0
        assert res.grad_norm == 0.0
        assert res.trace == ((0, energy(SINK, (0.0,)), 0.0),)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_close_fronts_at_n_100_converge(self, seed):
        # fronts 0.002-0.2 apart: differenced narrow strips used to leave
        # the gradient a roundoff floor above grad_tol (MaxIterations)
        res = minimize(random_convex_spec(np.random.default_rng(seed), 100))
        assert res.status is SolveStatus.CONVERGED
        assert res.grad_norm <= SolveOptions().grad_tol

    @pytest.mark.parametrize("seed, n", [(127, 8), (1634, 8), (2287, 2)])
    def test_noncoercive_escape_does_not_raise(self, seed, n):
        spec = random_noncoercive_spec(np.random.default_rng(seed), n)
        res = minimize(spec)
        assert res.status is SolveStatus.DIVERGED
        assert res.iterations == 0

    def test_noncoercive_draws_diverge_with_a_ray_certificate(self):
        # the energy is unbounded below along the escape ray of the first
        # negative upper sum, so no draw has a minimizer to report
        rng = np.random.default_rng(26)
        for trial in range(300):
            spec = random_noncoercive_spec(rng, 1 + trial % 8)
            rep = check_wellposedness(spec)
            assert not rep.coercive
            res = minimize(spec)
            assert res.status is SolveStatus.DIVERGED
            assert res.iterations == 0 and res.xi_star is None
            r = next(j for j, s in enumerate(rep.S_upper, start=1) if s < 0.0)
            ray = [energy(spec, ray_point(spec, r, sigma)) for sigma in (10.0, 100.0, 1000.0)]
            assert ray[0] > ray[1] > ray[2]

    def test_lower_sum_alone_is_certified_by_the_mirrored_ray(self):
        # only S_lower is negative: the last fronts escape to +inf, along
        # the mirror image of ray_point's ray
        spec = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0),
                           k=(1.0, 1.0, 1.0), d=(0.5, -1.5))
        rep = check_wellposedness(spec)
        assert rep.S_upper == (1.5, 1.0) and rep.S_lower == (1.0, -0.5)
        res = minimize(spec)
        assert res.status is SolveStatus.DIVERGED and res.iterations == 0
        r = max(j for j, s in enumerate(rep.S_lower, start=1) if s < 0.0)
        n = spec.n

        def mirrored_ray(sigma):
            # fronts r..n at sigma + (i - r), the others at (i - r)
            return [sigma + i - r if i >= r else float(i - r) for i in range(1, n + 1)]

        ray = [energy(spec, mirrored_ray(sigma)) for sigma in (10.0, 100.0, 1000.0)]
        assert ray[0] > ray[1] > ray[2]

    def test_coercivity_is_tested_once_per_spec_before_any_step(self, monkeypatch):
        events = []
        # stefan.energy is the function, so the module is looked up by name
        energy_module = importlib.import_module("stefan.energy")
        sums, damped = energy_module._running_fsums, stefan.optimize._damped_step

        def summing(*args, **kwargs):
            events.append("sums")
            return sums(*args, **kwargs)

        def stepping(*args):
            events.append("step")
            return damped(*args)

        monkeypatch.setattr(energy_module, "_running_fsums", summing)
        monkeypatch.setattr(stefan.optimize, "_damped_step", stepping)
        spec = random_convex_spec(np.random.default_rng(3), 50)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        # S_upper and S_lower, then the Newton steps
        assert events == ["sums", "sums"] + ["step"] * res.iterations
        del events[:]
        assert minimize(spec) == res
        assert events == ["step"] * res.iterations
        del events[:]
        assert minimize(dataclasses.replace(SINK2)).status is SolveStatus.DIVERGED
        assert events == ["sums", "sums"]
        # coercive data never diverge, however far the iterates go
        res = minimize(THREE, SolveOptions(xi_max=1.0), start=ray_point(THREE, 3, 1e4))
        assert res.iterations >= 10
        assert res.status is SolveStatus.CONVERGED

    def test_overflowing_sums_raise_before_any_step(self):
        # the strip energies are finite but S_upper[1] = 2 + 2e308 is not;
        # the solve used to take 165 steps and end MaxIterations
        spec = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0),
                           k=(1.0, 1.0, 1.0), d=(1e308, 1e308))
        assert math.isfinite(_default_start(spec).energy)
        for _ in range(2):
            with pytest.raises(EnergyOverflow):
                minimize(spec)

    @pytest.mark.parametrize("r", [2, 3])
    def test_coercive_escape_is_not_diverged(self, r):
        # every early iterate lies far outside [-xi_max, xi_max], which
        # no longer matters: coercive data have a minimizer, so the solve
        # must go on and find it
        assert check_wellposedness(THREE).coercive
        start = ray_point(THREE, r, 1e4)
        res = minimize(THREE, SolveOptions(xi_max=1.0), start=start)
        assert res.status is SolveStatus.CONVERGED
        want = minimize(THREE).xi_star.xi
        assert res.xi_star.xi == pytest.approx(want, abs=1e-10)

    def test_far_start_with_unresolved_strips_does_not_raise(self, monkeypatch):
        # far out, distinct fronts can round to one scaled value (here
        # x/0.8 at 1e6); such trials are infeasible, not a log_gap error
        x = [1e6, math.nextafter(1e6, math.inf)]
        assert x[0] / 0.8 == x[1] / 0.8
        spec = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 0.8, 1.0),
                           k=(1.0, 1.0, 1.0), d=(0.0, 0.0))
        with pytest.raises(InfeasiblePoint):
            _Point(spec, x)
        res = minimize(THREE, SolveOptions(xi_max=1.0), start=ray_point(THREE, 2, 1e6))
        assert res.status is not SolveStatus.DIVERGED
        # at 1e15 the line search does meet such a trial, and goes on
        # to a shorter step
        trials, raised = [], []

        def counting(spec, fronts):
            trials.append(list(fronts))
            try:
                return _Point(spec, fronts)
            except InfeasiblePoint:
                raised.append(len(trials))
                raise

        monkeypatch.setattr(stefan.optimize, "_Point", counting)
        res = minimize(THREE, SolveOptions(xi_max=1.0), start=ray_point(THREE, 2, 1e15))
        assert len(raised) == 1
        assert raised[0] < len(trials)
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.iterations == 1

    def test_noncoercive_data_can_have_a_local_minimum(self):
        # this energy has a genuine interior local minimum near 0.439,
        # but it is unbounded below, so it has no minimizer: the solve
        # reads Diverged, also when started at that local minimum
        spec = random_noncoercive_spec(np.random.default_rng(13), 1)
        assert not check_wellposedness(spec).coercive
        x = single_front_bisection(spec, (0.3, 0.6))
        assert x == pytest.approx(0.438989165966, abs=1e-11)
        assert max(abs(r) for r in stefan_residuals(spec, (x,))) <= 1e-12
        assert hessian(spec, (x,))[0, 0] > 0.0
        for start in (None, (x,)):
            res = minimize(spec, start=start)
            assert res.status is SolveStatus.DIVERGED
            assert res.iterations == 0 and res.xi_star is None
        assert res.energy_value == energy(spec, (x,))

    def test_one_strip_pass_per_iteration(self, monkeypatch):
        calls = []
        real = stefan.kernel.log_gap

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(stefan.kernel, "log_gap", counting)
        built = count_points(monkeypatch)
        n = 50
        spec = random_convex_spec(np.random.default_rng(3), n)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations >= 5
        assert len(built) <= 2 * res.iterations
        # each pass calls log_gap once per strip, but for the strips that
        # the vector pass takes by its array series
        vector = n >= importlib.import_module("stefan.energy")._VECTOR_N
        got, want = list(calls), []
        for xi in built:
            lo, hi, _ = strips(spec.a, xi)
            want += [(b, t) for b, t in zip(lo, hi) if not (vector and takes_series(b, t))]
        assert got == want
        assert (len(got) < (n + 1) * len(built)) is vector

    def test_one_strip_pass_per_iteration_on_the_vector_point(self, monkeypatch):
        # strip 0, then the other kernel strips in order, on every pass
        monkeypatch.setattr(importlib.import_module("stefan.energy"), "_VECTOR_N", 1)
        self.test_one_strip_pass_per_iteration(monkeypatch)

    def test_certified_minimum_is_factored_once(self, monkeypatch):
        calls = []
        real = stefan.optimize._negative_curvature

        def counting(diag, off):
            calls.append(1)
            return real(diag, off)

        monkeypatch.setattr(stefan.optimize, "_negative_curvature", counting)
        res = minimize(THREE)
        assert res.status is SolveStatus.CONVERGED
        assert len(calls) == 1
        # with the last step on the final iteration, the loop head
        # certifies the same point
        del calls[:]
        last = minimize(THREE, SolveOptions(max_iter=res.iterations))
        assert last == res
        assert len(calls) == 1

    def test_curvature_step_is_turned_downhill(self, monkeypatch):
        # No coercive spec with a saddle is known (searches of random and
        # mirror-symmetric draws found none), so the curvature branch is
        # reached with a loose grad_tol.  At x the Hessian of WELL is
        # indefinite and max|g| = 2.78 <= 3, so the first direction is the
        # curvature vector v, with g.v = 0.069 > 0: it climbs, is flipped,
        # and the full step lands at x - v.
        x = [-1.0, 0.3, 1.0]
        point = _Point(WELL, x)
        v = _negative_curvature(*point.bands())
        assert v is not None and v[1] == 1.0
        assert 0.0 < dot(point.gradient(), v) and point.grad_norm() <= 3.0
        directions, trials = [], []
        curvature = stefan.optimize._negative_curvature

        def recording_curvature(diag, off):
            v = curvature(diag, off)
            directions.append(v)
            return v

        def recording_point(spec, fronts):
            trials.append(list(fronts))
            return _Point(spec, fronts)

        monkeypatch.setattr(stefan.optimize, "_negative_curvature", recording_curvature)
        monkeypatch.setattr(stefan.optimize, "_Point", recording_point)
        res = minimize(WELL, SolveOptions(grad_tol=3.0), start=x)
        assert directions[0] == v
        assert trials[1] == [xi - vi for xi, vi in zip(x, v)]
        assert res.trace[1].energy < res.trace[0].energy
        # the point after the step is convex there, and within grad_tol
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations == 1

    def test_damped_direction_that_does_not_descend_ends_max_iterations(
        self, monkeypatch
    ):
        # past the Gershgorin bound g.p can round to >= 0; the solve stops
        # where it is, after the one step it took, although this p (the
        # true step, its slope replaced by 0) would be accepted by a search
        want = minimize(THREE, SolveOptions(max_iter=1))
        damped = stefan.optimize._damped_step
        lams = []

        def level_second(g, diag, off, damping_min):
            step = damped(g, diag, off, damping_min)
            lams.append(step[1])
            return step if len(lams) == 1 else (step[0], step[1], 0.0)

        monkeypatch.setattr(stefan.optimize, "_damped_step", level_second)
        res = minimize(THREE)
        assert len(lams) == 2
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.xi_star is None and res.iterations == 1
        assert res.energy_value == want.energy_value and res.grad_norm == want.grad_norm
        assert res.trace == want.trace and len(res.trace) == 2

    def test_roundoff_stall_ends_max_iterations(self):
        # At n = 200 no trial is accepted once max|g| is near 2e-12: the
        # line search stalls long before max_iter.  ROADMAP item 2 will
        # give this exit its own status on purpose; until then it is
        # reported as MaxIterations, without fronts.
        res = minimize(random_convex_spec(np.random.default_rng(0), 200))
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.iterations == 5
        assert res.xi_star is None
        assert 1e-12 < res.grad_norm <= 3e-12

    def test_max_iterations_is_honest(self):
        res = minimize(THREE, SolveOptions(max_iter=1))
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.xi_star is None
        assert res.grad_norm > 1e-12

    def test_tight_start_stays_feasible(self):
        res = minimize(THREE, start=(-0.001, 0.0, 0.001))
        assert res.status is SolveStatus.CONVERGED
        xi = res.xi_star.xi
        assert all(b > a for a, b in zip(xi, xi[1:]))


class TestFirstStepCap:
    """The first trial length of the line search, and which steps get it."""

    @staticmethod
    def first_trial(monkeypatch, room, fraction, first, p=(1.0, 0.0)):
        # fronts (0, room) with p = (1, 0) collide at step length room; every
        # trial is refused, so the first one recorded is the longest
        point = _Point(TWO, [0.0, room])
        trials = []

        def refuse(spec, fronts):
            trials.append(fronts)
            raise InfeasiblePoint("refused")

        monkeypatch.setattr(stefan.optimize, "_Point", refuse)
        step = stefan.optimize._line_search(
            TWO, point, list(p), -1.0, math.inf, False, fraction, first
        )
        assert step is None
        return trials[0][0] / p[0]

    @pytest.mark.parametrize("room, fraction, first, alpha", [
        # room < 1: Newton's step would close the strip; stop at the
        # minimizer of its barrier along the step
        (0.5, 0.9, True, 0.5 / 1.5),
        (0.25, 0.9, True, 0.25 / 1.25),
        # 1 <= room < 2: half way to the collision
        (1.0, 0.9, True, 0.5),
        (1.5, 0.9, True, 0.75),
        (1.9, 0.9, True, 0.95),
        # room >= 2: the full step, as before
        (2.0, 0.9, True, 1.0),
        (3.0, 0.9, True, 1.0),
        # boundary_fraction below 1/2 still binds
        (1.5, 0.3, True, 0.3 * 1.5),
        (0.5, 0.3, True, 0.3 * 0.5),
        # damped or later steps: boundary_fraction alone
        (0.5, 0.9, False, 0.9 * 0.5),
        (1.0, 0.9, False, 0.9),
        (1.5, 0.9, False, 1.0),
    ])
    def test_first_trial_length(self, monkeypatch, room, fraction, first, alpha):
        assert self.first_trial(monkeypatch, room, fraction, first) == alpha

    def test_no_collision_takes_the_full_step(self, monkeypatch):
        # the fronts move apart: room is infinite
        assert self.first_trial(monkeypatch, 1.0, 0.9, True, p=(-1.0, 0.0)) == 1.0

    @pytest.mark.parametrize("spec, damped_first", [
        (random_convex_spec(np.random.default_rng(20), 50), False),
        (WELL, True),
    ])
    def test_only_the_undamped_first_step_is_capped(self, monkeypatch, spec,
                                                     damped_first):
        lams, firsts = [], []
        damped, search = stefan.optimize._damped_step, stefan.optimize._line_search

        def recording_damped(*args):
            step = damped(*args)
            lams.append(step[1])
            return step

        def recording_search(*args):
            firsts.append(args[-1])
            return search(*args)

        monkeypatch.setattr(stefan.optimize, "_damped_step", recording_damped)
        monkeypatch.setattr(stefan.optimize, "_line_search", recording_search)
        res = minimize(spec)
        assert res.iterations >= 2
        assert (lams[0] > 0.0) is damped_first
        assert firsts == [not damped_first] + [False] * (len(firsts) - 1)

    @pytest.mark.parametrize("seed", [20, 29, 31, 33, 46, 51, 54, 56, 93])
    def test_n_50_draws_converge_in_six_iterations(self, seed):
        # each took 8 or 9 iterations when the first step went
        # boundary_fraction of the way to a collision
        res = minimize(random_convex_spec(np.random.default_rng(seed), 50))
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations <= 6


class TestDefaultStart:
    @pytest.mark.parametrize("u, a, k", [
        ((-1.0, 0.25, 2.0), 0.8, 1.7),
        ((-2.0, -1.1, -0.3, 0.4, 1.6, 2.2, 3.5), 1.3, 0.7),
        # p_2 = 1 - 1.8e-11 rounds 3e-17 off, which would move its front by
        # 3e-7; the upper share w_2 / W keeps it exact
        ((-3.0, 0.7, 2.4999999999, 2.5), 0.9, 1.1),
        # unequal conductivities: the shares of u alone would be off
        ((-1.0, 0.25, 2.0, 3.5), 0.8, (0.3, 1.7, 0.9)),
        # the last upper share is 5e-13, which 1 - p_2 would lose to rounding
        ((-1.0, 0.0, 1.0, 2.0), 1.1, (1.0, 1.0, 1e-12)),
    ])
    def test_zero_latent_heat_is_solved_at_the_start(self, u, a, k):
        import mpmath

        n = len(u) - 2
        if not isinstance(k, tuple):
            k = (k,) * (n + 1)
        spec = ProblemSpec(u=u, a=(a,) * (n + 1), k=k, d=(0.0,) * n)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations == 0
        with mpmath.workdps(40):
            w = [mpmath.mpf(ki) * (mpmath.mpf(hi) - lo)
                 for ki, lo, hi in zip(k, u, u[1:])]
            total = mpmath.fsum(w)
            for i, xi in enumerate(res.xi_star.xi):
                p = mpmath.fsum(w[:i + 1]) / total
                want = float(2 * a * mpmath.erfinv(2 * p - 1))
                assert xi == pytest.approx(want, rel=2e-15, abs=1e-16)

    def test_middle_temperature_starts_at_the_origin(self):
        assert _default_start(SYM).fronts == [0.0]
        assert _default_start(SINK).fronts == [0.0]

    def test_unresolved_quantiles_fall_back_to_equispaced_fronts(self):
        # p_1 = 5e-324 / 3 underflows to 0, so cdf^-1(p_1) = -inf
        under = ProblemSpec(u=(0.0, 5e-324, 1.0, 3.0), a=(1.0, 1.0, 1.0),
                            k=(1.0, 1.0, 1.0), d=(1.0, 0.5))
        # p_1 and p_2 differ by 4e-15 relative, and so their far-tail
        # quantiles round to one double
        tied = ProblemSpec(u=(0.0, 1e-20, 1.000000000000004e-20, 3.0),
                           a=(1.0, 1.0, 1.0), k=(1.0, 1.0, 1.0), d=(0.0, 0.0))
        for spec in (under, tied):
            assert _default_start(spec).fronts == [-0.5, 0.5]
            res = minimize(spec)
            assert res.status is SolveStatus.CONVERGED
            assert res.grad_norm <= 1e-12

    def test_weights_past_the_float_range_are_scaled_first(self):
        # W = 1.6e308 + 1e308 overflows, but no share depends on the scale
        spec = ProblemSpec(u=(-8e307, 0.0, 1e308), a=(1.0, 1.0), k=(1.0, 1.0),
                           d=(0.0,))
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations == 0

    def test_weights_that_underflow_fall_back(self):
        # every k_i du_i = 1e-400 is 0.0, so W = 0 and no share exists
        spec = ProblemSpec(u=(-1e-200, 0.0, 1e-200), a=(1.0, 1.0),
                           k=(1e-200, 1e-200), d=(0.0,))
        assert spec._strip_weights[0] == (0.0, 0.0)
        assert _default_start(spec).fronts == [0.0]
        res = minimize(spec)
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.iterations == 0


class TestRayPoint:
    def test_formula(self):
        assert ray_point(ProblemSpec(u=(-1, 0, 1, 2), a=(1, 1, 1), k=(1, 1, 1),
                                     d=(0.0, 0.0)), 1, 5.0).xi == (-5.0, 1.0)
        assert ray_point(SYM, 1, 3.0).xi == (-3.0,)
        assert ray_point(THREE, 2, 10.0).xi == (-11.0, -10.0, 1.0)

    def test_errors(self):
        with pytest.raises(IndexError):
            ray_point(SYM, 0, 1.0)
        with pytest.raises(IndexError):
            ray_point(SYM, 2, 1.0)
        with pytest.raises(ValueError):
            ray_point(SYM, 1, 0.0)

    def test_energy_decreases_along_ray(self):
        rep = check_wellposedness(SINK)
        assert rep.S_upper[0] < 0.0
        vals = [energy(SINK, ray_point(SINK, 1, s)) for s in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBisection:
    def test_symmetric_root(self):
        root = single_front_bisection(SYM, (-1.0, 1.0))
        assert abs(root) <= 1e-12

    def test_matches_frozen_root(self):
        root = single_front_bisection(ASYM, (-5.0, 5.0))
        assert root == pytest.approx(ASYM_ROOT, abs=1e-10)

    def test_mirror_spec_negates_root(self):
        left = single_front_bisection(ASYM, (-5.0, 5.0))
        right = single_front_bisection(MIRROR, (-5.0, 5.0))
        assert right == pytest.approx(-left, abs=1e-10)

    def test_agrees_with_minimize(self):
        root = single_front_bisection(ASYM, (-5.0, 5.0))
        res = minimize(ASYM)
        assert abs(root - res.xi_star.xi[0]) <= 1e-8

    def test_far_bracket(self):
        # the balance differences upper tails, so a bracket reaching
        # t/a = 40 gives the same root; one reaching 50, short of where a
        # gap underflows, keeps its root's bits
        root = single_front_bisection(ASYM, (-5.0, 40.0))
        assert abs(root - single_front_bisection(ASYM, (-5.0, 5.0))) <= 1e-12
        assert single_front_bisection(ASYM, (-5.0, 50.0)) == -0.6091403883482016

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            single_front_bisection(ASYM, (1.0, 5.0))

    def test_rejects_multifront_spec(self):
        with pytest.raises(ValueError):
            single_front_bisection(THREE, (-1.0, 1.0))

    @staticmethod
    def within(seconds, fn):
        """fn(), or an AssertionError once it has run for seconds."""
        def stalled(signum, frame):
            raise AssertionError(f"no return within {seconds} s")

        old = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(seconds)
        try:
            return fn()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    @staticmethod
    def assert_at_sign_change(spec, root):
        """root's balance is 0, or a float next to root has the other sign."""
        f = [stefan_residuals(spec, (x,))[0] for x in
             (math.nextafter(root, -math.inf), root, math.nextafter(root, math.inf))]
        assert f[1] == 0.0 or (f[1] < 0.0) != (f[0] < 0.0) or (f[1] < 0.0) != (f[2] < 0.0), f

    # one ulp at its root, -13458.004, is 1.8e-12, more than the default
    # tol of 1e-12, so the width test alone never ends
    WIDE_ULP = ProblemSpec(u=(-1.0, 0.0, 2.0), a=(1e4, 7e3), k=(1.0, 3.0), d=(1e-16,))

    def test_ends_where_floats_are_farther_apart_than_tol(self):
        spec = self.WIDE_ULP
        root = self.within(5, lambda: single_front_bisection(spec, (-20000.0, -10000.0)))
        assert root == pytest.approx(-13458.004220736446, abs=1e-11)
        self.assert_at_sign_change(spec, root)

    @pytest.mark.parametrize("spec, bracket", [
        (ASYM, (-5.0, 5.0)),
        (ASYM, (-5.0, 40.0)),
        (WIDE_ULP, (-20000.0, -10000.0)),
    ])
    def test_zero_tol_ends_at_adjacent_floats(self, spec, bracket):
        root = self.within(5, lambda: single_front_bisection(spec, bracket, tol=0.0))
        assert bracket[0] < root < bracket[1]
        self.assert_at_sign_change(spec, root)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
    def test_rejects_nan_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a nonnegative number"):
            self.within(5, lambda: single_front_bisection(ASYM, (-5.0, 5.0), tol=tol))

    @pytest.mark.parametrize("bracket, end", [
        ((-5.0, 60.0), "upper end 60.0"),
        ((-80.0, 5.0), "lower end -80.0"),
    ], ids=["upper", "lower"])
    def test_an_end_whose_gap_underflows_is_named(self, bracket, end):
        # the root lies inside both brackets, but at one end a strip's cdf
        # gap underflows to 0, by which the literal balance would divide
        assert bracket[0] < ASYM_ROOT < bracket[1]
        with pytest.raises(ValueError, match=re.escape(
                f"bracket's {end}: a strip's cdf gap underflows to 0")):
            single_front_bisection(ASYM, bracket)


class TestGridSearch:
    def test_symmetric_hits_origin(self):
        res = grid_search(SYM, [(-2.0, 2.0)], 4001)
        assert res.xi.xi == (0.0,)
        assert not res.on_boundary

    def test_boundary_flag_for_noncoercive(self):
        res = grid_search(SINK, [(-50.0, 50.0)], 101)
        assert res.on_boundary

    def test_two_front_agreement_with_minimize(self):
        spec = ProblemSpec(
            u=(-1.0, 0.0, 1.0, 2.0), a=(1, 1, 1), k=(1, 1, 1), d=(0.0, 0.0)
        )
        grid = grid_search(spec, [(-3.0, 3.0), (-3.0, 3.0)], 301)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        cell = 6.0 / 300.0
        for g, m in zip(grid.xi.xi, res.xi_star.xi):
            assert abs(g - m) <= cell
        assert not grid.on_boundary

    def test_increasing_filter(self):
        spec = ProblemSpec(
            u=(-1.0, 0.0, 1.0, 2.0), a=(1, 1, 1), k=(1, 1, 1), d=(0.0, 0.0)
        )
        res = grid_search(spec, [(0.5, 1.0), (0.0, 0.6)], 7)
        xi = res.xi.xi
        assert xi[0] < xi[1]

    def test_empty_grid_errors(self):
        spec = ProblemSpec(
            u=(-1.0, 0.0, 1.0, 2.0), a=(1, 1, 1), k=(1, 1, 1), d=(0.0, 0.0)
        )
        with pytest.raises(ValueError):
            grid_search(spec, [(2.0, 3.0), (0.0, 1.0)], 5)
