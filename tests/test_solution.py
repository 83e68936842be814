"""Profile assembly, evaluation, and residual validation."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from stefan import (
    ProblemSpec,
    SolveStatus,
    assemble,
    evaluate_profile,
    evaluate_spacetime,
    minimize,
    profile_curvature,
    profile_slope,
    stefan_residuals,
    validate,
)
from stefan import FreeBoundaries, kernel, solution

from helpers import quad_cdf, random_convex_spec

SYM = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.0,))
BOX2 = ProblemSpec(
    u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0), k=(1.0, 1.0, 1.0), d=(0.0, 0.0)
)
THREE = ProblemSpec(
    u=(-2.0, -0.5, 0.7, 1.1, 2.4),
    a=(1.2, 0.8, 1.5, 0.9),
    k=(0.7, 1.9, 1.1, 0.6),
    d=(0.3, -0.2, 0.5),
)

V_AT_1_SYM = 0.5204998778130465  # 2*cdf(1) - 1, 60-digit reference


@pytest.fixture(scope="module")
def solved_three():
    res = minimize(THREE)
    assert res.status is SolveStatus.CONVERGED
    return assemble(THREE, res.xi_star)


class TestAssembly:
    def test_symmetric_coefficients(self):
        sol = assemble(SYM, (0.0,))
        (off0, scale0), (off1, scale1) = sol.piece_coefficients
        assert off0 == -1.0 and off1 == 0.0
        assert scale0 == pytest.approx(2.0, rel=1e-15)
        assert scale1 == pytest.approx(2.0, rel=1e-15)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            assemble(BOX2, (1.0, -1.0))


def _piece_bits(sol):
    return [[v.hex() for v in dataclasses.astuple(p)] for p in sol.pieces]


def _count_log_gap(monkeypatch):
    calls = []
    real = kernel.log_gap

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "log_gap", counted)
    return calls


class TestPointHandover:
    """minimize hands its final point to assemble, outside the fields."""

    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_assemble_reuses_the_converged_point(self, n, monkeypatch):
        spec = random_convex_spec(np.random.default_rng(500 + n), n)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        calls = _count_log_gap(monkeypatch)
        sol = assemble(spec, res.xi_star)
        assert calls == []
        fresh = assemble(spec, tuple(res.xi_star.xi))
        assert len(calls) == n + 1
        assert sol.xi_star == fresh.xi_star
        assert _piece_bits(sol) == _piece_bits(fresh)

    def test_other_inputs_take_their_strips_anew(self, monkeypatch):
        res = minimize(THREE)
        want = _piece_bits(assemble(THREE, tuple(res.xi_star.xi)))
        twin = ProblemSpec(u=THREE.u, a=THREE.a, k=THREE.k, d=THREE.d)
        assert twin == THREE and twin is not THREE
        calls = _count_log_gap(monkeypatch)
        for spec, fronts in (
            (THREE, FreeBoundaries(res.xi_star.xi)),
            (THREE, dataclasses.replace(res.xi_star)),
            (twin, res.xi_star),
        ):
            del calls[:]
            assert _piece_bits(assemble(spec, fronts)) == want
            assert len(calls) == THREE.n + 1

    def test_fields_ignore_the_point(self):
        res = minimize(THREE)
        plain = FreeBoundaries(res.xi_star.xi)
        assert res.xi_star._point.fronts == list(plain.xi)
        assert not hasattr(plain, "_point")
        assert res.xi_star == plain
        assert repr(res.xi_star) == repr(plain)
        assert hash(res.xi_star) == hash(plain)
        assert dataclasses.asdict(res.xi_star) == dataclasses.asdict(plain)
        other = dataclasses.replace(res, xi_star=plain)
        assert res == other
        assert repr(res) == repr(other)
        assert hash(res) == hash(other)
        assert dataclasses.asdict(res) == dataclasses.asdict(other)

    def test_solve_result_survives_pickle(self):
        res = minimize(THREE)
        back = pickle.loads(pickle.dumps(res))
        assert back == res
        assert repr(back) == repr(res)
        assert not hasattr(back.xi_star, "_point")
        assert _piece_bits(assemble(THREE, back.xi_star)) == _piece_bits(
            assemble(THREE, res.xi_star)
        )
        # the pickle carries the fronts alone, not the solve's final point
        spec = random_convex_spec(np.random.default_rng(50), 50)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        blob = pickle.dumps(res)
        assert len(blob) <= 1000
        back = pickle.loads(blob)
        assert back == res
        assert not hasattr(back.xi_star, "_point")
        assert _piece_bits(assemble(spec, back.xi_star)) == _piece_bits(
            assemble(spec, res.xi_star)
        )


class TestProfile:
    def test_interfaces_hit_exactly(self, solved_three):
        for j, front in enumerate(solved_three.xi_star, start=1):
            assert evaluate_profile(solved_three, front) == THREE.u[j]

    def test_symmetric_values(self):
        sol = assemble(SYM, (0.0,))
        assert evaluate_profile(sol, 0.0) == 0.0
        assert evaluate_profile(sol, 1.0) == pytest.approx(V_AT_1_SYM, rel=1e-15)
        assert evaluate_profile(sol, -1.0) == pytest.approx(-V_AT_1_SYM, rel=1e-15)

    def test_limits(self):
        sol = assemble(SYM, (0.0,))
        assert evaluate_profile(sol, float("inf")) == 1.0
        assert evaluate_profile(sol, float("-inf")) == -1.0
        assert evaluate_profile(sol, 20.0) == pytest.approx(1.0, abs=1e-15)
        assert evaluate_profile(sol, -20.0) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_direct_formula_via_quadrature(self):
        # piece formula evaluated with the independent quadrature kernel
        sol = assemble(BOX2, (-1.0, 1.0))
        for xi, lo, hi, u_lo in [(-2.0, None, -1.0, -1.0),
                                 (0.0, -1.0, 1.0, 0.0),
                                 (2.5, 1.0, None, 1.0)]:
            flo = 0.0 if lo is None else quad_cdf(lo)
            fhi = 1.0 if hi is None else quad_cdf(hi)
            want = u_lo + (quad_cdf(xi) - flo) / (fhi - flo)
            assert evaluate_profile(sol, xi) == pytest.approx(want, rel=1e-13)

    def test_monotone_on_dense_grid(self, solved_three):
        xi = solved_three.xi_star
        grid = np.linspace(xi[0] - 10.0, xi[-1] + 10.0, 10_000)
        vals = [evaluate_profile(solved_three, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_slope_and_ode_identity(self, solved_three):
        # each piece solves a^2 v'' + xi v' / 2 = 0 analytically
        xi0 = solved_three.xi_star[0]
        xin = solved_three.xi_star[-1]
        for g in np.linspace(xi0 - 5.0, xin + 5.0, 173):
            g = float(g)
            if any(g == f for f in solved_three.xi_star):
                continue
            s = profile_slope(solved_three, g)
            c = profile_curvature(solved_three, g)
            assert s >= 0.0
            a = None
            for j, f in enumerate(solved_three.xi_star):
                if g < f:
                    a = THREE.a[j]
                    break
            if a is None:
                a = THREE.a[-1]
            assert abs(a * a * c + 0.5 * g * s) <= 1e-12

    def test_derivative_limits(self):
        sol = assemble(SYM, (0.0,))
        for xi, zero in [(math.inf, "-0x0.0p+0"), (-math.inf, "0x0.0p+0")]:
            assert profile_slope(sol, xi) == 0.0
            assert profile_curvature(sol, xi).hex() == zero
            assert profile_curvature(sol, math.copysign(1e300, xi)).hex() == zero

    @pytest.mark.parametrize("fn", [evaluate_profile, profile_slope, profile_curvature])
    def test_nan_is_rejected_by_name(self, fn):
        sol = assemble(SYM, (0.0,))
        with pytest.raises(ValueError, match="xi must not be NaN"):
            fn(sol, math.nan)

    def test_finite_curvature_is_the_closed_form(self, solved_three):
        # the branch for infinite xi leaves every finite value as it was
        grid = [float(g) for g in np.linspace(-60.0, 60.0, 241)] + [-1e300, 1e300]
        for g in grid:
            p = solution._piece_at(solved_three, g)
            z = g / p.a
            want = -0.5 * z * kernel.pdf(z) * p.scale / (p.a * p.a)
            assert profile_curvature(solved_three, g).hex() == want.hex(), g


class TestSpacetime:
    def test_definition(self):
        sol = assemble(SYM, (0.0,))
        assert evaluate_spacetime(sol, 4.0, 2.0) == evaluate_profile(sol, 1.0)
        assert evaluate_spacetime(sol, 1.0, 0.0) == 0.0

    def test_rejects_nonpositive_time(self):
        sol = assemble(SYM, (0.0,))
        with pytest.raises(ValueError):
            evaluate_spacetime(sol, 0.0, 1.0)
        with pytest.raises(ValueError):
            evaluate_spacetime(sol, -1.0, 1.0)

    def test_scaling_invariance(self, solved_three):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = float(rng.uniform(0.25, 4.0))
            x = float(rng.uniform(-4.0, 4.0))
            lam = float(rng.uniform(0.5, 2.0))
            v1 = evaluate_spacetime(solved_three, t, x)
            v2 = evaluate_spacetime(solved_three, lam * lam * t, lam * x)
            assert abs(v1 - v2) <= 1e-14

    def test_riemann_data_recovery(self, solved_three):
        assert abs(evaluate_spacetime(solved_three, 1e-8, -1.0) - THREE.u[0]) <= 1e-12
        assert abs(evaluate_spacetime(solved_three, 1e-8, 1.0) - THREE.u[-1]) <= 1e-12


class TestResiduals:
    def test_converged_solution_validates(self, solved_three):
        report = validate(solved_three, 33)
        assert report.max_ode_residual <= 1e-12
        assert report.max_interface_jump == 0.0
        assert report.max_stefan_residual <= 1e-10
        assert report.samples == 4 * 33

    def test_symmetric_solution_validates(self):
        report = validate(assemble(SYM, (0.0,)), 9)
        assert report.max_ode_residual <= 1e-12
        assert report.max_interface_jump == 0.0
        assert report.max_stefan_residual <= 1e-10

    def test_perturbed_fronts_break_only_stefan(self, solved_three):
        xi = list(solved_three.xi_star)
        xi[1] += 0.01
        report = validate(assemble(THREE, tuple(xi)), 33)
        assert report.max_stefan_residual > 1e-4
        assert report.max_ode_residual <= 1e-12
        assert report.max_interface_jump == 0.0

    def test_stefan_residuals_literal_transcription(self):
        # hand-built balance for the symmetric spec away from the root
        (r,) = stefan_residuals(SYM, (0.5,))
        from stefan.kernel import cdf, pdf
        want = pdf(0.5) / (1.0 - cdf(0.5)) - pdf(0.5) / cdf(0.5)
        assert r == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("xi", [12.0, 40.0, -12.0, -40.0])
    def test_flux_balance_in_the_kernel_tails(self, xi):
        # past xi/a of about 12 both cdf values of the right phase round
        # to 1, so the gap is taken from the upper tails instead
        mp = pytest.importorskip("mpmath")
        spec = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.3,))
        with mp.workdps(50):
            x = mp.mpf(xi)
            density = mp.exp(-x * x / 4) / (2 * mp.sqrt(mp.pi))
            want = float(
                mp.mpf("0.15") * x
                + density / (mp.erfc(x / 2) / 2)
                - density / (mp.erfc(-x / 2) / 2)
            )
        (r,) = stefan_residuals(spec, (xi,))
        assert r == pytest.approx(want, rel=1e-14)
        report = validate(assemble(spec, (xi,)), 9)
        assert report.max_stefan_residual == abs(r)

    @pytest.mark.parametrize(
        "balances, want",
        [
            ([-3.0, 2.0], 3.0),
            ([1.0, math.nan, 2.0], math.nan),
            ([math.nan, 1.0], math.nan),
            ([2.0, -math.inf], math.inf),
        ],
    )
    def test_max_stefan_residual_as_numpy_max(self, monkeypatch, balances, want):
        # validate takes max |r| in pure Python; NaN must win wherever it sits
        monkeypatch.setattr(solution, "_flux_balances", lambda spec, fronts: balances)
        got = validate(assemble(SYM, (0.0,)), 9).max_stefan_residual
        assert type(got) is float
        for expected in (want, float(np.max(np.abs(balances)))):
            assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_ode_residual_matches_per_sample_derivatives(self):
        # validate shares one set of cosines and inlines v', v''; the
        # phase-by-phase loop over _derivatives must give the same bits
        from helpers import random_coercive_spec, random_convex_spec

        def ode_residual(sol, m):
            fronts, n, worst = sol.xi_star, len(sol.xi_star), 0.0
            for i, p in enumerate(sol.pieces):
                lo = fronts[i - 1] if i > 0 else fronts[0] - 10.0
                hi = fronts[i] if i < n else fronts[-1] + 10.0
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                for j in range(1, m + 1):
                    t = mid + half * math.cos((2 * j - 1) * math.pi / (2 * m))
                    slope, curvature = solution._derivatives(p, t)
                    worst = max(worst, abs(p.a * p.a * curvature + 0.5 * t * slope))
            return worst

        for seed in range(6):
            family = (random_convex_spec, random_coercive_spec)[seed % 2]
            spec = family(np.random.default_rng(seed), (1, 4, 20)[seed % 3])
            sol = assemble(spec, minimize(spec).xi_star)
            for m in (3, 9, 33):
                report = validate(sol, m)
                assert report.max_ode_residual.hex() == ode_residual(sol, m).hex()
                assert report.samples == m * (spec.n + 1)

    def test_validate_requires_enough_samples(self, solved_three):
        with pytest.raises(ValueError):
            validate(solved_three, 2)
