"""Profile assembly, evaluation, and residual validation."""
import dataclasses
import importlib
import math
import pickle
import sys
from bisect import bisect_right

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
from stefan import FreeBoundaries, kernel, optimize, solution

from helpers import (
    assembled_pieces,
    count_points,
    flux_balances,
    interface_jump,
    quad_cdf,
    random_convex_spec,
)

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


class TestPointHandover:
    """minimize hands its final point to assemble, outside the fields."""

    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_assemble_reuses_the_converged_point(self, n, monkeypatch):
        spec = random_convex_spec(np.random.default_rng(500 + n), n)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        built = count_points(monkeypatch)
        sol = assemble(spec, res.xi_star)
        assert built == []
        fresh = assemble(spec, tuple(res.xi_star.xi))
        # one strip pass over the n + 1 strips
        assert built == [list(res.xi_star.xi)]
        assert sol.xi_star == fresh.xi_star
        assert _piece_bits(sol) == _piece_bits(fresh)

    def test_other_inputs_take_their_strips_anew(self, monkeypatch):
        res = minimize(THREE)
        want = _piece_bits(assemble(THREE, tuple(res.xi_star.xi)))
        twin = ProblemSpec(u=THREE.u, a=THREE.a, k=THREE.k, d=THREE.d)
        assert twin == THREE and twin is not THREE
        built = count_points(monkeypatch)
        for spec, fronts in (
            (THREE, FreeBoundaries(res.xi_star.xi)),
            (THREE, dataclasses.replace(res.xi_star)),
            (twin, res.xi_star),
        ):
            del built[:]
            assert _piece_bits(assemble(spec, fronts)) == want
            assert built == [list(res.xi_star.xi)]

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

    @pytest.mark.parametrize("n", [1, 6, 50])
    def test_certified_fronts_equal_a_validated_build(self, n):
        # minimize builds its FreeBoundaries without checking the fronts
        # again; it must equal and hash like a validated one, and a pickle
        # of it is validated when rebuilt
        spec = random_convex_spec(np.random.default_rng(700 + n), n)
        res = minimize(spec)
        assert res.status is SolveStatus.CONVERGED
        plain = FreeBoundaries(tuple(res.xi_star.xi))
        assert type(res.xi_star) is FreeBoundaries
        assert type(res.xi_star.xi) is tuple
        assert all(type(v) is float for v in res.xi_star.xi)
        assert res.xi_star == plain
        assert hash(res.xi_star) == hash(plain)
        back = pickle.loads(pickle.dumps(res.xi_star))
        assert back == plain and hash(back) == hash(plain)
        assert not hasattr(back, "_point")

    def test_certified_fronts_are_checked_when_rebuilt(self):
        # __reduce__ rebuilds through FreeBoundaries, so a pickle or copy
        # of fronts that skipped the checks is checked then
        import copy

        from stefan import InfeasiblePoint

        bad = object.__new__(FreeBoundaries)
        bad.__dict__.update(xi=(1.0, 0.5))
        for rebuild in (lambda fb: pickle.loads(pickle.dumps(fb)), copy.copy,
                        copy.deepcopy):
            with pytest.raises(InfeasiblePoint, match="strictly increasing"):
                rebuild(bad)

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

    def test_inline_cdf_is_the_two_anchor_formula(self):
        # evaluate_profile writes kernel.cdf inline; it must keep giving
        # the two-anchor formula through kernel.cdf, bit for bit
        def want(sol, xi):
            j = bisect_right(sol.xi_star, xi)
            if j > 0 and sol.xi_star[j - 1] == xi:
                return sol.spec.u[j]
            p = sol.pieces[j]
            c = kernel.cdf(xi / p.a)
            if c <= p.cdf_mid:
                return p.u_lo + p.scale * (c - p.cdf_lo)
            return p.u_hi + p.scale * (c - p.cdf_hi)

        grid = [float(v) for v in np.linspace(-10.0, 10.0, 129)]
        ends = [0.0, -0.0, math.inf, -math.inf]
        sols = []
        for seed, n in enumerate((1, 3, 8)):
            spec = random_convex_spec(np.random.default_rng(seed), n)
            res = minimize(spec)
            assert res.status is SolveStatus.CONVERGED
            sols.append((assemble(spec, res.xi_star), grid))
        for a in (1e-310, 1e170, -1.7):
            pieces = tuple(
                solution.Piece(a=a, u_lo=u, u_hi=u + 1.0, cdf_lo=lo, cdf_hi=hi,
                               scale=scale)
                for u, lo, hi, scale in ((-1.0, 0.0, 0.5, 2.0), (0.0, 0.5, 1.0, 2.0))
            )
            points = [f * abs(a) for f in (-40.0, -3.0, -0.5, 0.25, 2.0, 40.0)]
            sols.append((solution.SelfSimilarSolution(SYM, (0.0,), pieces),
                         points + [5e-324, -5e-324, 1e308, -1e308]))
        checked = 0
        for sol, points in sols:
            near = [math.nextafter(f, d) for f in sol.xi_star
                    for d in (-math.inf, math.inf)]
            for xi in points + list(sol.xi_star) + near + ends:
                got = evaluate_profile(sol, xi)
                assert got.hex() == want(sol, xi).hex(), (xi, sol.pieces[0].a)
                checked += 1
        assert checked > 3 * 129

    def test_inline_cdf_rejects_a_nan_quotient(self):
        # xi / a is NaN for a = xi = inf, which cdf itself rejects
        pieces = tuple(
            solution.Piece(a=math.inf, u_lo=0.0, u_hi=1.0, cdf_lo=0.0,
                           cdf_hi=1.0, scale=1.0)
            for _ in range(2)
        )
        sol = solution.SelfSimilarSolution(SYM, (0.0,), pieces)
        with pytest.raises(ValueError, match="cdf: argument must not be NaN"):
            kernel.cdf(math.inf / math.inf)
        with pytest.raises(ValueError, match="cdf: argument must not be NaN"):
            evaluate_profile(sol, math.inf)

    def test_finite_curvature_is_the_closed_form(self, solved_three):
        # the branch for infinite xi leaves every finite value as it was
        grid = [float(g) for g in np.linspace(-60.0, 60.0, 241)] + [-1e300, 1e300]
        for g in grid:
            p = solved_three.pieces[solution._piece_index(solved_three, g)]
            z = g / p.a
            want = -0.5 * z * kernel.pdf(z) * p.scale / (p.a * p.a)
            assert profile_curvature(solved_three, g).hex() == want.hex(), g

    @pytest.mark.parametrize("evaluate", [
        evaluate_profile,
        profile_slope,
        profile_curvature,
        lambda sol, xi: evaluate_spacetime(sol, 1.0, xi),
    ], ids=["profile", "slope", "curvature", "spacetime"])
    @pytest.mark.parametrize(
        "a", [0.0, -0.0, 1e-310 * 1e-300], ids=["zero", "minus-zero", "underflow"]
    )
    @pytest.mark.parametrize("index", [0, 1])
    def test_a_zero_piece_diffusivity_is_named(self, evaluate, a, index):
        # a ValueError naming the piece, as validate raises, not a
        # ZeroDivisionError from xi / a
        assert a == 0.0
        sol = assemble(SYM, (0.0,))
        pieces = list(sol.pieces)
        pieces[index] = dataclasses.replace(pieces[index], a=a)
        hand = solution.SelfSimilarSolution(SYM, sol.xi_star, tuple(pieces))
        with pytest.raises(ValueError, match=f"^piece {index}: a must be nonzero$"):
            evaluate(hand, 0.5 if index else -0.5)

    @pytest.mark.parametrize("index, xi, curvature", [
        (0, -0.5, 0.0),  # z = -5e199: pdf is 0, v'' a signed zero
        (1, 1e-201, -math.inf),  # z = 0.1: v'' is about -1e399
        (0, -1e-201, math.inf),
    ])
    def test_a_squared_that_underflows_gives_no_zero_division(
        self, index, xi, curvature
    ):
        # a = 1e-200 is nonzero but a * a is 0: v'' is not divided by it
        sol = assemble(SYM, (0.0,))
        pieces = list(sol.pieces)
        pieces[index] = p = dataclasses.replace(pieces[index], a=1e-200)
        hand = solution.SelfSimilarSolution(SYM, sol.xi_star, tuple(pieces))
        slope = p.scale * kernel.pdf(xi / p.a) / p.a
        assert profile_slope(hand, xi).hex() == slope.hex()
        assert profile_curvature(hand, xi).hex() == curvature.hex()
        if xi == -0.5:
            assert evaluate_profile(hand, xi) == -1.0

    def test_a_squared_that_underflows_keeps_a_finite_curvature(self):
        # a = 1e-170, xi = 1e-300: v'' is about -2.8e209, though a * a is 0
        mp = pytest.importorskip("mpmath")
        sol = assemble(SYM, (0.0,))
        p = dataclasses.replace(sol.pieces[1], a=1e-170)
        hand = solution.SelfSimilarSolution(SYM, sol.xi_star, (sol.pieces[0], p))
        with mp.workdps(50):
            a, xi = mp.mpf(p.a), mp.mpf(1e-300)
            z = xi / a
            want = float(-z / 2 * mp.exp(-z * z / 4) / (2 * mp.sqrt(mp.pi))
                         * mp.mpf(p.scale) / (a * a))
        assert profile_curvature(hand, 1e-300) == pytest.approx(want, rel=4e-16)

    def test_a_nan_piece_diffusivity_keeps_the_kernel_error(self):
        sol = assemble(SYM, (0.0,))
        hand = solution.SelfSimilarSolution(
            SYM, sol.xi_star, (dataclasses.replace(sol.pieces[0], a=math.nan), sol.pieces[1])
        )
        for evaluate, error in ((evaluate_profile, "cdf"), (profile_slope, "pdf"),
                                (profile_curvature, "pdf"),
                                (lambda s, xi: evaluate_spacetime(s, 1.0, xi), "cdf")):
            with pytest.raises(ValueError, match=f"^{error}: argument must not be NaN$"):
                evaluate(hand, -0.5)


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

    @pytest.mark.parametrize(
        "t, x", [(math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0),
                 (-math.inf, 1.0)]
    )
    def test_rejects_nonfinite_time(self, t, x):
        # u(inf, x) would read v(0), and inf / inf would blame xi
        sol = assemble(SYM, (0.0,))
        with pytest.raises(ValueError, match="t must be positive and finite"):
            evaluate_spacetime(sol, t, x)

    def test_nan_x_is_rejected_by_name(self):
        # not as "xi", which the caller never passed
        sol = assemble(SYM, (0.0,))
        with pytest.raises(ValueError, match="^x must not be NaN$"):
            evaluate_spacetime(sol, 1.0, math.nan)
        # infinite x is a limit, as an infinite xi is
        assert evaluate_spacetime(sol, 1.0, math.inf) == SYM.u[-1]

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


def _ode_samples(sol, m, pieces=None):
    """(piece, t) for every point of a sampled ODE check with m Chebyshev
    points per phase, over the pieces with the given indices (all by
    default)."""
    fronts, n = sol.xi_star, len(sol.xi_star)
    for i, p in enumerate(sol.pieces):
        if pieces is not None and i not in pieces:
            continue
        lo = fronts[i - 1] if i > 0 else fronts[0] - 10.0
        hi = fronts[i] if i < n else fronts[-1] + 10.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for j in range(1, m + 1):
            yield p, mid + half * math.cos((2 * j - 1) * math.pi / (2 * m))


def _factored(p, t):
    q = 0.5 * kernel.PDF_PEAK * p.scale
    z = t / p.a
    return math.exp(-0.25 * z * z) * abs(t * (q / p.a) - z * q)


def _check_ode_bounds(sol, m):
    """The ODE figure is a number, at least every sample's e * gap, and
    so is each piece's own bound, read as the figure of the solution
    with every other piece's scale set to 0 (whose bounds are then only
    their underflow terms).  Returns the number of samples whose figure
    is not NaN."""
    figure = solution._ode_bound(sol)
    assert not math.isnan(figure)
    checked = 0
    for i in range(len(sol.pieces)):
        alone = tuple(p if j == i else dataclasses.replace(p, scale=0.0)
                      for j, p in enumerate(sol.pieces))
        bound = solution._ode_bound(
            solution.SelfSimilarSolution(sol.spec, sol.xi_star, alone))
        assert not bound > figure
        for p, t in _ode_samples(sol, m, pieces=(i,)):
            r = _factored(p, t)
            assert not r > bound, (r, bound, i, t, p)
            checked += r == r
    return checked


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

    @pytest.mark.parametrize(
        "a", [0.0, -0.0, 1e-310 * 1e-300], ids=["zero", "minus-zero", "underflow"]
    )
    @pytest.mark.parametrize("index", [0, 1])
    def test_a_zero_piece_diffusivity_is_named(self, a, index):
        # a ValueError naming the piece, not a ZeroDivisionError from q / a
        assert a == 0.0
        sol = assemble(SYM, (0.0,))
        pieces = list(sol.pieces)
        pieces[index] = dataclasses.replace(pieces[index], a=a)
        hand = solution.SelfSimilarSolution(SYM, sol.xi_star, tuple(pieces))
        with pytest.raises(ValueError, match=f"^piece {index}: a must be nonzero$"):
            validate(hand, 33)

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

    @pytest.mark.parametrize(
        "index, field", [(0, "scale"), (1, "cdf_lo"), (0, "cdf_hi"), (1, "u_lo")]
    )
    def test_a_nan_interface_jump_wins(self, index, field):
        # Python's max keeps its first argument when a later one is NaN;
        # validate must report a NaN jump as NaN, as numpy.max does
        spec = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.3,))
        root = minimize(spec).xi_star
        sol = assemble(spec, root)
        assert validate(sol, 9).max_interface_jump == 0.0
        pieces = list(sol.pieces)
        pieces[index] = dataclasses.replace(pieces[index], **{field: math.nan})
        broken = solution.SelfSimilarSolution(spec, sol.xi_star, tuple(pieces))
        assert math.isnan(validate(broken, 9).max_interface_jump)
        assert math.isnan(interface_jump(broken))
        if field == "scale":
            assert math.isnan(evaluate_profile(broken, -0.5))

    def test_a_nan_jump_stays_after_a_larger_one(self):
        # NaN at the first front, a finite jump at the second
        spec = BOX2
        sol = assemble(spec, (-0.5, 0.5))
        pieces = list(sol.pieces)
        pieces[0] = dataclasses.replace(pieces[0], scale=math.nan)
        pieces[2] = dataclasses.replace(pieces[2], u_lo=5.0)
        broken = solution.SelfSimilarSolution(spec, sol.xi_star, tuple(pieces))
        assert math.isnan(validate(broken, 9).max_interface_jump)

    def test_ode_figure_bounds_the_factored_closed_form(self):
        # the figure is the largest per-piece rounding bound: at least
        # every sample's e * |t q/a - z q|, for any number of samples,
        # and at most a few eps of the ODE's largest term |xi v'/2| over a
        # dense sampling, with v' taken from _derivatives
        from helpers import random_coercive_spec

        cases = [(seed, (1, 4, 20)[seed % 3]) for seed in range(6)]
        for seed, n in cases + [(6, 50), (7, 100)]:
            family = (random_convex_spec, random_coercive_spec)[seed % 2]
            spec = family(np.random.default_rng(seed), n)
            sol = assemble(spec, minimize(spec).xi_star)
            for m in (3, 9, 33):
                report = validate(sol, m)
                sampled = max(_factored(p, t) for p, t in _ode_samples(sol, m))
                assert report.max_ode_residual >= sampled
                assert report.samples == m * (spec.n + 1)
            term = max(abs(0.5 * t * solution._derivatives(p, t)[0])
                       for p, t in _ode_samples(sol, 257))
            assert report.max_ode_residual <= 16 * 2.0 ** -52 * term

    def test_ode_figure_does_not_depend_on_the_sample_count(self, solved_three):
        from helpers import wide_range_spec

        sols = [solved_three, assemble(SYM, (0.0,))]
        for seed in range(20):
            spec = wide_range_spec(seed)
            res = minimize(spec)
            if res.xi_star is not None:
                try:
                    sols.append(assemble(spec, res.xi_star))
                except OverflowError:
                    pass
        assert len(sols) > 10
        for sol in sols:
            figures = {validate(sol, m).max_ode_residual.hex() for m in (3, 33, 257)}
            assert len(figures) == 1, figures

    @pytest.mark.parametrize("m", [3, 33, 257])
    def test_ode_figure_takes_no_per_sample_work(self, monkeypatch, m):
        # one exp per piece for the ODE bound and two per front for the
        # flux balances, at most 3n + 1 whatever m is; and every call
        # validate makes is the same for m = 3 as for m
        from helpers import random_coercive_spec

        def calls(sol, m):
            seen = []

            def profile(frame, event, arg):
                if event == "c_call":
                    seen.append(arg.__qualname__)
                elif event == "call":
                    seen.append(frame.f_code.co_name)

            sys.setprofile(profile)
            try:
                validate(sol, m)
            finally:
                sys.setprofile(None)
            return seen

        for seed, n in ((0, 1), (1, 8), (2, 50)):
            spec = random_coercive_spec(np.random.default_rng(seed), n)
            sol = assemble(spec, minimize(spec).xi_star)
            count = [0]
            exp = math.exp

            def counting(x):
                count[0] += 1
                return exp(x)

            monkeypatch.setattr(math, "exp", counting)
            validate(sol, m)
            monkeypatch.setattr(math, "exp", exp)
            assert count[0] <= 3 * n + 1, (n, count[0])
            assert calls(sol, m) == calls(sol, 3)

    def test_every_ode_sample_is_within_its_piece_bound(self):
        # the figure is a bound only if no sample of a piece exceeds that
        # piece's bound: check each sample of 200 wide-range draws, at the
        # solution and at fronts shifted off it, where the largest sample
        # reaches about 0.7 of the bound
        from helpers import wide_range_spec

        checked = 0
        for seed in range(200):
            spec = wide_range_spec(seed)
            res = minimize(spec)
            if res.xi_star is None:
                continue
            for shift in (0.0, 0.1):
                fronts = tuple(x + shift * (j + 1) for j, x in enumerate(res.xi_star.xi))
                try:
                    sol = assemble(spec, fronts)
                except OverflowError:
                    continue
                for m in (3, 9, 33):
                    checked += _check_ode_bounds(sol, m)
                    report = validate(sol, m)
                    sampled = max(_factored(p, t) for p, t in _ode_samples(sol, m))
                    assert report.max_ode_residual >= sampled, seed
                    assert report.max_ode_residual == solution._ode_bound(sol)
        assert checked > 20_000

    @pytest.mark.parametrize("a", [0.7, 1e-170, 1e170, -1.7, 1e-310])
    def test_ode_bound_holds_on_hand_built_pieces(self, a):
        # pieces validate never sees from assemble: scales that are 0,
        # infinite, NaN, negative, subnormal or near the largest double,
        # and windows on every scale of a, subnormal ones and non-finite
        # ones; every piece's bound must be a number at least every
        # sample's e * gap, so an infinite sample meets an infinite bound
        scales = [0.0, math.inf, -math.inf, math.nan, -2.5, 5e-324, 3e-310,
                  1.0, 7.0, 1e300, 1e307, 1.7e308]
        edges = sorted({f * abs(a) for f in
                        (-60.0, -3.0, -1.5, -0.5, 0.0, 1.0, 1.5, 2.0, 40.0,
                         53.5, 54.7, 56.0)} | {-5e-324, 1e-320, 2e-308})
        fronts_list = [tuple(edges), (-math.inf, 0.0, 1.0), (0.0, math.inf),
                       (math.nan, 1.0), (-1e308, 1e308)]
        for fronts in fronts_list:
            for scale in scales:
                pieces = tuple(
                    solution.Piece(a=a, u_lo=0.0, u_hi=1.0, cdf_lo=0.0,
                                   cdf_hi=1.0, scale=scale)
                    for _ in range(len(fronts) + 1)
                )
                sol = solution.SelfSimilarSolution(SYM, fronts, pieces)
                for m in (3, 9, 33):
                    _check_ode_bounds(sol, m)

    def test_ode_residual_with_a_squared_below_the_smallest_double(self):
        # a = 1e-170: a^2 underflows to 0, which the factored form never
        # divides by
        spec = ProblemSpec(u=(-1, 0, 1), a=(1e-170, 1), k=(1, 1), d=(0.3,))
        report = validate(assemble(spec, (0.5,)), 33)
        assert report.max_ode_residual <= 1e-12
        assert report.samples == 66

    def test_validate_requires_enough_samples(self, solved_three):
        with pytest.raises(ValueError):
            validate(solved_three, 2)

    @pytest.mark.parametrize("m", [3.5, math.nan, math.inf, 2.0])
    def test_samples_per_phase_must_be_whole(self, solved_three, m):
        # a count that is not whole is a ValueError, not a TypeError from range
        with pytest.raises(
            ValueError, match="samples_per_phase must be a whole number, at least 3"
        ):
            validate(solved_three, m)

    def test_whole_float_samples_per_phase(self, solved_three):
        report = validate(solved_three, 33.0)
        assert report == validate(solved_three, 33)
        assert type(report.samples) is int


# Inputs for the inline-kernel tests: (a, fronts) pairs whose scaled ends
# hit +-0.0, one ulp either side of 0, +-inf (a = 1e-310 overflows x/a),
# strips lying wholly at or above 0 (from +-0.0 to ends where cdf(0) -
# cdf(-hi) and cdf(hi) - cdf(0) round apart), wholly below, and the far
# tails.
_TINY = math.nextafter(0.0, 1.0)
_INLINE_CASES = [
    ((1.0, 1.0), (0.0,)),
    ((1.0, 1.0), (-0.0,)),
    ((1.0, 1.0), (_TINY,)),
    ((1.0, 1.0), (-_TINY,)),
    ((1e10, 0.5), (_TINY,)),
    ((0.5, 1e10), (-_TINY,)),
    ((1.0, 1.0), (0.3,)),
    ((1.0, 1.0), (40.0,)),
    ((1.0, 1.0), (-40.0,)),
    ((1e-310, 1.0), (1.0,)),
    ((1.0, 1e-310), (-1.0,)),
    ((1e-310, 1.0), (0.0,)),
    ((1.0, 1e-310), (-0.0,)),
    ((0.8, 1.5, 0.2, 3.0), (0.0, 3.0, 14.0)),
    ((1.0, 1.0, 1.0), (0.0, 0.1398496240601504)),
    ((1.0, 1.0, 1.0), (-0.0, 0.37944862155388465)),
    ((0.8, 1.5, 0.2, 3.0), (_TINY, 0.5, 3.0)),
    ((0.8, 1.5, 0.2, 3.0), (-14.0, -3.0, -_TINY)),
    ((0.8, 1.5, 0.2, 3.0), (-2.0, -0.0, 7.0)),
    ((2.0, 1e-310, 0.7, 1.0), (-1.0, 0.5, 0.75)),
    ((0.6, 1.2, 0.9, 2.0, 1.1), (-30.0, -20.0, 18.0, 40.0)),
]


def _inline_spec(a):
    n = len(a) - 1
    u = tuple(-1.0 + 0.75 * i + 0.1 * (i % 2) for i in range(n + 2))
    k = tuple(0.4 + 0.3 * i for i in range(n + 1))
    d = tuple(0.2 - 0.15 * i for i in range(n))
    return ProblemSpec(u=u, a=a, k=k, d=d)


def _hexes(values):
    return [v.hex() for v in values]


def _outcome(fn):
    """fn()'s floats in hex, or the type and message of what it raised."""
    try:
        return _hexes(fn())
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestInlineKernel:
    """assemble, _flux_balances and validate's jump loop call cdf and pdf
    once per value; each must give the bits of the oracles' kernel calls,
    in the oracles' order of operations and of errors."""

    @pytest.mark.parametrize("a, fronts", _INLINE_CASES)
    def test_assemble_pieces_are_the_kernel_calls(self, a, fronts):
        spec = _inline_spec(a)
        sol = assemble(spec, fronts)
        got = [_hexes(dataclasses.astuple(p)) for p in sol.pieces]
        assert got == [_hexes(p) for p in assembled_pieces(spec, fronts)]

    def test_assemble_of_converged_solves_is_the_kernel_calls(self):
        for seed, n in enumerate((1, 3, 8, 50)):
            spec = random_convex_spec(np.random.default_rng(800 + seed), n)
            res = minimize(spec)
            assert res.status is SolveStatus.CONVERGED
            got = [_hexes(dataclasses.astuple(p))
                   for p in assemble(spec, res.xi_star).pieces]
            assert got == [_hexes(p) for p in assembled_pieces(spec, res.xi_star.xi)]

    @pytest.mark.parametrize("a, fronts", _INLINE_CASES)
    def test_flux_balances_are_the_kernel_calls(self, a, fronts):
        # the fronts, each moved one ulp either way, and in reverse order,
        # which only a hand-built solution reaches; a gap of exactly 0
        # must divide by zero as the kernel calls do
        spec = _inline_spec(a)
        cases = [fronts, fronts[::-1]]
        for j, x in enumerate(fronts):
            for toward in (-math.inf, math.inf):
                moved = list(fronts)
                moved[j] = math.nextafter(x, toward)
                cases.append(tuple(moved))
        for xs in cases:
            want = _outcome(lambda: flux_balances(spec, xs))
            assert _outcome(lambda: solution._flux_balances(spec, xs)) == want, xs
        assert isinstance(_outcome(lambda: solution._flux_balances(spec, fronts)), list)

    def test_flux_balances_of_zero_gaps_divide_by_zero(self):
        # fronts past the kernel's range leave a gap of exactly 0
        spec = _inline_spec((1.0, 1.0))
        for fronts in ((80.0,), (-80.0,)):
            with pytest.raises(ZeroDivisionError):
                flux_balances(spec, fronts)
            with pytest.raises(ZeroDivisionError):
                solution._flux_balances(spec, fronts)

    @pytest.mark.parametrize("a, fronts", _INLINE_CASES)
    def test_validate_jump_and_flux_are_the_kernel_calls(self, a, fronts):
        # pieces whose a differs from spec.a, negative, subnormal and
        # infinite ones included, and whose anchors are off, so the jumps
        # are nonzero
        spec = _inline_spec(a)
        sol = assemble(spec, fronts)
        want_flux = max(abs(r) for r in flux_balances(spec, fronts))
        for f, shift in ((1.0, 0.0), (1.7, 1e-3), (-0.6, 0.25), (1e-3, -0.5),
                         (math.inf, 0.0)):
            pieces = tuple(
                dataclasses.replace(p, a=p.a * f, cdf_lo=p.cdf_lo + shift,
                                    cdf_hi=p.cdf_hi - shift)
                for p in sol.pieces
            )
            hand = solution.SelfSimilarSolution(spec, sol.xi_star, pieces)
            report = validate(hand, 3)
            assert report.max_interface_jump.hex() == interface_jump(hand).hex(), f
            assert report.max_stefan_residual.hex() == want_flux.hex()

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_nan_front_is_rejected_by_cdf(self, where):
        spec = _inline_spec((0.8, 1.5, 0.2, 3.0))
        fronts = [-1.0, 0.5, 2.0]
        sol = assemble(spec, tuple(fronts))
        fronts[where] = math.nan
        hand = solution.SelfSimilarSolution(spec, tuple(fronts), sol.pieces)
        for fn in (lambda: validate(hand, 3),
                   lambda: solution._flux_balances(spec, tuple(fronts)),
                   lambda: flux_balances(spec, fronts)):
            with pytest.raises(ValueError, match="cdf: argument must not be NaN"):
                fn()

    def test_a_nan_front_is_rejected_before_a_zero_gap_divides(self):
        # strip 1 runs from 80 to 90, whose cdf gap is exactly 0
        spec = _inline_spec((1.0, 1.0, 1.0, 1.0))
        fronts = (80.0, 90.0, math.nan)
        for fn in (solution._flux_balances, flux_balances):
            with pytest.raises(ValueError, match="cdf: argument must not be NaN"):
                fn(spec, fronts)

    def test_a_nan_piece_diffusivity_is_rejected_by_cdf(self):
        sol = assemble(SYM, (0.2,))
        for index in (0, 1):
            pieces = list(sol.pieces)
            pieces[index] = dataclasses.replace(pieces[index], a=math.nan)
            hand = solution.SelfSimilarSolution(SYM, sol.xi_star, tuple(pieces))
            with pytest.raises(ValueError, match="cdf: argument must not be NaN"):
                validate(hand, 3)


@pytest.mark.parametrize("n", [100, 200])
def test_no_numpy_scalar_leaks_out_of_a_large_solve(n):
    # n = 100 converges and n = 200 ends in the roundoff stall, both on
    # the vector point; the stall has no fronts, so its pieces are
    # assembled at its start
    spec = random_convex_spec(np.random.default_rng(0), n)
    assert n >= importlib.import_module("stefan.energy")._VECTOR_N
    res = minimize(spec)
    assert res.status is (SolveStatus.CONVERGED if n == 100 else SolveStatus.MAX_ITERATIONS)
    numbers = [res.energy_value, res.grad_norm]
    for record in res.trace:
        assert type(record.iteration) is int
        numbers += [record.energy, record.grad_norm]
    if res.xi_star is None:
        sol = assemble(spec, optimize._default_start(spec).fronts)
    else:
        sol = assemble(spec, res.xi_star)
    numbers += list(sol.xi_star)
    for piece in sol.pieces:
        numbers += [getattr(piece, f.name) for f in dataclasses.fields(piece)]
    report = validate(sol, 5)
    numbers += [report.max_ode_residual, report.max_stefan_residual,
                report.max_interface_jump]
    assert type(report.samples) is int
    assert all(type(v) is float for v in numbers), {type(v) for v in numbers}
