"""Energy model: data validation, frozen values, derivative consistency,
well-posedness arithmetic, and the structural Hessian properties."""
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stefan import (
    EnergyOverflow,
    FreeBoundaries,
    InfeasiblePoint,
    InvalidProblem,
    NewtonBreakdown,
    ProblemSpec,
    assemble,
    check_wellposedness,
    energy,
    gradient,
    hessian,
    hessian_parts,
    kernel,
    minimize,
    newton_step,
)
from stefan.energy import _Point

# stefan.energy is the function; the module is looked up by name
ENERGY = importlib.import_module("stefan.energy")

from helpers import (
    MultiPassPoint,
    count_points,
    fd_gradient,
    fd_hessian,
    random_convex_spec,
    random_coercive_spec,
    random_fronts,
    random_noncoercive_spec,
    rel_err,
    series_test,
    strips,
    takes_series,
)

SYM = ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, 1.0), k=(1.0, 1.0), d=(0.0,))
THREE = ProblemSpec(
    u=(-2.0, -0.5, 0.7, 1.1, 2.4),
    a=(1.2, 0.8, 1.5, 0.9),
    k=(0.7, 1.9, 1.1, 0.6),
    d=(0.3, -0.2, 0.5),
)
BOX2 = ProblemSpec(
    u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0), k=(1.0, 1.0, 1.0), d=(0.0, 0.0)
)

TWO_LN_TWO = 1.3862943611198906
CDF_1 = 0.7602499389065233  # 60-digit reference, shared with kernel tests
ENERGY_BOX2 = 3.5092822464703906
INV_PI = 0.3183098861837907
ASYM_GRAD_AT_1 = 1.543727459926067
BOX2_H_DIAG = 0.7707255007517946
BOX2_H_OFF = -0.17815648323049507


def all_specs(rng, count, sizes=(1, 2, 3, 5)):
    for trial in range(count):
        n = sizes[trial % len(sizes)]
        yield random_coercive_spec(rng, n), random_fronts(rng, n)


class TestProblemSpecValidation:
    def test_accepts_and_normalizes(self):
        spec = ProblemSpec(
            u=[-1, 0, 1], a=np.array([1.0, 2.0]), k=(0.5, 0.5), d=[0.25]
        )
        assert spec.n == 1
        assert spec.u == (-1.0, 0.0, 1.0)
        assert isinstance(spec.a[1], float)

    def test_kappa(self):
        spec = ProblemSpec(u=(-1, 0, 1), a=(2.0, 4.0), k=(3.0, 5.0), d=(0.0,))
        assert spec.kappa(0) == 3.0 / 4.0
        assert spec.kappa(1) == 5.0 / 16.0

    def test_kappa_is_infinite_once_a_squared_underflows(self):
        # a^2 is 0 below a = 1.6e-162; the load is then +inf, as when
        # k / a^2 overflows, and a solve stops at the infinite Hessian
        spec = ProblemSpec(u=(-1, 0, 1), a=(1e-170, 1), k=(1, 1), d=(0.3,))
        assert spec.kappa(0) == math.inf
        assert spec.kappa(1) == 1.0
        rep = check_wellposedness(spec)
        assert rep.S_upper == (math.inf,)
        assert rep.coercive
        with pytest.raises(NewtonBreakdown, match="Hessian is not finite"):
            minimize(spec)

    def test_rejects_degenerate_and_malformed(self):
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1.0, 1.0), a=(1.0,), k=(1.0,), d=())  # n = 0
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1.0, 1.0, 0.5), a=(1, 1), k=(1, 1), d=(0.0,))
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1.0, -1.0), k=(1, 1), d=(0.0,))
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1, 1), k=(0.0, 1.0), d=(0.0,))
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1.0, float("nan"), 1.0), a=(1, 1), k=(1, 1), d=(0.0,))
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1, 0, 1), a=(1, 1, 1), k=(1, 1), d=(0.0,))
        with pytest.raises(InvalidProblem):
            ProblemSpec(u=(-1, 0, 1), a=(1, 1), k=(1, 1), d=(0.0, 0.0))


class TestFreeBoundaries:
    def test_accepts_increasing(self):
        fb = FreeBoundaries((-1.0, 0.5, 2.0))
        assert len(fb) == 3
        assert tuple(fb) == (-1.0, 0.5, 2.0)

    def test_rejects_non_increasing_or_non_finite(self):
        with pytest.raises(InfeasiblePoint):
            FreeBoundaries((0.0, 0.0))
        with pytest.raises(InfeasiblePoint):
            FreeBoundaries((1.0, -1.0))
        with pytest.raises(InfeasiblePoint):
            FreeBoundaries((float("inf"),))
        with pytest.raises(InfeasiblePoint):
            FreeBoundaries(())

    def test_rejects_coordinates_beyond_the_double_range(self):
        with pytest.raises(InfeasiblePoint):
            FreeBoundaries((10**400,))
        with pytest.raises(InfeasiblePoint):
            energy(SYM, [10**400])


class TestEnergyValues:
    def test_symmetric_at_origin(self):
        assert energy(SYM, (0.0,)) == pytest.approx(TWO_LN_TWO, rel=1e-15)

    def test_quadratic_term_vanishes_at_origin(self):
        spiked = ProblemSpec(u=SYM.u, a=SYM.a, k=SYM.k, d=(4.0,))
        assert energy(spiked, (0.0,)) == energy(SYM, (0.0,))

    def test_two_front_box(self):
        assert energy(BOX2, (-1.0, 1.0)) == pytest.approx(ENERGY_BOX2, rel=1e-14)

    def test_quadratic_term_scales_with_d(self):
        spiked = ProblemSpec(u=SYM.u, a=SYM.a, k=SYM.k, d=(0.8,))
        want = -(math.log(CDF_1) + math.log1p(-CDF_1)) + 0.8 * 0.25
        assert energy(spiked, (1.0,)) == pytest.approx(want, rel=1e-13)

    def test_rejects_infeasible_point(self):
        with pytest.raises(InfeasiblePoint):
            energy(BOX2, (1.0, -1.0))

    def test_finite_far_out(self):
        val = energy(BOX2, (-35.0, 35.0))
        assert math.isfinite(val)

    def test_terms_that_sum_past_the_largest_double(self):
        # each strip term is 1.7e308 * log 2, finite; their sum is not
        huge = ProblemSpec(u=(-1.7e308, 0.0, 1.7e308), a=(1.0, 1.0),
                           k=(1.0, 1.0), d=(0.0,))
        with pytest.raises(EnergyOverflow, match="common factor"):
            energy(huge, (0.0,))
        assert issubclass(EnergyOverflow, OverflowError)
        # k scaled by 2**-2: the same fronts, a finite energy
        scaled = ProblemSpec(u=huge.u, a=huge.a, k=(0.25, 0.25), d=(0.0,))
        assert energy(scaled, (0.0,)) == pytest.approx(0.25 * 1.7e308 * TWO_LN_TWO,
                                                       rel=1e-15)


class TestGradient:
    def test_exact_zero_by_symmetry(self):
        for d in (0.0, 2.0):
            spec = ProblemSpec(u=SYM.u, a=SYM.a, k=SYM.k, d=(d,))
            assert tuple(gradient(spec, (0.0,))) == (0.0,)

    def test_frozen_asymmetric_value(self):
        spec = ProblemSpec(u=(-1.0, 0.0, 2.0), a=(1, 1), k=(1, 1), d=(0.0,))
        (g,) = gradient(spec, (1.0,))
        assert g == pytest.approx(ASYM_GRAD_AT_1, rel=1e-13)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for spec, xi in all_specs(rng, 20):
            assert rel_err(gradient(spec, xi), fd_gradient(spec, xi)) <= 1e-6

    def test_finite_far_out(self):
        g = gradient(BOX2, (-35.0, 35.0))
        assert all(math.isfinite(v) for v in g)


class TestHessian:
    def test_frozen_symmetric_parts(self):
        parts = hessian_parts(SYM, (0.0,))
        assert parts.beta_minus[0] == pytest.approx(INV_PI, rel=1e-14)
        assert parts.beta_plus[0] == pytest.approx(INV_PI, rel=1e-14)
        assert parts.gamma == (0.0, 0.0)

    def test_frozen_symmetric_matrix(self):
        assert hessian(SYM, (0.0,))[0, 0] == pytest.approx(
            2.0 * INV_PI, rel=1e-14
        )
        spiked = ProblemSpec(u=SYM.u, a=SYM.a, k=SYM.k, d=(1.0,))
        assert hessian(spiked, (0.0,))[0, 0] == pytest.approx(
            2.0 * INV_PI + 0.5, rel=1e-14
        )

    def test_frozen_two_front_matrix(self):
        h = hessian(BOX2, (-1.0, 1.0))
        assert h[0, 0] == pytest.approx(BOX2_H_DIAG, rel=1e-13)
        assert h[1, 1] == pytest.approx(BOX2_H_DIAG, rel=1e-13)
        assert h[0, 1] == pytest.approx(BOX2_H_OFF, rel=1e-13)

    def test_symmetric_and_tridiagonal(self):
        rng = np.random.default_rng(7)
        for spec, xi in all_specs(rng, 8, sizes=(3, 5)):
            h = hessian(spec, xi)
            assert np.array_equal(h, h.T)
            n = spec.n
            for r in range(n):
                for c in range(n):
                    if abs(r - c) > 1:
                        assert h[r, c] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for spec, xi in all_specs(rng, 12):
            h = hessian(spec, xi)
            fd = fd_hessian(spec, xi)
            scale = max(1.0, float(np.max(np.abs(h))))
            assert float(np.max(np.abs(h - fd))) / scale <= 1e-6

    def test_parts_signs(self):
        rng = np.random.default_rng(19)
        for spec, xi in all_specs(rng, 12):
            parts = hessian_parts(spec, xi)
            assert all(b > 0.0 for b in parts.beta_minus)
            assert all(b > 0.0 for b in parts.beta_plus)
            assert all(g >= 0.0 for g in parts.gamma)
            assert parts.gamma[0] == 0.0
            assert parts.gamma[-1] == 0.0

    def test_coupled_beta_lower_bound(self):
        # for each front, the two beta terms meeting there exceed a
        # quarter of the smaller neighboring conductive load
        rng = np.random.default_rng(23)
        for spec, xi in all_specs(rng, 12):
            parts = hessian_parts(spec, xi)
            for r in range(spec.n):
                left = spec.kappa(r) * (spec.u[r + 1] - spec.u[r])
                right = spec.kappa(r + 1) * (spec.u[r + 2] - spec.u[r + 1])
                bound = 0.25 * min(left, right)
                assert parts.beta_minus[r] + parts.beta_plus[r] > bound

    def test_gamma_decays_with_gap(self):
        parts = hessian_parts(BOX2, (-10.0, 10.0))
        assert parts.gamma[1] < 1e-20

    def test_positive_definite_under_margin_condition(self):
        rng = np.random.default_rng(29)
        for trial in range(12):
            n = (1, 2, 3, 5)[trial % 4]
            spec = random_convex_spec(rng, n)
            for _ in range(5):
                h = hessian(spec, random_fronts(rng, n))
                np.linalg.cholesky(h)  # raises LinAlgError if not PD


class TestWellPosedness:
    def mk(self, d):
        return ProblemSpec(u=(-1.0, 0.0, 1.0), a=(1, 1), k=(1, 1), d=(d,))

    def test_coercive_and_convex(self):
        rep = check_wellposedness(self.mk(-0.4))
        assert rep.coercive and rep.strictly_convex_sufficient
        assert not rep.borderline
        assert rep.S_upper[0] == pytest.approx(0.6, rel=1e-15)
        assert rep.S_lower[0] == pytest.approx(0.6, rel=1e-15)
        assert rep.convexity_margins[0] == pytest.approx(0.2, rel=1e-14)

    def test_coercive_but_not_convex_sufficient(self):
        rep = check_wellposedness(self.mk(-0.6))
        assert rep.coercive and not rep.strictly_convex_sufficient
        assert rep.S_upper[0] == pytest.approx(0.4, rel=1e-15)
        assert rep.convexity_margins[0] == pytest.approx(-0.2, rel=1e-14)

    def test_not_coercive(self):
        rep = check_wellposedness(self.mk(-1.5))
        assert not rep.coercive
        assert rep.S_upper[0] == pytest.approx(-0.5, rel=1e-15)

    def test_borderline_sum_flagged(self):
        rep = check_wellposedness(self.mk(-1.0))
        assert rep.S_upper[0] == 0.0
        assert rep.coercive  # exact >= 0 comparison, no epsilon slack
        assert rep.borderline

    def test_borderline_margin_flagged(self):
        rep = check_wellposedness(self.mk(-0.5))
        assert rep.convexity_margins[0] == 0.0
        assert rep.strictly_convex_sufficient
        assert rep.borderline

    @staticmethod
    def per_prefix_sums(spec):
        # each partial sum by its own math.fsum, O(n^2)
        n = spec.n
        load = [spec.kappa(i) * (spec.u[i + 1] - spec.u[i]) for i in range(n + 1)]
        upper = [load[i - 1] + spec.d[i - 1] for i in range(1, n + 1)]
        lower = [load[i] + spec.d[i - 1] for i in range(1, n + 1)]
        return (
            [math.fsum(upper[:j]).hex() for j in range(1, n + 1)],
            [math.fsum(lower[j - 1:]).hex() for j in range(1, n + 1)],
        )

    def test_running_sums_match_per_prefix_fsum(self):
        specs = [
            family(np.random.default_rng(seed), n)
            for family in (random_convex_spec, random_coercive_spec)
            for seed in range(3)
            for n in (1, 50, 400)
        ]
        # upper terms in cancelling pairs +-x, -x + e over 16 decades, and
        # conductivities over 16 decades, so the lower sums cancel too
        rng = np.random.default_rng(41)
        n = 60
        u = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n + 1))))
        k = 10.0 ** rng.uniform(-8.0, 8.0, n + 1)
        x = 10.0 ** rng.uniform(-8.0, 8.0, n // 2)
        t = np.ravel(np.column_stack((x, -x + 10.0 ** rng.uniform(-12.0, -4.0, n // 2))))
        load = k * np.diff(u)
        specs.append(ProblemSpec(u=u, a=np.ones(n + 1), k=k, d=t - load[:-1]))
        # an infinite load (k / a^2 overflows), and sums at the edge of range
        unit = dict(u=(0.0, 1.0, 2.0, 3.0), a=(1.0,) * 3, k=(1.0,) * 3)
        specs.append(ProblemSpec(**dict(unit, a=(1e-10, 1.0, 1.0), k=(1e300, 1.0, 1.0)),
                                 d=(1.0, 2.0)))
        specs.append(ProblemSpec(**unit, d=(1e308, -1e308)))
        for spec in specs:
            rep = check_wellposedness(spec)
            want_upper, want_lower = self.per_prefix_sums(spec)
            assert [v.hex() for v in rep.S_upper] == want_upper
            assert [v.hex() for v in rep.S_lower] == want_lower
        # a sum that overflows raises as math.fsum does
        overflowing = ProblemSpec(**unit, d=(1e308, 1e308))
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            self.per_prefix_sums(overflowing)
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            check_wellposedness(overflowing)

    def test_margin_condition_implies_coercive(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 5):
            for _ in range(5):
                rep = check_wellposedness(random_convex_spec(rng, n))
                assert rep.strictly_convex_sufficient
                assert rep.coercive

    def test_sums_past_the_largest_double(self):
        # S_lower[0] = 1e308 + 1.7e308 overflows; its terms and S_upper do not
        huge = ProblemSpec(u=(-1.7e308, -1e308, 0.0, 1.7e308), a=(1.0,) * 3,
                           k=(1.0,) * 3, d=(0.0, 0.0))
        with pytest.raises(EnergyOverflow, match="well-posedness sums .*common factor"):
            check_wellposedness(huge)
        # k scaled by 2**-2: finite sums, the same coercive verdict
        scaled = ProblemSpec(u=huge.u, a=huge.a, k=(0.25,) * 3, d=(0.0, 0.0))
        rep = check_wellposedness(scaled)
        assert rep.coercive and rep.strictly_convex_sufficient
        assert rep.S_lower[0] == pytest.approx(6.75e307, rel=1e-15)

    def test_report_is_computed_once_per_spec(self, monkeypatch):
        spec = ProblemSpec(u=(-1.0, 0.0, 2.0), a=(1.0, 1.5), k=(1.0, 0.5), d=(-0.2,))
        first = check_wellposedness(spec)
        # a second call must not sum again (stefan.energy is the function,
        # so the module is looked up by name)
        module = importlib.import_module("stefan.energy")
        monkeypatch.setattr(module, "_running_fsums", None)
        assert check_wellposedness(spec) is first
        monkeypatch.undo()
        # replace builds a new spec, and that gets its own report
        import dataclasses

        other = dataclasses.replace(spec, d=(-2.0,))
        assert not check_wellposedness(other).coercive and first.coercive
        same = dataclasses.replace(spec)
        assert check_wellposedness(same) is not first
        assert check_wellposedness(same) == first

    def test_overflow_is_raised_on_every_call(self):
        huge = ProblemSpec(u=(-1.7e308, -1e308, 0.0, 1.7e308), a=(1.0,) * 3,
                           k=(1.0,) * 3, d=(0.0, 0.0))
        for _ in range(2):
            with pytest.raises(EnergyOverflow):
                check_wellposedness(huge)
        assert not hasattr(huge, "_report")


def test_strip_weights_stay_out_of_the_dataclass_surface():
    import dataclasses

    spec = ProblemSpec(u=[0.0, 1.0, 3.0], a=[1.0, 2.0], k=[1.0, 1.0], d=[0.5])
    twin = ProblemSpec(u=[0.0, 1.0, 3.0], a=[1.0, 2.0], k=[1.0, 1.0], d=[0.5])
    # the cached well-posedness report stays out of it as well
    check_wellposedness(spec)
    assert spec == twin and hash(spec) == hash(twin)
    assert [f.name for f in dataclasses.fields(spec)] == ["u", "a", "k", "d"]
    assert dataclasses.asdict(spec) == {
        "u": (0.0, 1.0, 3.0), "a": (1.0, 2.0), "k": (1.0, 1.0), "d": (0.5,)
    }
    assert repr(spec) == "ProblemSpec(u=(0.0, 1.0, 3.0), a=(1.0, 2.0), k=(1.0, 1.0), d=(0.5,))"
    changed = dataclasses.replace(spec, k=(2.0, 1.0))
    fresh = ProblemSpec(u=[0.0, 1.0, 3.0], a=[1.0, 2.0], k=[2.0, 1.0], d=[0.5])
    assert changed == fresh and changed != spec
    for xi in ([0.3], [-1.7]):
        assert energy(changed, xi) == energy(fresh, xi) != energy(spec, xi)
        assert list(gradient(changed, xi)) == list(gradient(fresh, xi))


def test_spec_arrays_stay_out_of_the_dataclass_surface(monkeypatch):
    import dataclasses

    monkeypatch.setattr(ENERGY, "_VECTOR_N", 1)
    spec = ProblemSpec(u=[0.0, 1.0, 3.0], a=[1.0, 2.0], k=[1.0, 1.0], d=[0.5])
    twin = ProblemSpec(u=[0.0, 1.0, 3.0], a=[1.0, 2.0], k=[1.0, 1.0], d=[0.5])
    first = energy(spec, [0.3])
    assert hasattr(spec, "_strip_arrays") and not hasattr(twin, "_strip_arrays")
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    # replace builds a new spec, whose arrays are its own
    changed = dataclasses.replace(spec, k=(2.0, 1.0))
    assert not hasattr(changed, "_strip_arrays")
    assert energy(changed, [0.3]) != first == energy(dataclasses.replace(spec), [0.3])
    monkeypatch.setattr(ENERGY, "_VECTOR_N", math.inf)
    assert energy(changed, [0.3]) == energy(ProblemSpec(u=spec.u, a=spec.a, k=(2.0, 1.0),
                                                        d=spec.d), [0.3])


# far out, distinct fronts can round to one scaled value: here x/0.8 at
# 1e6, so THREE's strip 1 is empty although the fronts increase
COLLAPSED = (1e6, math.nextafter(1e6, math.inf), 2e6)


@pytest.mark.parametrize("evaluate", [
    energy,
    gradient,
    hessian_parts,
    hessian,
    newton_step,
    assemble,
    lambda spec, xi: minimize(spec, start=xi),
], ids=["energy", "gradient", "hessian_parts", "hessian", "newton_step",
        "assemble", "minimize"])
def test_strip_empty_once_scaled_is_infeasible(evaluate):
    assert COLLAPSED[0] / 0.8 == COLLAPSED[1] / 0.8
    with pytest.raises(InfeasiblePoint):
        evaluate(THREE, COLLAPSED)


# 105 fronts: wide strips in both tails (|xi/a| up to 40) and in the
# centre, one straddling 0, 0.15-wide strips far out that fail the
# series' q w test, 1e-9-wide strips, and narrow strips at 6 that take
# the series
MIXED_FRONTS = tuple(
    [-40.0 + 2.5 * i for i in range(6)]
    + [-27.0 + 0.15 * i for i in range(8)]
    + [-20.0 + 1e-9 * i for i in range(4)]
    + [-6.2 + 1.3 * i for i in range(10)]
    + [6.0 + 0.01 * i for i in range(60)]
    + [15.0 + 1e-9 * i for i in range(4)]
    + [20.0 + 0.15 * i for i in range(8)]
    + [30.0 + 2.5 * i for i in range(5)]
)
_MIXED_BASE = random_convex_spec(np.random.default_rng(77), len(MIXED_FRONTS))
MIXED = ProblemSpec(u=_MIXED_BASE.u, a=[1.0 - 0.002 * (i % 3) for i in range(106)],
                    k=_MIXED_BASE.k, d=_MIXED_BASE.d)


def test_mixed_point_has_every_kind_of_strip():
    lo, hi, _ = strips(MIXED.a, MIXED_FRONTS)
    kinds = set()
    for b, t in zip(lo[1:-1], hi[1:-1]):
        if takes_series(b, t):
            kinds.add("tiny" if t - b < 1e-8 else "series")
        elif t - b <= kernel._NARROW:
            kinds.add("narrow-wide")
        elif b < 0.0 < t:
            kinds.add("straddle")
        elif max(abs(b), abs(t)) < kernel._TAIL_SWITCH:
            kinds.add("central")
        elif min(abs(b), abs(t)) >= kernel._TAIL_SWITCH:
            kinds.add("tail")
    assert kinds == {"tiny", "series", "narrow-wide", "straddle", "central", "tail"}
    assert max(abs(v) for v in lo[1:] + hi[:-1]) > 40.0
    assert len(MIXED_FRONTS) >= ENERGY._VECTOR_N


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 50, 200):
        for make in (random_convex_spec, random_coercive_spec, random_noncoercive_spec):
            yield f"seeded-{make.__name__[7:-5]}-n{n}", make(rng, n), random_fronts(rng, n)
    # every front in a kernel tail, |xi/a| from just past 6 up to 40
    tail = ProblemSpec(u=(-2.0, -1.0, 0.5, 1.0, 2.0, 3.5, 4.0),
                       a=(1.0, 0.9, 1.2, 1.0, 0.7, 1.0),
                       k=(1.0, 0.6, 1.5, 1.0, 2.0, 0.8),
                       d=(0.4, -0.3, 0.2, 0.5, -0.1))
    yield "tails", tail, (-36.0, -12.5, 7.5, 14.0, 27.5)
    yield "far-tails", tail, (-35.5, -35.0, 8.0, 27.9, 28.0)
    # strips 1e-9 wide, in the centre and out in both tails
    yield "narrow", THREE, (0.3, 0.3 + 1e-9, 2.0)
    yield "narrow-tails", THREE, (-9.0, -9.0 + 1e-9, 7.5)
    yield "narrow-right", THREE, (-1.0, 7.2, 7.2 + 1e-9)
    # strips whose ends lie on both sides of 0
    yield "straddle", THREE, (-0.7, 0.1, 0.9)
    yield "straddle-zero-front", THREE, (-1e-3, 0.0, 5e-4)
    # a front past 2**513, whose tail strip's log gap is -inf, so its
    # pdf/gap ratio and one gradient entry are NaN: the max-norm skips a
    # later NaN and keeps a leading one
    yield "nan-gradient-last", THREE, (-0.5, 0.4, 1e155)
    yield "nan-gradient-first", THREE, (-1e155, 0.4, 1.0)
    # n >= _VECTOR_N: every kind of strip in one point, and narrow strips
    # in a tail, some taking the series and some failing its q w test
    yield "mixed-n105", MIXED, MIXED_FRONTS
    spec = random_coercive_spec(rng, 100)
    yield "narrow-tail-n100", spec, tuple(7.5 + 0.05 * v for v in random_fronts(rng, 100))


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("spec, xi", [
    pytest.param(spec, xi, id=name) for name, spec, xi in _oracle_cases()
])
def test_fused_point_matches_the_multi_pass_oracle(spec, xi):
    point, want = _Point(spec, list(xi)), MultiPassPoint(spec, list(xi))
    assert _bits([point.energy]) == _bits([want.energy])
    assert _bits(point.gradient()) == _bits(want.gradient)
    assert _bits([point.grad_norm()]) == _bits([max(abs(v) for v in want.gradient)])
    # the bands before parts, whose pass replaces the cached gradient
    for got, ref in zip(point.bands(), want.bands):
        assert _bits(got) == _bits(ref)
    for got, ref in zip(point.parts(), want.parts):
        assert _bits(got) == _bits(ref)
    for got, ref in zip((point.lo, point.hi, point.lg), strips(spec.a, list(xi))):
        assert _bits(got) == _bits(ref)
    values = [point.energy, point.grad_norm(), *point.gradient(), *point.lo, *point.hi,
              *point.lg, *point.bands()[0], *point.bands()[1]]
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("path", ["scalar", "vector"])
@pytest.mark.parametrize("spec, xi", [
    pytest.param(spec, xi, id=name) for name, spec, xi in _oracle_cases()
])
def test_both_point_paths_match_the_multi_pass_oracle(spec, xi, path, monkeypatch):
    # every case on each path, whatever its n
    monkeypatch.setattr(ENERGY, "_VECTOR_N", 1 if path == "vector" else math.inf)
    test_fused_point_matches_the_multi_pass_oracle(spec, xi)


def _scalar_and_vector(monkeypatch, evaluate):
    """What evaluate() returns or raises on the scalar path, then on the
    vector path, each as (type, message) or its value."""
    outcomes = []
    for threshold in (math.inf, 1):
        monkeypatch.setattr(ENERGY, "_VECTOR_N", threshold)
        try:
            outcomes.append(evaluate())
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


_WIDE = random_convex_spec(np.random.default_rng(5), 100)
# far out, x/0.8 rounds 1e6 and the next double up to one value
_WIDE_AT_0_8 = ProblemSpec(u=_WIDE.u, a=(0.8,) * 101, k=_WIDE.k, d=_WIDE.d)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "collapsed"])
def test_vector_path_raises_the_scalar_infeasible_point(bad, where, monkeypatch):
    n = _WIDE.n
    j = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    if bad == "collapsed":
        # fronts j-1 and j, or 0 and 1, one ulp apart at 1e6
        k = max(j, 1)
        spec = _WIDE_AT_0_8
        xi = [1e6 + 2.0 * (i - k + 1) for i in range(n)]
        xi[k] = math.nextafter(xi[k - 1], math.inf)
        assert xi[k - 1] / 0.8 == xi[k] / 0.8
        strip = k
    else:
        spec = _WIDE
        xi = list(random_fronts(np.random.default_rng(6), n))
        xi[j] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[bad]
        strip = j + 1 if bad == "inf" else j
    scalar, vector = _scalar_and_vector(monkeypatch, lambda: _Point(spec, xi))
    assert scalar == (InfeasiblePoint, f"xi: strip {strip} is empty once scaled")
    assert vector == scalar


@pytest.mark.parametrize("n", [1, 100])
def test_vector_path_raises_the_scalar_energy_overflow(n, monkeypatch):
    # the two end strips' terms are about 1.5e308 each; interior ones are small
    huge = ProblemSpec(u=(-1.7e308, *map(float, range(n)), 1.7e308), a=(1.0,) * (n + 1),
                       k=(1.0,) * (n + 1), d=(0.0,) * n)
    xi = [0.0] if n == 1 else [-0.3 + 0.006 * i for i in range(n)]
    scalar, vector = _scalar_and_vector(monkeypatch, lambda: _Point(huge, xi))
    assert scalar[0] is EnergyOverflow and "common factor" in scalar[1]
    assert vector == scalar


def test_the_vector_point_takes_one_log_gap_per_strip_and_one_derivative_pass(
    monkeypatch
):
    # kernel strips in strip order, strip 0 first, on the vector path
    monkeypatch.setattr(ENERGY, "_VECTOR_N", 1)
    for n in (1, 3, 50):
        test_a_point_takes_one_log_gap_per_strip_and_one_derivative_pass(n, monkeypatch)


# Strips for the inline midpoint series of _Point: each (lo, hi) is strip
# 1 of fronts (lo, hi) under unit diffusivities, so the point takes it
# unscaled.  _SQ_CASES were found by scanning ulps of hi: their h^2 m^2 is
# one ulp below _NARROW_SQ, on it and one ulp above.
_NEXT_UP = math.nextafter(kernel._NARROW, math.inf)
_NEXT_DOWN = math.nextafter(kernel._NARROW, 0.0)
_TINY = math.nextafter(0.0, 1.0)
_SQ_CASES = {
    -1: (1.8999999999999921, 2.002498439450071),
    0: (1.8999999999999575, 2.0024984394500382),
    1: (1.8999999999999968, 2.0024984394500756),
}
_SERIES_CASES = {
    # wholly below 0, where log_gap mirrors the strip first
    "below": (-0.3, -0.2),
    "below-to-minus-zero": (-0.1, -0.0),
    "below-to-zero": (-0.1, 0.0),
    # straddling 0, and from +-0.0
    "straddle": (-0.05, 0.1),
    "from-zero": (0.0, 0.1),
    "from-minus-zero": (-0.0, 0.1),
    # h equal to _NARROW, one ulp under and one over it
    "h-narrow": (0.0, kernel._NARROW),
    "h-narrow-mid-zero": (-0.1, 0.1),
    "h-narrow-mirrored": (-kernel._NARROW, -0.0),
    "h-under": (0.0, _NEXT_DOWN),
    "h-over": (0.0, _NEXT_UP),
    "h-over-mirrored": (-_NEXT_UP, 0.0),
    # h^2 m^2 one ulp under _NARROW_SQ, on it and one ulp over, both sides
    **{f"qw{k:+d}": case for k, case in _SQ_CASES.items()},
    **{f"qw{k:+d}-mirrored": (-hi, -lo) for k, (lo, hi) in _SQ_CASES.items()},
    # narrow, but h |m| > _NARROW: the kernel's wide branches
    "narrow-wide-above": (2.0, 2.15),
    "narrow-wide-below": (-2.15, -2.0),
    "narrow-wide-tail": (40.0, 40.006),
    # deep in a tail
    "tail": (40.0, 40.004),
    "tail-mirrored": (-40.004, -40.0),
    "tail-ulp": (40.0, math.nextafter(40.0, math.inf)),
    # subnormal widths
    "subnormal-from-zero": (0.0, _TINY),
    "subnormal-to-minus-zero": (-_TINY, -0.0),
    "subnormal-straddle": (-_TINY, _TINY),
    "subnormal": (1e-310, 2e-310),
    "one-ulp-at-one": (1.0, math.nextafter(1.0, 2.0)),
}
_UNIT = ProblemSpec(u=(-1.0, 0.0, 1.0, 2.0), a=(1.0, 1.0, 1.0), k=(1.0, 1.0, 1.0),
                    d=(0.0, 0.0))


def test_series_cases_sit_where_they_say():
    for k, (lo, hi) in _SQ_CASES.items():
        h, qw = series_test(lo, hi)
        assert h < kernel._NARROW
        assert qw == {-1: math.nextafter(kernel._NARROW_SQ, 0.0), 0: kernel._NARROW_SQ,
                      1: math.nextafter(kernel._NARROW_SQ, 1.0)}[k]
        assert takes_series(lo, hi) == (k <= 0)
    for name, want in (("h-narrow", kernel._NARROW), ("h-narrow-mid-zero", kernel._NARROW),
                       ("h-narrow-mirrored", kernel._NARROW), ("h-under", _NEXT_DOWN),
                       ("h-over", _NEXT_UP), ("h-over-mirrored", _NEXT_UP)):
        assert series_test(*_SERIES_CASES[name])[0] == want, name
    for name in ("narrow-wide-above", "narrow-wide-below", "narrow-wide-tail"):
        lo, hi = _SERIES_CASES[name]
        assert hi - lo <= kernel._NARROW and not takes_series(lo, hi)
    for name in ("tail", "tail-mirrored", "subnormal", "subnormal-straddle"):
        assert takes_series(*_SERIES_CASES[name])


@pytest.mark.parametrize("lo, hi, path", [
    pytest.param(lo, hi, path, id=name if path == "scalar" else f"vector-{name}")
    for path in ("scalar", "vector") for name, (lo, hi) in _SERIES_CASES.items()
])
def test_inline_series_is_log_gap(lo, hi, path, monkeypatch):
    # the scalar point takes every strip by one log_gap call; the vector
    # point takes strip 1 by its array series where log_gap would take the
    # midpoint series, and by log_gap itself elsewhere; either way it holds
    # log_gap's bits
    monkeypatch.setattr(ENERGY, "_VECTOR_N", 1 if path == "vector" else math.inf)
    want = [kernel.log_gap(b, t) for b, t in ((-math.inf, lo), (lo, hi), (hi, math.inf))]
    calls = []
    real = kernel.log_gap

    def counted(b, t):
        calls.append((b, t))
        return real(b, t)

    monkeypatch.setattr(kernel, "log_gap", counted)
    point = _Point(_UNIT, [lo, hi])
    assert (point.lo[1], point.hi[1]) == (lo, hi)
    assert _bits(point.lg) == _bits(want)
    middle = [] if path == "vector" and takes_series(lo, hi) else [(lo, hi)]
    assert calls == [(-math.inf, lo)] + middle + [(hi, math.inf)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from([random_coercive_spec, random_convex_spec]),
    st.sampled_from([1.0, 0.25, 0.05, 1e-3, 1e-9]),
    st.sampled_from([0.0, 1.5, -1.5, 7.0, -7.0, 40.0, -40.0]),
)
def test_inline_series_is_log_gap_on_drawn_points(seed, n, family, shrink, shift):
    # random fronts pressed together by shrink and moved by shift, so that
    # strips are narrow in the centre and in both tails
    rng = np.random.default_rng(seed)
    spec = family(rng, n)
    xi = [shift + shrink * v for v in random_fronts(rng, n)]
    if any(not b < t for b, t in zip(xi, xi[1:])):
        return
    lo, hi, lg = strips(spec.a, xi)
    try:
        point = _Point(spec, xi)
    except InfeasiblePoint:
        assert any(not b < t for b, t in zip(lo, hi))
        return
    assert _bits(point.lg) == _bits(lg)
    assert _bits([point.energy]) == _bits([MultiPassPoint(spec, xi).energy])


@pytest.mark.parametrize("n", [1, 3, 50])
def test_a_point_takes_one_log_gap_per_strip_and_one_derivative_pass(n, monkeypatch):
    # A point takes each strip's log gap once: the scalar point by one
    # kernel.log_gap call per strip, the vector point by its array series
    # where log_gap would take the midpoint series, else by one log_gap
    # call on that strip.  The fronts are also shrunk toward 0, which makes
    # strips narrow enough for the series.
    calls = {"log_gap": [], "log_pdf": 0, "pdf": 0, "_derive": 0}
    real_log_gap = kernel.log_gap

    def log_gap(lo, hi):
        calls["log_gap"].append((lo, hi))
        return real_log_gap(lo, hi)

    monkeypatch.setattr(kernel, "log_gap", log_gap)
    for owner, name in (
        (kernel, "log_pdf"),
        (kernel, "pdf"),
        (_Point, "_derive"),
    ):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(n)
    spec, fronts = random_convex_spec(rng, n), random_fronts(rng, n)
    built = count_points(monkeypatch)
    vector = n >= ENERGY._VECTOR_N
    series = 0
    for shrink in (1.0, 0.25, 0.05):
        xi = [shrink * v for v in fronts]
        lo, hi, lg = strips(spec.a, xi)
        series += sum(takes_series(b, t) for b, t in zip(lo, hi))
        kernel_strips = [(b, t) for b, t in zip(lo, hi)
                         if not (vector and takes_series(b, t))]
        calls.update(log_gap=[], _derive=0)
        del built[:]
        point = _Point(spec, xi)
        assert built == [xi]
        want = {"log_gap": kernel_strips, "log_pdf": 0, "pdf": 0, "_derive": 0}
        assert calls == want
        assert _bits(point.lg) == _bits(lg)
        point.gradient()
        # one derivative pass, which takes its pdf values without a kernel call
        want["_derive"] = 1
        assert calls == want
        point.grad_norm()
        point.bands()
        assert calls == want
    # at n = 1 both strips are infinite, so none takes the series
    assert (series > 0) == (n > 1)
