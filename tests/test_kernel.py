"""Kernel accuracy and stability tests.

Frozen reference values were computed two independent ways before the
implementation was trusted: 60-digit arithmetic on the closed form of
the defining integral, and adaptive quadrature of the integral itself
(see helpers.quad_cdf, reused here for spot checks).
"""
import math

import numpy as np
import pytest

from stefan.kernel import (
    _NARROW,
    _NARROW_SQ,
    PDF_PEAK,
    _cdf_inverse,
    _log_erfcx,
    _narrow_series,
    cdf,
    log_gap,
    log_pdf,
    pdf,
)

from helpers import quad_cdf

INF = float("inf")
EPS = np.finfo(float).eps

# (argument, value) pairs from the 60-digit reference
CDF_POINTS = [
    (2.0, 0.9213503964748574),
    (1.0, 0.7602499389065233),
    (-1.0, 0.23975006109347674),
    (0.5, 0.6381631950841185),
    (-3.7, 0.004444484971957145),
]

PDF_POINTS = [
    (0.0, 0.28209479177387814),
    (2.0, 0.10377687435514868),
    (-3.0, 0.029732572305907343),
]

LOG_GAP_POINTS = [
    (10.0, 11.0, -27.89883393159802),
    (-11.0, -10.0, -27.89883393159802),
    (38.0, 40.0, -365.21133138080086),
    (-40.0, -38.0, -365.21133138080086),
    (-1.3, 0.4, -0.8384829236911882),
    (6.0, 9.0, -11.413519123061457),
    (12.0, INF, -39.07070835378333),
    (-INF, 0.0, -0.6931471805599453),
]

# (a, b, log_gap(a, b)) frozen bit for bit from the implementation that
# evaluated the left tail and the one-sided left band without reflecting:
# both tails, the one-sided central band on either side, gaps straddling
# zero, infinite ends, signed zeros, and widths from 1e-12 to 1.  The
# eight narrow rows, (-0.1, 0.1) and the seven of width 1e-3 or less, are
# frozen from the midpoint series that replaced their differenced gaps,
# and (-0.5, 0.5) from the erf and erfc of ``math``
LOG_GAP_BITS = [
    (6.0, 9.0, -11.413519123061457),
    (10.0, 11.0, -27.89883393159802),
    (38.0, 40.0, -365.21133138080086),
    (12.0, INF, -39.07070835378334),
    (760000000.0, INF, -1.4440000000000003e+17),
    (-9.0, -6.0, -11.413519123061457),
    (-11.0, -10.0, -27.89883393159802),
    (-40.0, -38.0, -365.21133138080086),
    (-INF, -12.0, -39.07070835378334),
    (0.5, 3.0, -1.0645315564009723),
    (2.0, 5.9, -2.5429447190650274),
    (-3.0, -0.5, -1.0645315564009723),
    (-5.9, -2.0, -2.5429447190650274),
    (0.3, INF, -0.8770651766981776),
    (-INF, -2.0, -2.5427526904931934),
    (-1.3, 0.4, -0.838482923691188),
    (-0.1, 0.1, -2.8757830915184037),
    (-0.5, 0.5, -1.2861725388804224),
    (-INF, 2.0, -0.08191486288187481),
    (-3.0, INF, -0.017092677825984746),
    (-INF, INF, -0.0),
    (0.0, 1.0, -1.3461128062362766),
    (-0.0, 1.0, -1.3461128062362766),
    (-1.0, 0.0, -1.3461128062362766),
    (-1.0, -0.0, -1.3461128062362766),
    (0.0, INF, -0.6931471805599453),
    (-INF, -0.0, -0.6931471805599453),
    (0.5, 0.500000000001, -28.95905536137813),
    (-0.500000000001, -0.5, -28.95905536137813),
    (2.0, 2.001, -9.173767444112725),
    (-3.0, -2.999999, -17.331021931309127),
    (6.1, 6.10000001, -28.988692888764483),
    (20.0, 20.000000001, -121.9887778826907),
    (-20.000000001, -20.0, -121.9887778826907),
]


def test_cdf_exact_anchors():
    assert cdf(0.0) == 0.5
    assert cdf(INF) == 1.0
    assert cdf(-INF) == 0.0


def test_cdf_frozen_values():
    for x, want in CDF_POINTS:
        assert cdf(x) == pytest.approx(want, rel=5e-16, abs=5e-16)


def test_cdf_matches_quadrature():
    for x in np.linspace(-10.0, 10.0, 201):
        assert cdf(float(x)) == pytest.approx(quad_cdf(float(x)), abs=1e-15)


def test_cdf_rejects_nan():
    with pytest.raises(ValueError):
        cdf(float("nan"))


def test_cdf_near_zero_against_mpmath():
    # below 2**-28 erfc must keep its slope: cdf(xi) = 1/2 + xi/(2 sqrt(pi))
    import mpmath

    rng = np.random.default_rng(20)
    for mag in 10.0 ** rng.uniform(-20.0, -6.0, size=200):
        for x in (float(mag), -float(mag)):
            with mpmath.workdps(60):
                want = mpmath.erfc(-mpmath.mpf(x) / 2) / 2
            assert abs(float(cdf(x) - want)) <= 1e-15, x


def test_cdf_monotone_on_grid():
    grid = np.linspace(-40.0, 40.0, 4001)
    vals = [cdf(float(x)) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_cdf_symmetry():
    for x in np.linspace(0.0, 40.0, 2001):
        assert cdf(float(-x)) + cdf(float(x)) == pytest.approx(1.0, abs=1e-15)


def test_pdf_frozen_values():
    for x, want in PDF_POINTS:
        assert pdf(x) == pytest.approx(want, rel=5e-16)
    assert pdf(INF) == 0.0
    assert pdf(-INF) == 0.0


def test_pdf_bounds_and_evenness():
    for x in np.linspace(-12.0, 12.0, 501):
        v = pdf(float(x))
        assert 0.0 < v <= PDF_PEAK
        assert v == pdf(float(-x))


def test_pdf_is_derivative_of_cdf():
    h = 1e-5
    for x in np.linspace(-8.0, 8.0, 321):
        x = float(x)
        fd = (cdf(x + h) - cdf(x - h)) / (2 * h)
        assert fd == pytest.approx(pdf(x), abs=1e-9)


def test_log_pdf_consistent_with_pdf():
    for x in (-30.0, -5.0, 0.0, 1.7, 6.0, 25.0):
        assert log_pdf(x) == pytest.approx(
            -0.25 * x * x - math.log(2 * math.sqrt(math.pi)), rel=1e-15
        )
        if abs(x) < 35:
            assert math.exp(log_pdf(x)) == pytest.approx(pdf(x), rel=1e-14)


def test_log_gap_frozen_values():
    for a, b, want in LOG_GAP_POINTS:
        assert log_gap(a, b) == pytest.approx(want, rel=1e-13)


def test_log_gap_bits_are_unchanged():
    for a, b, want in LOG_GAP_BITS:
        assert log_gap(a, b).hex() == want.hex(), (a, b)


def test_log_gap_mirror_is_exact():
    for a, b, _ in LOG_GAP_BITS:
        assert log_gap(-b, -a).hex() == log_gap(a, b).hex(), (a, b)


def test_log_gap_full_line_is_zero():
    assert log_gap(-INF, INF) == 0.0


def test_log_gap_matches_naive_where_representable():
    pts = [float(v) for v in np.arange(-4.5, 4.51, 0.5)]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            naive = math.log(cdf(b) - cdf(a))
            assert log_gap(a, b) == pytest.approx(naive, rel=1e-12)


def test_log_gap_half_infinite():
    for x in (-7.0, -2.0, 0.3, 5.0):
        assert log_gap(x, INF) == pytest.approx(math.log1p(-cdf(x)), rel=1e-12)
        assert log_gap(-INF, x) == pytest.approx(math.log(cdf(x)), rel=1e-12)


def test_log_gap_rejects_bad_order():
    for a, b in [(1.0, 1.0), (2.0, 1.0), (INF, INF), (-INF, -INF)]:
        with pytest.raises(ValueError):
            log_gap(a, b)


def test_log_gap_mirror_symmetry():
    # gap over (a, b) equals gap over (-b, -a) by evenness of the density
    cases = [(7.0, 9.5), (15.0, 18.0), (0.25, 3.0), (20.0, INF)]
    for a, b in cases:
        assert log_gap(a, b) == pytest.approx(log_gap(-b, -a), rel=1e-13)


def test_tail_ratio_band():
    # upper tail times sqrt(pi) * x * exp(x^2/4) must sit in [1 - 2/x^2, 1]
    for x in (6.0, 8.0, 10.0, 12.0):
        log_ratio = (
            log_gap(x, INF)
            + 0.5 * math.log(math.pi)
            + math.log(x)
            + 0.25 * x * x
        )
        ratio = math.exp(log_ratio)
        assert 1.0 - 2.0 / (x * x) - 1e-3 <= ratio <= 1.0 + 1e-3


def test_one_sided_tail_against_mpmath():
    # log(1 - cdf(a)) takes one log erfcx of z = a/2: the rational ratio
    # below z = 28 and the asymptotic series from there on.  400 log-uniform
    # a over [6, 1e150] (mpmath takes milliseconds per erfc far out) and
    # 400 over [6, 1e4]; the switch at a = 56 and its two neighbours; and
    # two arguments where a continued fraction's factor settled one ulp
    # off 1
    import mpmath

    rng = np.random.default_rng(31)
    args = [
        float(x)
        for top in (1e150, 1e4)
        for x in np.exp(rng.uniform(math.log(6.0), math.log(top), 400))
    ]
    args += [math.nextafter(56.0, 0.0), 56.0, math.nextafter(56.0, INF)]
    args += [2.0 * 377870634.1951371, 2.0 * 14995942.253489535]
    with mpmath.workdps(60):
        for a in args:
            z = mpmath.mpf(a) / 2
            log_erfc = mpmath.log(mpmath.erfc(z))
            got = log_gap(a, INF)
            assert abs(got - (log_erfc - mpmath.log(2))) <= 4 * EPS * abs(got), a
            assert log_gap(-INF, -a) == got, a
            if a <= 1e4:
                # log erfcx on its own, where 60 digits resolve log erfc + z^2
                want = log_erfc + z * z
                assert abs(_log_erfcx(0.5 * a) - want) <= 4 * EPS * abs(want), a


def test_log_gap_far_right_tail():
    # log(1 - cdf(a)) = log_pdf(a) + log(2/a) to double precision out here
    for a in (7.6e8, 2.0 * 377870634.1951371):
        want = log_pdf(a) + math.log(2.0 / a)
        assert log_gap(a, INF) == pytest.approx(want, rel=1e-15)
        assert log_gap(-INF, -a) == log_gap(a, INF)


def test_log_gap_past_the_log_of_the_smallest_double():
    # both log-tails are -inf past |a| = 2.7e154, and so is the gap
    for a, b in ((3e154, INF), (1e200, 2e200), (-INF, -1e200)):
        assert log_gap(a, b) == -INF, (a, b)


def test_nan_arguments_are_rejected_with_their_messages():
    nan = float("nan")
    for fn, name in ((cdf, "cdf"), (pdf, "pdf"), (log_pdf, "log_pdf")):
        with pytest.raises(ValueError, match=f"^{name}: argument must not be NaN$"):
            fn(nan)
    for a, b in [(nan, 1.0), (0.0, nan), (nan, nan), (nan, INF), (-INF, nan)]:
        with pytest.raises(ValueError, match="^log_gap: arguments must not be NaN$"):
            log_gap(a, b)
    with pytest.raises(ValueError, match="^log_gap: requires a < b$"):
        log_gap(1.0, 1.0)


def test_infinite_arguments_of_pdf_and_log_pdf():
    for x in (INF, -INF):
        assert pdf(x) == 0.0
        assert log_pdf(x) == -INF


def _log_gap_reference(a, b):
    """log(cdf(b) - cdf(a)) at 60 digits, never differencing values near 1
    (mirrored for b <= 0): erfc values for a >= 1, erf values below, where
    erfc(a/2) would be near 1 itself."""
    import mpmath

    if b <= 0.0:
        a, b = -b, -a
    with mpmath.workdps(60):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a >= 1:
            gap = (mpmath.erfc(a / 2) - mpmath.erfc(b / 2)) / 2
        else:
            gap = (mpmath.erf(b / 2) - mpmath.erf(a / 2)) / 2
        return float(mpmath.log(gap))


# (a, b) narrower than the kernel can resolve by differencing: the two
# erfc values, erf halves or log-tails give a gap of zero or below
SUB_ULP_STRIPS = [
    (0.0, 5e-324),
    (-0.0, 5e-324),
    (1e-300, 2e-300),
    (-5e-324, 5e-324),
    (0.9296278057526717, 0.9296278057526718),
    (7.595022163643221, 7.595022163643222),
]


def test_log_gap_of_sub_ulp_strips():
    for a, b in SUB_ULP_STRIPS:
        got = log_gap(a, b)
        want = _log_gap_reference(a, b)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), (a, b)
        assert log_gap(-b, -a).hex() == got.hex(), (a, b)


def _strips_about(rng, count, scale):
    """count strips (m - h/2, m + h/2): midpoints over [-40, 40], one in
    four in [-1.5, 1.5], and h = scale(u) * _NARROW / max(1, |m|) for a
    uniform u."""
    strips = []
    for i in range(count):
        m = float(rng.uniform(-1.5, 1.5) if i % 4 == 0 else rng.uniform(-40.0, 40.0))
        h = scale(rng.uniform()) * _NARROW / max(1.0, abs(m))
        strips.append((m - 0.5 * h, m + 0.5 * h))
    return strips


# narrow strips at the centre, on the one-sided band and in both tails, as
# wide as the branch allows and down to 1e-12
NARROW_STRIPS = [
    (m - 0.5 * h, m + 0.5 * h)
    for m in (0.0, 0.4624966481, -3.0, 6.0, -20.0, 40.0)
    for h in (1e-12, 1e-6, 0.999 * _NARROW / max(1.0, abs(m)))
] + [(0.4624966481, 0.4624966481 + 1.1e-12)]


def test_log_gap_of_narrow_strips_against_mpmath():
    rng = np.random.default_rng(10)
    # widths log-uniform from 1e-12 up to just inside the branch
    strips = NARROW_STRIPS + _strips_about(
        rng, 300, lambda u: 0.999 * 10.0 ** (-12.0 * u)
    )
    for a, b in strips:
        m = 0.5 * (a + b)
        assert (b - a) * max(1.0, abs(m)) <= _NARROW, (a, b)
        got = log_gap(a, b)
        want = _log_gap_reference(a, b)
        assert abs(got - want) <= 16 * EPS * max(1.0, abs(want)), (a, b)
        assert log_gap(-b, -a).hex() == got.hex(), (a, b)


def test_narrow_series_on_an_array_is_the_series_on_each_float():
    # the numpy strip pass takes the series on arrays; each element must
    # carry the bits of the float call.  Strips over the series region
    # (h <= _NARROW, h^2 m^2 <= _NARROW_SQ) and past it, and strips whose
    # h or h |m| are the doubles on both sides of _NARROW, as whose h^2 or
    # h^2 m^2 land on both sides of _NARROW_SQ
    rng = np.random.default_rng(33)
    strips = NARROW_STRIPS + _strips_about(rng, 400, lambda u: 2.0 * u)
    for m in (0.0, -0.5, 1.0, 3.0, -17.0, 40.0):
        edge = _NARROW / max(1.0, abs(m))
        for h in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, INF)):
            strips.append((m - 0.5 * h, m + 0.5 * h))
    h = np.array([b - a for a, b in strips])
    m = 0.5 * np.array([a + b for a, b in strips])
    q, w = h * h, m * m
    assert (q * w <= _NARROW_SQ).any() and (q * w > _NARROW_SQ).any()
    assert (h <= _NARROW).any() and (h > _NARROW).any()
    got = _narrow_series(q, w)
    assert got.dtype == np.float64
    for qi, wi, gi in zip(q.tolist(), w.tolist(), got.tolist()):
        assert gi.hex() == _narrow_series(qi, wi).hex(), (qi, wi)


def test_cdf_and_wide_central_log_gap_against_mpmath():
    # the contract that does not depend on the platform's erf and erfc
    # bits; the worst errors over these draws are 7.8e-17, 1.19 eps and
    # 0.99 eps, and over 20 000 draws of each kind 8.2e-17, 1.8 eps and
    # 1.6 eps
    import mpmath

    rng = np.random.default_rng(21)
    with mpmath.workdps(50):
        for x in rng.uniform(-52.0, 52.0, 1000).tolist():
            want = mpmath.erfc(-mpmath.mpf(x) / 2) / 2
            assert abs(cdf(x) - want) <= 1e-15, x
        for x in rng.uniform(-52.0, 0.0, 1000).tolist():
            want = mpmath.erfc(-mpmath.mpf(x) / 2) / 2
            assert abs(cdf(x) - want) <= 4 * EPS * want, x
    # wide strips, widths 0.25 to 4 about midpoints in [-8, 8], that take
    # the central or the straddling branch on either side of 0
    mids = rng.uniform(-8.0, 8.0, 400)
    widths = rng.uniform(0.25, 4.0, 400)
    strips = [(m - 0.5 * h, m + 0.5 * h) for m, h in zip(mids.tolist(), widths.tolist())]
    strips = [(a, b) for a, b in strips if min(abs(a), abs(b)) < 6.0 or a < 0.0 < b]
    assert len(strips) > 300
    for a, b in strips + [(-b, -a) for a, b in strips]:
        want = _log_gap_reference(a, b)
        assert abs(log_gap(a, b) - want) <= 4 * EPS * max(1.0, abs(want)), (a, b)


def test_log_gap_just_past_the_narrow_branch():
    # up to 3x the branch's width the gap is differenced again; in the
    # tails that is one expm1 of a log-tail step whose z^2 parts cancel
    # exactly, good to a few eps of the log
    rng = np.random.default_rng(11)
    for a, b in _strips_about(rng, 100, lambda u: 1.001 + 2.0 * u):
        got = log_gap(a, b)
        want = _log_gap_reference(a, b)
        assert abs(got - want) <= 4 * EPS * max(1.0, abs(want)), (a, b)
        assert log_gap(-b, -a).hex() == got.hex(), (a, b)


def _edge_strips():
    """Strips at the edge of the midpoint series in every binade 2**e,
    e = -1074..1023: (x, x + f h) for h = _NARROW / max(1, x) and f = 1,
    1.25, 1.5 (one ulp wide where f h is below an ulp of x), one-ulp
    strips, (-x, f _NARROW - x) and (-x, x), and the mirror of each."""
    strips = []
    for e in range(-1074, 1024):
        x = math.ldexp(1.0, e)
        up = math.nextafter(x, INF)
        for f in (1.0, 1.25, 1.5):
            strips.append((x, max(x + f * _NARROW / max(1.0, x), up)))
            if f * _NARROW - x > -x:
                strips.append((-x, f * _NARROW - x))
        strips += [(x, up), (-x, x)]
    return strips + [(-b, -a) for a, b in strips]


def test_log_gap_at_the_edge_of_the_series_in_every_binade():
    # every differenced gap past the series keeps its sign, so each log
    # gap is finite, and -inf only where the log-tail's (x/2)^2 overflows
    strips = _edge_strips()
    for a, b in strips:
        near = 0.0 if a < 0.0 < b else min(abs(a), abs(b))
        got = log_gap(a, b)
        assert math.isfinite(got) if near < 2.0**513 else got == -INF, (a, b)
    rng = np.random.default_rng(12)
    for i in rng.choice(len(strips), 2000, replace=False):
        a, b = strips[i]
        if min(abs(a), abs(b)) < 2.0**513:
            want = _log_gap_reference(a, b)
            assert abs(log_gap(a, b) - want) <= 4 * EPS * max(1.0, abs(want)), (a, b)


def test_log_gap_of_a_straddle_whose_erf_half_rounds_to_one():
    # erf(10) rounds to 1 and erf(5e-301) to 5.6e-301, so the sum of the
    # halves rounds to 1; mpmath: -0.693147180559945309...
    assert log_gap(-1e-300, 20.0) == math.log(0.5)


def test_erfc_is_one_near_zero():
    # erfc(x) rounds to 1 below about 2**-54, so cdf(+-2x) is exactly 1/2
    rng = np.random.default_rng(13)
    xs = [0.0, 5e-324] + [float(x) for x in 2.0 ** rng.uniform(-1074.0, -56.0, 1000)]
    for x in xs:
        assert cdf(2.0 * x) == cdf(-2.0 * x) == 0.5, x


def test_energy_and_minimize_accept_a_sub_ulp_strip():
    from stefan import ProblemSpec, SolveStatus, energy, minimize

    spec = ProblemSpec(u=[0, 1, 2, 3, 4], a=[1] * 4, k=[1] * 4, d=[0.5] * 3)
    start = [-1.0, 0.0, 1e-17]
    assert math.isfinite(energy(spec, start))
    result = minimize(spec, start=start)
    assert result.status is SolveStatus.CONVERGED
    assert result.xi_star.xi == pytest.approx(minimize(spec).xi_star.xi, abs=1e-14)


def _cdf_inverse_reference(p):
    """cdf^-1(p) at 40 digits: Newton on log cdf, from the lower tail share."""
    import mpmath

    with mpmath.workdps(40):
        pm = mpmath.mpf(p)
        lower = pm <= 0.5
        tail = pm if lower else 1 - pm  # exact, p is a double
        target = mpmath.log(tail)
        x = -abs(mpmath.mpf(_cdf_inverse(p)))
        for _ in range(50):
            c = mpmath.erfc(-x / 2) / 2
            density = mpmath.exp(-x * x / 4) / mpmath.sqrt(4 * mpmath.pi)
            step = (mpmath.log(c) - target) * c / density
            x -= step
            if abs(step) <= mpmath.mpf(10) ** -34 * (1 + abs(x)):
                break
        return float(x if lower else -x)


def test_cdf_inverse_against_mpmath():
    rng = np.random.default_rng(17)
    lower = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 150)
    upper = 1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5), 150)
    # the ends of AS241's three branches: p = 0.075 and exp(-25)
    edges = [1e-300, 1.3887943864964021e-11, 0.075, 0.07500000000000001, 0.3,
             0.4999999999, 0.925, 1.0 - 1e-16]
    for p in [*lower.tolist(), *upper.tolist(), *edges]:
        want = _cdf_inverse_reference(p)
        # measured worst case over 6000 such draws: 6.4e-16
        assert abs(_cdf_inverse(p) - want) <= 1e-15 * abs(want), p


def test_cdf_inverse_anchors_and_odd_symmetry():
    assert _cdf_inverse(0.5) == 0.0 and math.copysign(1.0, _cdf_inverse(0.5)) == 1.0
    assert _cdf_inverse(0.0) == -INF
    assert _cdf_inverse(1.0) == INF
    rng = np.random.default_rng(18)
    # 1 - p is exact for p in [1/2, 1], so the mirror holds bit for bit
    upper = [*rng.uniform(0.5, 1.0, 500), *(1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 500))]
    for p in map(float, upper):
        assert _cdf_inverse(1.0 - p) == -_cdf_inverse(p), p
    # it inverts cdf where cdf keeps its relative accuracy, left of 0
    for x in rng.uniform(-30.0, 0.0, 200).tolist():
        assert _cdf_inverse(cdf(x)) == pytest.approx(x, rel=1e-13, abs=1e-15)
