"""Piecewise self-similar temperature profiles and their a-posteriori checks.

Once interface positions are known, the temperature is, phase by
phase, an affine image of the similarity kernel.  Each piece here
carries both of its anchor forms

    v(xi) = u_lo + scale * (cdf(xi/a) - cdf_lo)
          = u_hi + scale * (cdf(xi/a) - cdf_hi)

and evaluation picks the anchor nearer to the query, so the profile
hits the phase temperatures at the interfaces exactly, by
construction, and stays well conditioned next to either end even when
a front is parked deep in a kernel tail (scale is computed through
log_gap, never by dividing by a raw cdf difference).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import erfc
from typing import TYPE_CHECKING, Tuple

from . import kernel
from .energy import FreeBoundaries, Fronts, ProblemSpec, _fronts, _Point

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Piece",
    "SelfSimilarSolution",
    "ResidualReport",
    "assemble",
    "evaluate_profile",
    "profile_slope",
    "profile_curvature",
    "evaluate_spacetime",
    "stefan_residuals",
    "validate",
]

# How far the windows of the two unbounded phases reach past the outer fronts.
_END_WINDOW = 10.0

# The constants of _ode_bound: C*u with C = 4(1 + 2^-20) and
# u = 2^-53, the underflow weight, the largest |q| whose products cannot
# overflow, and where y*exp(-y^2/4) peaks
_ODE_C_U = 4.0 * (1.0 + 2.0**-20) * 2.0**-53
_ODE_TINY = 2.0**-1073
_ODE_Q_SAFE = 2.0**1017
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Piece:
    """The profile on one phase, v(xi) = u_lo + scale * (cdf(xi/a) - cdf_lo).

    a: the phase's diffusivity.
    u_lo, u_hi: the temperatures at its lower and upper front (the far
        fields for the two unbounded phases).
    cdf_lo, cdf_hi: cdf of the scaled ends xi_lo/a and xi_hi/a.
    scale: (u_hi - u_lo) / (cdf_hi - cdf_lo), taken through log_gap.
    """

    a: float
    u_lo: float
    u_hi: float
    cdf_lo: float
    cdf_hi: float
    scale: float

    @property
    def cdf_mid(self) -> float:
        return 0.5 * (self.cdf_lo + self.cdf_hi)


@dataclass(frozen=True)
class SelfSimilarSolution:
    """A self-similar profile: the problem, its fronts and one piece per phase.

    spec: the problem solved.
    xi_star: the n fronts, strictly increasing.
    pieces: the n + 1 pieces, phase 0 (left of xi_star[0]) first.
    """

    spec: ProblemSpec
    xi_star: Tuple[float, ...]
    pieces: Tuple[Piece, ...]

    @property
    def piece_coefficients(self) -> Tuple[Tuple[float, float], ...]:
        """(offset, scale) per phase, anchored at the lower end."""
        return tuple((p.u_lo, p.scale) for p in self.pieces)


def assemble(spec: ProblemSpec, xi_star: Fronts) -> SelfSimilarSolution:
    """The profile pieces at the fronts xi_star, from each strip's scaled
    ends and log gap.

    A FreeBoundaries that ``minimize`` returned for this very spec
    carries the point it was certified at, whose strips are used as
    they are; any other input is validated and its strips taken anew,
    with the same result bit for bit.
    """
    point = getattr(xi_star, "_point", None)
    if point is None or point.spec is not spec:
        point = _Point(spec, _fronts(spec, xi_star))
    u = spec.u
    cdf, exp = kernel.cdf, math.exp
    pieces = tuple([
        Piece(a, u_lo, u_hi, cdf(lo), cdf(hi), (u_hi - u_lo) * exp(-lg))
        for a, u_lo, u_hi, lo, hi, lg in zip(
            spec.a, u, u[1:], point.lo, point.hi, point.lg
        )
    ])
    return SelfSimilarSolution(spec=spec, xi_star=tuple(point.fronts), pieces=pieces)


def _piece_index(sol: SelfSimilarSolution, xi: float) -> int:
    """Index of the piece that holds xi, taken from the right at a front."""
    if xi != xi:
        raise ValueError("xi must not be NaN")
    return bisect_right(sol.xi_star, xi)


def evaluate_profile(sol: SelfSimilarSolution, xi: float) -> float:
    """Temperature at similarity coordinate xi; +-inf give the far fields.

    At an interface both one-sided limits equal the phase temperature,
    which is what gets returned.  The piece lookup and cdf(xi/a) are
    written inline, cdf as ``kernel.cdf``'s own expression, with the
    same operations in the same order, so the value is the same bit for
    bit; math.erfc maps +-inf to 2 and 0, which gives cdf's limits.  A
    piece whose a is zero raises ValueError naming the piece, as in
    ``validate``; a NaN a raises cdf's ValueError.
    """
    if xi != xi:
        raise ValueError("xi must not be NaN")
    fronts = sol.xi_star
    j = bisect_right(fronts, xi)
    if j > 0 and fronts[j - 1] == xi:
        return sol.spec.u[j]
    p = sol.pieces[j]
    try:
        z = 0.5 * (xi / p.a)  # kernel.cdf(xi / p.a), inlined
    except ZeroDivisionError:
        raise _zero_a(j) from None
    if z <= 0.0:
        c = 0.5 * erfc(-z)
    elif z > 0.0:
        c = 1.0 - 0.5 * erfc(z)
    else:
        raise ValueError("cdf: argument must not be NaN")
    if c <= 0.5 * (p.cdf_lo + p.cdf_hi):  # p.cdf_mid, inlined
        return p.u_lo + p.scale * (c - p.cdf_lo)
    return p.u_hi + p.scale * (c - p.cdf_hi)


def _zero_a(j: int) -> ValueError:
    return ValueError(f"piece {j}: a must be nonzero")


def _derivatives(p: Piece, xi: float) -> Tuple[float, float]:
    """(v', v'') of piece p at xi, both from one pdf value.

    A zero density gives v'' as its signed zero without dividing by a*a.
    Where a*a underflows to 0 while a does not, v'' is divided by a
    twice, which gives +-inf where the true v'' overflows.
    """
    a = p.a
    z = xi / a
    density = kernel.pdf(z)
    slope = p.scale * density / a
    if density == 0.0:
        # with z = +-inf, z * 0 would be NaN
        return slope, -0.5 * math.copysign(1.0, z) * density * p.scale
    curvature = -0.5 * z * density * p.scale
    aa = a * a
    return slope, (curvature / aa if aa else curvature / a / a)


def _derivatives_at(sol: SelfSimilarSolution, xi: float) -> Tuple[float, float]:
    j = _piece_index(sol, xi)
    p = sol.pieces[j]
    try:
        return _derivatives(p, xi)
    except ZeroDivisionError:  # only xi / a divides by what can be zero
        raise _zero_a(j) from None


def profile_slope(sol: SelfSimilarSolution, xi: float) -> float:
    """dv/dxi, taken from the right at an interface.  A piece whose a is
    zero raises ValueError naming the piece; a NaN a raises pdf's."""
    return _derivatives_at(sol, xi)[0]


def profile_curvature(sol: SelfSimilarSolution, xi: float) -> float:
    """d2v/dxi2, using the identity pdf'(z) = -z pdf(z) / 2.  A piece
    whose a is zero raises ValueError naming the piece; a NaN a raises
    pdf's."""
    return _derivatives_at(sol, xi)[1]


def evaluate_spacetime(sol: SelfSimilarSolution, t: float, x: float) -> float:
    """Temperature of the space-time solution u(t, x) for finite t > 0."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return evaluate_profile(sol, x / math.sqrt(t))


def _flux_balances(spec: ProblemSpec, fronts: Tuple[float, ...]) -> list:
    """The literal flux balances behind ``stefan_residuals``, as a list.

    Strip i spans lo = x_lo/a to hi = x_hi/a and feeds
    k du pdf(end) / (a gap) into the balance at each of its fronts, with
    gap = cdf(hi) - cdf(lo), differenced as the upper tails
    cdf(-lo) - cdf(-hi) when lo >= 0, whose terms keep their precision
    where cdf(lo) and cdf(hi) both round to 1.  Every gap is taken
    before any balance, so a NaN front raises cdf's error before a zero
    gap can raise ZeroDivisionError.
    """
    u, k = spec.u, spec.k
    cdf, pdf = kernel.cdf, kernel.pdf
    ends = (-math.inf, *fronts, math.inf)
    strips = []  # (k du, a gap, lo, hi) per strip
    for i, a in enumerate(spec.a):
        lo, hi = ends[i] / a, ends[i + 1] / a
        gap = cdf(-lo) - cdf(-hi) if lo >= 0.0 else cdf(hi) - cdf(lo)
        strips.append((k[i] * (u[i + 1] - u[i]), a * gap, lo, hi))
    # front j is the upper end of strip j and the lower end of strip j+1
    return [
        0.5 * d * x + w * pdf(lo) / wa - w_left * pdf(hi) / wa_left
        for d, x, (w_left, wa_left, _, hi), (w, wa, lo, _) in zip(
            spec.d, fronts, strips, strips[1:]
        )
    ]


def stefan_residuals(spec: ProblemSpec, xi: Fronts) -> np.ndarray:
    """Literal interface flux balances, one per interface.

    Written independently of the gradient: raw cdf/pdf quotients, no
    log-space rearrangement, so it can serve as a second opinion on
    stationarity.
    """
    import numpy as np

    return np.array(_flux_balances(spec, _fronts(spec, xi)))


@dataclass(frozen=True)
class ResidualReport:
    """What ``validate`` measured, and what each figure can detect.

    max_ode_residual: the largest of the pieces' proven bounds on the
        rounding of their closed form against a^2 v'' + xi v'/2 = 0,
        each bound held at every point of the piece's window, so at
        least every sample's residual for any samples_per_phase, and
        the same for every samples_per_phase.  A piece whose bound is
        not finite makes it inf.  It reads only each piece's ``scale``
        and ``a`` and its window, so it cannot see a wrong front, a
        wrong anchor or a wrong temperature; on ``assemble``'s output it
        is about 2^-51 times the largest term xi v'/2 in a window.
    max_stefan_residual: the largest literal flux balance at a front.
        It is the only figure that checks the fronts themselves.  A NaN
        balance makes it NaN.
    max_interface_jump: the largest gap between a piece's value at a
        front and that phase temperature.  ``assemble`` builds each
        piece's cdf_lo and cdf_hi by the very expression this figure
        takes, so it is 0 by construction on ``assemble``'s output and
        can be nonzero only for a hand-built solution.  A NaN gap, as
        from a NaN scale or anchor, makes it NaN wherever it sits.
    samples: the number of ODE samples, samples_per_phase * (n + 1),
        every one of which max_ode_residual bounds.

    No figure checks that a piece's two anchors agree, that is, that
    u_hi - u_lo = scale * (cdf_hi - cdf_lo); where they do not, the
    profile is wrong on one side of cdf_mid and every figure can still
    read clean.
    """

    max_ode_residual: float
    max_stefan_residual: float
    max_interface_jump: float
    samples: int


def _ode_bound(sol: SelfSimilarSolution) -> float:
    """The largest of the pieces' proven bounds on the ODE residual.

    Each piece is an affine image of cdf(xi/a), which solves
    a^2 v'' + xi v'/2 = 0 exactly, so its residual is only the rounding
    of that closed form, taken with the density factored out: with
    q = PDF_PEAK * scale / 2, z = t/a and e = exp(-z^2/4),
    a^2 v'' = -z q e and t v'/2 = t (q/a) e, and a point t gives
    r = e * |t (q/a) - z q|, each operation rounded.  Both products are
    t q/a times two factors 1 + d with |d| <= u = 2^-53, so they differ
    by at most 4u |t q/a|, and by Sterbenz's lemma their difference is
    exact.  With y = |t|/|a|, so

        r <= 4u |q| y exp(-y^2/4)

    up to factors 1 + O(u y^2) from rounding z, z*z, exp (within an
    ulp) and r, all below 1 + 1e-12 since e > 0 needs y < 55.  A piece's
    window is [mid - |half|, mid + |half|], with mid and half the rounded
    centre and half-width of its two ends (the unbounded end phases end
    10 beyond the outermost front), and T is the largest |t| there.
    y exp(-y^2/4) peaks at y = sqrt(2) and is monotone on either side,
    so over the window it is largest at x, the point of its y range
    nearest sqrt(2): x = s/|a|, with s the point of the |t| range
    nearest |a| sqrt(2).  Hence the bound

        B = C u |q| x exp(-x^2/4) + 2^-1073 (T + |q| + 2)

    with C = 4 (1 + 2^-20), whose margin covers those factors and the
    rounding of B itself.  The second term covers underflow: q/a and z
    may each lose up to 2^-1075, which the products scale by |t| <= T
    and by |q|; each other rounding, of the products, the subtraction,
    r and B's own terms, loses at most 2^-1075 more, and exp, within an
    ulp of a subnormal result, 2^-1074 * 4u * 55 |q| at most.  So B
    holds at every point of the window, among them any Chebyshev point
    mid + half * cos((2j - 1) pi / 2m) a sampled check would take: since
    |cos| <= 1, rounding, being monotone, keeps each in the window.

    Where a product could overflow while e > 0, that is |q| > 2^1017 or
    q/a overflowed, r may be inf, and so is B; a B that comes out NaN is
    inf as well.  So the result is never NaN.  A piece whose a is zero
    raises ValueError naming the piece.
    """
    fronts = sol.xi_star
    n = len(fronts)
    exp = math.exp
    inf = math.inf
    half_peak = 0.5 * kernel.PDF_PEAK
    worst = 0.0
    lo = fronts[0] - _END_WINDOW
    for i, p in enumerate(sol.pieces):
        hi = fronts[i] if i < n else fronts[-1] + _END_WINDOW
        mid = 0.5 * (lo + hi)
        h = abs(0.5 * (hi - lo))
        lo = hi
        a = p.a
        q = half_peak * p.scale
        try:
            q_a = q / a  # the first division by a piece's a
        except ZeroDivisionError:
            raise _zero_a(i) from None
        abs_q = abs(q)
        if not (abs_q <= _ODE_Q_SAFE and abs(q_a) < inf):
            worst = inf
            continue
        t_lo, t_hi = mid - h, mid + h
        # |t| runs over [small, big]; a NaN end makes big NaN or inf
        if t_lo > 0.0:
            small, big = t_lo, t_hi
        elif t_hi < 0.0:
            small, big = -t_hi, -t_lo
        else:
            small, big = 0.0, (t_hi if t_hi > -t_lo else -t_lo)
        abs_a = abs(a)
        x = small / abs_a
        if not x >= _SQRT2:
            x = big / abs_a
            if x > _SQRT2:
                x = _SQRT2
        bound = _ODE_C_U * abs_q * x * exp(-0.25 * x * x) + _ODE_TINY * (
            big + abs_q + 2.0
        )
        if not bound <= worst:
            worst = bound if bound == bound else inf
    return worst


def _nan_max(values: list) -> float:
    """The largest value, or NaN if any is NaN, as in numpy.max; Python's
    max alone would depend on the NaN's position."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def validate(sol: SelfSimilarSolution, samples_per_phase: int) -> ResidualReport:
    """Residuals of the assembled profile against the governing equations.

    The ODE figure is the largest per-piece bound of ``_ode_bound`` on
    |a^2 v'' + xi v'/2| over each phase's window (the unbounded end
    phases over a window of width 10 beyond the outermost interface).
    Each bound holds at every point of its window, so the figure is at
    least the residual at each of the samples_per_phase Chebyshev points
    per phase that a sampled check would take, and the same for every
    samples_per_phase; no point is sampled.  Interface jumps compare
    both one-sided piece values against the phase temperatures; flux
    residuals are the literal interface balances.  The ODE and jump
    numbers check the construction itself, the flux residuals check
    whether the supplied interface positions actually solve the
    problem (see ``ResidualReport``).

    samples_per_phase must be a whole number, at least 3; a whole float
    such as 33.0 is taken as that int, and ``samples`` counts
    samples_per_phase * (n + 1).  A piece whose a is zero (0.0, -0.0,
    or a product that underflows to it) raises ValueError naming the
    piece, where dividing by it would raise ZeroDivisionError; a NaN a
    raises cdf's ValueError from the jump loop.
    """
    if not (samples_per_phase % 1 == 0 and samples_per_phase >= 3):
        raise ValueError("samples_per_phase must be a whole number, at least 3")
    spec = sol.spec
    fronts = sol.xi_star
    n = len(fronts)
    max_ode = _ode_bound(sol)

    pieces, u, cdf = sol.pieces, spec.u, kernel.cdf
    jumps = []
    for j, x in enumerate(fronts):
        left, right, target = pieces[j], pieces[j + 1], u[j + 1]
        jumps.append(abs(left.u_hi + left.scale * (cdf(x / left.a) - left.cdf_hi) - target))
        jumps.append(abs(right.u_lo + right.scale * (cdf(x / right.a) - right.cdf_lo) - target))
    flux = [abs(r) for r in _flux_balances(spec, fronts)]
    return ResidualReport(
        max_ode_residual=max_ode,
        max_stefan_residual=_nan_max(flux),
        max_interface_jump=_nan_max(jumps),
        samples=int(samples_per_phase) * (n + 1),
    )
