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
from operator import itemgetter
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

# Half-width of the sampling window used for the two unbounded phases.
_END_WINDOW = 10.0

# The constants of _ode_windows' bound: C*u with C = 4(1 + 2^-20) and
# u = 2^-53, the underflow weight, the largest |q| whose samples cannot
# overflow, and where y*exp(-y^2/4) peaks
_ODE_C_U = 4.0 * (1.0 + 2.0**-20) * 2.0**-53
_ODE_TINY = 2.0**-1073
_ODE_Q_SAFE = 2.0**1017
_SQRT2 = math.sqrt(2.0)

# validate's last (samples_per_phase, Chebyshev cosines) pair.  It is
# replaced whole, never mutated, so a caller reads one m with its own
# cosines even while another thread swaps it.
_COSINES: Tuple[int, Tuple[float, ...]] = (0, ())


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
    exp = math.exp
    # cdf of each scaled end is kernel.cdf's expression, inlined; the ends
    # are never NaN, and erfc's limits at +-inf give cdf's
    pieces = tuple([
        Piece(
            a,
            u_lo,
            u_hi,
            0.5 * erfc(-0.5 * lo) if lo <= 0.0 else 1.0 - 0.5 * erfc(0.5 * lo),
            0.5 * erfc(-0.5 * hi) if hi <= 0.0 else 1.0 - 0.5 * erfc(0.5 * hi),
            (u_hi - u_lo) * exp(-lg),
        )
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
    """(v', v'') of piece p at xi, both from one pdf value."""
    z = xi / p.a
    density = kernel.pdf(z)
    if density == 0.0:
        # v'' is a signed zero here; with z = +-inf, z * 0 would be NaN
        z = math.copysign(1.0, z)
    return p.scale * density / p.a, -0.5 * z * density * p.scale / (p.a * p.a)


def _derivatives_at(sol: SelfSimilarSolution, xi: float) -> Tuple[float, float]:
    j = _piece_index(sol, xi)
    p = sol.pieces[j]
    try:
        return _derivatives(p, xi)
    except ZeroDivisionError:
        if p.a == 0.0:
            raise _zero_a(j) from None
        raise


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

    One loop over the strips.  Strip i spans lo = x_lo/a to hi = x_hi/a
    and feeds k du pdf(end) / (a gap) into the balance at each of its
    fronts, with gap = cdf(hi) - cdf(lo), differenced as the upper tails
    cdf(-lo) - cdf(-hi) when lo >= 0, whose terms keep their precision
    where cdf(lo) and cdf(hi) both round to 1.  The kernel is written
    inline, operation for operation: an end s gives h = erfc(|s|/2)/2,
    which is cdf(s) for s <= 0 and cdf(-s) for s >= 0, the other side
    being 1 - h (both h at s = +-0, where 1 - h = h = 1/2), and pdf(s) is
    ``kernel.pdf``'s expression, 0 at +-inf.  A NaN front raises cdf's
    error before any strip is taken, as the kernel calls did.
    """
    if any(x != x for x in fronts):
        raise ValueError("cdf: argument must not be NaN")
    u, k, d = spec.u, spec.k, spec.d
    exp = math.exp
    peak = kernel.PDF_PEAK
    n = len(fronts)
    out = []
    x_lo = -math.inf
    for i, a in enumerate(spec.a):
        x_hi = fronts[i] if i < n else math.inf
        lo = x_lo / a
        hi = x_hi / a
        h_lo = 0.5 * erfc(0.5 * abs(lo))
        h_hi = 0.5 * erfc(0.5 * abs(hi))
        if lo >= 0.0:
            gap = h_lo - (h_hi if hi >= 0.0 else 1.0 - h_hi)
        else:
            gap = (h_hi if hi <= 0.0 else 1.0 - h_hi) - h_lo
        w = k[i] * (u[i + 1] - u[i])
        wa = a * gap
        if i:
            # front i-1 is this strip's lower end: finish its balance
            inflow = w * (peak * exp(-0.25 * lo * lo)) / wa
            out.append(0.5 * d[i - 1] * x_lo + inflow - outflow)
        if i < n:
            outflow = w * (peak * exp(-0.25 * hi * hi)) / wa
        x_lo = x_hi
    return out


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

    max_ode_residual: the largest rounding of the pieces' closed form
        against a^2 v'' + xi v'/2 = 0.  It reads only each piece's
        ``scale`` and ``a``, so it cannot see a wrong front, a wrong
        anchor or a wrong temperature; on ``assemble``'s output it is a
        few eps of the ODE's terms.
    max_stefan_residual: the largest literal flux balance at a front.
        It is the only figure that checks the fronts themselves.  A NaN
        balance makes it NaN.
    max_interface_jump: the largest gap between a piece's value at a
        front and that phase temperature.  ``assemble`` builds each
        piece's cdf_lo and cdf_hi by the very expression this figure
        takes, so it is 0 by construction on ``assemble``'s output and
        can be nonzero only for a hand-built solution.  A NaN gap, as
        from a NaN scale or anchor, makes it NaN wherever it sits.
    samples: the number of ODE samples, samples_per_phase * (n + 1).

    No figure checks that a piece's two anchors agree, that is, that
    u_hi - u_lo = scale * (cdf_hi - cdf_lo); where they do not, the
    profile is wrong on one side of cdf_mid and every figure can still
    read clean.
    """

    max_ode_residual: float
    max_stefan_residual: float
    max_interface_jump: float
    samples: int


def _ode_windows(sol: SelfSimilarSolution) -> list:
    """(bound, mid, half, a, q, q_a) per piece, in descending bound order.

    ``validate`` samples piece p at t = mid + half * c with |c| <= 1,
    so by monotone rounding every sample lies in [mid - |half|,
    mid + |half|]; T is the largest |t| there.  A sample's figure is
    r = e * gap, with gap = |t * q_a - z * q|, q = PDF_PEAK * scale / 2,
    q_a = q/a, z = t/a and e = exp(-z^2/4), each operation rounded.
    Both products are t*q/a times two factors 1 + d with |d| <= u =
    2^-53, so they differ by at most 4u |t q/a|, and by Sterbenz's lemma
    their difference is exact.  With y = |t|/|a|, so

        r <= 4u |q| y exp(-y^2/4)

    up to factors 1 + O(u y^2) from rounding z, z*z, exp (within an
    ulp) and r, all below 1 + 1e-12 since e > 0 needs y < 55.
    y exp(-y^2/4) peaks at y = sqrt(2) and is monotone on either side,
    so over the window it is largest at x, the point of its y range
    nearest sqrt(2): x = s/|a|, with s the point of the |t| range
    nearest |a| sqrt(2).  Hence the bound

        B = C u |q| x exp(-x^2/4) + 2^-1073 (T + |q| + 2)

    with C = 4 (1 + 2^-20), whose margin covers those factors and the
    rounding of B itself.  The second term covers underflow: q_a and z
    may each lose up to 2^-1075, which the products scale by |t| <= T
    and by |q|; each other rounding, of the products, the subtraction,
    r and B's own terms, loses at most 2^-1075 more, and exp, within an
    ulp of a subnormal result, 2^-1074 * 4u * 55 |q| at most.

    Where a sample's product could overflow while e > 0, that is
    |q| > 2^1017 or q/a overflowed, r may be inf, and so is B; a B that
    comes out NaN is inf as well.  No bound is NaN, so the order is
    total, and every sample of a piece is at most its bound.
    """
    fronts = sol.xi_star
    n = len(fronts)
    exp = math.exp
    inf = math.inf
    windows = []
    for i, p in enumerate(sol.pieces):
        lo = fronts[i - 1] if i > 0 else fronts[0] - _END_WINDOW
        hi = fronts[i] if i < n else fronts[-1] + _END_WINDOW
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        a = p.a
        q = 0.5 * kernel.PDF_PEAK * p.scale
        try:
            q_a = q / a  # the first division by a piece's a
        except ZeroDivisionError:
            raise _zero_a(i) from None
        abs_q = abs(q)
        bound = inf
        if abs_q <= _ODE_Q_SAFE and abs(q_a) < inf:
            h = abs(half)
            t_lo, t_hi = mid - h, mid + h
            # |t| runs over [small, big]; a NaN end makes big NaN or inf
            if t_lo > 0.0:
                small, big = t_lo, t_hi
            elif t_hi < 0.0:
                small, big = -t_hi, -t_lo
            else:
                small, big = 0.0, (t_hi if t_hi > -t_lo else -t_lo)
            x = small / abs(a)
            if not x >= _SQRT2:
                x = big / abs(a)
                if x > _SQRT2:
                    x = _SQRT2
            bound = _ODE_C_U * abs_q * x * exp(-0.25 * x * x) + _ODE_TINY * (
                big + abs_q + 2.0
            )
            if bound != bound:
                bound = inf
        windows.append((bound, mid, half, a, q, q_a))
    windows.sort(key=itemgetter(0), reverse=True)
    return windows


def validate(sol: SelfSimilarSolution, samples_per_phase: int) -> ResidualReport:
    """Residuals of the assembled profile against the governing equations.

    ODE residuals |a^2 v'' + xi v'/2| are sampled at Chebyshev points
    inside every phase (the unbounded end phases over a window of
    width 10 beyond the outermost interface); interface jumps compare
    both one-sided piece values against the phase temperatures; flux
    residuals are the literal interface balances.  The ODE and jump
    numbers check the construction itself, the flux residuals check
    whether the supplied interface positions actually solve the
    problem (see ``ResidualReport``).

    Each piece is an affine image of cdf(xi/a), which solves the ODE
    exactly, so the ODE figure is the rounding of that closed form
    with the density factored out: with q = PDF_PEAK * scale / 2,
    z = xi/a and e = exp(-z^2/4), a^2 v'' = -z q e and xi v'/2 =
    xi (q/a) e, and the residual is e * |xi (q/a) - z q|.  Two prunings
    leave the maximum the same bits as over every sample.  Pieces are
    visited in descending order of a proven bound on their samples
    (``_ode_windows``), and the loop stops at the first piece whose
    bound does not exceed the running maximum.  Within a piece, since
    e <= 1, a sample whose gap |xi (q/a) - z q| does not exceed the
    running maximum cannot raise it, and its exp is skipped.  A NaN
    sample never enters the maximum.

    samples_per_phase must be a whole number, at least 3; a whole float
    such as 33.0 is taken as that int.  A piece whose a is zero (0.0,
    -0.0, or a product that underflows to it) raises ValueError naming
    the piece, where dividing by it would raise ZeroDivisionError; a NaN
    a raises cdf's ValueError from the jump loop.
    """
    if not (samples_per_phase % 1 == 0 and samples_per_phase >= 3):
        raise ValueError("samples_per_phase must be a whole number, at least 3")
    spec = sol.spec
    fronts = sol.xi_star
    n = len(fronts)

    # Chebyshev nodes of each phase are mid + half * cos(...), with the
    # same cosines for every phase, and for every call with this m
    global _COSINES
    m = int(samples_per_phase)
    cached_m, cosines = _COSINES
    if cached_m != m:
        cosines = tuple(
            math.cos((2 * j - 1) * math.pi / (2 * m)) for j in range(1, m + 1)
        )
        _COSINES = (m, cosines)
    exp = math.exp
    max_ode = 0.0
    for bound, mid, half, a, q, q_a in _ode_windows(sol):
        if bound <= max_ode:
            # no sample of this piece or of any later one can raise it
            break
        for c in cosines:
            t = mid + half * c
            z = t / a
            # the closed form's rounding, density factored out: e * gap
            # with e = exp(-z^2/4) <= 1, so a gap that does not exceed
            # max_ode cannot raise it and needs no exp; a NaN gap or
            # product never enters it
            gap = abs(t * q_a - z * q)
            if gap > max_ode:
                r = exp(-0.25 * z * z) * gap
                if r > max_ode:
                    max_ode = r

    # cdf(front/a) of each piece next to a front, inlined as in
    # evaluate_profile; a jump that is NaN wins, as in numpy.max
    pieces, u = sol.pieces, spec.u
    max_jump = 0.0
    for j in range(n):
        left, right = pieces[j], pieces[j + 1]
        x = fronts[j]
        target = u[j + 1]
        z = 0.5 * (x / left.a)
        if z <= 0.0:
            c = 0.5 * erfc(-z)
        elif z > 0.0:
            c = 1.0 - 0.5 * erfc(z)
        else:
            raise ValueError("cdf: argument must not be NaN")
        jump = abs(left.u_hi + left.scale * (c - left.cdf_hi) - target)
        if jump > max_jump or jump != jump:
            max_jump = jump
        z = 0.5 * (x / right.a)
        if z <= 0.0:
            c = 0.5 * erfc(-z)
        elif z > 0.0:
            c = 1.0 - 0.5 * erfc(z)
        else:
            raise ValueError("cdf: argument must not be NaN")
        jump = abs(right.u_lo + right.scale * (c - right.cdf_lo) - target)
        if jump > max_jump or jump != jump:
            max_jump = jump

    flux = [abs(r) for r in _flux_balances(spec, fronts)]
    # NaN wins, as in numpy.max; Python's max would depend on its position
    max_stefan = math.nan if any(map(math.isnan, flux)) else max(flux)
    return ResidualReport(
        max_ode_residual=max_ode,
        max_stefan_residual=max_stefan,
        max_interface_jump=max_jump,
        samples=m * (n + 1),
    )
