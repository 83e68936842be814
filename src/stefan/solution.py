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


@dataclass(frozen=True)
class Piece:
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
    fronts = tuple(point.fronts)
    lo, hi, lg = point.lo, point.hi, point.lg
    pieces = tuple(
        Piece(
            a=spec.a[i],
            u_lo=spec.u[i],
            u_hi=spec.u[i + 1],
            cdf_lo=kernel.cdf(lo[i]),
            cdf_hi=kernel.cdf(hi[i]),
            scale=(spec.u[i + 1] - spec.u[i]) * math.exp(-lg[i]),
        )
        for i in range(spec.n + 1)
    )
    return SelfSimilarSolution(spec=spec, xi_star=fronts, pieces=pieces)


def _piece_index(sol: SelfSimilarSolution, xi: float) -> int:
    """Index of the piece that holds xi, taken from the right at a front."""
    if xi != xi:
        raise ValueError("xi must not be NaN")
    return bisect_right(sol.xi_star, xi)


def _piece_at(sol: SelfSimilarSolution, xi: float) -> Piece:
    return sol.pieces[_piece_index(sol, xi)]


def evaluate_profile(sol: SelfSimilarSolution, xi: float) -> float:
    """Temperature at similarity coordinate xi; +-inf give the far fields.

    At an interface both one-sided limits equal the phase temperature,
    which is what gets returned.
    """
    j = _piece_index(sol, xi)
    if j > 0 and sol.xi_star[j - 1] == xi:
        return sol.spec.u[j]
    p = sol.pieces[j]
    c = kernel.cdf(xi / p.a)
    if c <= 0.5 * (p.cdf_lo + p.cdf_hi):  # p.cdf_mid, inlined
        return p.u_lo + p.scale * (c - p.cdf_lo)
    return p.u_hi + p.scale * (c - p.cdf_hi)


def _derivatives(p: Piece, xi: float) -> Tuple[float, float]:
    """(v', v'') of piece p at xi, both from one pdf value."""
    z = xi / p.a
    density = kernel.pdf(z)
    if density == 0.0:
        # v'' is a signed zero here; with z = +-inf, z * 0 would be NaN
        z = math.copysign(1.0, z)
    return p.scale * density / p.a, -0.5 * z * density * p.scale / (p.a * p.a)


def profile_slope(sol: SelfSimilarSolution, xi: float) -> float:
    """dv/dxi, taken from the right at an interface."""
    return _derivatives(_piece_at(sol, xi), xi)[0]


def profile_curvature(sol: SelfSimilarSolution, xi: float) -> float:
    """d2v/dxi2, using the identity pdf'(z) = -z pdf(z) / 2."""
    return _derivatives(_piece_at(sol, xi), xi)[1]


def evaluate_spacetime(sol: SelfSimilarSolution, t: float, x: float) -> float:
    """Temperature of the space-time solution u(t, x) for t > 0."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    return evaluate_profile(sol, x / math.sqrt(t))


def _cdf_gap(lo: float, hi: float) -> float:
    """cdf(hi) - cdf(lo), differencing upper tails when lo >= 0.

    By symmetry cdf(hi) - cdf(lo) = cdf(-lo) - cdf(-hi), whose terms keep
    their precision where cdf(lo) and cdf(hi) both round to 1.
    """
    if lo >= 0.0:
        return kernel.cdf(-lo) - kernel.cdf(-hi)
    return kernel.cdf(hi) - kernel.cdf(lo)


def _flux_balances(spec: ProblemSpec, fronts: Tuple[float, ...]) -> list:
    """The literal flux balances behind ``stefan_residuals``, as a list."""
    ext = (-math.inf,) + fronts + (math.inf,)
    # strip i lies between ext[i] and ext[i + 1] and feeds both its fronts
    gaps = [
        _cdf_gap(ext[i] / a, ext[i + 1] / a) for i, a in enumerate(spec.a)
    ]
    out = []
    for j in range(1, spec.n + 1):
        a_r, a_l = spec.a[j], spec.a[j - 1]
        du_r = spec.u[j + 1] - spec.u[j]
        du_l = spec.u[j] - spec.u[j - 1]
        out.append(
            0.5 * spec.d[j - 1] * ext[j]
            + spec.k[j] * du_r * kernel.pdf(ext[j] / a_r) / (a_r * gaps[j])
            - spec.k[j - 1] * du_l * kernel.pdf(ext[j] / a_l) / (a_l * gaps[j - 1])
        )
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
    max_ode_residual: float
    max_stefan_residual: float
    max_interface_jump: float
    samples: int


def validate(sol: SelfSimilarSolution, samples_per_phase: int) -> ResidualReport:
    """Residuals of the assembled profile against the governing equations.

    ODE residuals |a^2 v'' + xi v'/2| are sampled at Chebyshev points
    inside every phase (the unbounded end phases over a window of
    width 10 beyond the outermost interface); interface jumps compare
    both one-sided piece values against the phase temperatures; flux
    residuals are the literal interface balances.  The ODE and jump
    numbers check the construction itself, the flux residuals check
    whether the supplied interface positions actually solve the
    problem.

    Each piece is an affine image of cdf(xi/a), which solves the ODE
    exactly, so the ODE figure is the rounding of that closed form
    with the density factored out: with q = PDF_PEAK * scale / 2,
    z = xi/a and e = exp(-z^2/4), a^2 v'' = -z q e and xi v'/2 =
    xi (q/a) e, and the residual is e * |xi (q/a) - z q|.  Since
    e <= 1, a sample whose gap |xi (q/a) - z q| does not exceed the
    running maximum cannot raise it, and its exp is skipped: the
    maximum is the same bits as over every sample.  A NaN sample never
    enters it.
    """
    if samples_per_phase < 3:
        raise ValueError("samples_per_phase must be at least 3")
    spec = sol.spec
    fronts = sol.xi_star
    n = len(fronts)

    # Chebyshev nodes of each phase are mid + half * cos(...), with the
    # same cosines for every phase
    m = samples_per_phase
    cosines = [math.cos((2 * j - 1) * math.pi / (2 * m)) for j in range(1, m + 1)]
    exp = math.exp
    max_ode = 0.0
    for i, p in enumerate(sol.pieces):
        lo = fronts[i - 1] if i > 0 else fronts[0] - _END_WINDOW
        hi = fronts[i] if i < n else fronts[-1] + _END_WINDOW
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        a = p.a
        q = 0.5 * kernel.PDF_PEAK * p.scale
        q_a = q / a
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

    max_jump = 0.0
    for j in range(1, n + 1):
        left, right = sol.pieces[j - 1], sol.pieces[j]
        target = spec.u[j]
        from_left = left.u_hi + left.scale * (
            kernel.cdf(fronts[j - 1] / left.a) - left.cdf_hi
        )
        from_right = right.u_lo + right.scale * (
            kernel.cdf(fronts[j - 1] / right.a) - right.cdf_lo
        )
        max_jump = max(max_jump, abs(from_left - target), abs(from_right - target))

    flux = [abs(r) for r in _flux_balances(spec, fronts)]
    # NaN wins, as in numpy.max; Python's max would depend on its position
    max_stefan = math.nan if any(map(math.isnan, flux)) else max(flux)
    return ResidualReport(
        max_ode_residual=max_ode,
        max_stefan_residual=max_stefan,
        max_interface_jump=max_jump,
        samples=m * (n + 1),
    )
