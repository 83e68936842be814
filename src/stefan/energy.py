"""Problem data, the variational energy, its derivatives, and the exact
well-posedness criteria.

A problem with n moving interfaces is described by n+2 ordered phase
temperatures u, per-phase diffusivities a and conductivities k, and n
signed interface heat capacities d (negative values are allowed, which
is what makes existence and uniqueness nontrivial).  Candidate
interface positions in similarity coordinates live on the open cone
xi_1 < ... < xi_n.

The energy of a candidate position is

    E(xi) = - sum_i k_i (u_{i+1} - u_i) log(cdf(xi_{i+1}/a_i) - cdf(xi_i/a_i))
            + sum_i d_i xi_i^2 / 4

with xi_0 = -inf and xi_{n+1} = +inf.  Its stationary points are
exactly the interface flux-balance conditions, so the solver reduces
to minimizing E.  All flux ratios are evaluated as
exp(log_pdf - log_gap) so the formulas survive interfaces parked far
out in the kernel tails.

A point is evaluated in two passes over its n+1 strips (``_Point``).
The first scales each strip's ends, checks that they are strictly
ordered (the feasibility test of every point the solver evaluates) and
takes the strip's log gap and energy term.  The second, run only when a
derivative is asked for, gives the gradient, its max-norm and both
bands of the tridiagonal Hessian together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple, Union

from . import kernel

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InvalidProblem",
    "InfeasiblePoint",
    "EnergyOverflow",
    "ProblemSpec",
    "FreeBoundaries",
    "WellPosednessReport",
    "HessianParts",
    "energy",
    "gradient",
    "hessian_parts",
    "hessian",
    "check_wellposedness",
]

# |value| at or below this means a well-posedness sum sits on the boundary
# of the criterion and the verdict should not be trusted to one side.
BORDERLINE_TOL = 1e-12


class InvalidProblem(ValueError):
    """Problem data violates a structural requirement."""


class InfeasiblePoint(ValueError):
    """Interface coordinates are not finite and strictly increasing, or two
    distinct ones round to one value once scaled by a diffusivity."""


class EnergyOverflow(OverflowError):
    """The energy's finite terms, or the well-posedness sums of its loads
    and Stefan numbers, sum past the largest double.

    Scaling k and d by a common factor scales the energy and those sums
    and leaves the minimizer and the verdict where they are, so such
    data can be solved and checked once scaled down.
    """


def _as_float_tuple(name: str, values: Iterable[float]) -> Tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidProblem(f"{name}: expected a sequence of numbers") from exc
    if any(math.isnan(v) or math.isinf(v) for v in out):
        raise InvalidProblem(f"{name}: entries must be finite")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one multi-phase problem.

    u : n+2 phase temperatures, strictly increasing; u[0] and u[-1] are
        the far-field values of the initial step.
    a : n+1 diffusivities, positive, one per phase.
    k : n+1 conductivities, positive, one per phase.
    d : n interface heat capacities, any sign.
    """

    u: Tuple[float, ...]
    a: Tuple[float, ...]
    k: Tuple[float, ...]
    d: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", _as_float_tuple("u", self.u))
        object.__setattr__(self, "a", _as_float_tuple("a", self.a))
        object.__setattr__(self, "k", _as_float_tuple("k", self.k))
        object.__setattr__(self, "d", _as_float_tuple("d", self.d))
        n = len(self.d)
        if n < 1:
            raise InvalidProblem("d: need at least one interface")
        if len(self.u) != n + 2:
            raise InvalidProblem(f"u: expected {n + 2} temperatures, got {len(self.u)}")
        if len(self.a) != n + 1:
            raise InvalidProblem(f"a: expected {n + 1} diffusivities, got {len(self.a)}")
        if len(self.k) != n + 1:
            raise InvalidProblem(f"k: expected {n + 1} conductivities, got {len(self.k)}")
        if any(v2 <= v1 for v1, v2 in zip(self.u, self.u[1:])):
            raise InvalidProblem("u: temperatures must be strictly increasing")
        if any(v <= 0.0 for v in self.a):
            raise InvalidProblem("a: diffusivities must be positive")
        if any(v <= 0.0 for v in self.k):
            raise InvalidProblem("k: conductivities must be positive")
        # Per strip i, with du_i = u_{i+1} - u_i: the energy weight
        # k_i du_i, the flux weight k_i du_i / a_i and the curvature
        # weight kappa(i) du_i, shared by every point's energy, gradient
        # and Hessian.  Not a field, so eq, repr and replace ignore it.
        du = [self.u[i + 1] - self.u[i] for i in range(n + 1)]
        energy_w = tuple(self.k[i] * du[i] for i in range(n + 1))
        object.__setattr__(self, "_strip_weights", (
            energy_w,
            tuple(energy_w[i] / self.a[i] for i in range(n + 1)),
            tuple(self.kappa(i) * du[i] for i in range(n + 1)),
        ))

    @property
    def n(self) -> int:
        return len(self.d)

    def kappa(self, i: int) -> float:
        """Conductivity rescaled by diffusivity, k_i / a_i^2; +inf once a_i^2
        underflows, as an overflowing quotient gives."""
        a2 = self.a[i] * self.a[i]
        return self.k[i] / a2 if a2 > 0.0 else math.inf


@dataclass(frozen=True)
class FreeBoundaries:
    """A feasible point: finite, strictly increasing interface positions."""

    xi: Tuple[float, ...]

    def __post_init__(self):
        try:
            vals = tuple(float(v) for v in self.xi)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InfeasiblePoint("xi: expected a sequence of numbers") from exc
        if len(vals) < 1:
            raise InfeasiblePoint("xi: need at least one coordinate")
        if any(math.isnan(v) or math.isinf(v) for v in vals):
            raise InfeasiblePoint("xi: coordinates must be finite")
        if any(v2 <= v1 for v1, v2 in zip(vals, vals[1:])):
            raise InfeasiblePoint("xi: coordinates must be strictly increasing")
        object.__setattr__(self, "xi", vals)

    def __len__(self) -> int:
        return len(self.xi)

    def __iter__(self):
        return iter(self.xi)

    def __reduce__(self):
        # pickles and copies carry xi alone, not a solve's _point, and
        # are validated again when rebuilt
        return (FreeBoundaries, (self.xi,))


Fronts = Union[FreeBoundaries, Sequence[float]]


def _fronts(spec: ProblemSpec, xi: Fronts) -> Tuple[float, ...]:
    vals = xi.xi if isinstance(xi, FreeBoundaries) else FreeBoundaries(tuple(xi)).xi
    if len(vals) != spec.n:
        raise InfeasiblePoint(f"xi: expected {spec.n} coordinates, got {len(vals)}")
    return vals


class _Point:
    """The energy of one point, and on request its derivatives, in two
    passes over the n+1 strips.

    Construction is the first pass.  Per strip it scales the ends
    (strip i spans xi_i/a_i to xi_{i+1}/a_i), checks that they are
    strictly ordered, takes ``kernel.log_gap`` and forms the energy
    term; the terms are summed with ``math.fsum``, which raises
    EnergyOverflow when finite terms sum past the largest double.  The
    ordering test is the whole feasibility test: it fails on fronts that
    are not finite, not strictly increasing, or distinct but rounded to
    one scaled value far out, and raises InfeasiblePoint before that
    strip's log_gap.

    The first call to ``gradient``, ``grad_norm`` or ``bands`` makes the
    second pass, which forms each strip's pdf/gap ratios and from them
    the gradient, its max-norm and the two Hessian bands together, and
    caches them.  It makes no kernel call: each ratio is
    exp(log_pdf(end) - log_gap) with ``kernel.log_pdf``'s expression
    written inline, in its operation order, so the bits are log_pdf's.
    ``parts`` runs the same pass and records each strip's HessianParts
    entries as well, so the Hessian formulas live in that one loop.

    ``minimize`` hands its final point to ``solution.assemble`` on the
    FreeBoundaries it returns, so a converged solve's strips are not
    taken again.
    """

    __slots__ = ("spec", "fronts", "energy", "lo", "hi", "lg", "_grad", "_gnorm",
                 "_bands")

    def __init__(self, spec: ProblemSpec, fronts: Sequence[float]):
        a, d = spec.a, spec.d
        energy_w = spec._strip_weights[0]
        log_gap = kernel.log_gap
        n = len(fronts)
        lo = [-math.inf] * (n + 1)
        hi = [math.inf] * (n + 1)
        lg = [0.0] * (n + 1)
        # the n+1 strip terms, then the n quadratic ones
        terms = [0.0] * (2 * n + 1)
        b = -math.inf  # lower end of strip i
        for i in range(n):
            x = fronts[i]
            t = hi[i] = x / a[i]
            if not b < t:
                raise InfeasiblePoint(f"xi: strip {i} is empty once scaled")
            g = lg[i] = log_gap(b, t)
            terms[i] = -(energy_w[i] * g)
            terms[n + 1 + i] = 0.25 * d[i] * x * x
            b = lo[i + 1] = x / a[i + 1]
        if not b < math.inf:
            raise InfeasiblePoint(f"xi: strip {n} is empty once scaled")
        g = lg[n] = log_gap(b, math.inf)
        terms[n] = -(energy_w[n] * g)
        self.spec = spec
        self.fronts = fronts
        try:
            self.energy = math.fsum(terms)
        except OverflowError:
            raise EnergyOverflow(
                "energy terms sum past the largest double; scale the "
                "conductivities and Stefan numbers down by a common factor, "
                "which leaves the fronts unchanged"
            ) from None
        self.lo, self.hi, self.lg = lo, hi, lg
        self._grad = None

    def _derive(self, strips=None):
        """The second pass, cached: gradient, its max-norm and both bands.

        Each strip's (beta_minus, beta_plus, gamma) is also appended to
        ``strips`` when a list is given; the entries a strip lacks (its
        beta_minus for strip 0, beta_plus for strip n) are placeholders.
        """
        spec, x = self.spec, self.fronts
        _, flux_w, curvature_w = spec._strip_weights
        d = spec.d
        lo, hi, lg = self.lo, self.hi, self.lg
        exp, log_2_sqrt_pi = math.exp, kernel._LOG_2_SQRT_PI
        n = len(x)
        grad, diag, off = [], [], []
        gnorm = -1.0
        bm = None  # strip 0 has no lower front
        for i in range(n + 1):
            b, t, lgi = lo[i], hi[i], lg[i]
            # pdf(b)/gap and pdf(t)/gap; log_pdf is inlined, which is safe
            # as the ends are never NaN and exp(-inf) = 0 at infinite ones
            r_lo = exp(-0.25 * b * b - log_2_sqrt_pi - lgi)
            r_hi = exp(-0.25 * t * t - log_2_sqrt_pi - lgi)
            c = curvature_w[i]
            slope = r_hi - r_lo  # (pdf(t) - pdf(b)) / gap
            gm = c * r_lo * r_hi
            if i:
                # front i-1 is this strip's lower end: finish its row
                bm = c * r_lo * (-0.5 * b - slope)
                half_d = 0.5 * d[i - 1]
                g = half_d * x[i - 1] + flux_w[i] * r_lo - outflow
                grad.append(g)
                diag.append(bm + gm + bp + gm_below + half_d)
                g = abs(g)
                if g > gnorm:
                    gnorm = g
            if i < n:
                bp = c * r_hi * (0.5 * t + slope)
                outflow = flux_w[i] * r_hi
                if i:
                    off.append(-gm)
            if strips is not None:
                strips.append((bm, bp, gm))
            gm_below = gm
        if not grad[0] == grad[0]:
            gnorm = abs(grad[0])  # max() keeps a leading NaN
        self._grad, self._gnorm, self._bands = grad, gnorm, (diag, off)

    def gradient(self) -> list:
        if self._grad is None:
            self._derive()
        return self._grad

    def grad_norm(self) -> float:
        """max |gradient_j|, as max() over the entries gives it."""
        if self._grad is None:
            self._derive()
        return self._gnorm

    def parts(self):
        """(beta_minus, beta_plus, gamma) as laid out in HessianParts."""
        strips = []
        self._derive(strips)
        return (
            [s[0] for s in strips[1:]],
            [s[1] for s in strips[:-1]],
            [s[2] for s in strips],
        )

    def bands(self):
        """Diagonal (length n) and off-diagonal (length n-1) of the Hessian."""
        if self._grad is None:
            self._derive()
        return self._bands


@dataclass(frozen=True)
class WellPosednessReport:
    """Outcome of the exact existence/uniqueness criteria.

    S_upper[j-1] carries the running sum of kappa_{i-1}(u_i - u_{i-1}) + d_i
    for i up to j; S_lower[j-1] the corresponding sum from j down to n.
    The energy is coercive, which guarantees a minimizer, if and only if
    every entry of both is >= 0.  convexity_margins[i-1] holds
    min(neighbor fluxes) + 2 d_i; nonnegative margins everywhere force a
    strictly convex energy and hence a unique solution.  borderline is
    set when any of these quantities is within BORDERLINE_TOL of zero,
    meaning the verdict rests on cancellation at roundoff scale.
    """

    S_upper: Tuple[float, ...]
    S_lower: Tuple[float, ...]
    coercive: bool
    convexity_margins: Tuple[float, ...]
    strictly_convex_sufficient: bool
    borderline: bool


def _running_fsums(terms: Sequence[float], suffixes: bool = False) -> list:
    """math.fsum of every prefix terms[:j+1] (or suffix terms[j:]), in one pass.

    Carries Shewchuk's nonoverlapping partials from one sum to the next,
    the same ones math.fsum builds, and rounds each sum by an fsum of the
    few partials: both give the correctly rounded sum.  Terms whose
    magnitudes add up to 2**1022 or more (or are not finite) could
    overflow in one summation order and not in another, so each of their
    sums goes to math.fsum itself, in the original order, for its own
    result or exception.
    """
    n = len(terms)
    if not sum(map(abs, terms)) < 2.0 ** 1022:
        return [math.fsum(terms[j:] if suffixes else terms[:j + 1]) for j in range(n)]
    fsum = math.fsum
    partials: list = []
    out = []
    for j in (range(n - 1, -1, -1) if suffixes else range(n)):
        x = terms[j]
        i = 0
        for y in partials:
            # Knuth's two-sum: hi + lo == x + y exactly, in either order
            hi = x + y
            b = hi - x
            lo = (x - (hi - b)) + (y - b)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(fsum(partials))
    return out[::-1] if suffixes else out


def check_wellposedness(spec: ProblemSpec) -> WellPosednessReport:
    """The exact criteria; EnergyOverflow if a sum passes the largest double."""
    n = spec.n
    load = spec._strip_weights[2]  # kappa_i (u_{i+1} - u_i)

    upper_terms = [load[i - 1] + spec.d[i - 1] for i in range(1, n + 1)]
    lower_terms = [load[i] + spec.d[i - 1] for i in range(1, n + 1)]
    try:
        s_upper = tuple(_running_fsums(upper_terms))
        s_lower = tuple(_running_fsums(lower_terms, suffixes=True))
    except OverflowError as exc:
        raise EnergyOverflow(
            f"well-posedness sums pass the largest double ({exc}); scale the "
            "conductivities and Stefan numbers down by a common factor, "
            "which leaves the verdict and the fronts unchanged"
        ) from None
    margins = tuple(
        min(load[i], load[i - 1]) + 2.0 * spec.d[i - 1] for i in range(1, n + 1)
    )

    coercive = all(v >= 0.0 for v in s_upper) and all(v >= 0.0 for v in s_lower)
    convex = all(v >= 0.0 for v in margins)
    borderline = any(
        abs(v) <= BORDERLINE_TOL for v in (*s_upper, *s_lower, *margins)
    )
    return WellPosednessReport(
        S_upper=s_upper,
        S_lower=s_lower,
        coercive=coercive,
        convexity_margins=margins,
        strictly_convex_sufficient=convex,
        borderline=borderline,
    )


def energy(spec: ProblemSpec, xi: Fronts) -> float:
    """Variational energy at a feasible point. Finite on the open cone."""
    return _Point(spec, _fronts(spec, xi)).energy


def gradient(spec: ProblemSpec, xi: Fronts) -> np.ndarray:
    """Energy gradient; its zeros are the interface flux balances."""
    import numpy as np

    return np.array(_Point(spec, _fronts(spec, xi)).gradient())


@dataclass(frozen=True)
class HessianParts:
    """Second-derivative building blocks, indexed by phase strip.

    beta_minus[i-1] and beta_plus[i] come from strip i's dependence on
    its lower and upper end (strips 1..n and 0..n-1 respectively);
    gamma[i] couples the two ends of strip i and vanishes identically
    for the unbounded end strips.  All beta entries are positive and
    all gamma entries nonnegative at any feasible point.
    """

    beta_minus: Tuple[float, ...]  # length n, entry j for strip j+1
    beta_plus: Tuple[float, ...]   # length n, entry j for strip j
    gamma: Tuple[float, ...]       # length n+1, entry j for strip j


def hessian_parts(spec: ProblemSpec, xi: Fronts) -> HessianParts:
    beta_minus, beta_plus, gamma = _Point(spec, _fronts(spec, xi)).parts()
    return HessianParts(
        beta_minus=tuple(beta_minus),
        beta_plus=tuple(beta_plus),
        gamma=tuple(gamma),
    )


def hessian(spec: ProblemSpec, xi: Fronts) -> np.ndarray:
    """Dense symmetric tridiagonal Hessian of the energy."""
    import numpy as np

    diag, off = _Point(spec, _fronts(spec, xi)).bands()
    h = np.diag(diag)
    for r, v in enumerate(off):
        h[r, r + 1] = v
        h[r + 1, r] = v
    return h
