"""The variational energy of a problem, its gradient and its Hessian.

Candidate interface positions in similarity coordinates live on the
open cone xi_1 < ... < xi_n.  The energy of a candidate position is

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
bands of the tridiagonal Hessian together.  From _VECTOR_N fronts on,
both passes run as numpy array arithmetic with the same values bit for
bit (the ``_vector`` module, which imports numpy, on the first such
point).

The problem data and the exact well-posedness criteria live in
``stefan.problem``, which needs no point; this module imports them back
and exports them, so its ``__all__`` is the whole first layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple, Union

from . import kernel
from .problem import (EnergyOverflow, InvalidProblem, ProblemSpec, WellPosednessReport,
                      check_wellposedness)

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


class InfeasiblePoint(ValueError):
    """Interface coordinates are not finite and strictly increasing, or two
    distinct ones round to one value once scaled by a diffusivity."""


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

# Points with this many fronts or more take their strip and derivative
# passes as array arithmetic (the ``_vector`` module), fewer the scalar
# loops, which are faster there.  BENCH_vector_point.json measured the
# crossover while the scalar strip pass still wrote log_gap's midpoint
# series inline.  With every scalar strip calling log_gap, minimize on
# the vector path is 13% slower at n = 64 and 8% faster at n = 100
# (four convex problems each, best of 7; 2-core sandbox, Python 3.11.7),
# so the crossover still lies between the two.
_VECTOR_N = 88


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
    strictly ordered, takes the strip's log gap and forms the energy
    term; the terms are summed with ``math.fsum``, which raises
    EnergyOverflow when finite terms sum past the largest double.  Each
    strip, the two infinite ones included, takes its log gap from one
    ``kernel.log_gap`` call.  The ordering test is the whole feasibility
    test: it fails on fronts that are not finite, not strictly
    increasing, or distinct but rounded to one scaled value far out, and
    raises InfeasiblePoint before that strip's log gap.

    The first call to ``gradient``, ``grad_norm`` or ``bands`` makes the
    second pass, which forms each strip's pdf/gap ratios and from them
    the gradient, its max-norm and the two Hessian bands together, and
    caches them.  It makes no kernel call: each ratio is
    exp(log_pdf(end) - log_gap) with ``kernel.log_pdf``'s expression
    written inline, in its operation order, so the bits are log_pdf's.
    ``parts`` runs the same pass and records each strip's HessianParts
    entries as well, so the Hessian formulas live in that one loop.

    A point with _VECTOR_N fronts or more makes both passes as numpy
    array arithmetic instead, in ``_vector``, with every value the
    scalar passes' bit for bit; lo, hi, lg, the gradient and the bands
    are lists of floats either way.  It keeps its arrays for the second
    pass as ``_arrays``, which is None on the scalar path.  ``parts``
    always takes the scalar pass.

    ``minimize`` hands its final point to ``solution.assemble`` on the
    FreeBoundaries it returns, so a converged solve's strips are not
    taken again.
    """

    __slots__ = ("spec", "fronts", "energy", "lo", "hi", "lg", "_grad", "_gnorm",
                 "_bands", "_arrays")

    def __init__(self, spec: ProblemSpec, fronts: Sequence[float]):
        n = len(fronts)
        if n >= _VECTOR_N:
            from . import _vector

            lo, hi, lg, terms, self._arrays = _vector.strip_pass(spec, fronts)
        else:
            a, d = spec.a, spec.d
            energy_w = spec._strip_weights[0]
            log_gap = kernel.log_gap
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
            self._arrays = None
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
        if self._arrays is not None and strips is None:
            from . import _vector

            self._grad, self._gnorm, self._bands = _vector.derivative_pass(
                spec, self._arrays)
            return
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
        beta_minus, beta_plus, gamma = zip(*strips)
        return beta_minus[1:], beta_plus[:-1], gamma

    def bands(self):
        """Diagonal (length n) and off-diagonal (length n-1) of the Hessian."""
        if self._grad is None:
            self._derive()
        return self._bands


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
    return HessianParts(*_Point(spec, _fronts(spec, xi)).parts())


def hessian(spec: ProblemSpec, xi: Fronts) -> np.ndarray:
    """Dense symmetric tridiagonal Hessian of the energy."""
    import numpy as np

    diag, off = _Point(spec, _fronts(spec, xi)).bands()
    h = np.diag(diag)
    for r, v in enumerate(off):
        h[r, r + 1] = v
        h[r + 1, r] = v
    return h
