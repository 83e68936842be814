"""Problem data and the exact well-posedness criteria.

A problem with n moving interfaces is described by n+2 ordered phase
temperatures u, per-phase diffusivities a and conductivities k, and n
signed interface heat capacities d (negative values are allowed, which
is what makes existence and uniqueness nontrivial).

``check_wellposedness`` decides existence and uniqueness exactly, from
running sums over the data alone: no point is evaluated, so this module
needs neither the kernel nor the energy.  Of the package's layers,
``stefan check`` and ``stefan dump`` run only this module and
``stefan.options``.  ``stefan.energy`` imports these names back and
exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = ["InvalidProblem", "EnergyOverflow", "ProblemSpec", "WellPosednessReport",
           "check_wellposedness"]

# |value| at or below this means a well-posedness sum sits on the boundary
# of the criterion and the verdict should not be trusted to one side.
BORDERLINE_TOL = 1e-12


class InvalidProblem(ValueError):
    """Problem data violates a structural requirement."""


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
    """math.fsum of every prefix terms[:j+1] (or suffix terms[j:]).

    Each sum is an fsum of its own, in the original order, so each is
    correctly rounded, and one whose terms overflow raises fsum's
    OverflowError.  That is n fsums over n(n+1)/2 terms in all, taken
    once per spec, since ``check_wellposedness`` keeps its report.
    """
    fsum = math.fsum
    return [fsum(terms[j:] if suffixes else terms[:j + 1]) for j in range(len(terms))]


def check_wellposedness(spec: ProblemSpec) -> WellPosednessReport:
    """The exact criteria; EnergyOverflow if a sum passes the largest double.

    Each entry of S_upper and S_lower is a math.fsum of its own prefix
    or suffix of the terms, so it is correctly rounded, at n(n+1)/2
    additions per list.  The report is computed once per spec and kept
    on it as ``_report``, outside the dataclass fields, as
    ``_strip_weights`` is, so eq, hash, repr, replace and asdict ignore
    it; it is frozen, so every caller can share it.  EnergyOverflow is
    raised again on every call.
    """
    try:
        return spec._report
    except AttributeError:
        pass
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
    report = WellPosednessReport(
        S_upper=s_upper,
        S_lower=s_lower,
        coercive=coercive,
        convexity_margins=margins,
        strictly_convex_sufficient=convex,
        borderline=borderline,
    )
    object.__setattr__(spec, "_report", report)
    return report
