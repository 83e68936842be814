"""Damped Newton minimization of the interface energy, plus the slow
reference solvers used to cross-check it.

The energy is smooth on the open cone of increasing interface
positions and blows up (+inf) whenever two interfaces touch, so a line
search that never steps more than a fixed fraction of the way to the
cone boundary keeps every iterate feasible.  The energy has a
minimizer exactly when it is coercive; when the coercivity criterion
fails the infimum is -inf along explicit escape rays (``ray_point``).
So ``minimize`` reads the exact verdict of ``check_wellposedness``
before any step and ends a solve on data that are not coercive as
Diverged at its start point, with no Newton step.  Converged means the
minimizer whose existence that verdict decides.

The Hessian is tridiagonal, so each Newton step costs two passes over
the strips (``energy._Point``: the energy, then the derivatives) and,
per damping trial, one O(n) pass over its two bands that makes the
LDL^T pivots and forward-substitutes -g together, stops at the first
pivot <= 0 and back-substitutes only a complete factorization: the
pivots double as the positive-definiteness test of the damping
schedule, which walks lam = 0, damping_min, 2 damping_min, ... up to
the first usable trial (``newton_step``).  The same pivots certify a
minimum: a point with a vanishing gradient is reported Converged only
if they are all positive, and is otherwise left along a direction of
nonpositive curvature.  Once the energy is flat at machine resolution,
a short bounded run of Newton steps is accepted on a strict decrease
of the gradient instead.

The first undamped step of a solve is capped by the barrier it runs
into.  Each strip's energy term -w log(gap) is a log barrier: with a
linear pull (w/gap*) gap that makes gap* its optimal width, a full
Newton step from gap = rho gap* lands at (2 - rho) gap, so a start whose
strips are up to twice too wide lets the first step nearly close one,
and each later step only doubles it back.  In that one-strip model the
step closes the strip at the length room = 1 / (rho - 1), and the exact
minimizer along the step is room / (1 + room), which lands on gap*.  So
with room the step length at which the first pair of fronts would
collide, the first trial length is

    min(1, boundary_fraction * room, max(room / 2, room / (1 + room)))

half way to the collision while Newton's own step would not close the
strip (room >= 1), the model's minimizer when it would, and the full
step from room >= 2 on, as for every damped or later step.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from . import kernel, options, solution
from .energy import (
    FreeBoundaries,
    Fronts,
    InfeasiblePoint,
    ProblemSpec,
    _fronts,
    _Point,
    check_wellposedness,
    energy,
)
from .options import _DEFAULT_OPTIONS, NewtonBreakdown, SolveOptions, SolveStatus

if TYPE_CHECKING:
    import numpy as np

__all__ = options.__all__ + [
    "SolveResult",
    "IterationRecord",
    "minimize",
    "newton_step",
    "ray_point",
    "single_front_bisection",
    "grid_search",
    "GridSearchResult",
]

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_EPS = sys.float_info.epsilon
_FLAT_STEPS = 8


class IterationRecord(NamedTuple):
    iteration: int
    energy: float
    grad_norm: float


@dataclass(frozen=True)
class SolveResult:
    """The outcome of ``minimize``.

    status: why the solve ended (see ``minimize``).
    xi_star: the certified fronts when Converged, else None.
    energy_value, grad_norm: the energy and the gradient max-norm at the
        last iterate.
    iterations: Newton steps taken, flat steps included.
    trace: (iteration, energy, grad_norm) at the start and after each
        accepted step that is not flat.
    """

    status: SolveStatus
    xi_star: Optional[FreeBoundaries]
    energy_value: float
    grad_norm: float
    iterations: int
    trace: Tuple[IterationRecord, ...]


def _factor_solve(diag, off, lam, g):
    """LDL^T of the tridiagonal T + lam*I, solving (T + lam*I) p = -g.

    One loop makes the pivots, the multipliers and the forward
    substitution of -g together, and returns at the first pivot <= 0;
    only a complete factorization is back-substituted.  Returns
    (k, l, p): k is the index of the first pivot <= 0, or n when all n
    are positive, which is exactly when T + lam*I is positive definite
    (Golub & Van Loan 4.3).  l[i] is L's entry below the diagonal in
    column i-1, for 0 < i <= k (i < n); the rest of l is unused.  p is
    None unless k == n.
    """
    n = len(diag)
    l = [0.0] * n
    p = [0.0] * n  # y[i] / d[i] of L y = -g, then the solution in place
    prev = diag[0] + lam
    acc = -g[0]
    i = 0
    for o in off:
        if not prev > 0.0:
            return i, l, None
        p[i] = acc / prev
        i += 1
        m = l[i] = o / prev
        prev = diag[i] + lam - m * o
        acc = -g[i] - m * acc
    if not prev > 0.0:
        return i, l, None
    acc = p[i] = acc / prev
    while i:
        i -= 1
        acc = p[i] = p[i] - l[i + 1] * acc
    return n, l, p


def _damped_step(g, diag, off, damping_min):
    """Damped Newton direction from the Hessian bands, on the schedule of
    newton_step.

    Returns (p, lam, slope), where slope is the g.p that accepted the
    step, so the caller need not form it again.  The bands are finite
    when sum(diag) + sum(off) is, since an infinite or NaN entry makes
    every partial sum after it infinite or NaN; only when that sum is
    not finite (which finite bands give when it overflows) are the
    entries tested one by one.  lam = 0 is tried first, with one
    factorization, and the Gershgorin bound is formed only when that
    trial fails.  Every later lam doubles the one before, exactly, so
    it is damping_min * 2**k.  Rounding can push the pivots of T + lam*I
    below zero even past the bound, so the walk goes on until lam
    overflows.
    """
    if not math.isfinite(sum(diag) + sum(off)) and not (
        all(map(math.isfinite, diag)) and all(map(math.isfinite, off))
    ):
        raise NewtonBreakdown("Hessian is not finite")
    lam, bound = 0.0, math.inf  # lam = 0 is never past the bound
    while lam < math.inf:
        p = _factor_solve(diag, off, lam, g)[2]
        if p is not None:
            slope = math.fsum(map(operator.mul, g, p))
            if slope < 0.0 or not any(g) or lam > bound:
                return p, lam, slope
        if lam:
            lam *= 2.0
        else:
            # the Gershgorin shift max_i(|off_{i-1}| + |off_i| - diag_i);
            # every lam tried from here on is > 0, so also past a negative one
            o = [0.0, *map(abs, off), 0.0]
            bound = max(a + b - d for a, b, d in zip(o, o[1:], diag))
            lam = float(damping_min)
    raise NewtonBreakdown("damping overflowed without a usable direction")


def _negative_curvature(diag, off):
    """A direction of nonpositive curvature, or None if T is positive definite.

    At the first pivot d_k <= 0 of the undamped LDL^T, v = L^-T e_k
    satisfies v^T T v = d_k.  v is scaled to unit max-norm.
    """
    n = len(diag)
    k, l, _ = _factor_solve(diag, off, 0.0, [0.0] * n)  # p of a zero g is unused
    if k == n:
        return None
    v = [0.0] * n
    acc = v[k] = 1.0
    for i in range(k - 1, -1, -1):
        acc = v[i] = -l[i + 1] * acc
    top = max(abs(t) for t in v)
    return [t / top for t in v]


def newton_step(
    spec: ProblemSpec, xi: Fronts, damping_min: float = 1e-12
) -> Tuple[np.ndarray, float]:
    """Damped Newton direction at a feasible point.

    Solves (H + lam*I) p = -g on the two bands of the tridiagonal
    Hessian, one O(n) pass per trial lam that factors LDL^T and
    forward-substitutes together; a trial whose pivots are not all
    positive ends at its first pivot <= 0, unsolved.  The trials walk
    lam = 0, damping_min, 2*damping_min, ... (Nocedal & Wright,
    Numerical Optimization, Alg. 3.3) and stop at the first whose pivots
    all come out positive and whose direction descends, or that lies
    past the Gershgorin bound max_i(|off_{i-1}| + |off_i| - diag_i),
    beyond which the damped matrix is positive definite and the
    direction is returned as it is.  So lam = 0, after one
    factorization, when the Hessian is already positive definite and its
    direction descends, and otherwise lam = damping_min * 2**k after
    k + 2.  The direction satisfies g.p < 0 unless the gradient is
    zero (then p = 0) or g.p rounds to zero past that bound.

    Raises ValueError unless damping_min is positive and finite, by the
    rule of ``SolveOptions``, and NewtonBreakdown when the Hessian is not
    finite or, for bands near the float range, when lam overflows before
    any trial is usable.
    """
    SolveOptions(damping_min=damping_min)  # the same check as minimize's settings
    import numpy as np

    point = _Point(spec, _fronts(spec, xi))
    p, lam, _ = _damped_step(point.gradient(), *point.bands(), damping_min)
    return np.array(p), lam


def _default_start(spec: ProblemSpec) -> _Point:
    """The point at the fronts of the zero-latent-heat minimizer, with the
    mean diffusivity.

    With d = 0 and a uniform diffusivity a the energy is
    -sum_i w_i log(gap_i), with w_i = k_i (u_{i+1} - u_i), over gaps
    that sum to 1.  Its minimizer has gap_i = w_i / W, W = sum_i w_i,
    so front i sits at a cdf^-1(p_i) with the share
    p_i = (w_0 + ... + w_{i-1}) / W, for any k.  Fronts past the middle
    take the mirror of the upper share (w_i + ... + w_n) / W, summed
    from its own end, so a p_i near 1 loses nothing to rounding.  The
    weights are first scaled by a power of two that brings the largest
    near 1, which changes no share but keeps W finite.  If W is 0 or
    not finite, or ``_Point`` finds the fronts infeasible (p_1 underflows
    to 0, or two far-tail quantiles round to one double), the fronts are
    spaced the mean diffusivity apart around the origin instead.  The
    point built here is the solve's first point.
    """
    abar = sum(spec.a) / len(spec.a)
    w = spec._strip_weights[0]
    e = -math.frexp(max(w))[1]
    w = [math.ldexp(v, e) for v in w]
    total = math.fsum(w)
    if 0.0 < total < math.inf:
        # upper[m] = w_{n-m} + ... + w_n, so front j (from 0) pairs with
        # upper[n-1-j]
        upper = list(itertools.accumulate(reversed(w)))
        upper.pop()
        inverse = kernel._cdf_inverse
        x = []
        for lo, hi in zip(itertools.accumulate(w), reversed(upper)):
            p = lo / total
            x.append(abar * inverse(p) if p <= 0.5 else -(abar * inverse(hi / total)))
        try:
            return _Point(spec, x)
        except InfeasiblePoint:
            pass
    n = spec.n
    return _Point(spec, [(i - 0.5 * (n + 1)) * abar for i in range(1, n + 1)])


def _line_search(spec, point, p, slope, ceiling, flat_ok, fraction, first):
    """Backtrack along p from point to an accepted trial.

    Returns (trial, flat), or None when no trial is accepted.  The first
    trial goes at most `fraction` of the way to the first collision of
    two fronts, and when `first` (the undamped step of iteration 0) at
    most max(room/2, room/(1+room)) of the step length `room` to it.  A
    trial is accepted on sufficient decrease to an energy below ceiling,
    or, when the energy is flat at machine resolution and flat_ok, on a
    strict decrease of the gradient's max-norm (flat = True).  A trial
    whose strips collapse once scaled is infeasible and is backtracked.
    """
    x, f = point.fronts, point.energy
    # the step length along p at which the first pair of fronts collides
    room = math.inf
    for i in range(len(x) - 1):
        closing = p[i] - p[i + 1]
        if closing > 0.0:
            t = (x[i + 1] - x[i]) / closing
            if t < room:  # as min(room, t), NaN included
                room = t
    alpha = min(1.0, fraction * room)
    if first and room < 2.0:  # the cap is >= 1 from 2 on; and no inf / inf
        alpha = min(alpha, max(0.5 * room, room / (1.0 + room)))
    while alpha > 1e-20:
        xt = [xi + alpha * pi for xi, pi in zip(x, p)]
        if xt != x:
            try:
                trial = _Point(spec, xt)
            except InfeasiblePoint:
                pass  # a strip empty once scaled: step shorter
            else:
                ft = trial.energy
                if ft <= f + _ARMIJO_C * alpha * slope and ft < ceiling:
                    return trial, False
                if abs(ft - f) <= 8.0 * _EPS * max(1.0, abs(f)):
                    # Energy is flat at machine resolution; let the
                    # gradient decide whether this step makes progress.
                    if flat_ok and trial.grad_norm() < point.grad_norm():
                        return trial, True
                    return None
        alpha *= _BACKTRACK
    return None


def minimize(
    spec: ProblemSpec,
    opts: Optional[SolveOptions] = None,
    start: Optional[Fronts] = None,
) -> SolveResult:
    """Minimize the interface energy by damped Newton with backtracking.

    Starts from the fronts of the zero-latent-heat minimizer (see
    ``_default_start``: the quantiles of the shares of k_i (u_{i+1} - u_i),
    exact when d = 0 and a is uniform, for any k; equispaced around the
    origin if those fronts do not resolve) unless an explicit
    feasible start is given.  An explicit start is validated as in
    ``energy``, and an infeasible one raises.  Feasibility is then tested
    only inside ``energy._Point``, whose first strip pass checks that
    every scaled strip is nonempty.

    The start point built, the solve reads ``check_wellposedness(spec)``
    (computed once per spec, and raising EnergyOverflow when its sums
    overflow).  On data that are not coercive the energy is unbounded
    below along an escape ray, so the solve ends there: Diverged, 0
    iterations, the start point's energy and gradient max-norm, and a
    trace of the start record alone, whatever start was given.  Only
    coercive data reach the loop below.

    Each pass of the loop takes a direction, searches along it, and then
    exits or goes on.  Every exit sets the status and leaves the loop;
    one result is built after it.

    Direction.  At a point whose gradient max-norm is at or below
    opts.grad_tol, the undamped LDL^T of the tridiagonal Hessian either
    certifies a minimum (all pivots positive) or, at its first pivot
    d_k <= 0, gives v = L^-T e_k, whose curvature v^T H v is d_k, signed
    so that g.v <= 0: a small gradient at a saddle is not a solution.
    Elsewhere the direction is the damped Newton step of ``newton_step``.

    Line search.  ``_line_search`` backtracks from the longest step that
    goes boundary_fraction of the way to the cone boundary.  On the
    undamped step of iteration 0 (lambda = 0, from any start) it starts
    no longer than max(room/2, room/(1 + room)) either, with room the
    step length to the first collision of two fronts: half way there
    while room >= 1, and the exact minimizer along the step of the
    closing strip's log barrier when Newton's full step would close it
    (see the module docstring).  A trial
    costs one strip pass, which gives its energy; the accepted trial
    gets a second, which gives the gradient, its max-norm and both
    Hessian bands.  Once energy differences fall below machine
    resolution, sufficient-decrease tests stop meaning anything, so at
    most 8 flat steps per solve are accepted, each on a strict decrease
    of the gradient's max-norm.  A flat step counts as an iteration but
    gets no trace record, so trace energies are strictly decreasing.

    Exits:

    Converged      the loop head certifies the point; this is also the
                   last test once opts.max_iter steps are used up
    Diverged       the data fail the coercivity criterion; decided
                   before any step, so iterations is 0
    MaxIterations  opts.max_iter steps used up, a damped direction that
                   does not descend, or no trial accepted

    Coercive data have a minimizer, so however far an iterate goes the
    solve ends Converged or MaxIterations, never Diverged; opts.xi_max
    plays no part.  The curvature direction and the damped step still
    serve coercive data whose energy is not convex.

    A Converged result's xi_star carries the final ``_Point`` as the
    attribute ``_point``, outside the dataclass fields, so that
    ``solution.assemble`` reuses its strips instead of rebuilding them.
    """
    opts = _DEFAULT_OPTIONS if opts is None else opts
    if start is None:
        point = _default_start(spec)
    else:
        point = _Point(spec, list(_fronts(spec, start)))
    # the gradient max-norm of the current point, read once per point
    gnorm = point.grad_norm()
    # the energy of trace[-1]
    recorded = point.energy
    trace = [IterationRecord(0, recorded, gnorm)]
    if not check_wellposedness(spec).coercive:
        # unbounded below along an escape ray: there is no minimizer to find
        return SolveResult(SolveStatus.DIVERGED, None, point.energy, gnorm, 0, tuple(trace))
    grad_tol, max_iter = opts.grad_tol, opts.max_iter
    damping_min, fraction = opts.damping_min, opts.boundary_fraction
    iterations = 0
    flat_left = _FLAT_STEPS

    while True:
        p = None
        if gnorm <= grad_tol:
            p = _negative_curvature(*point.bands())
            if p is None:
                status = SolveStatus.CONVERGED
                break
        if iterations == max_iter:
            status = SolveStatus.MAX_ITERATIONS
            break
        first = False
        if p is None:
            p, lam, slope = _damped_step(point.gradient(), *point.bands(), damping_min)
            first = iterations == 0 and lam == 0.0
            if slope >= 0.0:
                # g.p rounded to >= 0 past the Gershgorin bound: no descent
                status = SolveStatus.MAX_ITERATIONS
                break
        else:
            slope = math.fsum(map(operator.mul, point.gradient(), p))
            if slope > 0.0:
                p, slope = [-v for v in p], -slope
        # below the last recorded energy too, after flat steps; as
        # min(point.energy, recorded), NaN included
        f = point.energy
        ceiling = recorded if recorded < f else f
        step = _line_search(spec, point, p, slope, ceiling, flat_left > 0, fraction, first)
        if step is None:
            status = SolveStatus.MAX_ITERATIONS  # stalled by roundoff
            break
        point, flat = step
        iterations += 1
        gnorm = point.grad_norm()
        if flat:
            flat_left -= 1
            continue
        recorded = point.energy
        trace.append(IterationRecord(iterations, recorded, gnorm))

    xi_star = None
    if status is SolveStatus.CONVERGED:
        # the strip pass of point proved these fronts finite and strictly
        # increasing, so they are not checked again (a pickle or copy is,
        # through __reduce__); _point is not a field, so eq, repr, hash
        # and asdict ignore it
        xi_star = object.__new__(FreeBoundaries)
        xi_star.__dict__.update(xi=tuple(point.fronts), _point=point)
    return SolveResult(status, xi_star, point.energy, gnorm, iterations, tuple(trace))


def ray_point(spec: ProblemSpec, r: int, sigma: float) -> FreeBoundaries:
    """Point at parameter sigma on the r-th escape ray.

    The first r interfaces sit at -sigma + (i - r) for i = 1..r and the
    rest at i - r; when the r-th partial coercivity sum is negative the
    energy falls to -inf along this ray as sigma grows.
    """
    if not 1 <= r <= spec.n:
        raise IndexError(f"r must lie in 1..{spec.n}")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    xi = tuple(
        float(-sigma + i - r) if i <= r else float(i - r)
        for i in range(1, spec.n + 1)
    )
    return FreeBoundaries(xi)


def single_front_bisection(
    spec: ProblemSpec, bracket: Tuple[float, float], tol: float = 1e-12
) -> float:
    """Reference root of the single-interface flux balance by bisection.

    Deliberately independent of the Newton machinery: evaluates the
    literal balance behind ``stefan_residuals`` (plain cdf/pdf quotients,
    upper tails differenced) and halves the bracket until it is no wider
    than tol, or until its midpoint rounds to one of its ends, that is,
    the ends are adjacent floats.  So tol = 0 asks for adjacent floats,
    and a tol below the spacing of the floats near the root still ends.
    A NaN or negative tol raises ValueError.

    Both ends are evaluated first.  An end where a strip's cdf gap
    underflows to 0, which happens past about |t/a| = 54, raises
    ValueError naming that end.  With one front each gap is monotone in
    t, so once both ends evaluate, every midpoint does.
    """
    if spec.n != 1:
        raise ValueError("bisection reference handles exactly one interface")
    if not tol >= 0.0:
        raise ValueError("tol must be a nonnegative number")

    def balance(t: float) -> float:
        return solution._flux_balances(spec, (t,))[0]

    def at_end(t: float, end: str) -> float:
        try:
            return balance(t)
        except ZeroDivisionError:
            raise ValueError(f"bracket's {end} end {t!r}: a strip's cdf gap "
                             "underflows to 0 there") from None

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be ordered")
    f_lo = at_end(lo, "lower")
    f_hi = at_end(hi, "upper")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError("bracket does not straddle a sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = balance(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GridSearchResult:
    """The best grid point of ``grid_search``.

    xi: the grid point of least energy.
    energy: its energy.
    on_boundary: whether any coordinate lies on a face of the box.
    """

    xi: FreeBoundaries
    energy: float
    on_boundary: bool


def grid_search(
    spec: ProblemSpec,
    box: Sequence[Tuple[float, float]],
    points_per_axis: int,
) -> GridSearchResult:
    """Exhaustive energy minimum over a product grid, increasing tuples only.

    Enumerates in lexicographic order and keeps strictly better values,
    so exact ties resolve to the lowest-index tuple.  The result is
    flagged when the winner touches the box boundary, which means the
    true minimizer may lie outside (or at -inf for non-coercive data).
    """
    import numpy as np

    if len(box) != spec.n:
        raise ValueError(f"box must provide {spec.n} coordinate ranges")
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    axes = []
    for lo, hi in box:
        if not lo < hi:
            raise ValueError("box ranges must be ordered")
        axes.append(np.linspace(lo, hi, points_per_axis).tolist())

    best_e = math.inf
    best: Optional[Tuple[float, ...]] = None
    for xi in itertools.product(*axes):
        if all(lo < hi for lo, hi in zip(xi, xi[1:])):
            e = energy(spec, xi)
            if e < best_e:
                best_e, best = e, xi
    if best is None:
        raise ValueError("no strictly increasing tuple fits in the grid")
    on_boundary = any(v == axis[0] or v == axis[-1] for v, axis in zip(best, axes))
    return GridSearchResult(
        xi=FreeBoundaries(best), energy=best_e, on_boundary=on_boundary
    )
