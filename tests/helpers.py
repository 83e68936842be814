"""Shared test utilities: finite-difference oracles, an independent
quadrature reference for the similarity kernel, and random problem
generators with controlled well-posedness properties.

Everything here deliberately avoids the library's own evaluation paths
where it serves as an oracle: quad_cdf integrates the defining integral
directly, the finite-difference routines only consume energies or
gradients as black boxes, MultiPassPoint spells out the energy and
its derivatives one formula per pass, ldl_newton factors first and
solves afterwards, and the post-solve oracles (assembled_pieces,
flux_balances, interface_jump) take cdf and pdf from ``kernel`` one call
per value, written apart from the library's loops.  takes_series restates
log_gap's narrow-strip test, so tests can tell which strips the vector
strip pass takes by its array series, and count_points counts strip
passes.
"""
import math

import numpy as np
from scipy.integrate import quad

from stefan import NewtonBreakdown, ProblemSpec, energy, gradient, kernel


def quad_cdf(x: float) -> float:
    """Kernel reference by adaptive quadrature of the defining integral.

    Integrates outward from 0, where the value is exactly 1/2 by
    symmetry of the integrand, so no infinite interval is involved.
    """
    if x == 0.0:
        return 0.5
    val, _ = quad(
        lambda s: math.exp(-0.25 * s * s),
        0.0,
        x,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return 0.5 + val / (2.0 * math.sqrt(math.pi))


def fd_gradient(spec: ProblemSpec, xi, h: float = 1e-6) -> np.ndarray:
    """Central differences of the energy."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    for j in range(xi.size):
        step = np.zeros_like(xi)
        step[j] = h
        out[j] = (energy(spec, xi + step) - energy(spec, xi - step)) / (2 * h)
    return out


def fd_hessian(spec: ProblemSpec, xi, h: float = 1e-5) -> np.ndarray:
    """Central differences of the analytic gradient, column by column."""
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    out = np.empty((n, n))
    for j in range(n):
        step = np.zeros_like(xi)
        step[j] = h
        gp = gradient(spec, xi + step)
        gm = gradient(spec, xi - step)
        out[:, j] = (np.asarray(gp) - np.asarray(gm)) / (2 * h)
    return out


def rel_err(got, want) -> float:
    """Componentwise error scaled by max(1, magnitude), reduced to max."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    scale = np.maximum(1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale))


def _arrays(rng: np.random.Generator, n: int):
    jumps = rng.uniform(0.3, 1.5, size=n + 1)
    u0 = rng.uniform(-3.0, -1.0)
    u = np.concatenate(([u0], u0 + np.cumsum(jumps)))
    a = rng.uniform(0.6, 1.6, size=n + 1)
    k = rng.uniform(0.3, 2.0, size=n + 1)
    return u, a, k


def _neighbor_mins(u, a, k, n):
    kappa = k / a**2
    loads = kappa * np.diff(u)  # kappa_i * (u_{i+1} - u_i), i = 0..n
    return np.minimum(loads[1:], loads[:-1]), loads


def random_convex_spec(
    rng: np.random.Generator, n: int, margin_floor: float = 0.05
) -> ProblemSpec:
    """Spec whose convexity margins all clear margin_floor.

    Margins at least 0 also force every coercivity sum positive, so
    these specs are simultaneously coercive.
    """
    u, a, k = _arrays(rng, n)
    mins, _ = _neighbor_mins(u, a, k, n)
    d = 0.5 * (margin_floor - mins) + rng.uniform(0.0, 0.6, size=n)
    return ProblemSpec(u=u, a=a, k=k, d=d)


def random_coercive_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    """Coercive by termwise positivity of both partial-sum families;
    convexity is not guaranteed (margins may go negative)."""
    u, a, k = _arrays(rng, n)
    mins, _ = _neighbor_mins(u, a, k, n)
    d = -mins + 0.05 + rng.uniform(0.0, 0.4, size=n)
    return ProblemSpec(u=u, a=a, k=k, d=d)


def random_noncoercive_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    """Every prefix sum is negative: each term of the upper family is
    pushed below zero by a fixed tilt, so the energy is unbounded below
    along the first escape ray (and all others)."""
    u, a, k = _arrays(rng, n)
    kappa = k / a**2
    loads = kappa * np.diff(u)
    d = -loads[:-1] - rng.uniform(0.4, 1.0, size=n)
    return ProblemSpec(u=u, a=a, k=k, d=d)


def wide_range_spec(seed: int) -> ProblemSpec:
    """A convex draw over six decades of every datum, fixed by seed.

    n in 1..6; temperature jumps 10^U(-3, 3) from u_0 = -1; a 10^U(-1.5,
    1.5); k 10^U(-3, 3); and d_i = -min(load_i, load_{i+1}) U(0, 1) / 2
    with load = k du / a^2, so every convexity margin is at least 0.
    """
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(1, 7))
    du = 10.0 ** rng.uniform(-3.0, 3.0, size=n + 1)
    u = -1.0 + np.concatenate(([0.0], np.cumsum(du)))
    a = 10.0 ** rng.uniform(-1.5, 1.5, size=n + 1)
    k = 10.0 ** rng.uniform(-3.0, 3.0, size=n + 1)
    loads = k * du / a**2
    d = -0.5 * np.minimum(loads[1:], loads[:-1]) * rng.uniform(0.0, 1.0, size=n)
    return ProblemSpec(u=u, a=a, k=k, d=d)


def random_fronts(rng: np.random.Generator, n: int) -> tuple:
    """Strictly increasing point with |xi_i| <= 3 and gaps >= 0.2."""
    gaps = rng.uniform(0.2, 1.0, size=n)
    xi = np.cumsum(gaps)
    xi = xi - xi.mean() + rng.uniform(-0.4, 0.4)
    return tuple(float(v) for v in xi)


def dot(u, v):
    """u.v, correctly rounded."""
    return math.fsum([a * b for a, b in zip(u, v)])


def ldl_newton(g, diag, off, lam):
    """Textbook solve of (T + lam*I) p = -g for the tridiagonal T.

    Factors T + lam*I = L D L^T first (Golub & Van Loan 4.3), stopping
    at the first pivot <= 0, then solves L y = -g and D L^T p = y.
    Returns (k, l, p, g.p): k is the index of the first pivot <= 0, or
    n; l[i] is L's entry below the diagonal in column i-1 (l[0] unused),
    for i <= k; p and g.p are None unless k == n.
    """
    n = len(diag)
    piv = [diag[0] + lam]
    l = [0.0]
    while len(piv) < n and piv[-1] > 0.0:
        i = len(piv)
        l.append(off[i - 1] / piv[i - 1])
        piv.append(diag[i] + lam - l[i] * off[i - 1])
    if not piv[-1] > 0.0:
        return len(piv) - 1, l, None, None
    y = [-g[0]]
    for i in range(1, n):
        y.append(-g[i] - l[i] * y[i - 1])
    p = [0.0] * n
    p[n - 1] = y[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        p[i] = y[i] / piv[i] - l[i + 1] * p[i + 1]
    return n, l, p, dot(g, p)


def damped_step(g, diag, off, damping_min):
    """Reference damping schedule: walk lam = 0, damping_min, 2*damping_min, ...

    Returns (p, lam) at the first lam whose pivots are all positive and
    whose direction descends (or g = 0, or lam is past the Gershgorin
    bound).  The solver walks the same schedule, but with its one-pass
    factor-and-solve and its shortcut finiteness test; this copy
    factors, then solves, and tests every entry.
    """
    n = len(diag)
    if not (all(map(math.isfinite, diag)) and all(map(math.isfinite, off))):
        raise NewtonBreakdown("Hessian is not finite")
    shift = max(
        (abs(off[i - 1]) if i > 0 else 0.0)
        + (abs(off[i]) if i < n - 1 else 0.0)
        - diag[i]
        for i in range(n)
    )
    bound = max(shift, 0.0)
    lam = 0.0
    while True:
        _, _, p, slope = ldl_newton(g, diag, off, lam)
        if p is not None and (slope < 0.0 or not any(g) or lam > bound):
            return p, lam
        lam = damping_min if lam == 0.0 else 2.0 * lam
        if lam == math.inf:
            raise NewtonBreakdown("damping overflowed without a usable direction")


def strips(a, fronts):
    """(lo, hi, log_gap) of the n+1 strips; strip i spans xi_i/a_i to xi_{i+1}/a_i."""
    n = len(fronts)
    lo = [-math.inf] + [fronts[i] / a[i + 1] for i in range(n)]
    hi = [fronts[i] / a[i] for i in range(n)] + [math.inf]
    return lo, hi, [kernel.log_gap(lo[i], hi[i]) for i in range(n + 1)]


class MultiPassPoint:
    """The energy, gradient and Hessian of one point, one list pass per
    quantity, in the floating-point operation order the library's fused
    strip passes must reproduce bit for bit.  ``fronts`` must be feasible.
    """

    def __init__(self, spec: ProblemSpec, fronts):
        energy_w, flux_w, curvature_w = spec._strip_weights
        d, n = spec.d, len(fronts)
        lo, hi, lg = strips(spec.a, fronts)
        terms = [-(energy_w[i] * lg[i]) for i in range(n + 1)]
        terms += [0.25 * d[i] * fronts[i] * fronts[i] for i in range(n)]
        self.energy = math.fsum(terms)

        # ratios: per strip, pdf(lo)/gap and pdf(hi)/gap
        r_lo = [math.exp(kernel.log_pdf(lo[i]) - lg[i]) for i in range(n + 1)]
        r_hi = [math.exp(kernel.log_pdf(hi[i]) - lg[i]) for i in range(n + 1)]

        self.gradient = [
            0.5 * d[j] * fronts[j] + flux_w[j + 1] * r_lo[j + 1] - flux_w[j] * r_hi[j]
            for j in range(n)
        ]

        beta_minus, beta_plus, gamma = [], [], []
        for i in range(n + 1):
            c = curvature_w[i]
            slope = r_hi[i] - r_lo[i]
            gamma.append(c * r_lo[i] * r_hi[i])
            if i >= 1:
                beta_minus.append(c * r_lo[i] * (-0.5 * lo[i] - slope))
            if i <= n - 1:
                beta_plus.append(c * r_hi[i] * (0.5 * hi[i] + slope))
        self.parts = (beta_minus, beta_plus, gamma)

        diag = [
            beta_minus[r] + gamma[r + 1] + beta_plus[r] + gamma[r] + 0.5 * d[r]
            for r in range(n)
        ]
        off = [-gamma[r + 1] for r in range(n - 1)]
        self.bands = (diag, off)


def assembled_pieces(spec: ProblemSpec, fronts):
    """The fields of assemble's pieces, cdf through ``kernel.cdf``, as tuples."""
    lo, hi, lg = strips(spec.a, fronts)
    u = spec.u
    return [
        (spec.a[i], u[i], u[i + 1], kernel.cdf(lo[i]), kernel.cdf(hi[i]),
         (u[i + 1] - u[i]) * math.exp(-lg[i]))
        for i in range(spec.n + 1)
    ]


def cdf_gap(lo: float, hi: float) -> float:
    """cdf(hi) - cdf(lo), differencing upper tails when lo >= 0.

    By symmetry cdf(hi) - cdf(lo) = cdf(-lo) - cdf(-hi), whose terms keep
    their precision where cdf(lo) and cdf(hi) both round to 1.
    """
    if lo >= 0.0:
        return kernel.cdf(-lo) - kernel.cdf(-hi)
    return kernel.cdf(hi) - kernel.cdf(lo)


def flux_balances(spec: ProblemSpec, fronts):
    """The literal flux balances, one kernel call per cdf and pdf value,
    in the operation order of ``solution._flux_balances``."""
    ext = (-math.inf,) + tuple(fronts) + (math.inf,)
    a, k, u, d = spec.a, spec.k, spec.u, spec.d
    gaps = [cdf_gap(ext[i] / a[i], ext[i + 1] / a[i]) for i in range(spec.n + 1)]
    return [
        0.5 * d[j - 1] * ext[j]
        + k[j] * (u[j + 1] - u[j]) * kernel.pdf(ext[j] / a[j]) / (a[j] * gaps[j])
        - k[j - 1] * (u[j] - u[j - 1]) * kernel.pdf(ext[j] / a[j - 1])
        / (a[j - 1] * gaps[j - 1])
        for j in range(1, spec.n + 1)
    ]


def interface_jump(sol) -> float:
    """validate's max_interface_jump, cdf through ``kernel.cdf``; NaN wins."""
    jumps = []
    for j, x in enumerate(sol.xi_star):
        left, right = sol.pieces[j], sol.pieces[j + 1]
        target = sol.spec.u[j + 1]
        jumps.append(abs(left.u_hi + left.scale * (kernel.cdf(x / left.a) - left.cdf_hi)
                         - target))
        jumps.append(abs(right.u_lo + right.scale * (kernel.cdf(x / right.a)
                                                     - right.cdf_lo) - target))
    if any(map(math.isnan, jumps)):
        return math.nan
    return max(jumps, default=0.0)


def series_test(lo: float, hi: float) -> tuple:
    """(h, h^2 m^2) of the strip (lo, hi) mirrored onto hi > 0, with h its
    width and m its midpoint: the two values ``kernel.log_gap`` tests."""
    if hi <= 0.0:
        lo, hi = -hi, -lo
    h = hi - lo
    m = 0.5 * (lo + hi)
    return h, (h * h) * (m * m)


def takes_series(lo: float, hi: float) -> bool:
    """Whether ``kernel.log_gap(lo, hi)`` takes its midpoint series:
    h <= 0.2 and h^2 m^2 <= 0.2^2."""
    h, qw = series_test(lo, hi)
    return h <= kernel._NARROW and qw <= kernel._NARROW_SQ


def count_points(monkeypatch) -> list:
    """Record the fronts of every ``energy._Point`` built from now on; each
    is one strip pass."""
    from stefan.energy import _Point

    built = []
    real = _Point.__init__

    def counted(self, spec, fronts):
        built.append(list(fronts))
        real(self, spec, fronts)

    monkeypatch.setattr(_Point, "__init__", counted)
    return built
