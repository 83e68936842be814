"""The two passes of ``energy._Point`` as numpy array arithmetic, for
points with ``energy._VECTOR_N`` fronts or more.

Every value is the scalar passes' bit for bit.  The scaled ends, the
ordering test, log_gap's midpoint series (its test, and its polynomial
through ``kernel._narrow_series``), the energy terms, the pdf/gap
exponents (log_pdf's expression), the gradient and both Hessian bands
are array operations in the operation order of the scalar code and, for
the series, of ``kernel.log_gap``, which the scalar pass calls on every
strip; IEEE arithmetic rounds each one as Python does.  Each log, log1p
and exp is still ``math``'s, applied value by value, since numpy's own
differ from libm in the last bit on some arguments.  The strips that do
not take the series go to ``kernel.log_gap`` one by one, in strip order.

The first point this large imports this module and numpy with it, so
``import stefan`` and smaller problems never load them.
"""

import math

import numpy as np

from . import kernel
from .energy import InfeasiblePoint
from .kernel import _LOG_2_SQRT_PI, _NARROW, _NARROW_SQ

_log, _log1p, _exp = math.log, math.log1p, math.exp


def _strip_arrays(spec):
    """spec.a, the three strip weights, d/4 and d/2 as numpy arrays.

    Made on a spec's first vector pass and kept on it as
    ``_strip_arrays``, outside the dataclass fields as ``_strip_weights``
    is, so eq, hash, repr and replace ignore it.
    """
    try:
        return spec._strip_arrays
    except AttributeError:
        pass
    d = np.array(spec.d)
    arrays = (np.array(spec.a), *map(np.array, spec._strip_weights), 0.25 * d, 0.5 * d)
    object.__setattr__(spec, "_strip_arrays", arrays)
    return arrays


def strip_pass(spec, fronts):
    """(lo, hi, lg, terms, arrays): the strip pass's lists, and the arrays
    that ``derivative_pass`` takes."""
    a, energy_w, _, _, quarter_d, _ = _strip_arrays(spec)
    n = len(fronts)
    with np.errstate(all="ignore"):
        x = np.fromiter(fronts, float, n)
        ends = np.empty((2, n + 1))  # lo, then hi, of each strip
        lo, hi = ends
        lo[0], hi[n] = -math.inf, math.inf
        np.divide(x, a[1:], out=lo[1:])
        np.divide(x, a[:n], out=hi[:n])
        ordered = lo < hi
        if not ordered.all():
            raise InfeasiblePoint(f"xi: strip {int(ordered.argmin())} is empty once scaled")
        # which interior strips take the midpoint series
        b, t = lo[1:n], hi[1:n]
        h = t - b
        w = 0.5 * (b + t)
        w *= w
        q = h * h
        series = (h <= _NARROW) & (q * w <= _NARROW_SQ)
        h, w, q = h[series], w[series], q[series]
        m = len(h)
        lg = np.empty(n + 1)
        lg[1:n][series] = (
            np.fromiter(map(_log, h.tolist()), float, m) + (-0.25 * w - _LOG_2_SQRT_PI)
        ) + np.fromiter(map(_log1p, kernel._narrow_series(q, w).tolist()), float, m)
        lo_list, hi_list = ends.tolist()
        log_gap = kernel.log_gap
        for i in (0, *(np.flatnonzero(~series) + 1).tolist(), n):
            lg[i] = log_gap(lo_list[i], hi_list[i])
        terms = np.concatenate((-(energy_w * lg), quarter_d * x * x)).tolist()
    return lo_list, hi_list, lg.tolist(), terms, (x, ends, lg)


def derivative_pass(spec, arrays):
    """(gradient, its max-norm, (diag, off)) from strip_pass's arrays."""
    _, _, flux_w, curvature_w, _, half_d = _strip_arrays(spec)
    x, ends, lg = arrays
    n = len(x)
    with np.errstate(all="ignore"):
        # pdf(lo)/gap and pdf(hi)/gap, log_pdf inlined as in _Point._derive
        r = -0.25 * ends * ends - _LOG_2_SQRT_PI - lg
        r = np.fromiter(map(_exp, r.ravel().tolist()), float, 2 * n + 2)
        r_lo, r_hi = r[:n + 1], r[n + 1:]
        lo, hi = ends
        slope = r_hi - r_lo
        c_lo = curvature_w * r_lo
        gm = c_lo * r_hi
        bm = c_lo[1:] * (-0.5 * lo[1:] - slope[1:])
        bp = curvature_w[:n] * r_hi[:n] * (0.5 * hi[:n] + slope[:n])
        grad = half_d * x + flux_w[1:] * r_lo[1:] - flux_w[:n] * r_hi[:n]
        diag = bm + gm[1:] + bp + gm[:n] + half_d
        off = -gm[1:n]
        # max |g|, skipping NaN as _Point._derive's comparisons do
        gnorm = float(np.fmax.reduce(np.abs(grad)))
    grad = grad.tolist()
    if not grad[0] == grad[0]:
        gnorm = abs(grad[0])  # max() keeps a leading NaN
    return grad, gnorm, (diag.tolist(), off.tolist())
