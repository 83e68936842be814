"""Similarity kernel of the one-dimensional heat equation.

Everything in this package is built from one special function: the
normalized antiderivative of the Gaussian density with variance 2,

    cdf(xi) = (2 sqrt(pi))^-1 * integral of exp(-s^2/4) over s < xi,

together with its density ``pdf`` and a numerically safe logarithm of
cdf gaps.  Any profile of the form C1*cdf(xi/a) + C2 solves the
similarity ODE a^2 v'' + xi v'/2 = 0, which is why phase profiles,
interface fluxes and the variational energy all reduce to these three
calls.

The evaluation is self-contained: rational approximations on the
central branches and a Laplace continued fraction in the far tail, so
the only library primitives needed are exp, log and sqrt.  Plus and
minus infinity are legal inputs everywhere and map to the exact limit
values.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
import struct

__all__ = ["cdf", "pdf", "log_pdf", "log_gap"]

# Peak of the density, 1/(2 sqrt(pi)); also pdf(0).
PDF_PEAK = 0.5 / math.sqrt(math.pi)

_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))
_SQRT_PI = math.sqrt(math.pi)
_LOG_HALF = math.log(0.5)

# |xi| beyond which gap evaluation moves fully to log space.
_TAIL_SWITCH = 6.0

# A continued-fraction factor this close to 1 is within one ulp of it.
_CF_RESOLUTION = 2.3e-16

# ---------------------------------------------------------------------------
# Error-function shape, double precision.  Rational coefficients are the
# classic public-domain SunPro set (FreeBSD msun); branch layout follows
# the original: [0, 0.84375), [0.84375, 1.25), [1.25, 2.857), [2.857, 28).
# ---------------------------------------------------------------------------

_ERX = 8.45062911510467529297e-01
_EFX = 1.28379167095512586316e-01

_PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
_PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)
_RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e+01,
    -6.23753324503260060396e+01,
    -1.62396669462573470355e+02,
    -1.84605092906711035994e+02,
    -8.12874355063065934246e+01,
    -9.81432934416914548592e+00,
)
_SA = (
    1.0,
    1.96512716674392571292e+01,
    1.37657754143519042600e+02,
    4.34565877475229228821e+02,
    6.45387271733267880336e+02,
    4.29008140027567833386e+02,
    1.08635005541779435134e+02,
    6.57024977031928170135e+00,
    -6.04244152148580987438e-02,
)
_RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e+01,
    -1.60636384855821916062e+02,
    -6.37566443368389627722e+02,
    -1.02509513161107724954e+03,
    -4.83519191608651397019e+02,
)
_SB = (
    1.0,
    3.03380607434824582924e+01,
    3.25792512996573918826e+02,
    1.53672958608443695994e+03,
    3.19985821950859553908e+03,
    2.55305040643316442583e+03,
    4.74528541206955367215e+02,
    -2.24409524465858183362e+01,
)


def _polyval(coeffs, z):
    # coefficients ordered from constant term upward
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _split_high(x):
    # Zero the low 32 mantissa bits so that x*x is exact in the tail
    # branch's exponent splitting.
    return struct.unpack(">d", struct.pack(">d", x)[:4] + b"\x00\x00\x00\x00")[0]


def _erfc_tail(x):
    # 1.25 <= x < 28
    s = 1.0 / (x * x)
    if x < 1.0 / 0.35:
        ratio = _polyval(_RA, s) / _polyval(_SA, s)
    else:
        ratio = _polyval(_RB, s) / _polyval(_SB, s)
    z = _split_high(x)
    # -z*z - 0.5625 is exact: z carries at most 21 mantissa bits
    return math.exp(-z * z - 0.5625) * math.exp((z - x) * (z + x) + ratio) / x


def _erf(x):
    ax = abs(x)
    if ax < 0.84375:
        if ax < 3.7252902984e-09:  # 2**-28
            return x + _EFX * x
        z = x * x
        return x + x * (_polyval(_PP, z) / _polyval(_QQ, z))
    sign = -1.0 if x < 0.0 else 1.0
    if ax < 1.25:
        s = ax - 1.0
        return sign * (_ERX + _polyval(_PA, s) / _polyval(_QA, s))
    if ax >= 6.0:
        return sign  # |erf| - 1 below one ulp
    return sign * (1.0 - _erfc_tail(ax))


def _erfc(x):
    # x >= 0 only; callers handle reflection
    if x < 0.84375:
        if x < 3.7252902984e-09:
            return 1.0 - x
        z = x * x
        y = _polyval(_PP, z) / _polyval(_QQ, z)
        if x < 0.25:
            return 1.0 - (x + x * y)
        return 0.5 - (x * y + (x - 0.5))
    if x < 1.25:
        s = x - 1.0
        return 1.0 - _ERX - _polyval(_PA, s) / _polyval(_QA, s)
    if x < 28.0:
        return _erfc_tail(x)
    return 0.0  # underflows past 1e-308


def _erfcx_cf(x):
    """exp(x^2) erfc(x) by the Laplace continued fraction, for x >= 6."""
    # modified Lentz on f = x + K(j/2 / x)
    tiny = 1e-300
    f = x
    c = x
    d = 0.0
    # For some large x the factor delta settles one ulp off 1 and never
    # reaches the exact test below.  The fraction has then converged to
    # resolution: f at the first such factor is the answer if the
    # iteration cap is hit.  The exact test stays as it is, so every
    # argument that meets it keeps its value bit for bit.
    f_resolved = None
    for j in range(1, 500):
        num = 0.5 * j
        d = x + num * d
        if d == 0.0:
            d = tiny
        c = x + num / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return 1.0 / (_SQRT_PI * f)
        if f_resolved is None and abs(delta - 1.0) <= _CF_RESOLUTION:
            f_resolved = f
    return 1.0 / (_SQRT_PI * (f if f_resolved is None else f_resolved))


def _log_erfc(x):
    # x >= 0; stays accurate far past the underflow point of erfc itself
    if x < 8.0:
        return math.log(_erfc(x))
    return math.log(_erfcx_cf(x)) - x * x


def _upper(x):
    # 1 - cdf(x) for x >= 0, safe at +inf
    if x == math.inf:
        return 0.0
    return 0.5 * _erfc(0.5 * x)


def _log_upper(x):
    # log(1 - cdf(x)) for x >= 0, safe at +inf
    if x == math.inf:
        return -math.inf
    return _LOG_HALF + _log_erfc(0.5 * x)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def cdf(xi: float) -> float:
    """Cumulative similarity kernel; 0 at -inf, 1/2 at 0, 1 at +inf.

    Absolute error is at or below 1e-15 over the whole line.
    """
    if math.isnan(xi):
        raise ValueError("cdf: argument must not be NaN")
    if xi == math.inf:
        return 1.0
    if xi == -math.inf:
        return 0.0
    z = 0.5 * xi
    if z <= 0.0:
        return 0.5 * _erfc(-z)
    return 1.0 - 0.5 * _erfc(z)


def pdf(xi: float) -> float:
    """Density of the kernel, exp(-xi^2/4) / (2 sqrt(pi)); 0 at +-inf."""
    if math.isnan(xi):
        raise ValueError("pdf: argument must not be NaN")
    if math.isinf(xi):
        return 0.0
    return PDF_PEAK * math.exp(-0.25 * xi * xi)


def log_pdf(xi: float) -> float:
    """Natural log of pdf(xi); finite for every finite xi, -inf at +-inf."""
    if math.isnan(xi):
        raise ValueError("log_pdf: argument must not be NaN")
    if math.isinf(xi):
        return -math.inf
    return -0.25 * xi * xi - _LOG_2_SQRT_PI


def log_gap(a: float, b: float) -> float:
    """Natural log of cdf(b) - cdf(a), for a < b (either end may be infinite).

    Straight subtraction of cdf values loses all precision once both
    arguments sit in the same tail.  Beyond +-6 the gap is therefore
    assembled from complementary tails entirely in log space; in the
    central band the difference is arranged so nothing is ever
    subtracted from 1.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("log_gap: arguments must not be NaN")
    if not a < b:
        raise ValueError("log_gap: requires a < b")
    if b <= 0.0:
        # the density is even, so the gap over (a, b) is the gap over (-b, -a)
        a, b = -b, -a
    if a >= _TAIL_SWITCH:
        # both deep in the right tail
        la = _log_upper(a)
        lb = _log_upper(b)
        return la + math.log(-math.expm1(lb - la))
    if a >= 0.0:
        return math.log(0.5 * (_erfc(0.5 * a) - _erfc_finite(b)))
    # a < 0 < b: two nonnegative halves, no cancellation
    missing = _upper(b) + _upper(-a)  # equals 1 - gap
    if missing < 0.5:
        return math.log1p(-missing)
    return math.log(0.5 * (_erf(0.5 * b) + _erf(-0.5 * a)))


def _erfc_finite(x):
    # erfc(x/2) treating x = +inf as exact zero
    if x == math.inf:
        return 0.0
    return _erfc(0.5 * x)
