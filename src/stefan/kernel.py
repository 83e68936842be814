"""Similarity kernel of the one-dimensional heat equation.

Everything in this package is built from one special function: the
normalized antiderivative of the Gaussian density with variance 2,

    cdf(xi) = (2 sqrt(pi))^-1 * integral of exp(-s^2/4) over s < xi,

together with its density ``pdf`` and a numerically safe logarithm of
cdf gaps.  Any profile of the form C1*cdf(xi/a) + C2 solves the
similarity ODE a^2 v'' + xi v'/2 = 0, which is why phase profiles,
interface fluxes and the variational energy all reduce to these three
calls.

The central band takes erf and erfc from the platform's libm through
``math``, as every value here takes exp, log and log1p from it, so the
last bits of cdf and of a wide central log gap are the platform's.
Against 50-digit mpmath over 20 000 draws each, cdf errs by at most
8.2e-17 absolutely on [-52, 52] and by 1.8 eps relatively on [-52, 0],
and the log gap of a wide strip about a midpoint in [-8, 8] that is
central or straddles 0 by 1.6 eps.  Past |xi| = 6 a log gap moves to
log space, where erfc would underflow, through one log of the scaled
complementary error function exp(z^2) erfc(z), z = |xi|/2, with no
iteration: SunPro's rational ratio below |xi| = 56 and Laplace's
asymptotic series beyond.  Against 60-digit mpmath a tail strip's log
gap then errs by at most 1.8 eps of the log over 20 000 seeded strips,
and a one-sided tail by 1.4 eps relatively for |xi| up to 1e150.  A
narrow strip's log gap takes neither: it is log(width) +
log_pdf(midpoint) plus the log1p of a short series in the width.  Plus
and minus infinity are legal inputs everywhere and map to the exact
limit values.  All functions are pure and reentrant.

cdf and log_pdf are also written inline, the same expression operation
for operation, where a Python call per value would dominate; a change to
one of them must be made in each place, and tests hold each equal to
the call bit for bit.  These are every copy:

- cdf in ``solution.evaluate_profile``, the profile lookup of each
  sample;
- log_pdf in ``energy._Point._derive``, the derivative pass, and in
  ``_vector.derivative_pass``, its numpy form.

log_gap's midpoint series has one copy, in ``_vector.strip_pass``, the
numpy strip pass: it writes the narrow test, with _NARROW and
_NARROW_SQ, and the series' log form out on arrays, but takes the sum
from ``_narrow_series``, as log_gap does.  The scalar strip pass calls
log_gap on every strip.
"""

from __future__ import annotations

import math

__all__ = ["cdf", "pdf", "log_pdf", "log_gap"]

# Peak of the density, 1/(2 sqrt(pi)); also pdf(0).
PDF_PEAK = 0.5 / math.sqrt(math.pi)

_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_HALF = math.log(0.5)
_INF = math.inf
_NEG_INF = -math.inf

# |xi| beyond which gap evaluation moves fully to log space.
_TAIL_SWITCH = 6.0

# A strip of width h around m with h * max(1, |m|) at or below this takes
# log_gap's midpoint series.
_NARROW = 0.2
_NARROW_SQ = _NARROW * _NARROW


def _narrow_series(q, w):
    """The sum in log_gap's midpoint series, for q = h^2 and w = m^2.

    The k-th term is q^k He_2k(m/sqrt 2) / (8^k (2k+1)!), written as a
    polynomial in w.  Only + - * / with float constants, so float64
    arrays q and w give every element the value a float would, bit for
    bit; ``_vector.strip_pass`` takes it so.
    """
    return q * ((w - 2.0) / 96.0 + q * (
        ((w - 12.0) * w + 12.0) / 30720.0 + q * (
        (((w - 30.0) * w + 180.0) * w - 120.0) / 20643840.0 + q * (
        ((((w - 56.0) * w + 840.0) * w - 3360.0) * w + 1680.0)
        / 23781703680.0))))


# ---------------------------------------------------------------------------
# log erfcx(z) = log(exp(z^2) erfc(z)) for z >= 3, where log_gap's log-tail
# needs it.  Below z = 28 it is the public-domain SunPro rational
# approximation for erfc on [1/0.35, 28) (FreeBSD msun), written out in
# Horner form, constant term first: erfc(z) = exp(-z^2 - 0.5625 + R) / z.
# From 28 on it is Laplace's asymptotic series to the w^7 term in
# w = 1/(2 z^2) <= 1/1568, whose first omitted term is below 1e-19.
# erf and erfc themselves come from the platform's libm through ``math``.
# ---------------------------------------------------------------------------


def _log_erfcx(z):
    s = 1.0 / (z * z)
    if z < 28.0:
        return (-9.86494292470009928597e-03 + s * (
            -7.99283237680523006574e-01 + s * (
            -1.77579549177547519889e+01 + s * (
            -1.60636384855821916062e+02 + s * (
            -6.37566443368389627722e+02 + s * (
            -1.02509513161107724954e+03 + s * (
            -4.83519191608651397019e+02))))))) / (1.0 + s * (
            3.03380607434824582924e+01 + s * (
            3.25792512996573918826e+02 + s * (
            1.53672958608443695994e+03 + s * (
            3.19985821950859553908e+03 + s * (
            2.55305040643316442583e+03 + s * (
            4.74528541206955367215e+02 + s * (
            -2.24409524465858183362e+01)))))))) - 0.5625 - math.log(z)
    w = 0.5 * s
    return math.log1p(-w * (1.0 - w * (3.0 - w * (15.0 - w * (105.0 - w * (
        945.0 - w * (10395.0 - 135135.0 * w))))))) - math.log(z) - _LOG_SQRT_PI


# ---------------------------------------------------------------------------
# Inverse of cdf.  cdf(xi) = Phi(xi / sqrt 2) for the standard normal
# Phi, so cdf^-1(p) = sqrt(2) Phi^-1(p).  Phi^-1 is Wichura's AS241
# (PPND16, Applied Statistics 37 (1988) 477-484): a rational function of
# q = p - 1/2 in the centre and of sqrt(-log p) on two tail branches,
# with no iteration.  Coefficients are written constant term first.
# ---------------------------------------------------------------------------

_SQRT_2 = math.sqrt(2.0)


def _cdf_inverse(p):
    """xi with cdf(xi) = p, for 0 <= p <= 1; -inf at 0, +inf at 1, 0.0 at 1/2.

    p above 1/2 is reflected onto 1 - p, which is exact there, so the
    result is odd about 1/2 bit for bit: _cdf_inverse(1 - p) equals
    -_cdf_inverse(p) whenever 1 - p is exact.
    """
    sign = 1.0
    if p > 0.5:
        sign, p = -1.0, 1.0 - p
    q = p - 0.5
    if q >= -0.425:
        r = 0.180625 - q * q
        return sign * (_SQRT_2 * q * (3.3871328727963666080e0 + r * (
            1.3314166789178437745e+2 + r * (
            1.9715909503065514427e+3 + r * (
            1.3731693765509461125e+4 + r * (
            4.5921953931549871457e+4 + r * (
            6.7265770927008700853e+4 + r * (
            3.3430575583588128105e+4 + r * (
            2.5090809287301226727e+3)))))))) / (1.0 + r * (
            4.2313330701600911252e+1 + r * (
            6.8718700749205790830e+2 + r * (
            5.3941960214247511077e+3 + r * (
            2.1213794301586595867e+4 + r * (
            3.9307895800092710610e+4 + r * (
            2.8729085735721942674e+4 + r * (
            5.2264952788528545610e+3)))))))))
    if p == 0.0:
        return -sign * _INF
    r = math.sqrt(-math.log(p))
    if r <= 5.0:
        r -= 1.6
        tail = (1.42343711074968357734e0 + r * (
            4.63033784615654529590e0 + r * (
            5.76949722146069140550e0 + r * (
            3.64784832476320460504e0 + r * (
            1.27045825245236838258e0 + r * (
            2.41780725177450611770e-1 + r * (
            2.27238449892691845833e-2 + r * (
            7.74545014278341407640e-4)))))))) / (1.0 + r * (
            2.05319162663775882187e0 + r * (
            1.67638483018380384940e0 + r * (
            6.89767334985100004550e-1 + r * (
            1.48103976427480074590e-1 + r * (
            1.51986665636164571966e-2 + r * (
            5.47593808499534494600e-4 + r * (
            1.05075007164441684324e-9))))))))
    else:
        r -= 5.0
        tail = (6.65790464350110377720e0 + r * (
            5.46378491116411436990e0 + r * (
            1.78482653991729133580e0 + r * (
            2.96560571828504891230e-1 + r * (
            2.65321895265761230930e-2 + r * (
            1.24266094738807843860e-3 + r * (
            2.71155556874348757815e-5 + r * (
            2.01033439929228813265e-7)))))))) / (1.0 + r * (
            5.99832206555887937690e-1 + r * (
            1.36929880922735805310e-1 + r * (
            1.48753612908506148525e-2 + r * (
            7.86869131145613259100e-4 + r * (
            1.84631831751005468180e-5 + r * (
            1.42151175831644588870e-7 + r * (
            2.04426310338993978564e-15))))))))
    return -sign * (_SQRT_2 * tail)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def cdf(xi: float) -> float:
    """Cumulative similarity kernel; 0 at -inf, 1/2 at 0, 1 at +inf.

    It is 0.5 * erfc(-xi/2) up to 0 and 1 - 0.5 * erfc(xi/2) above, with
    erfc from ``math``.  Absolute error is at or below 1e-15 over the
    whole line, and relative error a few eps at and below 0.
    """
    if _NEG_INF < xi < _INF:
        z = 0.5 * xi
        if z <= 0.0:
            return 0.5 * math.erfc(-z)
        return 1.0 - 0.5 * math.erfc(z)
    if xi != xi:
        raise ValueError("cdf: argument must not be NaN")
    return 1.0 if xi > 0.0 else 0.0


def pdf(xi: float) -> float:
    """Density of the kernel, exp(-xi^2/4) / (2 sqrt(pi)); 0 at +-inf."""
    if _NEG_INF < xi < _INF:
        return PDF_PEAK * math.exp(-0.25 * xi * xi)
    if xi != xi:
        raise ValueError("pdf: argument must not be NaN")
    return 0.0


def log_pdf(xi: float) -> float:
    """Natural log of pdf(xi); finite for every finite xi, -inf at +-inf."""
    if _NEG_INF < xi < _INF:
        return -0.25 * xi * xi - _LOG_2_SQRT_PI
    if xi != xi:
        raise ValueError("log_pdf: argument must not be NaN")
    return _NEG_INF


def log_gap(a: float, b: float) -> float:
    """Natural log of cdf(b) - cdf(a), for a < b (either end may be infinite).

    Straight subtraction of cdf values loses all precision once both
    arguments sit in the same tail.  Beyond +-6 the gap is therefore
    assembled from complementary tails entirely in log space; in the
    central band the difference is arranged so nothing is ever
    subtracted from 1.

    A narrow strip, h = b - a with h * max(1, |m|) <= 0.2 around the
    midpoint m, is never differenced.  Its gap is the density integrated
    about m,

        h pdf(m) (1 + sum over k of He_2k(m/sqrt 2) h^2k / (8^k (2k+1)!)),

    with the probabilists' Hermite polynomials He, summed for k = 1..4
    (relative truncation error below 7.5e-17), so the log is
    log(h) + log_pdf(m) + log1p(series).
    """
    if not a < b:
        if a != a or b != b:
            raise ValueError("log_gap: arguments must not be NaN")
        raise ValueError("log_gap: requires a < b")
    if b <= 0.0:
        # the density is even, so the gap over (a, b) is the gap over (-b, -a)
        a, b = -b, -a
    h = b - a
    if h <= _NARROW:
        m = 0.5 * (a + b)
        w = m * m
        q = h * h
        if q * w <= _NARROW_SQ:
            # the middle term is log_pdf(m)
            return math.log(h) + (-0.25 * w - _LOG_2_SQRT_PI) + math.log1p(
                _narrow_series(q, w))
    # Past the series a strip is wide, and each differenced gap below
    # keeps its sign.  In the tail (a >= 6) the log-tail step is
    # L(z_b) - L(z_a) - (z_b - z_a)(z_b + z_a) with z = x/2 and L the
    # decreasing log erfcx, and (z_b - z_a)(z_b + z_a) = h m / 2 > 0.1.  In
    # the central band (0 <= a < 6) the two erfc values differ by far more
    # than an ulp.  A straddling strip is narrow exactly when h <= 0.2,
    # since |m| <= h/2, so a wide one has a half of at least erf(0.05).
    if a >= _TAIL_SWITCH:
        za = 0.5 * a
        la = _log_erfcx(za)
        # log(1 - cdf(a)); -inf once z_a^2 overflows, past a = 2**513
        upper = _LOG_HALF - za * za + la
        if b == _INF:
            return upper
        zb = 0.5 * b
        return upper + math.log(-math.expm1(_log_erfcx(zb) - la - (zb - za) * (zb + za)))
    if a >= 0.0:
        return math.log(0.5 * (math.erfc(0.5 * a) - math.erfc(0.5 * b)))
    # a < 0 < b: two nonnegative halves, no cancellation
    missing = 0.5 * math.erfc(0.5 * b) + 0.5 * math.erfc(-0.5 * a)  # equals 1 - gap
    if missing < 0.5:
        return math.log1p(-missing)
    return math.log(0.5 * (math.erf(0.5 * b) + math.erf(-0.5 * a)))
