"""Exact symmetries of one point's energy, gradient and Hessian.

Changing units by powers of two, and mirroring the problem, map the
energy onto itself exactly; point evaluation keeps these identities bit
for bit, so any regrouping of its floating-point operations that breaks
one shows up here.  Each example draws a seed, a size n = 1..8 and a
spec family, and builds the spec and point from the seed.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from stefan import ProblemSpec
from stefan.energy import _Point

from helpers import random_coercive_spec, random_convex_spec, random_fronts

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)
points = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from([random_coercive_spec, random_convex_spec]),
)


def _draw(seed, n, family):
    rng = np.random.default_rng(seed)
    spec = family(rng, n)
    return spec, list(random_fronts(rng, n))


def _spec(spec, u=1.0, a=1.0, k=1.0, d=1.0):
    return ProblemSpec(
        u=[u * v for v in spec.u],
        a=[a * v for v in spec.a],
        k=[k * v for v in spec.k],
        d=[d * v for v in spec.d],
    )


def _bits(values, factor=1.0):
    return [(factor * v).hex() for v in values]


def _same(got, want, factor=1.0):
    """got's energy, gradient and both bands against factor * want's."""
    assert got.energy.hex() == (factor * want.energy).hex()
    assert _bits(got.gradient()) == _bits(want.gradient(), factor)
    for band, ref in zip(got.bands(), want.bands()):
        assert _bits(band) == _bits(ref, factor)


@EXAMPLES
@given(points)
def test_scaling_conductivities_and_capacities_scales_everything(drawn):
    spec, xi = _draw(*drawn)
    _same(_Point(_spec(spec, k=8.0, d=8.0), xi), _Point(spec, xi), 8.0)


@EXAMPLES
@given(points)
def test_scaling_the_similarity_variable_keeps_the_energy(drawn):
    # (a, d, xi) -> (2a, d/4, 2xi): the same E, g/2 and Hessian/4
    spec, xi = _draw(*drawn)
    got = _Point(_spec(spec, a=2.0, d=0.25), [2.0 * v for v in xi])
    want = _Point(spec, xi)
    assert got.energy.hex() == want.energy.hex()
    assert _bits(got.gradient()) == _bits(want.gradient(), 0.5)
    for band, ref in zip(got.bands(), want.bands()):
        assert _bits(band) == _bits(ref, 0.25)


@EXAMPLES
@given(points)
def test_trading_temperature_for_conductivity_changes_nothing(drawn):
    spec, xi = _draw(*drawn)
    _same(_Point(_spec(spec, u=2.0, k=0.5), xi), _Point(spec, xi))


@EXAMPLES
@given(points)
def test_the_mirror_keeps_the_energy(drawn):
    spec, xi = _draw(*drawn)
    mirror = ProblemSpec(
        u=[-v for v in reversed(spec.u)],
        a=spec.a[::-1],
        k=spec.k[::-1],
        d=spec.d[::-1],
    )
    got = _Point(mirror, [-v for v in reversed(xi)])
    assert got.energy.hex() == _Point(spec, xi).energy.hex()
