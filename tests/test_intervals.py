"""RealInterval against mpmath's interval context as the reference.

RealInterval runs the same libmpi kernels as ``mpmath.iv``, at its own
precision instead of ``iv.prec``, so every endpoint must agree exactly
with ``mpmath.iv`` run at that precision.  Fractions enter ``iv`` as the
quotient of their numerator's and denominator's intervals.
"""
from contextlib import contextmanager
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from polyheight.intervals import RealInterval, ri

PRECS = [53, 256, 1000]

ints = st.one_of(st.integers(-10, 10), st.integers(-10 ** 400, 10 ** 400),
                 st.integers(2 ** 1100, 2 ** 1100 + 2 ** 80))
fracs = st.builds(F, ints, st.one_of(st.integers(1, 10), st.integers(1, 10 ** 400)))
scalars = st.one_of(ints, fracs)


@contextmanager
def _iv_at(bits):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _iv(x):
    if isinstance(x, F):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _pair(v) -> tuple:
    return v._mpi_ if hasattr(v, "_mpi_") else v._v


def _interval(x, y, prec):
    """The hull of scalars x, y at prec, built both ways."""
    lo, hi = sorted((x, y))
    return RealInterval.hull(lo, hi, prec), iv.mpf([_iv(lo).a, _iv(hi).b])


@pytest.mark.parametrize("prec", PRECS)
@settings(max_examples=60, deadline=None)
@given(x=scalars, y=scalars, z=scalars, w=scalars, k=st.integers(0, 6))
def test_endpoints_equal_mpmath_iv(prec, x, y, z, w, k):
    with _iv_at(prec):
        assert ri(x, prec)._v == _pair(_iv(x))
        a, va = _interval(x, y, prec)
        b, vb = _interval(z, w, prec)
        for got, want in [
                (a + b, va + vb), (a - b, va - vb), (a * b, va * vb), (a / b, va / vb),
                (a + z, va + _iv(z)), (z - a, _iv(z) - va), (a * z, va * _iv(z)),
                (a / z, va / _iv(z)), (z / a, _iv(z) / va),
                (-a, -va), (a ** k, va ** k), (abs(a), abs(va)),
                (abs(a).sqrt(), iv.sqrt(abs(va))),
                ((abs(a) + 1).log(), iv.log(abs(va) + 1))]:
            assert got._v == _pair(want)
            assert got.prec == prec
        top = iv.mpf([max(va.a, vb.a), max(va.b, vb.b)])
        assert a.maximum(b)._v == _pair(top)
        top = iv.mpf([max(va.a, _iv(z).a), max(va.b, _iv(z).b)])
        assert a.maximum(z)._v == _pair(top)
        if _iv(z).a <= va.b:
            assert a.clamp_below(z)._v == _pair(iv.mpf([max(va.a, _iv(z).a), va.b]))
        else:
            with pytest.raises(ValueError):
                a.clamp_below(z)


@settings(max_examples=60, deadline=None)
@given(x=scalars, y=scalars, prec=st.sampled_from(PRECS))
def test_width_and_mid_equal_mpmath_iv_at_53_bits(x, y, prec):
    with _iv_at(prec):
        a, va = _interval(x, y, prec)
    with _iv_at(53), mpmath.workprec(53):
        assert a.width == float(mpmath.mpf(va.delta))
        assert a.mid == float(mpmath.mpf(va.mid))


@settings(max_examples=60, deadline=None)
@given(x=scalars, y=scalars, q=scalars)
def test_membership_is_exact(x, y, q):
    a, _ = _interval(x, y, 256)
    lo, hi = (F(*mpmath.libmp.to_rational(e)) for e in a._v)
    assert (q in a) == (lo <= q <= hi)


def test_mixed_precisions_take_the_larger():
    coarse, fine = ri(F(1, 3), 64), ri(F(1, 3), 512)
    with _iv_at(512):
        want = iv.mpf([coarse.lo, coarse.hi]) + _iv(F(1, 3))
    got = coarse + fine
    assert got.prec == 512 and got._v == _pair(want)
