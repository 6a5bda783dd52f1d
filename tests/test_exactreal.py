from fractions import Fraction as F

import pytest

from polyheight import SqrtValue, quadratic_field, rationals


def test_rational_roundtrip():
    v = SqrtValue.of_rational(F(3, 2))
    assert v.as_rational() == F(3, 2)
    assert v.compare(F(3, 2)) == 0
    assert SqrtValue.of_rational(-5).as_rational() == 5  # absolute value


def test_sqrt_of_rational():
    r2 = SqrtValue.sqrt_of_rational(2)
    assert r2.as_rational() is None
    assert r2 * r2 == 2
    assert (r2 ** 4).as_rational() == 4
    assert abs(float(r2) - 2 ** 0.5) < 1e-12


def test_comparisons_exact():
    r2 = SqrtValue.sqrt_of_rational(2)
    assert r2 > F(7, 5) and r2 < F(3, 2)
    assert SqrtValue.sqrt_of_rational(F(1, 3)) < 1
    # sqrt(2)*sqrt(8) == 4 exactly
    assert SqrtValue.sqrt_of_rational(2) * SqrtValue.sqrt_of_rational(8) == 4


def test_abs_sigma1():
    qi = quadratic_field(-1)
    v = SqrtValue.abs_sigma1(qi.element(1, 1))
    assert v * v == 2   # |1+i|^2
    q5 = quadratic_field(5)
    gold = q5.element(F(1, 2), F(1, 2))
    g = SqrtValue.abs_sigma1(gold)
    assert abs(float(g) - 1.618033988749895) < 1e-12
    conj = SqrtValue.abs_sigma1(gold.conj())
    assert g * conj == 1   # |N| = 1
    assert SqrtValue.abs_sigma1(rationals().element(F(-7, 3))).as_rational() == F(7, 3)


def test_division_and_pow():
    q5 = quadratic_field(5)
    g = SqrtValue.abs_sigma1(q5.element(F(1, 2), F(1, 2)))
    assert (g ** 2 / g).compare(g) == 0
    assert (g / g).is_one()
    assert g ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        g / SqrtValue.of_rational(0)


def test_interval_view():
    g = SqrtValue(F(3, 2), F(1, 2), 5)   # golden ratio
    iv = g.to_interval(128)
    assert iv.width < 1e-30
    assert abs(iv.mid - 1.618033988749895) < 1e-12


def test_negative_square_rejected():
    with pytest.raises(ValueError):
        SqrtValue(F(-1))
    with pytest.raises(ValueError):
        SqrtValue(F(1), F(-1), 5)   # 1 - sqrt5 < 0


def test_incompatible_fields():
    a = SqrtValue(F(1), F(1), 5)
    b = SqrtValue(F(1), F(1), 2)
    with pytest.raises(ValueError):
        a * b



# -- the integer radicand against the Fraction reference ------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import FractionSqrtValue  # noqa: E402
from polyheight.numutil import surd_sign  # noqa: E402

_fracs = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60))


@st.composite
def _radicands(draw):
    """Two nonnegative radicands (u, v) over one D in {None, 2, 5, 17};
    either may be rational."""
    D = draw(st.sampled_from([None, 2, 5, 17]))
    out = []
    for _ in range(2):
        u = draw(_fracs)
        v = F(0) if D is None or draw(st.booleans()) else draw(_fracs)
        if surd_sign(u, v, D) < 0:
            u, v = -u, -v
        out.append((u, v))
    return D, out


def _same(x: SqrtValue, ref: FractionSqrtValue):
    assert all(type(getattr(x, s)) is int for s in ("p", "q", "den"))
    assert x.den > 0
    assert (x.u, x.v, x.D) == (ref.u, ref.v, ref.D)
    assert x.is_one() == ref.is_one() and x.is_zero() == ref.is_zero()
    assert x.as_rational() == ref.as_rational()
    iv, ref_iv = x.to_interval(128), ref.to_interval(128)
    assert (iv.lo, iv.hi) == (ref_iv.lo, ref_iv.hi)


@settings(max_examples=300, deadline=None)
@given(_radicands(), st.integers(-3, 4), _fracs)
def test_integer_radicand_matches_fraction_reference(radicands, k, q):
    D, ((u1, v1), (u2, v2)) = radicands
    a, b = SqrtValue(u1, v1, D), SqrtValue(u2, v2, D)
    ra, rb = FractionSqrtValue(u1, v1, D), FractionSqrtValue(u2, v2, D)
    _same(a, ra)
    assert a.compare(b) == ra.compare(rb)
    assert a.compare(q) == ra.compare(q)
    _same(a * b, ra * rb)
    _same(a * q, ra * q)
    if not rb.is_zero():
        _same(a / b, ra / rb)
    if q:
        _same(a / q, ra / q)
    if k >= 0 or not ra.is_zero():
        _same(a ** k, ra ** k)


def test_radicand_in_lowest_terms():
    x = SqrtValue(F(2, 4), F(6, 4), 5)
    assert (x.p, x.q, x.den) == (1, 3, 2)
    y = SqrtValue.sqrt_of_rational(F(6, 4)) * SqrtValue.sqrt_of_rational(F(2, 3))
    assert (y.p, y.q, y.den) == (1, 0, 1) and y.is_one()
