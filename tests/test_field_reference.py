"""FieldElement and valuation against a Fraction-pair reference.

The reference stores a + b*sqrt(D) as two reduced Fractions and computes
valuations from them (p-adic valuations of Fractions, residues of
rationals mod p^k), the way FieldElement did before it moved to integer
coordinates (p + q*sqrt(D)) / den.  Random elements of the test fields
must give the same coordinates, norms, integrality and valuations.
"""
import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from polyheight import quadratic_field, valuation
from polyheight.numutil import vp
from polyheight.valuations import INFINITE, element_support, primes_above

from conftest import ALL_FIELDS

# Q(sqrt(-7)) and Q(sqrt(17)) have D = 1 mod 8, so 2 splits in them.
VALUATION_FIELDS = list(ALL_FIELDS.values()) + [quadratic_field(-7), quadratic_field(17)]
SMALL_PRIMES = {2, 3, 5, 7, 11, 13}


class Ref:
    """a + b*sqrt(D) on two Fractions; D is 0 over Q."""

    def __init__(self, a, b, D):
        self.a, self.b, self.D = F(a), F(b), D

    def pair(self):
        return self.a, self.b

    def __add__(self, o):
        return Ref(self.a + o.a, self.b + o.b, self.D)

    def __sub__(self, o):
        return Ref(self.a - o.a, self.b - o.b, self.D)

    def __mul__(self, o):
        return Ref(self.a * o.a + self.D * self.b * o.b, self.a * o.b + self.b * o.a, self.D)

    def inverse(self):
        if self.D == 0:
            return Ref(1 / self.a, 0, 0)
        n = self.norm()
        return Ref(self.a / n, -self.b / n, self.D)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = Ref(1, 0, self.D)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return Ref(self.a, -self.b, self.D)

    def norm(self):
        return self.a if self.D == 0 else self.a * self.a - self.D * self.b * self.b

    def is_integral(self, half_integer_basis):
        if self.D == 0:
            return self.a.denominator == 1
        if self.a.denominator == 1 and self.b.denominator == 1:
            return True
        if not half_integer_basis:
            return False
        ta, tb = 2 * self.a, 2 * self.b
        return (ta.denominator == 1 and tb.denominator == 1
                and (ta.numerator - tb.numerator) % 2 == 0)


def _rational_mod(q, mod):
    return q.numerator * pow(q.denominator, -1, mod) % mod


def ref_valuation(x, prime):
    """ord_prime of a reference element x, from its Fraction coordinates."""
    a, b = x.a, x.b
    if a == 0 and b == 0:
        return INFINITE
    p = prime.p
    norm = x.norm()
    if prime.kind == "rational":
        return vp(a, p)
    if prime.kind == "ramified":
        return vp(norm, p)
    if prime.kind == "inert":
        return vp(norm, p) // 2
    m = min(vp(c, p) for c in (a, b) if c != 0)
    a, b = a / F(p) ** m, b / F(p) ** m
    level = max(vp(a * a - prime.D * b * b, p) + 1, 3 if p == 2 else 1)
    mod = p ** level
    t = (_rational_mod(a, mod) + _rational_mod(b, mod) * prime.lifted_root(level)) % mod
    return m + vp(t, p)


def coords(field):
    num = st.integers(-2000, 2000)
    den = st.sampled_from([1, 1, 1, 2, 2, 3, 4, 6, 8, 9, 12, 25, 49, 98, 121])
    rational = st.builds(F, num, den)
    return st.tuples(rational, rational if field.degree == 2 else st.just(F(0)))


@st.composite
def element_pairs(draw, fields):
    """Two elements of one field, each with its reference twin."""
    field = draw(st.sampled_from(fields))
    (a1, b1), (a2, b2) = draw(coords(field)), draw(coords(field))
    D = field.D or 0
    return (field.element(a1, b1), Ref(a1, b1, D)), (field.element(a2, b2), Ref(a2, b2, D))


def _canonical(x):
    return (x.den > 0 and math.gcd(x.p, x.q, x.den) == 1
            and (x.a, x.b) == (F(x.p, x.den), F(x.q, x.den)))


@settings(max_examples=300, deadline=None, database=None)
@given(element_pairs(list(ALL_FIELDS.values())), st.integers(-3, 4),
       st.fractions(-5, 5, max_denominator=6))
def test_arithmetic_matches_reference(pair, k, r):
    (x, rx), (y, ry) = pair
    field = x.field
    rr = Ref(r, 0, rx.D)
    results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (x.conj(), rx.conj()),
               (x + r, rx + rr), (r - x, rr - rx), (x * r, rx * rr), (-x, Ref(0, 0, rx.D) - rx)]
    if not y.is_zero():
        results.append((x / y, rx / ry))
    if not x.is_zero() or k >= 0:
        results.append((x ** k, rx ** k))
    for got, want in [(x, rx), (y, ry)] + results:
        assert _canonical(got)
        assert (got.a, got.b) == want.pair()
    assert x.norm() == rx.norm()
    assert x.is_integral() == rx.is_integral(field.half_integer_basis)
    assert (x == y) == (rx.pair() == ry.pair())
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None, database=None)
@given(element_pairs(VALUATION_FIELDS))
def test_valuation_matches_reference(pair):
    for x, rx in pair:
        for pr in primes_above(SMALL_PRIMES | element_support(x), x.field):
            assert valuation(x, pr) == ref_valuation(rx, pr)


@settings(max_examples=200, deadline=None, database=None)
@given(element_pairs(VALUATION_FIELDS))
def test_valuation_is_a_valuation(pair):
    (x, _), (y, _) = pair
    for pr in primes_above(SMALL_PRIMES, x.field):
        vx, vy = valuation(x, pr), valuation(y, pr)
        assert valuation(x * y, pr) == vx + vy
        assert valuation(x + y, pr) >= min(vx, vy)


def test_reference_primes_cover_every_kind():
    kinds = {(f.D, pr.p, pr.kind) for f in VALUATION_FIELDS
             for pr in primes_above(SMALL_PRIMES, f)}
    assert {k for _, _, k in kinds} == {"rational", "split", "inert", "ramified"}
    assert (-7, 2, "split") in kinds and (17, 2, "split") in kinds
