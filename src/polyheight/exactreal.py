"""Exact nonnegative reals of the form sqrt(u + v*sqrt(D)).

Archimedean Gauss-norm products over Q and quadratic fields always take
this shape (for imaginary fields the inner part is rational), so height
and Mahler comparisons can be decided exactly instead of by enclosure
overlap.  Values are closed under multiplication, division and integer
powers; comparison reduces to sign tests of quadratic surds.

The radicand is stored as (p + q*sqrt(D)) / den on Python integers in
lowest terms, like ``FieldElement``, so arithmetic and comparison run on
integers; the rational coordinates u, v are read-only views for display.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .intervals import DEFAULT_PREC, RealInterval, ri
from .numutil import power, rational_sqrt, surd_sign


def _raw(p: int, q: int, den: int, D: int | None) -> "SqrtValue":
    """sqrt((p + q sqrt(D)) / den) for den > 0 and a nonnegative radicand,
    reduced to lowest terms, without the sign check."""
    if q == 0:
        D = None
    if den != 1 and (g := math.gcd(p, q, den)) != 1:
        p, q, den = p // g, q // g, den // g
    x = object.__new__(SqrtValue)
    x.p, x.q, x.den, x.D = p, q, den, D
    return x


class SqrtValue:
    """sqrt((p + q*sqrt(D)) / den) with integers den > 0 and
    gcd(p, q, den) = 1; q = 0 and D = None for a rational radicand."""

    __slots__ = ("p", "q", "den", "D")

    def __init__(self, u, v=0, D: int | None = None):
        u, v = Fraction(u), Fraction(v)
        if v != 0 and (D is None or D <= 1):
            raise ValueError("inner sqrt(D) requires D > 1")
        den = math.lcm(u.denominator, v.denominator)   # so gcd(p, q, den) = 1
        p = u.numerator * (den // u.denominator)
        q = v.numerator * (den // v.denominator)
        if surd_sign(p, q, D) < 0:
            raise ValueError(f"negative square: {u} + {v}*sqrt({D})")
        self.p, self.q, self.den = p, q, den
        self.D = D if q else None

    @property
    def u(self) -> Fraction:
        """The rational part p / den of the radicand."""
        return Fraction(self.p, self.den)

    @property
    def v(self) -> Fraction:
        """The sqrt(D) coefficient q / den of the radicand."""
        return Fraction(self.q, self.den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def of_rational(cls, q) -> "SqrtValue":
        """The exact value |q| as a SqrtValue."""
        if isinstance(q, int):
            return _raw(q * q, 0, 1, None)
        q = Fraction(q)   # n/d in lowest terms, so n^2/d^2 is too
        return _raw(q.numerator ** 2, 0, q.denominator ** 2, None)

    @classmethod
    def sqrt_of_rational(cls, q) -> "SqrtValue":
        return cls(q)

    @classmethod
    def abs_sigma1(cls, x) -> "SqrtValue":
        """|sigma_1(x)| for a field element x."""
        fld = x.field
        den2 = x.den * x.den
        if fld.is_rational:
            return _raw(x.p * x.p, 0, den2, None)
        if fld.is_imaginary:
            return _raw(x.scaled_norm(), 0, den2, None)  # |sigma(x)|^2 = N(x) >= 0
        # sigma_1(x)^2 = (p^2 + D q^2 + 2 p q sqrt(D)) / den^2
        return _raw(x.p * x.p + fld.D * x.q * x.q, 2 * x.p * x.q, den2, fld.D)

    @classmethod
    def one(cls) -> "SqrtValue":
        return _raw(1, 0, 1, None)

    # -- algebra ----------------------------------------------------------

    def _coerce(self, other) -> "SqrtValue":
        if isinstance(other, SqrtValue):
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtValue.of_rational(other)
        raise TypeError(f"cannot compare or combine SqrtValue with {type(other)}")

    def _merge_D(self, other: "SqrtValue") -> int | None:
        if self.D is None:
            return other.D
        if other.D is None or other.D == self.D:
            return self.D
        raise ValueError("incompatible sqrt(D) parts")

    def __mul__(self, other):
        o = self._coerce(other)
        D = self._merge_D(o)
        if D is None:
            return _raw(self.p * o.p, 0, self.den * o.den, None)
        p, q = self.p, self.q
        return _raw(p * o.p + D * q * o.q, p * o.q + q * o.p, self.den * o.den, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError
        D = self._merge_D(o)
        if D is None:
            return _raw(self.p * o.den, 0, self.den * o.p, None)
        # (p + q r) / (o.p + o.q r) = (p + q r)(o.p - o.q r) / (o.p^2 - D o.q^2)
        p, q = self.p, self.q
        n = self.den * (o.p * o.p - D * o.q * o.q)
        s = 1 if n > 0 else -1
        return _raw(s * o.den * (p * o.p - D * q * o.q),
                    s * o.den * (q * o.p - p * o.q), s * n, D)

    def __pow__(self, k: int) -> "SqrtValue":
        if k < 0:
            return SqrtValue.one() / self ** (-k)
        return power(self, k, SqrtValue.one())

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_one(self) -> bool:
        return self.p == 1 and self.q == 0 and self.den == 1

    # -- comparison ---------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison (values are nonnegative reals)."""
        o = self._coerce(other)
        D = self._merge_D(o)
        # sqrt is increasing, so compare the radicands over den * o.den > 0
        return surd_sign(self.p * o.den - o.p * self.den,
                         self.q * o.den - o.q * self.den, D)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SqrtValue, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.den, self.D))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- conversions ----------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """Exact rational value if the value is rational, else None."""
        if self.q != 0:
            return None
        return rational_sqrt(self.u)

    def to_interval(self, prec: int = DEFAULT_PREC) -> RealInterval:
        inner = RealInterval.from_fraction(self.u, prec)
        if self.D is not None:
            inner = inner + RealInterval.from_fraction(self.v, prec) * ri(self.D, prec).sqrt()
        if inner.lo < 0:
            # directed rounding may dip below an exact zero boundary
            inner = RealInterval.hull(0, inner.hi, prec)
        return inner.sqrt()

    def __float__(self) -> float:
        return self.to_interval(64).mid

    def __repr__(self) -> str:
        if self.D is None:
            return f"SqrtValue(sqrt({self.u}))"
        return f"SqrtValue(sqrt({self.u} + {self.v}*sqrt({self.D})))"
