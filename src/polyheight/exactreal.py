"""Exact nonnegative reals of the form sqrt(u + v*sqrt(D)).

Archimedean Gauss-norm products over Q and quadratic fields always take
this shape (for imaginary fields the inner part is rational), so height
and Mahler comparisons can be decided exactly instead of by enclosure
overlap.  Values are closed under multiplication, division and integer
powers; comparison reduces to sign tests of quadratic surds.
"""
from __future__ import annotations

from fractions import Fraction

from .intervals import DEFAULT_PREC, RealInterval, ri, working_precision
from .numutil import power, rational_sqrt, surd_sign


class SqrtValue:
    """sqrt(u + v*sqrt(D)) with u, v rational; v = 0 when D is None."""

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v=0, D: int | None = None):
        self.u = u if isinstance(u, Fraction) else Fraction(u)
        self.v = v if isinstance(v, Fraction) else Fraction(v)
        if self.v == 0:
            D = None
        self.D = D
        if D is not None and D <= 1:
            raise ValueError("inner sqrt(D) requires D > 1")
        if self._inner_sign() < 0:
            raise ValueError(f"negative square: {self.u} + {self.v}*sqrt({D})")

    def _inner_sign(self) -> int:
        if self.D is None:
            return (self.u > 0) - (self.u < 0)
        return surd_sign(self.u, self.v, self.D)

    # -- constructors ---------------------------------------------------

    @classmethod
    def of_rational(cls, q) -> "SqrtValue":
        """The exact value |q| as a SqrtValue."""
        q = q if isinstance(q, Fraction) else Fraction(q)
        return cls(q * q)

    @classmethod
    def sqrt_of_rational(cls, q) -> "SqrtValue":
        return cls(q)

    @classmethod
    def abs_sigma1(cls, x) -> "SqrtValue":
        """|sigma_1(x)| for a field element x."""
        fld = x.field
        if fld.is_rational:
            return cls.of_rational(abs(x.a))
        if fld.is_imaginary:
            return cls(x.norm())  # |sigma(x)|^2 = N(x) >= 0
        sq = x * x
        return cls(sq.a, sq.b, fld.D)

    @classmethod
    def one(cls) -> "SqrtValue":
        return cls(Fraction(1))

    # -- algebra ----------------------------------------------------------

    def _merge_D(self, other: "SqrtValue") -> int | None:
        if self.D is None:
            return other.D
        if other.D is None or other.D == self.D:
            return self.D
        raise ValueError("incompatible sqrt(D) parts")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtValue.of_rational(other)
        D = self._merge_D(other)
        if D is None:
            return SqrtValue(self.u * other.u)
        u = self.u * other.u + D * self.v * other.v
        v = self.u * other.v + self.v * other.u
        return SqrtValue(u, v, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtValue.of_rational(other)
        if other.is_zero():
            raise ZeroDivisionError
        D = self._merge_D(other)
        if D is None:
            return SqrtValue(self.u / other.u)
        den = other.u * other.u - D * other.v * other.v
        u = (self.u * other.u - D * self.v * other.v) / den
        v = (self.v * other.u - self.u * other.v) / den
        return SqrtValue(u, v, D)

    def __pow__(self, k: int) -> "SqrtValue":
        if k < 0:
            return SqrtValue.one() / self ** (-k)
        return power(self, k, SqrtValue.one())

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_one(self) -> bool:
        return self.u == 1 and self.v == 0

    # -- comparison ---------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison (values are nonnegative reals)."""
        if isinstance(other, (int, Fraction)):
            other = SqrtValue.of_rational(other)
        D = self._merge_D(other)
        du, dv = self.u - other.u, self.v - other.v
        if D is None:
            return (du > 0) - (du < 0)
        return surd_sign(du, dv, D)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SqrtValue, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.D))

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
        if self.v != 0:
            return None
        return rational_sqrt(self.u)

    def to_interval(self, prec: int = DEFAULT_PREC) -> RealInterval:
        with working_precision(prec):
            inner = RealInterval.from_fraction(self.u)
            if self.D is not None:
                inner = inner + RealInterval.from_fraction(self.v) * ri(self.D).sqrt()
            if inner.lo < 0:
                # directed rounding may dip below an exact zero boundary
                inner = RealInterval.hull(0, inner.hi)
            return inner.sqrt()

    def __float__(self) -> float:
        return self.to_interval(64).mid

    def __repr__(self) -> str:
        if self.D is None:
            return f"SqrtValue(sqrt({self.u}))"
        return f"SqrtValue(sqrt({self.u} + {self.v}*sqrt({self.D})))"
