"""Exact arithmetic in Q and quadratic fields Q(sqrt(D)).

Elements are stored on the Q-basis {1, sqrt(D)} with reduced fractions;
all operations are pure and exact.  Complex embeddings are returned as
directed-rounded boxes at a requested precision.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv

from .intervals import DEFAULT_PREC, ComplexBox, RealInterval, ri, working_precision
from .numutil import is_squarefree, power, surd_sign

_FIELD_RE = re.compile(r"^\s*Q\s*(?:\(\s*sqrt\s*\(\s*(-?\d+)\s*\)\s*\))?\s*$")


@dataclass(frozen=True)
class Field:
    """A base field: the rationals or a quadratic field Q(sqrt(D))."""

    kind: str                 # "rationals" | "quadratic"
    D: int | None             # squarefree, quadratic only
    degree: int               # 1 or 2
    unity_order: int          # number of roots of unity contained (2, 4 or 6)
    half_integer_basis: bool  # integral basis contains (1+sqrt(D))/2
    disc: int                 # field discriminant

    def __post_init__(self):
        if self.kind == "quadratic":
            assert self.D is not None and self.degree == 2
        else:
            assert self.degree == 1

    @property
    def is_rational(self) -> bool:
        return self.kind == "rationals"

    @property
    def is_imaginary(self) -> bool:
        return self.kind == "quadratic" and self.D < 0

    @property
    def is_totally_real(self) -> bool:
        return self.kind == "rationals" or self.D > 0

    def one(self) -> "FieldElement":
        return FieldElement(1, 0, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, 0, self)

    def element(self, a, b=0) -> "FieldElement":
        return FieldElement(a, b, self)

    def descriptor(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt({self.D}))"

    def __str__(self) -> str:
        return self.descriptor()


def rationals() -> Field:
    return Field("rationals", None, 1, 2, False, 1)


def quadratic_field(D: int) -> Field:
    if D in (0, 1):
        raise ValueError(f"D={D} does not define a quadratic field")
    if not is_squarefree(D):
        raise ValueError(f"D={D} is not squarefree")
    w = {-1: 4, -3: 6}.get(D, 2)
    half = D % 4 == 1
    disc = D if half else 4 * D
    return Field("quadratic", D, 2, w, half, disc)


def make_field(spec: str | Field) -> Field:
    """Parse a field descriptor: "Q" or "Q(sqrt(D))" with integer D."""
    if isinstance(spec, Field):
        return spec
    m = _FIELD_RE.match(spec)
    if not m:
        raise ValueError(f"unrecognized field descriptor: {spec!r}")
    if m.group(1) is None:
        return rationals()
    return quadratic_field(int(m.group(1)))


class FieldElement:
    """a + b*sqrt(D), exact.  b is 0 over the rationals."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b, field: Field):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.field = field
        if field.is_rational and self.b != 0:
            raise ValueError("rational field elements have no sqrt part")

    # -- basics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.a == other.a and self.b == other.b and self.field == other.field
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.field.D))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(other, 0, self.field)
        raise TypeError(f"cannot coerce {type(other)} into {self.field}")

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.a + o.a, self.b + o.b, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.a - o.a, self.b - o.b, self.field)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FieldElement(-self.a, -self.b, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        D = self.field.D or 0
        return FieldElement(self.a * o.a + D * self.b * o.b,
                            self.a * o.b + self.b * o.a, self.field)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.field.is_rational:
            return FieldElement(1 / self.a, 0, self.field)
        n = self.norm()
        return FieldElement(self.a / n, -self.b / n, self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def conj(self) -> "FieldElement":
        return FieldElement(self.a, -self.b, self.field)

    def norm(self) -> Fraction:
        """Field norm: a^2 - D b^2 (just the element itself over Q)."""
        if self.field.is_rational:
            return self.a
        return self.a * self.a - self.field.D * self.b * self.b

    def trace(self) -> Fraction:
        if self.field.is_rational:
            return self.a
        return 2 * self.a

    def abs_norm(self) -> Fraction:
        return abs(self.norm())

    def is_integral(self) -> bool:
        """Membership in the ring of integers O_K."""
        if self.field.is_rational:
            return self.a.denominator == 1
        if self.a.denominator == 1 and self.b.denominator == 1:
            return True
        if not self.field.half_integer_basis:
            return False
        ta, tb = 2 * self.a, 2 * self.b
        return (ta.denominator == 1 and tb.denominator == 1
                and (ta.numerator - tb.numerator) % 2 == 0)

    # -- real-embedding signs (exact, D > 0 or rational) -----------------

    def sign_sigma1(self) -> int:
        """Exact sign of the image under the first real embedding."""
        if self.field.is_imaginary:
            raise ValueError("no real embedding")
        return surd_sign(self.a, self.b, self.field.D)

    # -- embeddings -------------------------------------------------------

    def embeddings(self, prec: int = DEFAULT_PREC) -> list[ComplexBox]:
        """The d complex embeddings as boxes (conjugate pair for d = 2)."""
        with working_precision(prec):
            a = RealInterval.from_fraction(self.a)
            if self.field.is_rational:
                return [ComplexBox(a._v, iv.mpf(0))]
            b = RealInterval.from_fraction(self.b)
            rootD = ri(abs(self.field.D)).sqrt()
            if self.field.D > 0:
                return [ComplexBox((a + b * rootD)._v, iv.mpf(0)),
                        ComplexBox((a - b * rootD)._v, iv.mpf(0))]
            return [ComplexBox(a._v, (b * rootD)._v),
                    ComplexBox(a._v, (-b * rootD)._v)]

    def __repr__(self) -> str:
        return f"FieldElement({self.a}, {self.b}, {self.field})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        D = self.field.D
        if self.a == 0:
            return f"{self.b}*sqrt({D})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({D})"


def embed(x: FieldElement, field: Field | None = None, prec: int = DEFAULT_PREC) -> list[ComplexBox]:
    """Embedding boxes of x; field must agree with x.field when given."""
    if field is not None and field != x.field:
        raise ValueError("field mismatch")
    if prec < 32:
        raise ValueError("precision must be at least 32 bits")
    return x.embeddings(prec)


def roots_of_unity(field: Field) -> list[FieldElement]:
    """All roots of unity contained in the field (w of them)."""
    one = field.one()
    if field.unity_order == 2:
        return [one, -one]
    if field.unity_order == 4:
        i = field.element(0, 1)
        return [one, i, -one, -i]
    zeta = field.element(Fraction(1, 2), Fraction(1, 2))  # primitive 6th root
    out = [one]
    cur = zeta
    while cur != one:
        out.append(cur)
        cur = cur * zeta
    return out
