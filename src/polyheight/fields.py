"""Exact arithmetic in Q and quadratic fields Q(sqrt(D)).

An element is stored as (p + q*sqrt(D)) / den with integers p, q and
den in lowest terms, so arithmetic runs on integers and takes a gcd only
when den != 1; all operations are pure and exact.  Complex embeddings
are returned as directed-rounded boxes at a requested precision.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .intervals import DEFAULT_PREC, ComplexBox, RealInterval, ri
from .numutil import is_squarefree, power, surd_sign

# |D| budget: is_squarefree factors D, and Pollard rho splits a balanced
# semiprime near 10^18 in under 0.05 s (about 0.3 s near 10^20)
_MAX_ABS_D = 10 ** 18

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
        return _reduced(1, 0, 1, self)

    def zero(self) -> "FieldElement":
        return _reduced(0, 0, 1, self)

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
    if abs(D) > _MAX_ABS_D:
        raise ValueError("|D| exceeds the budget of 10^18")
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
    """(p + q*sqrt(D)) / den with integers den > 0 and gcd(p, q, den) = 1,
    so equal elements have equal coordinates; q is 0 over Q."""

    __slots__ = ("p", "q", "den", "field")

    def __init__(self, a, b, field: Field):
        a, b = Fraction(a), Fraction(b)
        if field.is_rational and b != 0:
            raise ValueError("rational field elements have no sqrt part")
        den = math.lcm(a.denominator, b.denominator)   # so gcd(p, q, den) = 1
        self.p = a.numerator * (den // a.denominator)
        self.q = b.numerator * (den // b.denominator)
        self.den = den
        self.field = field

    @property
    def a(self) -> Fraction:
        """The rational coordinate p / den."""
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        """The sqrt(D) coordinate q / den."""
        return Fraction(self.q, self.den)

    # -- basics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (self.p == other.p and self.q == other.q and self.den == other.den
                    and self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a rational element hashes like its value, since it compares equal to it
        if self.q == 0:
            return hash(self.p) if self.den == 1 else hash(Fraction(self.p, self.den))
        return hash((self.p, self.q, self.den, self.field.D))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _reduced(other.numerator, 0, other.denominator, self.field)
        raise TypeError(f"cannot coerce {type(other)} into {self.field}")

    def __add__(self, other):
        o = self._coerce(other)
        if self.den == o.den:
            return _reduced(self.p + o.p, self.q + o.q, self.den, self.field)
        return _reduced(self.p * o.den + o.p * self.den, self.q * o.den + o.q * self.den,
                        self.den * o.den, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _reduced(-self.p, -self.q, self.den, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        p, q = self.p, self.q
        pp = p * o.p if q == 0 or o.q == 0 else p * o.p + self.field.D * q * o.q
        return _reduced(pp, p * o.q + q * o.p, self.den * o.den, self.field)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.q == 0:   # den / p is in lowest terms
            s = 1 if self.p > 0 else -1
            return _reduced(s * self.den, 0, abs(self.p), self.field)
        # 1/x = den * (p - q sqrt(D)) / (p^2 - D q^2)
        n = self.scaled_norm()
        s = 1 if n > 0 else -1
        return _reduced(s * self.den * self.p, -s * self.den * self.q, abs(n), self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def conj(self) -> "FieldElement":
        return _reduced(self.p, -self.q, self.den, self.field)

    def scaled_norm(self) -> int:
        """den^d N(x) for a field of degree d: p^2 - D q^2, or p over Q."""
        if self.field.is_rational:
            return self.p
        return self.p * self.p - self.field.D * self.q * self.q

    def norm(self) -> Fraction:
        """Field norm: a^2 - D b^2 (just the element itself over Q)."""
        return Fraction(self.scaled_norm(), self.den ** self.field.degree)

    def trace(self) -> Fraction:
        return Fraction(self.field.degree * self.p, self.den)

    def abs_norm(self) -> Fraction:
        return abs(self.norm())

    def is_integral(self) -> bool:
        """Membership in the ring of integers O_K."""
        if self.den == 1:
            return True
        # (p + q sqrt(D))/2 with p, q odd, for D = 1 mod 4
        return (self.den == 2 and self.field.half_integer_basis
                and self.p % 2 == 1 and self.q % 2 == 1)

    # -- real-embedding signs (exact, D > 0 or rational) -----------------

    def sign_sigma1(self) -> int:
        """Exact sign of the image under the first real embedding."""
        if self.field.is_imaginary:
            raise ValueError("no real embedding")
        return surd_sign(self.p, self.q, self.field.D)

    # -- embeddings -------------------------------------------------------

    def embeddings(self, prec: int = DEFAULT_PREC) -> list[ComplexBox]:
        """The d complex embeddings as boxes (conjugate pair for d = 2)."""
        a, zero = RealInterval.from_fraction(self.a, prec), ri(0, prec)
        if self.field.is_rational:
            return [ComplexBox(a, zero)]
        b_rootD = RealInterval.from_fraction(self.b, prec) * ri(abs(self.field.D), prec).sqrt()
        if self.field.D > 0:
            return [ComplexBox(a + b_rootD, zero), ComplexBox(a - b_rootD, zero)]
        return [ComplexBox(a, b_rootD), ComplexBox(a, -b_rootD)]

    def __repr__(self) -> str:
        return f"FieldElement({self.a}, {self.b}, {self.field})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        D = self.field.D
        if a == 0:
            return f"{b}*sqrt({D})"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {abs(b)}*sqrt({D})"


def _reduced(p: int, q: int, den: int, field: Field) -> FieldElement:
    """(p + q sqrt(D)) / den for den > 0, in canonical form."""
    if den != 1 and (g := math.gcd(p, q, den)) != 1:
        p, q, den = p // g, q // g, den // g
    x = object.__new__(FieldElement)
    x.p, x.q, x.den, x.field = p, q, den, field
    return x


def embed(x: FieldElement, field: Field | None = None, prec: int = DEFAULT_PREC) -> list[ComplexBox]:
    """Embedding boxes of x; field must agree with x.field when given."""
    if field is not None and field != x.field:
        raise ValueError("field mismatch")
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
