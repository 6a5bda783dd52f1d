"""Polynomials over the supported fields, split polynomials, and
integer-polynomial helpers (exact convolution powering, content).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .fields import Field, FieldElement, rationals
from .numutil import power


class PolyOverK:
    """A nonzero polynomial with coefficients in a field.

    Coefficients are degree-indexed (a_0 ... a_n) with a_n != 0.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: Sequence[FieldElement], field: Field):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            raise ValueError("zero polynomial")
        self.coeffs = tuple(cs)
        self.field = field

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> FieldElement:
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyOverK) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field.D))

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "PolyOverK") -> "PolyOverK":
        out = [self.field.zero()] * (self.degree + other.degree + 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return PolyOverK(out, self.field)

    def __pow__(self, k: int) -> "PolyOverK":
        return power(self, k, PolyOverK([self.field.one()], self.field))

    def scale(self, c: FieldElement) -> "PolyOverK":
        return PolyOverK([ci * c for ci in self.coeffs], self.field)

    def derivative(self) -> "PolyOverK":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return PolyOverK([self.coeffs[i] * i for i in range(1, len(self.coeffs))],
                         self.field)

    def monic(self) -> "PolyOverK":
        inv = self.lead.inverse()
        return self.scale(inv)

    def divmod(self, other: "PolyOverK") -> tuple["PolyOverK | None", "PolyOverK | None"]:
        """Euclidean division; quotient/remainder are None when zero."""
        zero = self.field.zero()
        rem = list(self.coeffs)
        q = [zero] * max(0, self.degree - other.degree + 1)
        inv = other.lead.inverse()
        for i in range(len(rem) - 1, other.degree - 1, -1):
            if rem[i].is_zero():
                continue
            f = rem[i] * inv
            q[i - other.degree] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - other.degree + j] = rem[i - other.degree + j] - f * oc
        while rem and rem[-1].is_zero():
            rem.pop()
        quo = PolyOverK(q, self.field) if any(not c.is_zero() for c in q) else None
        r = PolyOverK(rem, self.field) if rem else None
        return quo, r

    def divide_root(self, alpha: FieldElement) -> "PolyOverK | None":
        """Exact synthetic division by (x - alpha); None if not a root."""
        acc = self.field.zero()
        out = [self.field.zero()] * self.degree
        for i in range(self.degree, 0, -1):
            acc = acc * alpha + self.coeffs[i]
            out[i - 1] = acc
        if (acc * alpha + self.coeffs[0]).is_zero():
            return PolyOverK(out, self.field)
        return None

    def conj(self) -> "PolyOverK":
        return PolyOverK([c.conj() for c in self.coeffs], self.field)

    def rational_coeffs(self) -> list[Fraction]:
        if not all(c.is_rational() for c in self.coeffs):
            raise ValueError("polynomial has irrational coefficients")
        return [c.a for c in self.coeffs]

    @staticmethod
    def gcd(f: "PolyOverK", g: "PolyOverK") -> "PolyOverK":
        """Monic gcd via the Euclidean algorithm."""
        a, b = f, g
        while b is not None:
            _, r = a.divmod(b)
            a, b = b, r
        return a.monic()

    def squarefree_decomposition(self) -> list[tuple["PolyOverK", int]]:
        """List of (squarefree factor, multiplicity) whose product of
        factor^multiplicity equals the monic part of self.

        Rational input that is squarefree modulo a prime is returned as
        one factor; anything else goes through Yun's algorithm.
        """
        f = self.monic()
        if f.degree == 0:
            return []
        if _squarefree_mod_prime(f):
            return [(f, 1)]
        return f._yun()

    def _yun(self) -> list[tuple["PolyOverK", int]]:
        """Yun's decomposition of a monic polynomial of positive degree."""
        f = self
        df = f.derivative()
        a = PolyOverK.gcd(f, df)
        if a.degree == 0:
            return [(f, 1)]
        b, _ = f.divmod(a)
        c, _ = df.divmod(a)
        out: list[tuple[PolyOverK, int]] = []
        i = 1
        while True:
            db = b.derivative() if b.degree > 0 else None
            if db is None:
                d = c
            else:
                maxlen = max(len(c.coeffs), len(db.coeffs))
                cs = list(c.coeffs) + [self.field.zero()] * (maxlen - len(c.coeffs))
                ds = list(db.coeffs) + [self.field.zero()] * (maxlen - len(db.coeffs))
                diff = [x - y for x, y in zip(cs, ds)]
                if all(t.is_zero() for t in diff):
                    d = None
                else:
                    d = PolyOverK(diff, self.field)
            if d is None:
                if b.degree > 0:
                    out.append((b, i))
                break
            g = PolyOverK.gcd(b, d)
            if g.degree > 0:
                out.append((g, i))
            b, _ = b.divmod(g)
            c, _ = d.divmod(g)
            i += 1
            if b.degree == 0:
                break
        return out

    def __repr__(self) -> str:
        return f"PolyOverK(deg {self.degree} over {self.field})"

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            term = f"({c})" if not c.is_rational() or c.a < 0 else str(c)
            if i == 0:
                parts.append(term)
            elif i == 1:
                parts.append(f"{term}*x" if term != "1" else "x")
            else:
                parts.append(f"{term}*x^{i}" if term != "1" else f"x^{i}")
        return " + ".join(parts)


SQUAREFREE_PRIME = 2 ** 61 - 1


def _squarefree_mod_prime(f: PolyOverK) -> bool:
    """True when the monic f has rational coefficients whose denominators
    the prime P = 2^61 - 1 does not divide and gcd(f mod P, f' mod P) = 1
    in F_P[x].

    That proves f squarefree over Q: a repeated factor g^2 of f has monic
    g over Z localized at P, so g mod P, of the same degree, would divide
    both f mod P and f' mod P.
    """
    P = SQUAREFREE_PRIME
    if not all(c.q == 0 and c.den % P for c in f.coeffs):
        return False
    a = [c.p * pow(c.den, -1, P) % P for c in f.coeffs]
    b = [k * c % P for k, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:   # Euclid in F_P[x]: a, b = b, a mod b
        inv, shift = pow(b[-1], -1, P), len(b) - 1
        for i in range(len(a) - 1, shift - 1, -1):
            q = a[i] * inv % P
            if q:
                for j, bj in enumerate(b):
                    a[i - shift + j] = (a[i - shift + j] - q * bj) % P
        r = a[:shift]
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    return len(a) == 1


def _multiply_out(lead: FieldElement, roots: Sequence[FieldElement],
                  field: Field) -> PolyOverK:
    """lead * prod (x - root) as a PolyOverK."""
    coeffs = [lead]
    for r in roots:   # times (x - r): c_j becomes c_(j-1) - r c_j
        coeffs = ([-(coeffs[0] * r)] + [lo - hi * r for lo, hi in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    return PolyOverK(coeffs, field)


class SplitPoly:
    """lead * prod (x - root_i) with every root a nonzero field element,
    expanded once, on construction."""

    __slots__ = ("lead", "roots", "field", "_poly")

    def __init__(self, lead: FieldElement, roots: Iterable[FieldElement], field: Field):
        if lead.is_zero():
            raise ValueError("leading coefficient must be nonzero")
        rs = tuple(sorted(roots, key=lambda r: (r.a, r.b)))
        if any(r.is_zero() for r in rs):
            raise ValueError("roots must lie in the multiplicative group")
        self.lead = lead
        self.roots = rs
        self.field = field
        self._poly = _multiply_out(lead, rs, field)

    @property
    def degree(self) -> int:
        return len(self.roots)

    def expand(self) -> PolyOverK:
        return self._poly

    def __eq__(self, other) -> bool:
        return (isinstance(other, SplitPoly) and self.lead == other.lead
                and self.roots == other.roots and self.field == other.field)

    def __repr__(self) -> str:
        return f"SplitPoly(lead={self.lead}, roots={[str(r) for r in self.roots]})"


# ---------------------------------------------------------------------------
# integer polynomial helpers (plain int lists, degree-indexed)
# ---------------------------------------------------------------------------

def intpoly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def intpoly_pow(a: Sequence[int], k: int) -> list[int]:
    return power(list(a), k, [1], intpoly_mul)


def intpoly_content(a: Sequence[int]) -> int:
    return math.gcd(*a) if len(a) > 1 else abs(a[0])


def is_primitive_int(a: Sequence[int]) -> bool:
    return intpoly_content(a) == 1


def intpoly_graeffe(a: Sequence[int]) -> list[int]:
    """One Graeffe root-squaring step: the g with g(x^2) = (-1)^n a(x) a(-x).

    With a(x) = E(x^2) + x O(x^2) this is (-1)^n (E(y)^2 - y O(y)^2).  The
    roots of g are the squares of those of a, so M(g) = M(a)^2, and g has
    degree n and leading coefficient lead(a)^2.
    """
    n = len(a) - 1
    even, odd = a[0::2], a[1::2]
    g = intpoly_mul(even, even) + [0] * (n % 2)
    if odd:
        for i, c in enumerate(intpoly_mul(odd, odd), 1):
            g[i] -= c
    return [-c for c in g] if n % 2 else g


def has_unit_mahler(coeffs: Sequence[int]) -> bool:
    """Kronecker test: the Mahler measure of an integer polynomial is 1
    iff it is +-x^a times a product of cyclotomic polynomials.

    For |lead| = |f(0)| = 1 the Graeffe iterates g_k have measure
    M(f)^(2^k), and Mahler's inequality |g_i| <= C(n, i) M(g) holds.  A
    coefficient above its binomial proves M(f) > 1.  Otherwise the
    iterates stay in a finite set and repeat, g_j = g_k with j < k,
    which forces M(f)^(2^j) = M(f)^(2^k), so M(f) = 1.
    """
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    if abs(cs[-1]) != 1:
        return False
    # strip x^a
    a0 = 0
    while cs[a0] == 0:
        a0 += 1
    cs = cs[a0:]
    if abs(cs[0]) != 1:
        return False
    n = len(cs) - 1
    binomials = [math.comb(n, i) for i in range(n + 1)]
    seen: set[tuple[int, ...]] = set()
    g = tuple(cs)
    while g not in seen:
        if any(abs(c) > b for c, b in zip(g, binomials)):
            return False
        seen.add(g)
        g = tuple(intpoly_graeffe(g))
    return True


def int_to_poly(coeffs: Sequence[int | Fraction], field: Field | None = None) -> PolyOverK:
    fld = field or rationals()
    return PolyOverK([fld.element(Fraction(c)) for c in coeffs], fld)


def as_poly(f: PolyOverK | Sequence[int | Fraction]) -> PolyOverK:
    """f itself, or the polynomial over Q with coefficient sequence f."""
    return f if isinstance(f, PolyOverK) else int_to_poly(f)
