"""Independent evaluation routes that the tests compare the library with.

They are deliberately slow or low-precision and are not part of the
package: a circle integral and mpmath.polyroots for Mahler measures,
sympy's factorization for the Kronecker test, the characteristic
polynomial and a formula per kind of field for the local-maxima product,
a direct scan for the minimal measure, prime-by-prime valuations and the
denominator ideal for the discrete Gauss norms,
SqrtValue's arithmetic on Fractions, split recognition from rounded
numeric roots and from sympy's factorization, and a character-at-a-time
polynomial parser that adds up field elements atom by atom.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
import sympy

from polyheight import (Field, FieldElement, MahlerValue, PolyOverK, SplitPoly, SqrtValue,
                        char_poly, int_to_poly)
from polyheight.analytic import mahler_measure
from polyheight.heights import mk_alpha_exact
from polyheight.intervals import DEFAULT_PREC, MAX_PREC, RealInterval, mpf_to_fraction, ri
from polyheight.rootfind import complex_roots
from polyheight.numutil import factorize, power, rational_sqrt, surd_sign
from polyheight.polyparse import MAX_DIGITS, MAX_EXPONENT, ParseError
from polyheight.valuations import ideal_norm, primes_above, valuation


def mahler_via_integral(coeffs: Sequence[int | float | Fraction], npoints: int = 4096) -> float:
    """Low-precision circle-integral evaluation, for cross-checks only:
    exp of the mean of log|f| over the unit circle.
    """
    cs = [float(c) for c in coeffs]
    total = 0.0
    for k in range(npoints):
        z = cmath.exp(2j * math.pi * (k + 0.5) / npoints)
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        total += math.log(abs(acc))
    return math.exp(total / npoints)


def mahler_via_polyroots(coeffs: Sequence[int], dps: int = 60) -> mpmath.mpf:
    """M(f) = |lead| prod max(1, |root|) of an integer polynomial, from
    mpmath.polyroots at dps digits on each factor of sympy's squarefree
    decomposition, so that repeated roots do not stall the iteration."""
    x = sympy.Symbol("x")
    content, factors = sympy.Poly(list(coeffs)[::-1], x).sqf_list()
    with mpmath.workdps(dps):
        m = mpmath.mpf(abs(int(content)))
        for q, mult in factors:
            cs = [int(c) for c in q.all_coeffs()]
            roots = mpmath.polyroots(cs, maxsteps=200, extraprec=4 * dps)
            mq = abs(cs[0]) * mpmath.fprod(max(1, abs(r)) for r in roots)
            m *= mq ** mult
        return +m


def unit_mahler_via_factoring(coeffs: Sequence[int]) -> bool:
    """The Kronecker test by sympy: content +-1 and every irreducible
    factor x or cyclotomic (sympy.factor_list, Poly.is_cyclotomic)."""
    x = sympy.Symbol("x")
    cs = list(coeffs)
    while cs[-1] == 0:
        cs.pop()
    content, factors = sympy.Poly(cs[::-1], x).factor_list()
    return abs(content) == 1 and all(q == sympy.Poly(x, x) or q.is_cyclotomic
                                     for q, _ in factors)


def mk_alpha_via_charpoly(alpha: FieldElement, field: Field | None = None,
                          prec: int = DEFAULT_PREC,
                          max_prec: int = MAX_PREC) -> MahlerValue:
    """Independent evaluation route: Mahler measure of the characteristic
    polynomial (minimal polynomial raised to its power)."""
    fld = field or alpha.field
    cp = char_poly(alpha, fld)
    m = mahler_measure(int_to_poly(cp.coeffs), prec=prec, max_prec=max_prec)
    return MahlerValue(m.enclosure ** cp.power, fld.degree)


def mk_direct_enumeration(field: Field, cap: float, num_bound: int = 6,
                          den_bound: int = 3) -> list[tuple[FieldElement, SqrtValue]]:
    """Independent oracle route: scan field elements a + b sqrt(D) with
    bounded numerators/denominators and list those with measure in
    (1, cap]."""
    cap_frac = Fraction(cap)
    fracs = sorted({Fraction(p, q) for q in range(1, den_bound + 1)
                    for p in range(-num_bound, num_bound + 1)})
    out = []
    bs = fracs if field.degree == 2 else [Fraction(0)]
    for a in fracs:
        for bb in bs:
            x = field.element(a, bb)
            if x.is_zero():
                continue
            v = mk_alpha_exact(x, field)
            if v.compare(1) > 0 and v.compare(cap_frac) <= 0:
                out.append((x, v))
    return out


def nonarch_gauss_by_primes(f, field: Field) -> Fraction:
    """prod_P max_i |a_i|_P, prime by prime: a prime above p has
    min_i ord(a_i) != 0 only if p divides the den of a non-integral a_i
    or the norm numerator of every a_i, so only those are factored and
    each prime above them is Hensel-lifted and valued."""
    coeffs = [c for c in getattr(f, "coeffs", f) if not c.is_zero()]
    support = set(factorize(math.gcd(*(c.norm().numerator for c in coeffs))))
    for c in coeffs:
        if not c.is_integral():
            support.update(factorize(c.den))
    out = Fraction(1)
    for pr in primes_above(support, field):
        m = min(valuation(c, pr) for c in coeffs)
        if m:
            out *= Fraction(pr.residue_norm) ** (-m)
    return out


def local_max_by_primes(x: FieldElement, field: Field, exponent: int = 1) -> Fraction:
    """prod_P max(1, |x|_P^exponent) over the primes above the factors of
    den, where every negative valuation lies."""
    if x.is_zero():
        return Fraction(1)
    out = Fraction(1)
    for pr in primes_above(factorize(x.den), field):
        v = valuation(x, pr)
        if v < 0:
            out *= Fraction(pr.residue_norm) ** (-v * exponent)
    return out


def local_max_by_denominator(x: FieldElement, field: Field, exponent: int = 1) -> Fraction:
    """prod_P max(1, |x|_P)^exponent as den^d / N((den, den x)), from the
    norm of the denominator ideal of x, with 1 for integral x."""
    if x.is_integral():
        return Fraction(1)
    den = field.element(x.den)
    return Fraction(x.den ** field.degree, ideal_norm([den, x * den])) ** exponent


def mk_alpha_by_branches(alpha: FieldElement, field: Field) -> SqrtValue:
    """M_K(alpha) with one archimedean formula per kind of field: max(1, |a|)
    over Q, max(1, N(alpha)) for imaginary K, the product of
    max(1, |sigma(alpha)|) over both embeddings for real K; times the
    local maxima product of the denominator ideal."""
    if alpha.is_zero():
        return SqrtValue.one()
    nonarch = local_max_by_denominator(alpha, field)
    if field.is_rational:
        arch = SqrtValue.of_rational(max(Fraction(1), abs(alpha.a)))
    elif field.is_imaginary:
        arch = SqrtValue.of_rational(max(Fraction(1), alpha.norm()))
    else:
        one = SqrtValue.one()
        arch = (max(SqrtValue.abs_sigma1(alpha), one)
                * max(SqrtValue.abs_sigma1(alpha.conj()), one))
    return SqrtValue.of_rational(nonarch) * arch


class FractionSqrtValue:
    """sqrt(u + v*sqrt(D)) with u, v Fractions; v = 0 when D is None.

    SqrtValue's arithmetic as it was before the radicand moved to integer
    coordinates, kept as the reference that the integer form must agree
    with.
    """

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v=0, D: int | None = None):
        self.u = Fraction(u)
        self.v = Fraction(v)
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

    @classmethod
    def of_rational(cls, q) -> "FractionSqrtValue":
        q = Fraction(q)
        return cls(q * q)

    @classmethod
    def one(cls) -> "FractionSqrtValue":
        return cls(1)

    def _merge_D(self, other: "FractionSqrtValue") -> int | None:
        if self.D is None:
            return other.D
        if other.D is None or other.D == self.D:
            return self.D
        raise ValueError("incompatible sqrt(D) parts")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionSqrtValue.of_rational(other)
        D = self._merge_D(other)
        if D is None:
            return FractionSqrtValue(self.u * other.u)
        u = self.u * other.u + D * self.v * other.v
        v = self.u * other.v + self.v * other.u
        return FractionSqrtValue(u, v, D)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionSqrtValue.of_rational(other)
        if other.is_zero():
            raise ZeroDivisionError
        D = self._merge_D(other)
        if D is None:
            return FractionSqrtValue(self.u / other.u)
        den = other.u * other.u - D * other.v * other.v
        u = (self.u * other.u - D * self.v * other.v) / den
        v = (self.v * other.u - self.u * other.v) / den
        return FractionSqrtValue(u, v, D)

    def __pow__(self, k: int) -> "FractionSqrtValue":
        if k < 0:
            return FractionSqrtValue.one() / self ** (-k)
        return power(self, k, FractionSqrtValue.one())

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_one(self) -> bool:
        return self.u == 1 and self.v == 0

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            other = FractionSqrtValue.of_rational(other)
        D = self._merge_D(other)
        du, dv = self.u - other.u, self.v - other.v
        if D is None:
            return (du > 0) - (du < 0)
        return surd_sign(du, dv, D)

    def as_rational(self) -> Fraction | None:
        if self.v != 0:
            return None
        return rational_sqrt(self.u)

    def to_interval(self, prec: int = DEFAULT_PREC) -> RealInterval:
        inner = RealInterval.from_fraction(self.u, prec)
        if self.D is not None:
            inner = inner + RealInterval.from_fraction(self.v, prec) * ri(self.D, prec).sqrt()
        if inner.lo < 0:
            inner = RealInterval.hull(0, inner.hi, prec)
        return inner.sqrt()


# -- split recognition from numeric roots ------------------------------------

def _round_fraction(x: float, q: int, D: int = 1) -> Fraction:
    """The point of the 1/q grid nearest x / sqrt(D), in doubles."""
    return Fraction(round(x / math.sqrt(D) * q), q)


def _round_exact(x: Fraction, q: int, D: int = 1) -> Fraction:
    """The point of the 1/q grid nearest x / sqrt(D), exactly: with
    t = |q x / sqrt(D)|, floor(t + 1/2) = (floor(2t) + 1) // 2, and
    floor(2t) = isqrt(floor(4t^2))."""
    t2 = 4 * q * q * x * x / D
    k = (math.isqrt(t2.numerator // t2.denominator) + 1) // 2
    return Fraction(k if x >= 0 else -k, q)


class _Centre(NamedTuple):
    """The exact centre of a certified root box."""
    real: Fraction
    imag: Fraction


def _verify_candidates(f_scaled: PolyOverK, candidates: set[FieldElement],
                       original_lead: FieldElement, field: Field) -> SplitPoly | None:
    current = f_scaled
    roots: list[FieldElement] = []
    for alpha in candidates:
        if alpha.is_zero():
            continue
        while True:
            divided = current.divide_root(alpha)
            if divided is None:
                break
            current = divided
            roots.append(alpha)
            if current.degree == 0:
                break
        if current.degree == 0:
            break
    if current.degree == 0 and len(roots) == f_scaled.degree:
        return SplitPoly(original_lead, roots, field)
    return None


def _candidates(field: Field, zs1, zs2, q: int, rnd) -> set[FieldElement]:
    """Field elements with coordinates of denominator q nearest to the
    approximate roots zs1 of f (first embedding) and, for real quadratic
    fields, zs2 of its conjugate; rnd(x, q, D) is the point of the 1/q
    grid nearest x / sqrt(D)."""
    if field.is_rational:
        return {field.element(rnd(z.real, q)) for z in zs1}
    if field.is_imaginary:
        return {field.element(rnd(z.real, q), rnd(z.imag, q, -field.D)) for z in zs1}
    return {field.element(rnd((z1.real + z2.real) / 2, q),
                          rnd((z1.real - z2.real) / 2, q, field.D))
            for z1 in zs1 for z2 in zs2}


def _is_real_quadratic(field: Field) -> bool:
    return field.is_totally_real and not field.is_rational


def _fast_candidates(f: PolyOverK, q: int) -> set[FieldElement] | None:
    root_d = cmath.sqrt(f.field.D or 0)   # first embedding of sqrt(D)

    def double_roots(g: PolyOverK):
        arr = np.array([c.p / c.den + c.q / c.den * root_d for c in g.coeffs], dtype=complex)
        return np.roots(arr[::-1]) if np.all(np.isfinite(arr)) else None

    try:
        roots1 = double_roots(f)
        roots2 = double_roots(f.conj()) if _is_real_quadratic(f.field) else ()
    except (OverflowError, ValueError, np.linalg.LinAlgError):
        return None
    if roots1 is None or roots2 is None:
        return None
    return _candidates(f.field, roots1, roots2, q, _round_fraction)


def _certified_candidates(f: PolyOverK, q: int, prec: int,
                          max_prec: int) -> set[FieldElement]:
    def mid(x) -> Fraction:
        return (mpf_to_fraction(x.lo) + mpf_to_fraction(x.hi)) / 2

    def certified_roots(g: PolyOverK):
        return [_Centre(mid(rb.box.re), mid(rb.box.im))
                for rb in complex_roots(g, target_width=Fraction(1, 8 * q), prec=prec,
                                        max_prec=max_prec)]

    roots1 = certified_roots(f)
    roots2 = certified_roots(f.conj()) if _is_real_quadratic(f.field) else ()
    return _candidates(f.field, roots1, roots2, q, _round_exact)


def split_by_rounded_roots(f, field: Field, prec: int = DEFAULT_PREC,
                          max_prec: int = MAX_PREC) -> SplitPoly | None:
    """Split recognition as the package did it before p-adic lifting:
    exact split form of f over the field, or None when some root lies
    outside the multiplicative group of the field.

    Candidate roots are reconstructed from numeric root enclosures (the
    coordinates of a root have denominator dividing 2|N(lead)| once the
    coefficients are scaled to integral coordinates) and verified by
    exact synthetic division, so a returned SplitPoly is exact.  A
    CertificationError (isolation failure) is distinct from a not-split
    result.
    """
    if isinstance(f, PolyOverK):
        poly = f
        if poly.field != field:
            raise ValueError("field mismatch")
    else:
        poly = int_to_poly(f, field)
    if poly.degree == 0:
        return SplitPoly(poly.lead, [], field)
    if poly.coeffs[0].is_zero():
        return None  # zero root
    den = math.lcm(*(c.den for c in poly.coeffs))
    scaled = poly.scale(field.element(den))
    lead_norm = scaled.lead.abs_norm()
    q = 2 * int(lead_norm)
    cands = _fast_candidates(scaled, q)
    if cands is not None:
        result = _verify_candidates(scaled, cands, poly.lead, field)
        if result is not None:
            return result
    cands = _certified_candidates(scaled, q, prec, max_prec)
    return _verify_candidates(scaled, cands, poly.lead, field)


def splits_by_sympy(f: PolyOverK, field: Field) -> bool:
    """Whether every root of f lies in K^x, from sympy's factorization over
    K (sympy.factor_list with extension=sqrt(D))."""
    x = sympy.Symbol("x")
    r = 0 if field.is_rational else sympy.sqrt(field.D)
    expr = sum((sympy.Rational(c.p, c.den) + sympy.Rational(c.q, c.den) * r) * x ** i
               for i, c in enumerate(f.coeffs))
    _, factors = sympy.factor_list(expr, x, extension=None if field.is_rational else r)
    return not f.coeffs[0].is_zero() and all(sympy.degree(q, x) == 1 for q, _ in factors)


# -- a reference polynomial parser -------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            raise ParseError(f"expected {token!r}", self.pos, self.text)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos, self.text)
        if self.pos - start > MAX_DIGITS:
            raise ParseError(f"an integer of {self.pos - start} digits exceeds the "
                             f"budget of MAX_DIGITS = {MAX_DIGITS} digits", start, self.text)
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_number(sc: _Scanner) -> Fraction:
    num = sc.uint()
    if sc.eat("/"):
        den = sc.uint()
        if den == 0:
            raise ParseError("zero denominator", sc.pos, sc.text)
        return Fraction(num, den)
    return Fraction(num)


def _parse_root(sc: _Scanner, field: Field) -> FieldElement:
    sc.expect("sqrt")
    sc.expect("(")
    neg = sc.eat("-")
    d = sc.uint()
    if neg:
        d = -d
    sc.expect(")")
    if field.is_rational:
        raise ParseError("sqrt coefficients need a quadratic field", sc.pos, sc.text)
    if d != field.D:
        raise ParseError(f"sqrt({d}) does not lie in {field.descriptor()}",
                         sc.pos, sc.text)
    return field.element(0, 1)


def _parse_atom(sc: _Scanner, field: Field) -> FieldElement:
    if sc.peek() == "s":
        return _parse_root(sc, field)
    q = _parse_number(sc)
    star = sc.pos
    if sc.eat("*") and sc.peek() != "s":   # a "*" only before a root
        sc.pos = star
    if sc.peek() == "s":
        return _parse_root(sc, field) * q
    return field.element(q)


def _parse_coeff_expr(sc: _Scanner, field: Field) -> FieldElement:
    acc = field.zero()
    sign = -1 if sc.eat("-") else 1
    if sign == 1:
        sc.eat("+")
    while True:
        acc = acc + _parse_atom(sc, field) * sign
        if sc.eat("+"):
            sign = 1
        elif sc.eat("-"):
            sign = -1
        else:
            return acc


def _parse_exponent(sc: _Scanner) -> int:
    if not sc.eat("^"):
        return 1
    start = sc.pos
    power = sc.uint()
    if power > MAX_EXPONENT:
        raise ParseError(f"exponent {power} exceeds the budget of "
                         f"MAX_EXPONENT = {MAX_EXPONENT}", start, sc.text)
    return power


def parse_poly_by_chars(text: str, field: Field) -> PolyOverK:
    """polyparse.parse_poly as a scanner over characters that adds up
    FieldElements atom by atom; a leading "+" is accepted like "-"."""
    sc = _Scanner(text)
    terms: dict[int, FieldElement] = {}
    sign = -1 if sc.eat("-") else 1
    if sign == 1:
        sc.eat("+")
    while True:
        coeff = field.one()
        have_coeff = False
        if sc.peek() == "(":
            sc.expect("(")
            coeff = _parse_coeff_expr(sc, field)
            sc.expect(")")
            have_coeff = True
        elif sc.peek().isdigit() or sc.peek() == "s":
            coeff = _parse_atom(sc, field)
            have_coeff = True
        if sc.eat("x"):
            power = _parse_exponent(sc)
        elif sc.eat("*"):
            sc.expect("x")
            power = _parse_exponent(sc)
        else:
            if not have_coeff:
                raise ParseError("expected a term", sc.pos, sc.text)
            power = 0
        term = coeff * sign
        terms[power] = terms.get(power, field.zero()) + term
        if sc.eat("+"):
            sign = 1
        elif sc.eat("-"):
            sign = -1
        elif sc.at_end():
            break
        else:
            raise ParseError("expected '+', '-' or end of input", sc.pos, sc.text)
    if not terms:
        raise ParseError("empty polynomial", sc.pos, sc.text)
    degree = max(terms)
    coeffs = [terms.get(i, field.zero()) for i in range(degree + 1)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        raise ParseError("polynomial is identically zero", sc.pos, sc.text)
    return PolyOverK(coeffs, field)
