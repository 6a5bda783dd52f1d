"""Constructive searches: minimal local Mahler measures, power-family
certificates for the growth constant, real-case sampling, the Pell
obstruction, and recognition of split polynomials.
"""
from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .analytic import MahlerValue
from .exactreal import SqrtValue
from .fields import Field, FieldElement, quadratic_field
from .heights import CharPoly, mk_alpha_exact
from .intervals import DEFAULT_PREC, MAX_PREC, mpf_to_fraction
from .numutil import is_perfect_square
from .polynomials import (PolyOverK, SplitPoly, int_to_poly, intpoly_mul,
                          is_primitive_int)
from .rootfind import complex_roots
from .valuations import local_max_product

MK_SEARCH_MAX_CAP = 4.0
# Python prints an int of at most 4300 digits (sys.get_int_max_str_digits),
# so every integer a report prints stays below 10^4300.
_MAX_PRINTED_DIGITS = 4300
_PRINT_LIMIT = 10 ** _MAX_PRINTED_DIGITS
# deg(base^jmax) for ck-certify: about T^2 / 2 coefficient products for
# T = jmax * deg(base); T = 2048 at the digit cap takes about 5 s
_CK_MAX_DEGREE = 2048


@dataclass(frozen=True)
class MKResult:
    """Minimal local Mahler measure above 1 found under the cap.

    exhaustive means the coefficient-bounded enumeration provably covers
    every element of the field whose measure is at most the cap.
    """

    value: MahlerValue
    witnesses: tuple[CharPoly, ...]
    cap: float
    exhaustive: bool
    value_exact: SqrtValue

    @property
    def lower_fraction(self) -> Fraction:
        """An exact rational lower bound for the minimum: the minimum itself
        when rational, else the enclosure's lower endpoint rounded down
        to 53 bits, which keeps it a short rational."""
        q = self.value_exact.as_rational()
        if q is not None:
            return q
        return mpf_to_fraction(self.value.enclosure.lo, floor_bits=53)


def mk_search(field: Field, cap: float, prec: int = DEFAULT_PREC) -> MKResult:
    """Exhaustively enumerate characteristic polynomials of field
    elements with measure in (1, cap] and return the minimum with every
    witness attaining it (exact ties)."""
    if cap <= 1:
        raise ValueError("cap must exceed 1")
    if cap > MK_SEARCH_MAX_CAP:
        raise ValueError(f"cap beyond the configured maximum {MK_SEARCH_MAX_CAP}")
    cap_frac = Fraction(cap)
    d = field.degree
    best: SqrtValue | None = None
    witnesses: list[CharPoly] = []
    one, cap_sv = SqrtValue.one(), SqrtValue.of_rational(cap_frac)

    def offer(value: SqrtValue, cp: CharPoly):
        nonlocal best
        if value.compare(one) <= 0 or value.compare(cap_sv) > 0:
            return
        order = -1 if best is None else value.compare(best)
        if order < 0:
            best = value
            witnesses[:] = [cp]
        elif order == 0:
            witnesses.append(cp)

    # rational elements: minimal polynomial c1 x + c0, measure max(|c1|,|c0|)^d
    b = int(cap_frac)
    for c1 in range(1, b + 1):
        for c0 in range(-b, b + 1):
            if math.gcd(c1, c0) != 1:
                continue
            m1 = Fraction(max(c1, abs(c0)))
            offer(SqrtValue.of_rational(m1 ** d), CharPoly((c0, c1), 1, d))

    if field.degree == 2:
        D = field.D
        b2, b1, b0 = int(cap_frac), int(2 * cap_frac), int(cap_frac)
        for c2 in range(1, b2 + 1):
            for c1 in range(-b1, b1 + 1):
                for c0 in range(-b0, b0 + 1):
                    if math.gcd(c2, math.gcd(c1, c0)) != 1:
                        continue
                    disc = c1 * c1 - 4 * c2 * c0
                    if disc == 0 or (disc > 0 and is_perfect_square(disc)):
                        continue  # reducible over Q
                    if disc % D != 0:
                        continue
                    s2 = disc // D
                    if s2 <= 0:
                        continue
                    s = math.isqrt(s2)
                    if s * s != s2:
                        continue
                    alpha = field.element(Fraction(-c1, 2 * c2), Fraction(s, 2 * c2))
                    offer(mk_alpha_exact(alpha, field), CharPoly((c0, c1, c2), 2, 1))

    if best is None:
        raise ValueError(f"no measure in (1, {cap}] over {field}; raise the cap")
    return MKResult(MahlerValue(best.to_interval(prec), d),
                    tuple(witnesses), float(cap), True, best)


@dataclass(frozen=True)
class Certificate:
    """A rigorous lower bound for the growth constant from one power of a
    primitive split base polynomial:
    cert_value = degree / log(sum of |coefficients|) of base^j."""

    field: Field
    base: tuple[int, ...]
    j: int
    degree: int
    sum_abs: int
    cert_value: float
    height_trend: float    # degree / log H(base^j); the family's trend


def ck_lower_certify(base: Sequence[int], field: Field, j_max: int,
                     check_split: bool = True) -> list[Certificate]:
    """Certificates from base^j for j = 1..j_max, by exact convolution.

    The base must be primitive with all roots in the multiplicative
    group of the field, j_max * deg(base) at most 2048, and every sum_abs
    printable (below 10^4300).
    """
    if j_max < 1:
        raise ValueError("jmax must be at least 1")
    base = [int(c) for c in base]
    if len(base) < 2:
        raise ValueError("base polynomial must have degree at least 1")
    if not is_primitive_int(base):
        raise ValueError("base polynomial must be primitive")
    n = len(base) - 1
    if n * j_max > _CK_MAX_DEGREE:
        raise ValueError(f"jmax * deg(base) = {n * j_max} exceeds the budget of {_CK_MAX_DEGREE}")
    base_sum = sum(map(abs, base))   # sum_abs of base^j is at most base_sum^j
    if (j_max * math.log10(base_sum) > _MAX_PRINTED_DIGITS
            or base_sum ** j_max >= _PRINT_LIMIT):
        raise ValueError(f"jmax * log10(sum |base|) exceeds the budget of "
                         f"{_MAX_PRINTED_DIGITS} digits for sum_abs")
    if check_split and recognize_split(int_to_poly(base, field), field) is None:
        raise ValueError(f"base does not split over {field}")
    out: list[Certificate] = []
    g = base
    for j in range(1, j_max + 1):
        mags = list(map(abs, g))
        s, h = sum(mags), max(mags)
        cert = (n * j) / math.log(s)
        trend = (n * j) / math.log(h) if h > 1 else math.inf
        out.append(Certificate(field, tuple(base), j, n * j, s, cert, trend))
        if j < j_max:
            g = intpoly_mul(g, base)
    return out


@dataclass(frozen=True)
class SampleCheck:
    alpha: FieldElement
    value: Fraction          # exact local product, exponent 2
    threshold: int           # 2^d
    holds: bool


def _case1_product(alpha: FieldElement, field: Field) -> Fraction:
    return (local_max_product(alpha, field, exponent=2)
            * (field.one() + alpha * alpha).abs_norm())


def real_case_samples(field: Field, samples: int, prec: int = DEFAULT_PREC,
                      seed: int = 0) -> list[SampleCheck]:
    """For random nonzero alpha in a totally real field, check exactly
    that prod_p max(1,|alpha|^2_p) * prod_sigma |1+alpha^2|_sigma >= 2^d."""
    if not field.is_totally_real:
        raise ValueError("field must be totally real")
    rng = random.Random(seed)
    threshold = 2 ** field.degree
    out: list[SampleCheck] = []
    while len(out) < samples:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if field.degree == 2 else Fraction(0)
        alpha = field.element(a, b)
        if alpha.is_zero():
            continue
        value = _case1_product(alpha, field)
        out.append(SampleCheck(alpha, value, threshold, value >= threshold))
    return out


@dataclass(frozen=True)
class PellWitness:
    d: int
    b: int
    c: int
    alpha: FieldElement      # b / (c sqrt(-d))
    product: Fraction        # full local product at exponent 2


def _pell_fundamental(d: int) -> tuple[int, int]:
    """Smallest positive (x, y) with x^2 - d y^2 = 1, via the continued
    fraction expansion of sqrt(d).  d must be a non-square above 1.

    The n-th convergent h/k has h^2 - d k^2 = (-1)^(n+1) Q_(n+1), so the
    test runs on the small Q.  The expansion stops once k d, the largest
    integer a Pell report prints (the denominator of alpha), reaches
    4300 digits."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    k_cap = -(-_PRINT_LIMIT // d)   # k d >= 10^4300 exactly when k >= k_cap
    for n in itertools.count():
        if k >= k_cap:
            raise ValueError(f"the Pell solution for d = {d} has more than "
                             f"{_MAX_PRINTED_DIGITS} digits")
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if q == 1 and n % 2 == 1:
            return h, k
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def pell_counterexample(d: int) -> PellWitness:
    """The Pell-equation obstruction over Q(sqrt(-d)): with b^2 - d c^2 = 1
    and alpha = b/(c sqrt(-d)), the exponent-2 local product collapses to
    |N(b^2 - d c^2)| = 1 exactly, so no uniform lower bound above 1 can
    come from this quantity."""
    if d < 2:
        raise ValueError("d must be at least 2")
    field = quadratic_field(-d)   # squarefree, so not a square; |D| budget
    b, c = _pell_fundamental(d)
    gamma = field.element(0, c)
    alpha = field.element(b) / gamma
    product = _case1_product(alpha, field)
    assert product <= 1
    return PellWitness(d, b, c, alpha, product)


# ---------------------------------------------------------------------------
# split recognition
# ---------------------------------------------------------------------------

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


def recognize_split(f, field: Field, prec: int = DEFAULT_PREC,
                    max_prec: int = MAX_PREC) -> SplitPoly | None:
    """Exact split form of f over the field, or None when some root lies
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
