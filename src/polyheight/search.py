"""Constructive searches: minimal local Mahler measures, power-family
certificates for the growth constant, real-case sampling, the Pell
obstruction, and exact recognition of split polynomials by p-adic
lifting on integers (no floats, no root isolation).
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analytic import MahlerValue
from .bounds import alphabound2_root_factor
from .exactreal import SqrtValue
from .fields import Field, FieldElement, quadratic_field
from .heights import CharPoly, mk_alpha_exact
from .intervals import DEFAULT_PREC, mpf_to_fraction
from .numutil import is_perfect_square, is_prime, legendre
from .polynomials import (PolyOverK, SplitPoly, int_to_poly, intpoly_mul,
                          is_primitive_int)
from .valuations import _hensel_root

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


def real_case_samples(field: Field, samples: int, seed: int = 0) -> list[SampleCheck]:
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
        value = alphabound2_root_factor(alpha, field, 2)
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
    product = alphabound2_root_factor(alpha, field, 2)
    assert product <= 1
    return PellWitness(d, b, c, alpha, product)


# ---------------------------------------------------------------------------
# split recognition
# ---------------------------------------------------------------------------

def _roots_mod(cs: list[int], p: int) -> dict[int, int]:
    """The roots in F_p, with multiplicities, of the polynomial with
    coefficients cs (lowest degree first, leading one nonzero mod p)."""
    out: dict[int, int] = {}
    for a in range(p):
        q = cs
        while len(q) > 1:   # synthetic division by x - a
            acc, quo = 0, []
            for c in reversed(q):
                acc = (acc * a + c) % p
                quo.append(acc)
            if acc:
                break
            q = quo[-2::-1]
            out[a] = out.get(a, 0) + 1
    return out


def _lift(cs: list[int], m: int, a: int, p: int, k: int) -> int:
    """The root mod p^k, congruent to a mod p, of h, the (m-1)-th
    derivative of cs, where a is a root of cs mod p of multiplicity m < p:
    h'(a) = m! (cs / (x - a)^m)(a) is then a unit, and each Newton step
    doubles the p-adic digits."""
    h = [c * math.perm(i, m - 1) for i, c in enumerate(cs)][m - 1:]
    j = 1
    while j < k:
        j = min(2 * j, k)
        mod, v, dv = p ** j, 0, 0
        for c in reversed(h):
            v, dv = (v * a + c) % mod, (dv * a + v) % mod
        a = (a - v * pow(dv, -1, mod)) % mod
    return a


def _class_reducer(field: Field, w: int, mod: int):
    """The map h -> (beta, 4 T2(beta) / deg K), beta the element of O_K of
    least T2 with beta = h mod P^k, where P^k is the kernel of
    x0 + x1 omega -> x0 + x1 w mod p^k (omega = (1 + sqrt(D))/2 for the
    half-integer basis, sqrt(D) otherwise), for every beta with
    T2(beta) < lambda_1(P^k)^2 / 8.  Over Q beta is the balanced residue.
    Otherwise the Lagrange-Gauss reduced basis (u, v) of P^k has vectors
    at least lambda_1 long at 60 to 120 degrees, so the coordinates of
    beta in it are below 0.41 in size, and the Babai rounding of (h, 0)
    is h - beta."""
    if field.is_rational:
        return lambda h: (field.element(h - mod if 2 * h > mod else h),
                          4 * min(h, mod - h) ** 2)
    D, half = abs(field.D), field.half_integer_basis

    def t2(x: tuple[int, int]) -> int:
        return (2 * x[0] + x[1]) ** 2 + D * x[1] ** 2 if half else 4 * (x[0] ** 2 + D * x[1] ** 2)

    u, v = sorted([(mod, 0), (-w, 1)], key=t2)
    while True:
        mu = (t2((u[0] + v[0], u[1] + v[1])) - t2(v)) // (2 * t2(u))   # round(<u,v>/<u,u>)
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if t2(v) >= t2(u):
            break
        u, v = v, u
    if (det := u[0] * v[1] - u[1] * v[0]) < 0:
        v, det = (-v[0], -v[1]), -det

    def nearest(h: int) -> tuple[FieldElement, int]:
        cu, cv = (2 * h * v[1] + det) // (2 * det), (det - 2 * h * u[1]) // (2 * det)
        x0, x1 = h - cu * u[0] - cv * v[0], -cu * u[1] - cv * v[1]
        b = Fraction(x1, 2) if half else x1
        return field.element(x0 + b if half else x0, b), t2((x0, x1))
    return nearest


def recognize_split(f, field: Field) -> SplitPoly | None:
    """Exact split form of f over the field, or None when some root lies
    outside the multiplicative group of the field, by p-adic lifting on
    integers (Loos, SIAM J. Comput. 12, 1983).

    g, the factor left to split, scaled to integral coefficients
    x_i + y_i sqrt(D), is read mod a prime P of degree 1 above an odd p
    with lead(g) a unit mod P.  A split g splits mod P, so fewer than
    deg g roots mod P, counted with multiplicity, prove "not split".  A
    root of multiplicity m < p (primes up to the largest m are skipped)
    is lifted to P^k as the simple root of g^(m-1), with p^k > 64 max
    (x_i^2 + |D| y_i^2).  By Cauchy's bound, beta = lead(g) alpha then has
    T2(beta) < p^k / 4 <= lambda_1(P^k)^2 / 8, and `_class_reducer`
    recovers it.  A candidate counts only when it divides exactly; a
    simple root whose lift does not divide proves "not split", and roots
    that collide mod P (finitely many P, for a split g) go to the next
    prime.
    """
    poly = f if isinstance(f, PolyOverK) else int_to_poly(f, field)
    if poly.field != field:
        raise ValueError("field mismatch")
    if poly.coeffs[0].is_zero():
        return None  # zero root
    D = field.D or 0
    rest, roots, p = poly, [], 2
    while rest.degree > 0:
        p += 1
        if not (p % 2 and is_prime(p) and (not D or legendre(D, p) == 1)):
            continue
        g = rest.scale(field.element(math.lcm(*(c.den for c in rest.coeffs))))
        bound, k, mod = 64 * max(c.p ** 2 + abs(D) * c.q ** 2 for c in g.coeffs), 1, p
        while mod <= bound:
            k, mod = k + 1, mod * p
        r = _hensel_root(D, p, 0, k) if D else 0
        cs = [(c.p + c.q * r) % mod for c in g.coeffs]
        if cs[-1] % p == 0:
            continue
        counts = _roots_mod([c % p for c in cs], p)
        if sum(counts.values()) < g.degree:
            return None
        if max(counts.values()) >= p:
            p = max(counts.values())
            continue
        nearest = _class_reducer(field, (1 + r) * pow(2, -1, mod) % mod
                                 if field.half_integer_basis else r, mod)
        for a, m in counts.items():
            beta, size = nearest(cs[-1] * _lift(cs, m, a, p, k) % mod)
            alpha, found = beta / g.lead, 0
            # size = 4 T2(beta) / deg K < bound / 2 for every root
            while size < bound // 2 and (q := rest.divide_root(alpha)) is not None:
                rest, found = q, found + 1
                roots.append(alpha)
            if not found and m == 1:
                return None
    return SplitPoly(poly.lead, roots, field)
