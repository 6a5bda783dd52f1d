"""Ideal norms, discrete Gauss-norm products and the p-adic API.

Gauss-norm products and local maxima come from one ideal norm, computed
from generators with no primes.  Valuations at split primes embed K into
Q_p via a Hensel-lifted square root of D; inert and ramified valuations
reduce to the p-adic valuation of the field norm.  All of it is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .fields import Field, FieldElement, _reduced
from .intervals import DEFAULT_PREC, RealInterval
from .numutil import disc_symbol, factorize, is_prime, sqrt_mod_prime, vp

INFINITE = math.inf  # valuation of zero, signaled distinctly
# Budget of product_formula_check, which factors the denominator of x and
# the numerator of N(x): as for the field's |D|, Pollard rho splits a
# balanced semiprime near 10^18 in under 0.05 s
MAX_FACTORED = 10 ** 18


@dataclass(frozen=True)
class PrimeOfK:
    """A prime of the field above the rational prime p.

    kind is "split", "inert" or "ramified" for quadratic fields and
    "rational" over Q.  Split primes carry a branch in {0, 1}; the two
    branches are exchanged by conjugation.
    """

    p: int
    kind: str
    residue_norm: int
    branch: int | None = None
    D: int | None = None

    def lifted_root(self, level: int) -> int:
        if self.kind != "split":
            raise ValueError("only split primes carry Hensel data")
        return _hensel_root(self.D, self.p, self.branch, level)

    def __str__(self) -> str:
        tag = f", branch {self.branch}" if self.branch is not None else ""
        return f"<{self.kind} prime above {self.p}{tag}>"


@lru_cache(maxsize=1024)
def _hensel_root(D: int, p: int, branch: int, level: int) -> int:
    """r with r^2 = D mod p^level, branch-consistent under lifting.

    Branch 0 is the root in (0, p/2) for odd p, the root = 1 mod 4 for
    p = 2; branch 1 is its negative.
    """
    if p == 2:
        # D = 1 mod 8; four roots mod 2^k for k >= 3, two 2-adic branches
        r = 1 if branch == 0 else 3
        k = 3
        mod = 8
        while k < level:
            nxt = mod * 2
            if (r * r - D) % nxt != 0:
                r += mod // 2
            mod = nxt
            k += 1
        return r % (2 ** max(level, 3))
    r0 = sqrt_mod_prime(D % p, p)
    r0 = min(r0, p - r0) if branch == 0 else max(r0, p - r0)
    r, k, mod = r0, 1, p
    while k < level:
        # quadratic Newton lifting
        new_k = min(2 * k, level)
        new_mod = p ** new_k
        inv = pow(2 * r, -1, new_mod)
        r = (r - (r * r - D) * inv) % new_mod
        k, mod = new_k, new_mod
    return r % p ** level


def split_prime(p: int, field: Field) -> list[PrimeOfK]:
    """The primes of the field above the rational prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.is_rational:
        return [PrimeOfK(p, "rational", p)]
    sym = disc_symbol(field.disc, p)
    if sym == 0:
        return [PrimeOfK(p, "ramified", p, None, field.D)]
    if sym == -1:
        return [PrimeOfK(p, "inert", p * p, None, field.D)]
    return [PrimeOfK(p, "split", p, 0, field.D),
            PrimeOfK(p, "split", p, 1, field.D)]


def valuation(x: FieldElement, prime: PrimeOfK):
    """ord_p(x); math.inf for x = 0.  For x = (u + w sqrt(D)) / den this
    is ord_p(u + w sqrt(D)) - ord_p(den), computed on the integers."""
    if x.is_zero():
        return INFINITE
    p = prime.p
    vden = vp(x.den, p)
    if prime.kind == "rational":
        return vp(x.p, p) - vden
    if prime.kind == "ramified":
        return vp(x.scaled_norm(), p) - 2 * vden
    if prime.kind == "inert":
        v = vp(x.scaled_norm(), p)
        assert v % 2 == 0, "inert norm valuation must be even"
        return v // 2 - vden
    # split: strip p^m from (u, w), then embed sqrt(D) -> Hensel root in Z_p
    u, w = x.p, x.q
    m = min(vp(c, p) for c in (u, w) if c != 0)
    u, w = u // p ** m, w // p ** m
    level = max(vp(u * u - prime.D * w * w, p) + 1, 3 if p == 2 else 1)
    t = (u + w * prime.lifted_root(level)) % p ** level
    assert t != 0, "Hensel level was provably sufficient"
    return m + vp(t, p) - vden


def abs_at(x: FieldElement, prime: PrimeOfK) -> Fraction:
    """|x|_p = residue_norm^(-ord); 0 for x = 0."""
    v = valuation(x, prime)
    if v is INFINITE:
        return Fraction(0)
    return Fraction(prime.residue_norm) ** (-v)


def element_support(x: FieldElement) -> set[int]:
    """Rational primes where x can have a nonzero valuation.

    Negative valuations force p | den; positive ones force p | num(N(x)).
    """
    primes = set(factorize(x.den))
    n = x.norm()
    if n != 0:
        primes |= set(factorize(n.numerator))
    return primes


def primes_above(ps: Iterable[int], field: Field) -> list[PrimeOfK]:
    out: list[PrimeOfK] = []
    for p in sorted(set(ps)):
        out.extend(split_prime(p, field))
    return out


def _integral_norm(z: FieldElement) -> int:
    """N(z) of an integral z, as an int."""
    return z.scaled_norm() // z.den ** z.field.degree


def _basis_coords(z: FieldElement) -> tuple[int, int]:
    """Coordinates of an integral z in the integral basis 1, (1 + sqrt(D))/2
    when that is the basis, else 1, sqrt(D)."""
    if z.field.half_integer_basis:
        return (z.p - z.q) // z.den, 2 * z.q // z.den
    return z.p, z.q


def ideal_norm(gens: Sequence[FieldElement]) -> int:
    """N(I) for the ideal I generated by the integral elements gens (0 for
    the zero ideal): the gcd of the integral-basis coordinates of the
    g_i conj(g_j), which generate I conj(I) = N(I) O_K (Cohen, GTM 138,
    4.6 / 5.2).  The diagonal terms, the norms, come first; the gcd
    usually reaches 1 on them.  Over Q it is the gcd of the generators."""
    g = math.gcd(*map(_integral_norm, gens))
    if g == 1 or gens[0].field.is_rational:
        return g
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            g = math.gcd(g, *_basis_coords(x.conj() * y))
            if g == 1:
                return 1
    return g


def nonarch_gauss_product(f, field: Field) -> Fraction:
    """prod_P |f|_P over all primes of the field, exact: by Gauss's lemma
    and the product formula, 1 / N(content ideal of the a_i), that is
    L^d / N((L a_0, ..., L a_n)) with L the lcm of their dens."""
    coeffs = [c for c in getattr(f, "coeffs", f) if not c.is_zero()]
    if not coeffs:
        raise ValueError("zero polynomial has no Gauss norm")
    L = math.lcm(*(c.den for c in coeffs))
    gens = [_reduced(c.p * (L // c.den), c.q * (L // c.den), 1, field) for c in coeffs]
    return Fraction(L ** field.degree, ideal_norm(gens))


def local_max_product(x: FieldElement, field: Field, exponent: int = 1) -> Fraction:
    """prod_P max(1, |x|_P)^exponent, exact: the Gauss norm of (1, x)."""
    return nonarch_gauss_product((field.one(), x), field) ** exponent


@dataclass(frozen=True)
class ProductFormulaReport:
    element: FieldElement
    nonarch: Fraction          # exact prod_p |x|_p
    arch: RealInterval         # enclosure of prod_sigma |x|_sigma
    product: RealInterval      # nonarch * arch
    holds: bool


def product_formula_check(x: FieldElement, field: Field,
                          prec: int = DEFAULT_PREC) -> ProductFormulaReport:
    """Verify prod_p |x|_p * prod_sigma |x|_sigma = 1 for x != 0."""
    if x.is_zero():
        raise ValueError("product formula applies to nonzero elements")
    if max(x.den, abs(x.norm().numerator)) > MAX_FACTORED:
        raise ValueError("the denominator or norm numerator exceeds the factoring "
                         "budget of MAX_FACTORED = 10^18")
    nonarch = math.prod((abs_at(x, pr) for pr in primes_above(element_support(x), field)),
                        start=Fraction(1))
    arch = RealInterval.from_fraction(1, prec)
    for box in x.embeddings(prec):
        arch = arch * abs(box)
    product = arch * nonarch
    holds = 1 in product
    # exact cross-check: the archimedean product is |N(x)| exactly
    assert nonarch * x.abs_norm() == 1, "product formula violated exactly"
    return ProductFormulaReport(x, nonarch, arch, product, holds)
