"""Global polynomial heights, characteristic polynomials, and the local
Mahler-type quantity attached to a single field element.

H(f)^d is the product over all places v of max_i |a_i|_v: the discrete
Gauss norms (exact rational) times the archimedean ones (exact quadratic
surd), so heights compare exactly; enclosures are reported at any
precision and the d-th root is recognized as an exact rational whenever
it is one.  The local quantity M_K(alpha) is the same product for the
coefficients (1, alpha).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytic import arch_gauss_exact
from .exactreal import SqrtValue
from .fields import Field, FieldElement, roots_of_unity
from .intervals import DEFAULT_PREC, RealInterval
from .numutil import rational_sqrt
from .polynomials import PolyOverK, SplitPoly
from .valuations import nonarch_gauss_product


@dataclass(frozen=True)
class HeightReport:
    """H(f) with its exact non-archimedean part and certified enclosures."""

    nonarch: Fraction              # exact prod_p |f|_p
    arch: RealInterval             # enclosure of prod_sigma |f|_sigma
    height: RealInterval           # enclosure of (nonarch * arch)^(1/d)
    log_height: RealInterval
    degree: int
    field: Field
    exact: Fraction | None         # exact value of H(f) when rational
    arch_exact: SqrtValue          # exact archimedean product

    def height_power_exact(self, k: int = 1) -> SqrtValue:
        """H(f)^(d*k) as an exact surd."""
        return (SqrtValue.of_rational(self.nonarch) * self.arch_exact) ** k


def height(f: PolyOverK | SplitPoly, prec: int = DEFAULT_PREC) -> HeightReport:
    """The height H(f), scale-invariant, with H(f) >= 1 always.

    The discrete part is 1 / N(content ideal) of the coefficients,
    expanded first for split input.  A split polynomial keeps its report
    and returns it again at the same precision; another precision
    computes a fresh one.
    """
    if isinstance(f, SplitPoly):
        memo = f._height
        if memo is None or memo[0] != prec:
            memo = f._height = (prec, height(f.expand(), prec))
        return memo[1]
    nonarch = nonarch_gauss_product(f, f.field)
    d = f.field.degree
    arch_sv = arch_gauss_exact(f, f.field)
    hd_sv = SqrtValue.of_rational(nonarch) * arch_sv
    hd_iv = hd_sv.to_interval(prec)
    h_iv = hd_iv if d == 1 else hd_iv.sqrt()
    h_iv = h_iv.clamp_below(1)  # H(f)^d >= prod_v |lead|_v = 1
    log_iv = hd_iv.log() / d
    hd_rat = hd_sv.as_rational()
    exact = None
    if hd_rat is not None:
        exact = hd_rat if d == 1 else rational_sqrt(hd_rat)
    return HeightReport(nonarch, arch_sv.to_interval(prec), h_iv, log_iv,
                        f.degree, f.field, exact, arch_sv)


@dataclass(frozen=True)
class CharPoly:
    """Primitive integer minimal polynomial with its power in the
    characteristic polynomial for the field extension."""

    coeffs: tuple[int, ...]       # degree-indexed, primitive, positive lead
    inner_degree: int
    power: int

    def expanded(self) -> list[int]:
        from .polynomials import intpoly_pow
        return intpoly_pow(list(self.coeffs), self.power)

    def __str__(self) -> str:
        return f"CharPoly({list(self.coeffs)}^{self.power})"


def _primitive_int_coeffs(fracs: list[Fraction]) -> tuple[int, ...]:
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = math.gcd(*ints)
    if g:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def char_poly(alpha: FieldElement, field: Field | None = None) -> CharPoly:
    """Minimal polynomial over Z and the power [K : Q(alpha)]."""
    fld = field or alpha.field
    d = fld.degree
    if alpha.is_zero():
        return CharPoly((0, 1), 1, d)
    if alpha.is_rational():
        return CharPoly(_primitive_int_coeffs([-alpha.a, Fraction(1)]), 1, d)
    return CharPoly(_primitive_int_coeffs([alpha.norm(), -alpha.trace(), Fraction(1)]), 2, 1)


def mk_alpha_exact(alpha: FieldElement, field: Field | None = None) -> SqrtValue:
    """M_K(alpha) = prod_v max(1, |alpha|_v) over all places, exact: the
    place product of the Gauss norms of (1, alpha), that is H(x - alpha)^d.
    It equals 1 exactly iff alpha is zero or a root of unity."""
    fld = field or alpha.field
    coeffs = (fld.one(), alpha)
    return (SqrtValue.of_rational(nonarch_gauss_product(coeffs, fld))
            * arch_gauss_exact(coeffs, fld))


def count_unity_roots(s: SplitPoly) -> int:
    """Number of roots (with multiplicity) that are roots of unity."""
    unity = set(roots_of_unity(s.field))
    return sum(1 for r in s.roots if r in unity)
