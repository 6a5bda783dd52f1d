"""Mahler measures and archimedean Gauss-norm products.

The Mahler measure |a| * prod max(1, |root|) is evaluated from certified
root enclosures.
Each certified computation here is a worker that runs at one precision,
escalated by ``intervals.escalate``.
Archimedean Gauss norms over the supported fields are exact quadratic
surds (see exactreal), with interval views at any precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exactreal import SqrtValue
from .fields import Field
from .intervals import DEFAULT_PREC, MAX_PREC, RealInterval, escalate, ri
from .polynomials import PolyOverK, SplitPoly, as_poly
from .rootfind import check_isolation_degree, isolate_roots
from .verdicts import BoundCheck, INCONCLUSIVE, exact_check, interval_check


@dataclass(frozen=True)
class MahlerValue:
    """Certified enclosure of a Mahler measure."""

    enclosure: RealInterval
    degree: int

    @property
    def lo(self):
        return self.enclosure.lo

    @property
    def hi(self):
        return self.enclosure.hi

    @property
    def width(self) -> float:
        return self.enclosure.width


def mahler_worker(f) -> Callable[[int], RealInterval | None]:
    """The Mahler measure of f (first embedding) at one precision: a
    function taking p to an enclosure of |lead| * prod max(1, |root|)
    from roots isolated at p bits, or to None when they could not be
    isolated at p.  Hand it to ``intervals.escalate``."""
    poly = as_poly(f)
    check_isolation_degree(poly)
    lead_abs = SqrtValue.abs_sigma1(poly.lead)
    factors = poly.squarefree_decomposition()

    def at(p: int) -> RealInterval | None:
        roots = isolate_roots(factors, p)
        if roots is None:
            return None
        lead = lead_abs.to_interval(p)
        acc = lead
        for rb in roots:
            acc = acc * abs(rb.box).maximum(1) ** rb.multiplicity
        return acc.clamp_below(lead.lo)
    return at


def mahler_measure(f, prec: int = DEFAULT_PREC, max_prec: int = MAX_PREC) -> MahlerValue:
    """|lead| * prod max(1, |root|) with multiplicities, certified.

    Accepts exact coefficient sequences or a PolyOverK; for quadratic
    fields the first complex embedding is measured.  Precision doubles
    until the enclosure is narrower than 2^-(prec/3) or max_prec is
    reached.
    """
    if isinstance(f, SplitPoly):
        sv = mahler_sigma1_exact_split(f)
        return MahlerValue(sv.to_interval(prec), f.degree)
    poly = as_poly(f)
    goal = 2.0 ** (-(prec // 3))
    enclosure = escalate(mahler_worker(poly), prec, max_prec,
                         conclusive=lambda m: m.width <= goal)
    return MahlerValue(enclosure, poly.degree)


def mahler_sigma1_exact_split(s: SplitPoly) -> SqrtValue:
    """Exact Mahler measure of the first embedding of a split polynomial."""
    acc = SqrtValue.abs_sigma1(s.lead)
    one = SqrtValue.one()
    for r in s.roots:
        acc = acc * max(SqrtValue.abs_sigma1(r), one)
    return acc


def arch_gauss_exact(f, field: Field) -> SqrtValue:
    """prod_sigma max_i |sigma(a_i)| as an exact quadratic surd, for the
    coefficients a_i of f (a PolyOverK or a sequence of field elements)."""
    coeffs = getattr(f, "coeffs", f)
    if field.is_rational:
        return SqrtValue.of_rational(max(abs(c.a) for c in coeffs))
    if field.is_imaginary:
        return SqrtValue.of_rational(max(c.norm() for c in coeffs))
    best1 = max(SqrtValue.abs_sigma1(c) for c in coeffs)
    best2 = max(SqrtValue.abs_sigma1(c.conj()) for c in coeffs)
    return best1 * best2


def _gauss_norm_sigma1_exact(f: PolyOverK) -> SqrtValue:
    """max_i |sigma_1(a_i)| as an exact surd (one embedding only)."""
    return max(SqrtValue.abs_sigma1(c) for c in f.coeffs)


def check_complexmahler(f, prec: int = DEFAULT_PREC,
                        max_prec: int = MAX_PREC) -> BoundCheck:
    """Check |f|_C >= M(f) * (n+1)^(-1/2) for the (first-embedding)
    complex polynomial.  Split input is decided exactly; otherwise the
    comparison escalates precision until conclusive or capped.
    """
    if isinstance(f, SplitPoly):
        n = f.degree
        lhs_sv = _gauss_norm_sigma1_exact(f.expand())
        rhs_sv = mahler_sigma1_exact_split(f) * SqrtValue.sqrt_of_rational(Fraction(1, n + 1))
        return exact_check("complexmahler", lhs_sv, rhs_sv,
                           lhs_sv.to_interval(prec), rhs_sv.to_interval(prec))
    poly = as_poly(f)
    lhs_sv = _gauss_norm_sigma1_exact(poly)
    scale = Fraction(1, poly.degree + 1)
    measure = mahler_worker(poly)

    def at(p: int) -> BoundCheck | None:
        m = measure(p)
        if m is None:
            return None
        lhs = lhs_sv.to_interval(p)
        rhs = m * ri(scale, p).sqrt()
        return interval_check("complexmahler", lhs, rhs)

    return escalate(at, prec, max_prec, conclusive=lambda c: c.verdict != INCONCLUSIVE)
