"""Lattice scans: min |N(beta^w + gamma^w)| over coprime pairs of
integers of Q(sqrt(-1)) (w = 4) and Q(sqrt(-3)) (w = 6).

Elements are FieldElements.  Coprimality is read from the ideal norm
N((beta, gamma)) (`valuations.ideal_norm`), without a Euclidean gcd; each
element's norm is taken once, and the pair's ideal norm is needed only
when the two norms share a factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, FieldElement
from .valuations import _integral_norm, ideal_norm

_LATTICE_BUDGET = 2_500_000   # pairs scanned; about 10 s


@dataclass(frozen=True)
class LatticeReport:
    field: Field
    box_radius: int
    exponent: int
    min_norm: int
    attaining_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    unit_or_zero_hits: int   # pairs with beta^w + gamma^w in the excluded set


def is_coprime(beta: FieldElement, gamma: FieldElement) -> bool:
    """Whether the integral elements beta, gamma generate the unit ideal,
    i.e. N((beta, gamma)) = 1."""
    if not (beta.is_integral() and gamma.is_integral()):
        raise ValueError("coprimality is defined for integral elements only")
    return ideal_norm([beta, gamma]) == 1


def lattice_case_check(field: Field, box_radius: int) -> LatticeReport:
    """Exhaustive scan of coprime nonzero pairs (beta, gamma) in a
    coordinate box, minimizing |N(beta^w + gamma^w)|.

    Supported fields: D = -1 (w = 4, beta = x + y i with x > 0, y >= 0,
    one per unit class) and D = -3 (w = 6, beta = x + y (-1 + sqrt(-3))/2,
    one per sign).  Pairs are reported by their box coordinates (x, y).
    Also counts pairs landing in the excluded set ({0, 1} resp.
    {-1, 0, 1}); the scans should find none.  A box of more than
    2 500 000 pairs is rejected before anything is built.
    """
    if box_radius < 1:
        raise ValueError("box radius must be positive")
    r = box_radius
    if field.D == -1:
        w, m = 4, r * (r + 1)
        excluded = {field.zero(), field.one()}
    elif field.D == -3:
        w, m = 6, 2 * r * (r + 1)
        excluded = {field.zero(), field.one(), -field.one()}
    else:
        raise ValueError("lattice scan supports Q(sqrt(-1)) and Q(sqrt(-3)) only")
    pairs = m * (m + 1) // 2   # m box elements, pairs taken with i <= j
    if pairs > _LATTICE_BUDGET:
        raise ValueError(f"radius {r} gives {pairs} pairs, over the budget of {_LATTICE_BUDGET}")
    if w == 4:
        elems = [((x, y), field.element(x, y))
                 for x in range(1, r + 1) for y in range(0, r + 1)]
    else:
        omega = field.element(Fraction(-1, 2), Fraction(1, 2))
        elems = [((x, y), x + y * omega)
                 for x in range(-r, r + 1) for y in range(-r, r + 1)
                 if x > 0 or (x == 0 and y > 0)]
    powers = [(xy, z, _integral_norm(z), z ** w) for xy, z in elems]
    min_norm: int | None = None
    attaining: list[tuple[tuple[int, int], tuple[int, int]]] = []
    hits = 0
    for i, (bxy, beta, bn, bw) in enumerate(powers):
        for gxy, gamma, gn, gw in powers[i:]:  # symmetric in (beta, gamma)
            if math.gcd(bn, gn) != 1 and not is_coprime(beta, gamma):
                continue
            v = bw + gw
            if v in excluded:
                hits += 1
                continue
            nv = _integral_norm(v)
            if min_norm is None or nv < min_norm:
                min_norm = nv
                attaining = [(bxy, gxy)]
            elif nv == min_norm:
                attaining.append((bxy, gxy))
    assert min_norm is not None
    return LatticeReport(field, box_radius, w, min_norm,
                         tuple(sorted(attaining)), hits)
