"""Height lower bounds as checkable comparisons.

Four inequalities are verified per split polynomial: the per-root
local-product bound (alphabound1), the minimal-measure bound (bound1),
the twisted per-root bound with exponent w (alphabound2), and the
unity-root counting bound (bound2).  All four are decided exactly; the
reported lhs/rhs enclosures show the inequality in its displayed form.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .analytic import check_complexmahler, mahler_measure, mahler_worker
from .exactreal import SqrtValue
from .fields import Field, FieldElement
from .heights import count_unity_roots, height, mk_alpha_exact
from .intervals import DEFAULT_PREC, escalate, mpf_to_fraction, ri
from .numutil import cyclotomic_orders
from .polynomials import (SplitPoly, has_unit_mahler, int_to_poly,
                          intpoly_graeffe, is_primitive_int)
from .valuations import local_max_product
from .verdicts import BoundCheck, exact_check, interval_check

__all__ = [
    "BoundCheck", "CkInterval", "MahlerFloor", "T2Constant",
    "alphabound2_root_factor", "check_alphabound1", "check_alphabound2",
    "check_bound1", "check_bound2", "check_complexmahler",
    "combined_bound_check", "ck_interval", "mahler_floor", "t2_constant",
]


def alphabound2_root_factor(alpha: FieldElement, field: Field,
                            exponent: int | None = None) -> Fraction:
    """prod_p max(1,|alpha|^e_p) * prod_sigma |1+alpha^e|_sigma, exact, for
    the exponent e, by default the field's w.

    The archimedean part over all embeddings is |N(1 + alpha^e)|.
    At least 1 for every nonzero alpha when e = w; exactly 2^d when alpha
    is a root of unity.
    """
    if alpha.is_zero():
        raise ValueError("factor requires a nonzero element")
    e = field.unity_order if exponent is None else exponent
    return local_max_product(alpha, field, e) * (field.one() + alpha ** e).abs_norm()


def _distinct_roots(s: SplitPoly):
    """(root, multiplicity) pairs; SplitPoly sorts its roots, so equal
    roots are adjacent."""
    return ((r, sum(1 for _ in g)) for r, g in itertools.groupby(s.roots))


def check_alphabound1(s: SplitPoly, prec: int = DEFAULT_PREC) -> BoundCheck:
    """H(f)^d >= (n+1)^(-d/2) * prod_i M_K(alpha_i)."""
    n, d = s.degree, s.field.degree
    lhs = height(s, prec).height_power_exact()
    rhs = SqrtValue.sqrt_of_rational(Fraction(1, (n + 1) ** d))
    for r, m in _distinct_roots(s):
        rhs = rhs * mk_alpha_exact(r, s.field) ** m
    return exact_check("alphabound1", lhs, rhs, lhs.to_interval(prec), rhs.to_interval(prec))


def check_bound1(s: SplitPoly, mk, prec: int = DEFAULT_PREC) -> BoundCheck:
    """log H(f) >= ((n - r)/d) log mk - (1/2) log(n+1).

    mk must be a valid lower bound for the minimal nontrivial local
    Mahler measure of the field; any rational lower bound is sound.
    """
    mk_frac = mk if isinstance(mk, Fraction) else Fraction(mk)
    if mk_frac <= 1:
        raise ValueError("mk must exceed 1")
    n, d, r = s.degree, s.field.degree, count_unity_roots(s)
    hrep = height(s, prec)
    # exact form: H^d * (n+1)^(d/2) >= mk^(n-r)
    lhs_sv = hrep.height_power_exact() * SqrtValue.sqrt_of_rational(Fraction((n + 1) ** d))
    rhs_sv = SqrtValue.of_rational(mk_frac ** (n - r))
    rhs_iv = (ri(mk_frac, prec).log() * Fraction(n - r, d)
              - ri(n + 1, prec).log() * Fraction(1, 2))
    return exact_check("bound1", lhs_sv, rhs_sv, hrep.log_height, rhs_iv)


def check_alphabound2(s: SplitPoly, prec: int = DEFAULT_PREC) -> BoundCheck:
    """H(f)^(dw) >= (n+1)^(-dw) * prod_i of the twisted root factors."""
    n, d, w = s.degree, s.field.degree, s.field.unity_order
    lhs = height(s, prec).height_power_exact(w)
    rhs_q = Fraction(1, (n + 1) ** (d * w))
    for r, m in _distinct_roots(s):
        rhs_q *= alphabound2_root_factor(r, s.field) ** m
    rhs = SqrtValue.of_rational(rhs_q)
    return exact_check("alphabound2", lhs, rhs, lhs.to_interval(prec), rhs.to_interval(prec))


def check_bound2(s: SplitPoly, prec: int = DEFAULT_PREC) -> BoundCheck:
    """log H(f) >= (r/w) log 2 - log(n+1) with r unity roots."""
    n, d, w, r = s.degree, s.field.degree, s.field.unity_order, count_unity_roots(s)
    hrep = height(s, prec)
    # exact form: H^(dw) * (n+1)^(dw) >= 2^(rd)
    lhs_sv = hrep.height_power_exact(w) * SqrtValue.of_rational(Fraction((n + 1) ** (d * w)))
    rhs_sv = SqrtValue.of_rational(Fraction(2 ** (r * d)))
    rhs_iv = ri(2, prec).log() * Fraction(r, w) - ri(n + 1, prec).log()
    return exact_check("bound2", lhs_sv, rhs_sv, hrep.log_height, rhs_iv)


def combined_bound_check(s: SplitPoly, mk, prec: int = DEFAULT_PREC) -> BoundCheck:
    """(w/log 2 + d/log mk) log H >= n - (w/(2 log 2) + d/log mk) log(n+1),
    evaluated directly with intervals (independently of the sub-checks).
    """
    mk_frac = mk if isinstance(mk, Fraction) else Fraction(mk)
    if mk_frac <= 1:
        raise ValueError("mk must exceed 1")
    n, d, w = s.degree, s.field.degree, s.field.unity_order
    hrep = height(s, prec)
    log2 = ri(2, prec).log()
    logmk = ri(mk_frac, prec).log()
    logn1 = ri(n + 1, prec).log()
    lhs = (w / log2 + d / logmk) * hrep.log_height
    rhs = n - (w / (log2 * 2) + d / logmk) * logn1
    return interval_check("combined", lhs, rhs)


@dataclass(frozen=True)
class CkInterval:
    """Lower/upper bounds for the exponential-height-growth constant."""

    lower: float   # w / log 2
    upper: float   # w / log 2 + d / log mk, or lower when pinned exactly
    exact: bool

    def __post_init__(self):
        assert self.lower <= self.upper + 1e-12


def ck_interval(field: Field, mk: float | None) -> CkInterval:
    """The certified interval for the field's growth constant.

    Pinned to w/log 2 (exact) for totally real fields and for the two
    imaginary fields with extra roots of unity (D = -1, -3); mk = None
    (minimal measure unknown) leaves the upper end infinite there.
    """
    if mk is not None and mk <= 1:
        raise ValueError("mk must exceed 1")
    w, d = field.unity_order, field.degree
    lower = w / math.log(2)
    if field.is_totally_real or field.D in (-1, -3):
        return CkInterval(lower, lower, True)
    if mk is None:
        return CkInterval(lower, math.inf, False)
    return CkInterval(lower, lower + d / math.log(mk), False)


@dataclass(frozen=True)
class MahlerFloor:
    value: float
    vacuous: bool     # value <= 1 carries no information
    source: str


@lru_cache(maxsize=1)
def _nonreciprocal_floor() -> float:
    # smallest measure among nonreciprocal minimal polynomials: x^3 - x - 1;
    # its lower endpoint rounded down to 53 bits, so the float is exact
    return float(mpf_to_fraction(mahler_measure(int_to_poly([-1, -1, 0, 1])).lo, 53))


def _degree_formula_floor(degree: int) -> float:
    t = math.log(math.log(degree)) / math.log(degree)
    return 1 + 0.25 * t ** 3


def mahler_floor(degree: int, reciprocal_allowed: bool = True) -> MahlerFloor:
    """Best stated lower bound for minimal-polynomial Mahler measures of
    the given degree; values <= 1 are returned as-is with the vacuous
    flag set, never clamped.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    candidates: list[tuple[float, str]] = []
    if degree % 2 == 1 or not reciprocal_allowed:
        # odd-degree minimal polynomials are never reciprocal
        candidates.append((_nonreciprocal_floor(), "nonreciprocal"))
    if degree >= 2:
        candidates.append((_degree_formula_floor(degree), "degree-formula"))
    value, source = max(candidates)
    return MahlerFloor(value, value <= 1, source)


@dataclass(frozen=True)
class T2Constant:
    """Constant for polynomials whose roots all have degree <= k."""

    k: int
    w: int             # lcm of orders of roots of unity of degree <= k
    M_floor: float
    C: float
    floor_attained: bool   # False when no measure was found in (1, cap]


_T2_MAX_DEGREE = 6
_T2_BUDGET = 5_000_000
_T2_GRAEFFE_STEPS = 5


def _graeffe_limits(n: int, cap: Fraction) -> list[list[int]]:
    """For e = 2^s, s = 1 .. _T2_GRAEFFE_STEPS, and cap = num/den, the
    integers floor(C(n, i) num^e / den^e), i = 0 .. n."""
    num, den = cap.numerator, cap.denominator
    return [[math.comb(n, i) * num ** e // den ** e for i in range(n + 1)]
            for e in (2 ** s for s in range(1, _T2_GRAEFFE_STEPS + 1))]


def _above_cap(coeffs: list[int], limits: list[list[int]]) -> bool:
    """True when a Graeffe iterate proves M(coeffs) > cap.

    The s-th iterate g has M(g) = M^e with e = 2^s, and Mahler's
    inequality gives M(g) >= |g_i| / C(n, i).  For an integer |g_i|,
    |g_i| > floor(C(n, i) num^e / den^e) iff |g_i| den^e > C(n, i) num^e,
    so then M^e > cap^e.
    """
    g = coeffs
    for lims in limits:
        g = intpoly_graeffe(g)
        if any(abs(c) > t for c, t in zip(g, lims)):
            return True
    return False


def _enumerate_measures(k: int, cap: Fraction, prec: int) -> float | None:
    """Smallest certified Mahler-measure lower endpoint, rounded down to a
    float, over all primitive integer polynomials of degree <= k with
    coefficients bounded by the binomial envelope, restricted to measures
    possibly in (1, cap].  Candidates that a few integer Graeffe steps
    prove to lie above the cap are skipped before any root isolation."""
    best: float | None = None
    for n in range(1, k + 1):
        bound = [int(math.comb(n, i) * cap) for i in range(n + 1)]
        limits = _graeffe_limits(n, cap)
        ranges = [range(-bound[i], bound[i] + 1) for i in range(n)]

        def rec(i: int, current: list[int]):
            nonlocal best
            if i < 0:
                coeffs = current[:]
                if coeffs[0] == 0 or not is_primitive_int(coeffs):
                    return
                if has_unit_mahler(coeffs) or _above_cap(coeffs, limits):
                    return
                m = escalate(mahler_worker(coeffs), prec,
                             conclusive=lambda m: m.lo > 1)
                if m.lo <= 1:
                    # nontrivial by the Kronecker filter, so this is
                    # unreachable; dropping it silently would be unsound
                    raise ArithmeticError(
                        f"cannot separate measure of {coeffs} from 1")
                if mpf_to_fraction(m.lo) > cap:
                    return
                # rounded down, so the float stays below the certified endpoint
                v = float(mpf_to_fraction(m.lo, 53))
                if best is None or v < best:
                    best = v
                return
            for c in ranges[i]:
                current[i] = c
                rec(i - 1, current)

        for lead in range(1, bound[n] + 1):
            current = [0] * n + [lead]
            rec(n - 1, current)
    return best


def t2_constant(k: int, cap: float, prec: int = DEFAULT_PREC) -> T2Constant:
    """w = lcm of admissible root-of-unity orders and a certified Mahler
    floor from exhaustive coefficient-bounded enumeration, combined into
    C = w/log 2 + k/log M_floor."""
    if k < 1:
        raise ValueError("k must be positive")
    if cap <= 1:
        raise ValueError("cap must exceed 1")
    if k > _T2_MAX_DEGREE:
        raise ValueError(f"enumeration infeasible beyond degree {_T2_MAX_DEGREE}")
    cap_frac = Fraction(cap)
    size = sum(
        math.prod(2 * int(math.comb(n, i) * cap_frac) + 1 for i in range(n + 1))
        for n in range(1, k + 1))
    if size > _T2_BUDGET:
        raise ValueError(f"enumeration of ~{size} polynomials exceeds the budget")
    w = math.lcm(*cyclotomic_orders(k))
    found = _enumerate_measures(k, cap_frac, prec)
    m_floor = float(cap) if found is None else min(found, float(cap))
    c = w / math.log(2) + k / math.log(m_floor)
    return T2Constant(k, w, m_floor, c, found is not None)
