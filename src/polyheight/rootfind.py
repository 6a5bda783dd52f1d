"""Certified complex root isolation on integer balls.

Everything runs on Python integers at a fixed scale 2^-s, with s a few
bits above the working precision p.  A complex ball (x, y, r) is the
disc about (x + iy) 2^-s of radius r 2^-s; ball arithmetic puts every
rounding into the radius (midpoint-radius arithmetic as in Johansson,
"Arb", IEEE Trans. Comput. 2017).  The coefficients enter as balls built
straight from their exact (p + q sqrt(D)) / den form.

Double-precision seeds (companion-matrix eigenvalues) are refined by
Newton iteration on the Gaussian-integer midpoints; that step only picks
a centre z and proves nothing.  Each root is then certified on a disc
D = D(z, R) by the Krawczyk test (Rump, "Verification methods", Acta
Numerica 2010).  A point ball gives F >= |f(z)| and a disc ball gives
f'(D) inside B(c, rho).  For w in D, f(w) = f(z) + (w - z) m with m in
the convex hull of f'(D), so |m| >= mu = |c| - rho.  The map
phi(w) = w - f(w)/c then satisfies |phi(w) - z| <= (F + rho R)/|c| and
|phi(w) - phi(w')| <= (rho/|c|) |w - w'|; so when mu > 0 and F < mu R,
phi maps D into itself and contracts, and its unique fixed point is the
only root of f in D.  That root lies in D(z, delta) with
delta = F / mu, which is the disc reported.

Multiplicities come from an exact squarefree decomposition, so a
degree-m factor with m pairwise disjoint certified discs accounts for
every root.  :func:`isolate_roots` works at one precision; failure there
escalates precision up to a cap (``intervals.escalate``) and is
reported, never silently truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp

from .fields import FieldElement
from .intervals import (DEFAULT_PREC, MAX_PREC, ComplexBox, RealInterval, escalate,
                        working_precision)
from .intervals import CertificationError  # noqa: F401  (raised by complex_roots)
from .polynomials import PolyOverK, as_poly

GUARD_BITS = 32   # scale bits above the working precision
# Root-isolation budget: on a 2-core host, `mahler` of x^n - x - 1 takes
# about 6 s at n = 600 and about 10 s at n = 750
MAX_ISOLATION_DEGREE = 750

Ball = tuple[int, int, int]   # (x, y, r): the disc about (x + iy) 2^-s of radius r 2^-s


@dataclass(frozen=True)
class RootBox:
    box: ComplexBox      # the bounding square of the certified disc
    multiplicity: int


def _div_round(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


def coeff_ball(c: FieldElement, s: int) -> Ball:
    """A ball containing the image of c under the first embedding."""
    num = c.p << s
    if c.q == 0:
        x = _div_round(num, c.den)
        return x, 0, 0 if x * c.den == num else 1
    D = c.field.D
    t = math.isqrt(c.q * c.q * abs(D) << 2 * s)   # floor(|q| sqrt|D| 2^s)
    if c.q < 0:
        t = -t
    # the error is below 1/den + 1/2 in one part and 1/2 in the other
    if D > 0:
        return _div_round(num + t, c.den), 0, 2
    return _div_round(num, c.den), _div_round(t, c.den), 2


def derivative_balls(cs: list[Ball]) -> list[Ball]:
    """The coefficient balls of f' from those of f (exact)."""
    return [(k * x, k * y, k * r) for k, (x, y, r) in enumerate(cs)][1:]


def ball_horner(cs: list[Ball], x: int, y: int, rz: int, s: int) -> Ball:
    """A ball containing f(w) for every w in the ball (x, y, rz), where
    cs are the coefficient balls of f, lowest degree first."""
    half = 1 << (s - 1)
    zabs = math.isqrt(x * x + y * y) + 1          # > |z| 2^s
    ax, ay, ar = cs[-1]
    for cx, cy, cr in reversed(cs[:-1]):
        # (a + e)(z + e') - a z = a e' + e z + e e' for |e| <= ar, |e'| <= rz;
        # rounding the midpoint to the grid moves it by at most 2^-s / sqrt(2)
        err = (abs(ax) + abs(ay)) * rz + zabs * ar + ar * rz
        ax, ay = (((ax * x - ay * y + half) >> s) + cx,
                  ((ax * y + ay * x + half) >> s) + cy)
        ar = -(-err >> s) + 1 + cr
    return ax, ay, ar


def _values(cs: list[Ball], x: int, y: int, s: int) -> tuple[int, int, int, int]:
    """Midpoints of f(z) and f'(z), for Newton steps (not rigorous)."""
    fx, fy, _ = cs[-1]
    dx = dy = 0
    for cx, cy, _ in reversed(cs[:-1]):
        dx, dy = ((dx * x - dy * y) >> s) + fx, ((dx * y + dy * x) >> s) + fy
        fx, fy = ((fx * x - fy * y) >> s) + cx, ((fx * y + fy * x) >> s) + cy
    return fx, fy, dx, dy


def _newton(cs: list[Ball], x: int, y: int, s: int, prec: int) -> tuple[int, int, int]:
    """Newton iteration from (x, y) until the step falls below
    2^-prec (1 + |z|); returns the centre and |f'| 2^s near it."""
    dabs = 0
    for _ in range(prec):
        fx, fy, dx, dy = _values(cs, x, y, s)
        n2 = dx * dx + dy * dy
        if n2 == 0:
            break
        dabs = math.isqrt(n2)
        ux = ((fx * dx + fy * dy) << s) // n2
        uy = ((fy * dx - fx * dy) << s) // n2
        x, y = x - ux, y - uy
        if abs(ux) + abs(uy) <= (1 + ((abs(x) + abs(y)) >> s)) << (s - prec):
            break
    return x, y, dabs


def _krawczyk(cs: list[Ball], dcs: list[Ball], x: int, y: int, dabs: int,
              s: int) -> int | None:
    """delta 2^s, rounded up, for a disc about z = (x + iy) 2^-s holding
    exactly one root of f, or None when the test fails; dabs estimates
    |f'(z)| 2^s and sizes the disc D(z, R) that is tested."""
    fx, fy, fr = ball_horner(cs, x, y, 0, s)
    big_f = math.isqrt(fx * fx + fy * fy) + 1 + fr     # > |f(z)| 2^s
    radius = 2 * (big_f << s) // max(dabs, 1) + 2
    cx, cy, rho = ball_horner(dcs, x, y, radius, s)
    mu = math.isqrt(cx * cx + cy * cy) - rho           # <= (|c| - rho) 2^s
    if mu <= 0 or (big_f << s) >= mu * radius:
        return None
    return -(-(big_f << s) // mu)


def _fixed(v: float, s: int) -> int:
    n, d = float(v).as_integer_ratio()
    return (n << s) // d


def _fixed_mpf(v: mpmath.mpf, s: int) -> int:
    sign, man, exp, _ = v._mpf_
    out = man << (exp + s) if exp + s >= 0 else man >> -(exp + s)
    return -out if sign else out


def _seed_roots(cs: list[Ball], m: int, s: int, prec: int) -> list[tuple[int, int]] | None:
    """Approximate roots: companion eigenvalues, with an mpmath fallback
    when coefficient scales defeat double precision."""
    one = 1 << s
    try:
        arr = np.array([complex(x / one, y / one) for x, y, _ in cs], dtype=complex)
        if np.all(np.isfinite(arr)):
            seeds = np.roots((arr / max(abs(arr)))[::-1])
            if len(seeds) == m and np.all(np.isfinite(seeds)):
                return [(_fixed(z.real, s), _fixed(z.imag, s)) for z in seeds]
    except (np.linalg.LinAlgError, OverflowError, ValueError):
        pass
    return _mp_seeds(cs, s, prec, 200)


def _mp_seeds(cs: list[Ball], s: int, prec: int, maxsteps: int) -> list[tuple[int, int]] | None:
    """mpmath.polyroots at the working precision, on the coefficient midpoints."""
    with working_precision(prec):
        mids = [mpmath.mpc(mpmath.mpf((x, -s)), mpmath.mpf((y, -s))) for x, y, _ in cs]
        try:
            roots = mpmath.polyroots(mids[::-1], maxsteps=maxsteps, extraprec=prec)
        except (mpmath.libmp.NoConvergence, ZeroDivisionError):
            return None
        return [(_fixed_mpf(mpmath.re(z), s), _fixed_mpf(mpmath.im(z), s)) for z in roots]


def _coincide(centres: list[tuple[int, int, int]], s: int, prec: int) -> bool:
    """Two centres within 2^-(3 prec/4) (1 + |z|) of each other."""
    for i, (xi, yi, _) in enumerate(centres):
        tol = (1 + ((abs(xi) + abs(yi)) >> s)) << (s - 3 * prec // 4)
        for xj, yj, _ in centres[i + 1:]:
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= tol * tol:
                return True
    return False


def _disc_box(x: int, y: int, d: int, s: int, prec: int) -> ComplexBox:
    """The bounding square of the disc (x, y, d), with exact endpoints, as
    intervals at working precision prec."""
    def side(m: int) -> RealInterval:
        return RealInterval((from_man_exp(m - d, -s), from_man_exp(m + d, -s)), prec)
    return ComplexBox(side(x), side(y))


def _isolate_squarefree(g: PolyOverK, prec: int, target: Fraction) -> list[Ball] | None:
    """Pairwise disjoint discs (x, y, d) at scale 2^-(prec + GUARD_BITS),
    each holding one root of the squarefree g and of diameter at most
    target, or None when that could not be certified at prec."""
    s = prec + GUARD_BITS
    m = g.degree
    if m == 1:
        return [coeff_ball(-(g.coeffs[0] / g.coeffs[1]), s)]
    cs = [coeff_ball(c, s) for c in g.coeffs]
    dcs = derivative_balls(cs)
    seeds = _seed_roots(cs, m, s, prec)
    if seeds is None:
        return None
    centres = [_newton(cs, x, y, s, prec) for x, y in seeds]
    # two seeds collapsing onto one root means the double-precision
    # companion pass could not separate a cluster; re-seed at full
    # working precision before giving up
    if _coincide(centres, s, prec):
        seeds = _mp_seeds(cs, s, prec, 300)
        if seeds is None:
            return None
        centres = [_newton(cs, x, y, s, prec) for x, y in seeds]
    width = math.floor(target * (1 << s))
    discs = []
    for x, y, dabs in centres:
        d = _krawczyk(cs, dcs, x, y, dabs, s)
        if d is None or 2 * d > width:
            return None
        discs.append((x, y, d))
    for i, (xi, yi, di) in enumerate(discs):
        for xj, yj, dj in discs[i + 1:]:
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= (di + dj) ** 2:
                return None
    return discs


def isolate_roots(factors: list[tuple[PolyOverK, int]], prec: int,
                  target_width=None) -> list[RootBox] | None:
    """Certified boxes, at working precision prec, for every root of the
    squarefree factors (with their multiplicities), or None when some
    factor could not be isolated at this precision."""
    target = (Fraction(target_width) if target_width is not None
              else Fraction(1, 1 << (prec // 2)))
    s = prec + GUARD_BITS
    out: list[RootBox] = []
    for g, mult in factors:
        discs = _isolate_squarefree(g, prec, target)
        if discs is None:
            return None
        out.extend(RootBox(_disc_box(x, y, d, s, prec), mult) for x, y, d in discs)
    return out


def check_isolation_degree(poly: PolyOverK) -> None:
    """Refuse a polynomial above the root-isolation budget, before any work."""
    if poly.degree > MAX_ISOLATION_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds the root-isolation budget "
                         f"of MAX_ISOLATION_DEGREE = {MAX_ISOLATION_DEGREE}")


def complex_roots(f, target_width=None, prec: int = DEFAULT_PREC,
                  max_prec: int = MAX_PREC) -> list[RootBox]:
    """All complex roots of f (under the first embedding), as certified
    boxes with multiplicities.  Coefficients must be exact (rational or
    field elements); the leading coefficient is nonzero by construction.
    Raises CertificationError when no precision up to max_prec isolates
    every root.
    """
    poly = as_poly(f)
    if poly.degree == 0:
        return []
    check_isolation_degree(poly)
    factors = poly.squarefree_decomposition()
    roots = escalate(lambda p: isolate_roots(factors, p, target_width), prec, max_prec)
    assert sum(r.multiplicity for r in roots) == poly.degree
    return roots
