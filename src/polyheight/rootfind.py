"""Certified complex root isolation.

Double-precision seeds (companion-matrix eigenvalues) are refined by
Newton iteration at working precision and then certified with the
interval Newton operator: if N(B) = mid(B) - f(mid)/f'(B) maps a box
strictly into itself, B contains exactly one root of the squarefree
factor.  Multiplicities come from an exact squarefree decomposition, so
a degree-m factor with m pairwise disjoint certified boxes accounts for
every root.  :func:`isolate_roots` works at one precision; failure there
escalates precision up to a cap (``intervals.escalate``) and is
reported, never silently truncated.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import iv

from .intervals import (DEFAULT_PREC, MAX_PREC, ComplexBox, escalate,
                        working_precision)
from .intervals import CertificationError  # noqa: F401  (raised by complex_roots)
from .polynomials import PolyOverK, as_poly


@dataclass(frozen=True)
class RootBox:
    box: ComplexBox
    multiplicity: int


def _horner_box(coeffs: list[ComplexBox], x: ComplexBox) -> ComplexBox:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _point_box(z: mpmath.mpc) -> ComplexBox:
    return ComplexBox(iv.mpf(z.real), iv.mpf(z.imag))


def _seed_roots(mids: list[mpmath.mpc], m: int, prec: int) -> list[mpmath.mpc] | None:
    """Approximate roots: companion eigenvalues, with an mpmath fallback
    when coefficient scales defeat double precision."""
    try:
        arr = np.array([complex(c) for c in mids], dtype=complex)
        if np.all(np.isfinite(arr)):
            seeds = np.roots((arr / max(abs(arr)))[::-1])
            if len(seeds) == m and np.all(np.isfinite(seeds)):
                return [mpmath.mpc(s) for s in seeds]
    except (np.linalg.LinAlgError, OverflowError, ValueError):
        pass
    try:
        return mpmath.polyroots(list(reversed(mids)), maxsteps=200,
                                extraprec=prec)
    except (mpmath.libmp.NoConvergence, ZeroDivisionError):
        return None


def _newton_refine(coeffs: list[mpmath.mpc], z: mpmath.mpc, prec: int) -> tuple[mpmath.mpc, mpmath.mpf]:
    dcoeffs = [c * k for k, c in enumerate(coeffs)][1:]
    tol = mpmath.mpf(2) ** (8 - prec)
    step = mpmath.mpf(1)
    for _ in range(prec):
        fz = mpmath.polyval(list(reversed(coeffs)), z)
        dz = mpmath.polyval(list(reversed(dcoeffs)), z)
        if dz == 0:
            break
        delta = fz / dz
        z = z - delta
        step = abs(delta)
        if step <= tol * (1 + abs(z)):
            break
    return z, step


def _certify(coeff_boxes: list[ComplexBox], dcoeff_boxes: list[ComplexBox],
             z: mpmath.mpc, radius: mpmath.mpf, target: mpmath.mpf) -> ComplexBox | None:
    """Interval-Newton certification around z; returns a box of width
    <= target containing exactly one root, or None."""
    for _ in range(4):
        pad = iv.mpf([-radius, radius])
        box = ComplexBox(iv.mpf(z.real) + pad, iv.mpf(z.imag) + pad)
        try:
            fprime = _horner_box(dcoeff_boxes, box)
            fmid = _horner_box(coeff_boxes, _point_box(z))
            newton = _point_box(z) - fmid / fprime
        except ZeroDivisionError:
            radius = radius / 8
            continue
        if box.contains_interior(newton):
            cur = newton.intersect(box)
            for _ in range(80):
                if cur.width <= target:
                    break
                mid = cur.mid_mpc()
                try:
                    fprime = _horner_box(dcoeff_boxes, cur)
                    fmid = _horner_box(coeff_boxes, _point_box(mid))
                    nxt = _point_box(mid) - fmid / fprime
                except ZeroDivisionError:
                    break
                try:
                    shrunk = nxt.intersect(cur)
                except ValueError:
                    break
                if shrunk.width >= cur.width:
                    break
                cur = shrunk
            return cur if cur.width <= target else None
        radius = radius / 8
    return None


def _isolate_squarefree(g: PolyOverK, prec: int, target: mpmath.mpf,
                        embedding: int) -> list[ComplexBox] | None:
    m = g.degree
    if m == 0:
        return []
    if m == 1:
        root = -(g.coeffs[0] / g.coeffs[1])
        return [root.embeddings(prec)[embedding]]
    with working_precision(prec):
        coeff_boxes = g.embedded_coeffs(prec, embedding)
        dcoeff_boxes = g.derivative().embedded_coeffs(prec, embedding)
        mids = [c.mid_mpc() for c in coeff_boxes]
        seeds = _seed_roots(mids, m, prec)
        if seeds is None:
            return None
        refined: list[tuple[mpmath.mpc, mpmath.mpf]] = []
        for s in seeds:
            z, step = _newton_refine(mids, s, prec)
            refined.append((z, step))
        # two seeds collapsing onto one root means the double-precision
        # companion pass could not separate a cluster; re-seed at full
        # working precision before giving up
        coincide = mpmath.mpf(2) ** (-(prec * 3 // 4))
        if any(abs(refined[i][0] - refined[j][0]) <= coincide * (1 + abs(refined[i][0]))
               for i in range(m) for j in range(i + 1, m)):
            try:
                seeds = mpmath.polyroots(list(reversed(mids)), maxsteps=300,
                                         extraprec=prec)
            except (mpmath.libmp.NoConvergence, ZeroDivisionError):
                return None
            refined = [_newton_refine(mids, s, prec) for s in seeds]
        boxes: list[ComplexBox] = []
        for idx, (z, step) in enumerate(refined):
            sep = min((abs(z - w) for jdx, (w, _) in enumerate(refined) if jdx != idx),
                      default=mpmath.mpf(1))
            radius = max(step * 4, mpmath.mpf(2) ** (-(prec // 2)) * (1 + abs(z)))
            radius = min(radius, sep / 4) if sep > 0 else radius
            if radius == 0:
                radius = mpmath.mpf(2) ** (-(prec // 2))
            box = _certify(coeff_boxes, dcoeff_boxes, z, radius, target)
            if box is None:
                return None
            boxes.append(box)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if not boxes[i].disjoint(boxes[j]):
                    return None
        return boxes


def isolate_roots(factors: list[tuple[PolyOverK, int]], prec: int,
                  target_width=None, embedding: int = 0) -> list[RootBox] | None:
    """Certified boxes, at working precision prec, for every root of the
    squarefree factors (with their multiplicities), or None when some
    factor could not be isolated at this precision."""
    with working_precision(prec):
        target = (mpmath.mpf(target_width) if target_width is not None
                  else mpmath.mpf(2) ** (-(prec // 2)))
    out: list[RootBox] = []
    for g, mult in factors:
        boxes = _isolate_squarefree(g, prec, target, embedding)
        if boxes is None:
            return None
        out.extend(RootBox(b, mult) for b in boxes)
    return out


def complex_roots(f, target_width=None, prec: int = DEFAULT_PREC,
                  max_prec: int = MAX_PREC, embedding: int = 0) -> list[RootBox]:
    """All complex roots of f (under the chosen embedding), as certified
    boxes with multiplicities.  Coefficients must be exact (rational or
    field elements); the leading coefficient is nonzero by construction.
    Raises CertificationError when no precision up to max_prec isolates
    every root.
    """
    poly = as_poly(f)
    if poly.degree == 0:
        return []
    factors = poly.squarefree_decomposition()
    roots = escalate(lambda p: isolate_roots(factors, p, target_width, embedding),
                     prec, max_prec)
    assert sum(r.multiplicity for r in roots) == poly.degree
    return roots
