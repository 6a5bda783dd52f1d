"""Directed-rounded real intervals and complex boxes.

Thin wrappers over ``mpmath.iv`` so that every enclosure in the library
carries its own endpoints and shrinks under precision escalation.  The
working precision is the ambient ``mpmath.iv`` precision; use
:func:`working_precision` to scope it, and :func:`escalate`, the one
precision-escalation loop, to retry a computation at doubled precision.
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, TypeVar

import mpmath
from mpmath import iv

MIN_PREC = 32
DEFAULT_PREC = 256
MAX_PREC = 4096

T = TypeVar("T")


class CertificationError(RuntimeError):
    """No precision up to the cap certified a result."""


def check_precision(bits: int) -> int:
    """bits itself, or ValueError when it is not a supported working
    precision (MIN_PREC to MAX_PREC bits)."""
    if not MIN_PREC <= bits <= MAX_PREC:
        raise ValueError(f"precision must be between {MIN_PREC} and {MAX_PREC} bits, "
                         f"got {bits}")
    return bits


def mpf_to_fraction(x: mpmath.mpf, floor_bits: int | None = None) -> Fraction:
    """Exact rational value of a finite mpf, or of x rounded toward -inf
    to floor_bits bits when that is given."""
    v = x._mpf_
    if floor_bits is not None:
        v = mpmath.libmp.mpf_pos(v, floor_bits, mpmath.libmp.round_floor)
    p, q = mpmath.libmp.to_rational(v)
    return Fraction(int(p), int(q))


@contextmanager
def working_precision(bits: int):
    """Temporarily set the interval working precision (checked), in bits."""
    check_precision(bits)
    old_iv, old_mp = iv.prec, mpmath.mp.prec
    iv.prec = bits
    mpmath.mp.prec = bits
    try:
        yield
    finally:
        iv.prec = old_iv
        mpmath.mp.prec = old_mp


def escalate(attempt: Callable[[int], T | None], start: int = DEFAULT_PREC,
             cap: int = MAX_PREC,
             conclusive: Callable[[T], bool] = lambda result: True) -> T:
    """The precision-escalation loop: attempt(p) at p = start, 2*start, ...
    up to cap, where attempt returns None when it certified nothing at p.

    Returns the first result that is conclusive, else the last result;
    raises CertificationError when no precision up to cap certified
    anything, and ValueError for a start outside the supported range.
    """
    p, last = check_precision(start), None
    while p <= cap:
        result = attempt(p)
        if result is not None:
            if conclusive(result):
                return result
            last = result
        p *= 2
    if last is None:
        raise CertificationError(
            f"could not certify at any precision from {start} to {cap} bits")
    return last


class RealInterval:
    """A closed interval [lo, hi] with directed-rounded endpoints."""

    __slots__ = ("_v",)

    def __init__(self, v):
        if not isinstance(v, iv.mpf):
            v = iv.mpf(v)
        self._v = v

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "RealInterval":
        if isinstance(q, int):
            return cls(iv.mpf(q))
        return cls(iv.mpf(q.numerator) / iv.mpf(q.denominator))

    @classmethod
    def hull(cls, lo, hi) -> "RealInterval":
        return cls(iv.mpf([lo, hi]))

    # -- accessors ----------------------------------------------------

    @property
    def lo(self) -> mpmath.mpf:
        """The lower endpoint, exactly (not re-rounded to the ambient precision)."""
        return mpmath.mp.make_mpf(self._v._mpi_[0])

    @property
    def hi(self) -> mpmath.mpf:
        """The upper endpoint, exactly."""
        return mpmath.mp.make_mpf(self._v._mpi_[1])

    @property
    def width(self) -> float:
        return float(mpmath.mpf(self._v.delta))

    @property
    def mid(self) -> float:
        return float(mpmath.mpf(self._v.mid))

    def __contains__(self, x) -> bool:
        if isinstance(x, Fraction):
            return self._contains_exact(x)
        return x in self._v

    def _contains_exact(self, q: Fraction) -> bool:
        # endpoint-exact containment test for rationals
        return mpf_to_fraction(self.lo) <= q <= mpf_to_fraction(self.hi)

    def overlaps(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RealInterval):
            return x._v
        if isinstance(x, Fraction):
            return iv.mpf(x.numerator) / iv.mpf(x.denominator)
        return iv.mpf(x)

    def __add__(self, other):
        return RealInterval(self._v + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return RealInterval(self._v - self._coerce(other))

    def __rsub__(self, other):
        return RealInterval(self._coerce(other) - self._v)

    def __mul__(self, other):
        return RealInterval(self._v * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RealInterval(self._v / self._coerce(other))

    def __rtruediv__(self, other):
        return RealInterval(self._coerce(other) / self._v)

    def __neg__(self):
        return RealInterval(-self._v)

    def __pow__(self, k: int):
        return RealInterval(self._v ** k)

    def __abs__(self):
        return RealInterval(abs(self._v))

    def sqrt(self) -> "RealInterval":
        return RealInterval(iv.sqrt(self._v))

    def log(self) -> "RealInterval":
        return RealInterval(iv.log(self._v))

    def maximum(self, other) -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval(self._coerce(other))
        return RealInterval.hull(max(self.lo, o.lo), max(self.hi, o.hi))

    def clamp_below(self, bound) -> "RealInterval":
        """Intersect with [bound, inf); bound must be a proven lower bound."""
        blo = RealInterval(self._coerce(bound)).lo
        if self.hi < blo:
            raise ValueError("enclosure entirely below proven bound")
        return RealInterval.hull(max(self.lo, blo), self.hi)

    def __repr__(self) -> str:
        return f"RealInterval({mpmath.nstr(self.lo, 20)}, {mpmath.nstr(self.hi, 20)})"

    def __str__(self) -> str:
        return str(self._v)


def ri(x) -> RealInterval:
    """Shorthand constructor."""
    if isinstance(x, RealInterval):
        return x
    if isinstance(x, Fraction):
        return RealInterval.from_fraction(x)
    return RealInterval(iv.mpf(x))


class ComplexBox:
    """Axis-aligned rectangle in the complex plane (re x im intervals)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = ri(re)
        self.im = ri(im)

    @property
    def width(self) -> float:
        return max(self.re.width, self.im.width)

    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def __abs__(self) -> RealInterval:
        return (self.re ** 2 + self.im ** 2).sqrt()

    def __repr__(self) -> str:
        return f"ComplexBox({self.re!r}, {self.im!r})"

