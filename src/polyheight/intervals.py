"""Directed-rounded real intervals and complex boxes.

Every enclosure carries its endpoints and its own precision, and its
arithmetic runs on mpmath's interval kernels at that precision, so no
result depends on process-global state.  :func:`escalate`, the one
precision-escalation loop, retries a computation at doubled precision;
:func:`working_precision` scopes mpmath's own context precision for the
mpmath routines (``polyroots``) that read it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, TypeVar

import mpmath
from mpmath.libmp import (from_float, from_int, mpf_add, mpf_le, mpf_lt, mpf_mul,
                          mpf_shift, mpf_sub, mpi_abs, mpi_add, mpi_div, mpi_log, mpi_mul,
                          mpi_neg, mpi_pow_int, mpi_sqrt, mpi_sub, round_ceiling, round_floor,
                          round_nearest, round_up, to_float)

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


def working_precision(bits: int):
    """A context that sets mpmath's own working precision (checked), in
    bits; enclosures never read it."""
    return mpmath.workprec(check_precision(bits))


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
    """A closed interval [lo, hi]: a libmp endpoint pair with its own
    precision in bits.  Each operation rounds outward through mpmath's
    interval kernels (``mpmath.libmp.libmpi``) at the larger precision of
    its operands; ints, Fractions, floats and mpfs enter rounded outward
    at that precision."""

    __slots__ = ("_v", "prec")

    def __init__(self, v: tuple, prec: int):
        self._v = v
        self.prec = check_precision(prec)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int, prec: int = DEFAULT_PREC) -> "RealInterval":
        return cls(_endpoints(q, prec), prec)

    @classmethod
    def hull(cls, lo, hi, prec: int = DEFAULT_PREC) -> "RealInterval":
        """[lo, hi] with lo rounded down and hi rounded up at prec."""
        a, b = _endpoints(lo, prec)[0], _endpoints(hi, prec)[1]
        if mpf_lt(b, a):
            raise ValueError("endpoints must be properly ordered")
        return cls((a, b), prec)

    # -- accessors ----------------------------------------------------

    @property
    def lo(self) -> mpmath.mpf:
        """The lower endpoint, exactly."""
        return mpmath.mp.make_mpf(self._v[0])

    @property
    def hi(self) -> mpmath.mpf:
        """The upper endpoint, exactly."""
        return mpmath.mp.make_mpf(self._v[1])

    @property
    def width(self) -> float:
        """hi - lo, rounded up to 53 bits."""
        return to_float(mpf_sub(self._v[1], self._v[0], 53, round_up))

    @property
    def mid(self) -> float:
        return to_float(mpf_shift(mpf_add(*self._v, 53, round_nearest), -1))

    def __contains__(self, x) -> bool:
        """Exact membership of an int, Fraction, float or mpf."""
        q = mpf_to_fraction(x) if isinstance(x, mpmath.mpf) else Fraction(x)
        (lo, hi), num, den = self._v, from_int(q.numerator), from_int(q.denominator)
        return mpf_le(mpf_mul(lo, den), num) and mpf_le(num, mpf_mul(hi, den))

    def overlaps(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic ---------------------------------------------------

    def _apply(self, kernel, other, swap: bool = False) -> "RealInterval":
        o = ri(other, self.prec)
        prec = max(self.prec, o.prec)
        return RealInterval(kernel(o._v, self._v, prec) if swap else kernel(self._v, o._v, prec),
                            prec)

    def __add__(self, other):
        return self._apply(mpi_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(mpi_sub, other)

    def __rsub__(self, other):
        return self._apply(mpi_sub, other, swap=True)

    def __mul__(self, other):
        return self._apply(mpi_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(mpi_div, other)

    def __rtruediv__(self, other):
        return self._apply(mpi_div, other, swap=True)

    def __neg__(self):
        return RealInterval(mpi_neg(self._v, self.prec), self.prec)

    def __pow__(self, k: int):
        return RealInterval(mpi_pow_int(self._v, k, self.prec), self.prec)

    def __abs__(self):
        return RealInterval(mpi_abs(self._v, self.prec), self.prec)

    def sqrt(self) -> "RealInterval":
        return RealInterval(mpi_sqrt(self._v, self.prec), self.prec)

    def log(self) -> "RealInterval":
        return RealInterval(mpi_log(self._v, self.prec), self.prec)

    def maximum(self, other) -> "RealInterval":
        o = ri(other, self.prec)
        return RealInterval.hull(max(self.lo, o.lo), max(self.hi, o.hi), max(self.prec, o.prec))

    def clamp_below(self, bound) -> "RealInterval":
        """Intersect with [bound, inf); bound must be a proven lower bound."""
        b = ri(bound, self.prec)
        if self.hi < b.lo:
            raise ValueError("enclosure entirely below proven bound")
        return RealInterval.hull(max(self.lo, b.lo), self.hi, max(self.prec, b.prec))

    def __repr__(self) -> str:
        return f"RealInterval({mpmath.nstr(self.lo, 20)}, {mpmath.nstr(self.hi, 20)})"


def _endpoints(x, prec: int) -> tuple:
    """x as a libmp endpoint pair rounded outward at prec, as mpmath's
    interval context converts it: an int, float or mpf directly, and a
    Fraction as its numerator's interval divided by its denominator's."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return mpi_div(_endpoints(x.numerator, prec), _endpoints(x.denominator, prec), prec)
        x = x.numerator
    if isinstance(x, int):
        return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)
    if isinstance(x, float):
        return from_float(x, prec, round_floor), from_float(x, prec, round_ceiling)
    if isinstance(x, mpmath.mpf):
        return x._mpf_, x._mpf_
    raise TypeError(f"cannot enclose {type(x).__name__}")


def ri(x, prec: int = DEFAULT_PREC) -> RealInterval:
    """Shorthand constructor: x itself when it is an interval already."""
    return x if isinstance(x, RealInterval) else RealInterval(_endpoints(x, prec), prec)


class ComplexBox:
    """Axis-aligned rectangle in the complex plane (re x im intervals)."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        self.re, self.im = re, im

    @property
    def width(self) -> float:
        return max(self.re.width, self.im.width)

    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    def __abs__(self) -> RealInterval:
        return (self.re ** 2 + self.im ** 2).sqrt()

    def __repr__(self) -> str:
        return f"ComplexBox({self.re!r}, {self.im!r})"
