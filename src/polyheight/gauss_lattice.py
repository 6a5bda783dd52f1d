"""Gaussian and Eisenstein integers: exact arithmetic and Euclidean gcd.

Both rings are norm-Euclidean, so gcd runs by rounded division.  Used
for the lattice scans over coprime pairs.
"""
from __future__ import annotations

from .numutil import power


def _round_half(n: int, d: int) -> int:
    """Nearest integer to n/d (ties toward +infinity), d > 0."""
    return (2 * n + d) // (2 * d)


class GaussInt:
    """a + b*i with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __eq__(self, other):
        return isinstance(other, GaussInt) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.a * other.a - self.b * other.b,
                        self.a * other.b + self.b * other.a)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conj(self) -> "GaussInt":
        return GaussInt(self.a, -self.b)

    def __pow__(self, k: int) -> "GaussInt":
        return power(self, k, GaussInt(1, 0))

    def divmod(self, other: "GaussInt") -> tuple["GaussInt", "GaussInt"]:
        n = other.norm()
        t = self * other.conj()
        q = GaussInt(_round_half(t.a, n), _round_half(t.b, n))
        return q, self - other * q

    def canonical_associate(self) -> "GaussInt":
        """Unit multiple in the quarter plane a > 0, b >= 0 (0 fixed)."""
        z = self
        if z.is_zero():
            return z
        for _ in range(4):
            if z.a > 0 and z.b >= 0:
                return z
            z = GaussInt(-z.b, z.a)  # multiply by i
        raise AssertionError("unit orbit exhausted")

    def __repr__(self):
        return f"GaussInt({self.a}, {self.b})"


class EisensteinInt:
    """a + b*w with w a primitive cube root of unity (w^2 = -1 - w)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __eq__(self, other):
        return (isinstance(other, EisensteinInt)
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.a, self.b, "w"))

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a + bw)(c + dw) = ac - bd + (ad + bc - bd) w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conj(self) -> "EisensteinInt":
        # conjugate of a + bw is a + b*w^2 = (a - b) - b*w
        return EisensteinInt(self.a - self.b, -self.b)

    def __pow__(self, k: int) -> "EisensteinInt":
        return power(self, k, EisensteinInt(1, 0))

    def divmod(self, other: "EisensteinInt") -> tuple["EisensteinInt", "EisensteinInt"]:
        n = other.norm()
        t = self * other.conj()
        q = EisensteinInt(_round_half(t.a, n), _round_half(t.b, n))
        return q, self - other * q

    def __repr__(self):
        return f"EisensteinInt({self.a}, {self.b})"


def ring_gcd(x, y):
    """Euclidean gcd in either lattice ring (up to units)."""
    while not y.is_zero():
        _, r = x.divmod(y)
        x, y = y, r
    return x


def is_coprime(x, y) -> bool:
    return ring_gcd(x, y).norm() == 1
