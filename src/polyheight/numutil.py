"""Integer helpers: primality, factoring, squarefree tests, small symbols,
plus square-and-multiply powering and the exact sign of a quadratic surd."""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

# Deterministic Miller-Rabin witnesses for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIME_LIMIT = 1 << 13


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _SMALL_PRIME_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_SMALL_PRIME_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i, b in enumerate(sieve) if b)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|.  n must be nonzero; units give {}."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    n = abs(n)
    return all(e == 1 for e in factorize(n).values())


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def vp(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if q == 0:
        raise ValueError("vp(0) is infinite")
    if isinstance(q, int):
        num, den = q, 1
    else:
        num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


def disc_symbol(disc: int, p: int) -> int:
    """Splitting symbol of a quadratic field discriminant at a prime.

    1 = split, -1 = inert, 0 = ramified.
    """
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 == 1 else -1
    if disc % p == 0:
        return 0
    return legendre(disc, p)


def totient(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def cyclotomic_orders(n: int) -> list[int]:
    """The orders ell (phi(ell) <= n) of the roots of unity of degree <= n."""
    return [ell for ell in range(1, 2 * n * n + 3) if totient(ell) <= n]


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod odd prime p (Tonelli-Shanks); a must be a QR."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        if r * r % p != a:
            raise ValueError(f"{a} is not a square mod {p}")
        return r
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise ValueError(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def power(base, k: int, one, mul=operator.mul):
    """base^k for k >= 0 by square-and-multiply; one is the identity of mul."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def surd_sign(u: Fraction, v: Fraction, D: int | None) -> int:
    """Exact sign of u + v*sqrt(D) for D > 0 (D is unused when v = 0)."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    cmp = u * u - D * v * v
    if cmp == 0:
        return 0
    return (1 if cmp > 0 else -1) * ((u > 0) - (u < 0))
