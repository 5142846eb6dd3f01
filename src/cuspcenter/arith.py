"""Small integer/rational number theory helpers (exact, desk scale)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import ZeroArgument


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f <= isqrt(m):
        if m % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int):
    """Return (p, e) with q = p**e and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return (q, 1)


def multiplicative_order(a: int, m: int) -> int:
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def ord_int(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ZeroArgument("valuation of 0")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def ord_frac(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ZeroArgument("valuation of 0")
    return ord_int(x.numerator, p) - ord_int(x.denominator, p)


def moebius(m: int) -> int:
    out, x, p = 1, m, 2
    while x > 1:
        if p * p > x:
            p = x
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return out


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    large = [m // d for d in reversed(small) if d * d != m]
    return small + large
