"""Small integer/rational number theory helpers (exact, desk scale).

The engine's rationals are integer numerators over one positive
denominator in lowest terms: ``(num, den)``, or ``(nums, den)`` for a
vector; no module imports ``fractions`` to compute."""

from __future__ import annotations

import sys
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
    """p-adic valuation of a nonzero rational: a ``(num, den)`` pair, an
    int or a ``Fraction``."""
    num, den = num_den(x)
    if num == 0:
        raise ZeroArgument("valuation of 0")
    return ord_int(num, p) - ord_int(den, p)


def num_den(x) -> tuple[int, int]:
    """A ``(num, den)`` pair, or an int's or a ``Fraction``'s."""
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


def lowest_terms(nums, den: int) -> tuple[tuple, int]:
    """(nums, den) divided by gcd(*nums, den), with den > 0."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def ratio(num: int, den: int) -> tuple[int, int]:
    """num / den as a ``(num, den)`` pair in lowest terms, den > 0."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def ratio_str(num: int, den: int) -> str:
    """The text of ``Fraction(num, den)``."""
    num, den = ratio(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def ratio_hash(num: int, den: int) -> int:
    """``hash(Fraction(num, den))`` for a pair in lowest terms: Python's
    numeric hash, the int num * den^-1 modulo the hash prime P."""
    info = sys.hash_info
    if den % info.modulus == 0:  # P | den: no inverse
        return info.inf if num >= 0 else -info.inf
    return hash(num * pow(den, -1, info.modulus))


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
