"""Block parameters (q, ell, n, d) and their validation/reduction.

A parameter set selects a cuspidal block of GL_n(F_q) in characteristic
ell: ell is an odd-or-even prime not dividing q, 2 <= n < ell, and the
block is cut out by a degree-d cuspidal support with d | n, d < n and
ord_ell(q^d) = n/d.  The derived quantities are w = ord_ell(q) and
r = ord_ell(q^w - 1), so l^r is the exact ell-part of q^n - 1.

Everything downstream works with the Morita-reduced form (q^d, n/d, 1),
in which n equals w and the cuspidal support is the trivial-degree one.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .arith import is_prime, multiplicative_order, ord_int, prime_power
from .errors import (
    AssertionFailure,
    DegenerateBlock,
    InvalidPrime,
    ParameterError,
    SupercuspidalCase,
)


class ParameterSet(namedtuple("ParameterSet", "q ell n d w r")):
    """A validated block (q, ell, n, d) with w = ord_ell(q) and
    r = ord_ell(q^w - 1)."""

    __slots__ = ()

    @property
    def is_reduced(self) -> bool:
        return self.d == 1

    @property
    def ell_power(self) -> int:
        """l^r, the ell-part of q^n - 1."""
        return self.ell**self.r

    @property
    def p(self) -> int:
        return prime_power(self.q)[0]


def validate_parameters(q: int, ell: int, n: int, d: int = 1) -> ParameterSet:
    for name, val in (("q", q), ("ell", ell), ("n", n), ("d", d)):
        if not isinstance(val, int) or val < 1:
            raise ParameterError(f"{name} must be a positive integer, got {val!r}")
    if prime_power(q) is None:
        raise InvalidPrime(f"q = {q} is not a prime power")
    if not is_prime(ell):
        raise InvalidPrime(f"ell = {ell} is not prime")
    if q % ell == 0:
        raise InvalidPrime(f"ell = {ell} divides q = {q}")
    if not (2 <= n < ell):
        raise DegenerateBlock(f"need 2 <= n < ell, got n = {n}, ell = {ell}")
    if n % d != 0:
        raise DegenerateBlock(f"d = {d} does not divide n = {n}")
    if d == n:
        raise SupercuspidalCase(f"d = n = {n}: supercuspidal block, out of scope")
    if multiplicative_order(q**d, ell) != n // d:
        raise DegenerateBlock(
            f"ord_ell(q^d) = {multiplicative_order(q**d, ell)} != n/d = {n // d}"
        )
    w = multiplicative_order(q, ell)
    r = ord_int(q**w - 1, ell)
    return ParameterSet(q=q, ell=ell, n=n, d=d, w=w, r=r)


def reduce_parameters(ps: ParameterSet) -> ParameterSet:
    """Morita reduction (q, n, d) -> (q^d, n/d, 1).  Idempotent; keeps r."""
    if ps.is_reduced:
        return ps
    red = validate_parameters(ps.q**ps.d, ps.ell, ps.n // ps.d, 1)
    # the ell-part of q^n - 1 is blind to the reduction
    if red.r != ps.r or red.w != red.n:
        raise AssertionFailure(f"reduction changed r or w: {ps} -> {red}")
    return red


def require_reduced(ps: ParameterSet) -> ParameterSet:
    red = reduce_parameters(ps)
    if red.n != red.w or gcd(red.q, red.ell) != 1:
        raise AssertionFailure(f"not a reduced parameter set: {red}")
    return red
