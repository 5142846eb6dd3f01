"""Exact character values on the block's characteristic-zero members.

Two families are needed: the cuspidal lifts indexed by the nonzero
orbit representatives, and the generalized Steinberg lift sitting in
slot 0.  Values of the cuspidal family live in Q(zeta) at the block's
level; Steinberg values are plain integers.

Conventions for a class type with factor list ((P_1, lam_1), ...):

* cuspidal lifts vanish unless the type is primary (single P);
* on a primary type with deg P = a and x = len(lam) parts the value is
  (-1)^(n-x) * prod_{k=1}^{x-1} (q^{ka} - 1) * sum_{k<a} theta^(i q^k)(t)
  with t a root of P; for a = n the sum is the orbit sum of i times
  the class's theta exponent, read from ``invariants.orbit_sums``, the
  images of f under ``invariants.at_zeta``;
* the Steinberg lift vanishes on non-semisimple types and on semisimple
  ones contributes the p-part of the centralizer order with the sign
  (-1)^(n - number of blocks).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .classes import ClassType, theta_exponent
from .cyclotomic import CyclotomicNumber
from .invariants import orbit_sums
from .params import ParameterSet, require_reduced


def cuspidal_dimension(ps: ParameterSet) -> int:
    ps = require_reduced(ps)
    return prod(ps.q**k - 1 for k in range(1, ps.n))


def steinberg_dimension(ps: ParameterSet) -> int:
    ps = require_reduced(ps)
    return ps.q ** (ps.n * (ps.n - 1) // 2)


def cuspidal_form(ct: ClassType, ps: ParameterSet) -> tuple[Fraction, int]:
    """(c, j) such that the slot-i cuspidal lift takes the value c times
    the orbit sum of i*j, sum_k zeta^(i j q^k), on the class type: j is
    the theta exponent of a degree-n type and c = 0 off primary types.
    Roots of smaller degree a are l-regular, so there j = 0, whose orbit
    sum is n, and c = scalar * a / n."""
    ps = require_reduced(ps)
    if not ct.is_primary:
        return Fraction(0), 0
    poly, lam = ct.factors[0]
    a = poly.degree
    x = len(lam)
    scalar = (-1) ** (ps.n - x) * prod(ps.q ** (k * a) - 1 for k in range(1, x))
    if a == ps.n:
        return Fraction(scalar), theta_exponent(ct, ps)
    return Fraction(scalar * a, ps.n), 0


def cuspidal_value(i: int, ct: ClassType, ps: ParameterSet) -> CyclotomicNumber:
    """Value of the slot-i cuspidal lift on the given class type, as an
    element of Q(zeta_{l^r}), read off ``cuspidal_form``."""
    c, j = cuspidal_form(ct, ps)
    return orbit_sums(ps)[i * j % ps.ell_power] * c


def steinberg_value_raw(ct: ClassType, p: int, n: int) -> int:
    """l-free form of the Steinberg value: sign times the p-part of the
    centralizer order on semisimple types, zero elsewhere."""
    if not ct.is_semisimple:
        return 0
    blocks = sum(len(lam) for _, lam in ct.factors)
    p_part = 1
    cent = ct.centralizer_order()
    while cent % p == 0:
        p_part *= p
        cent //= p
    return p_part if (n - blocks) % 2 == 0 else -p_part


def steinberg_value(ct: ClassType, ps: ParameterSet) -> int:
    ps = require_reduced(ps)
    return steinberg_value_raw(ct, ps.p, ps.n)

