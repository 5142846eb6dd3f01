"""Exact arithmetic in the prime-power cyclotomic tower Q(zeta_{l^i}),
on the integer base ``ExactVector`` that ``Poly`` shares.

``ExactVector`` keeps a vector of rationals as integer numerators over
one common denominator, in lowest terms: ``den > 0`` and
``gcd(*nums, den) == 1``.  It owns that normal form and all arithmetic
that does not depend on the ring; a subclass aligns the operands and
folds the ``convolve`` product.  A ``CyclotomicNumber`` is a vector on
the power basis 1, z, ..., z^(phi(l^i) - 1), kept reduced modulo
Phi_{l^i}(X) = Phi_l(X^(l^(i-1))) by ``_reduce``, the only fold modulo
Phi.  Level 0 is plain Q.  Elements of different levels over the same l
mix freely: the lower one embeds via zeta_i = zeta_j^(l^(j-i)).
Equality is a tuple compare, and no arithmetic builds a ``Fraction``;
``Fraction``s appear only at the interfaces: the constructors, the
``coeffs`` view, ``as_rational`` and the hash of a rational element.

The l-adic valuation is normalised so that nu(zeta_{l^i} - 1) = 1 at
level i >= 1, hence nu(l) = phi(l^i) and on rationals embedded at level
i the valuation is phi(l^i) times the usual ord_l.  Levels are kept
explicit everywhere for that reason.  Q_l(zeta_{l^i}) is totally
ramified over Q_l of degree phi with uniformizer pi = zeta - 1, so
writing x = sum_k d_k pi^k (0 <= k < phi, d_k rational) the terms have
valuations phi * ord_l(d_k) + k, pairwise distinct mod phi; the
valuation of x is therefore exactly their minimum, read off without
computing the norm.

>>> z = zeta(3, 1)
>>> (z * z + z + 1).is_zero()
True
>>> ell_valuation(z - 1)
1
>>> ell_valuation(CyclotomicNumber.rational(3, Fraction(-3)).embed_to(1))
2
>>> x = CyclotomicNumber(3, 1, [Fraction(1, 2), Fraction(3, 4)])
>>> x.nums, x.den, x * 4 - 2
((2, 3), 4, 3*z3)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .arith import ord_int
from .errors import ZeroArgument

_ZERO = Fraction(0)


def phi_prime_power(ell: int, level: int) -> int:
    if level == 0:
        return 1
    m = ell**level
    return m - m // ell


def convolve(a, b) -> list:
    """Dense product of two integer coefficient sequences, low degree
    first (length len(a) + len(b) - 1, no reduction)."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def lowest_terms(nums, den: int) -> tuple[tuple, int]:
    """(nums, den) divided by gcd(*nums, den), with den > 0."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def add_numerators(a, da: int, b, db: int, sign: int = 1) -> tuple[tuple, int]:
    """a/da + sign * b/db for equal-length integer sequences a and b,
    over the lcm of the denominators and then in lowest terms."""
    g = gcd(da, db)
    fa, fb = db // g, da // g * sign
    return lowest_terms([x * fa + y * fb for x, y in zip(a, b)], da * fa)


def _reduce(ell: int, level: int, raw) -> list:
    """Reduce dense integer coefficients to the power basis at ``level``:
    the fold of every product and of ``invariants.at_zeta``."""
    if level == 0:
        return [sum(raw)]
    m = ell**level
    phi = m - m // ell
    step = m // ell
    folded = [0] * m
    for e, c in enumerate(raw):
        if c:
            folded[e % m] += c
    # X^phi = -(1 + X^step + ... + X^((ell-2)*step)); targets stay < e
    for e in range(m - 1, phi - 1, -1):
        c = folded[e]
        if c:
            base = e - phi
            for j in range(ell - 1):
                folded[base + j * step] -= c
    return folded[:phi]


class ExactVector:
    """Integer numerators over one positive denominator, in lowest terms.
    Subclasses supply ``_with`` (an element of the same ring from
    numerators already in lowest terms), ``_coerce`` (an operand of the
    same kind, or None), ``_align`` (both operands on numerator vectors
    of one length) and ``_fold`` (the reduction of a product)."""

    __slots__ = ("nums", "den")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``Fraction``s (read-only)."""
        den = self.den
        return tuple(Fraction(x, den) if x else _ZERO for x in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_ell_integral(self, ell: int) -> bool:
        """No coefficient has l in its denominator (l prime)."""
        return self.den % ell != 0

    def _normal(self, nums, den: int):
        return self._with(*lowest_terms(nums, den))

    def _scaled(self, num: int, den: int):
        """self * num / den for integers num, den > 0."""
        if den == 1 and num in (1, -1):
            return self if num == 1 else -self
        return self._normal([x * num for x in self.nums], self.den * den)

    def _plus(self, other, sign: int):
        """self + sign * other for sign = +-1."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a._with(*add_numerators(a.nums, a.den, b.nums, b.den, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._with(tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a._normal(a._fold(convolve(a.nums, b.nums)), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = self._coerce(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a.den == b.den and a.nums == b.nums


def _new(ell: int, level: int, nums: tuple, den: int) -> "CyclotomicNumber":
    """Element from reduced numerators already in lowest terms."""
    x = object.__new__(CyclotomicNumber)
    x.ell = ell
    x.level = level
    x.nums = nums
    x.den = den
    return x


class CyclotomicNumber(ExactVector):
    __slots__ = ("ell", "level")

    def __init__(self, ell: int, level: int, coeffs):
        nums, den = linalg.clear_denominators(coeffs)
        self.ell = ell
        self.level = level
        self.nums, self.den = lowest_terms(_reduce(ell, level, nums), den)

    @classmethod
    def rational(cls, ell: int, x) -> "CyclotomicNumber":
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return _new(ell, 0, (x.numerator,), x.denominator)

    @classmethod
    def zero(cls, ell: int, level: int = 0) -> "CyclotomicNumber":
        return _new(ell, level, (0,) * phi_prime_power(ell, level), 1)

    # -- level bookkeeping -------------------------------------------------

    def embed_to(self, level: int) -> "CyclotomicNumber":
        if level == self.level:
            return self
        if level < self.level:
            raise ValueError("can only embed into a higher level")
        # z_low^e = z^(e * stretch) with e * stretch < phi: already reduced
        out = [0] * phi_prime_power(self.ell, level)
        if self.level == 0:
            out[0] = self.nums[0]
        else:
            out[:: self.ell ** (level - self.level)] = self.nums
        return _new(self.ell, level, tuple(out), self.den)

    def canonical(self) -> "CyclotomicNumber":
        """Equal element at the smallest possible level."""
        cur = self
        ell = self.ell
        while cur.level >= 1:
            nums = cur.nums
            if cur.level == 1:
                if any(nums[1:]):
                    return cur
                return _new(ell, 0, nums[:1], cur.den)
            if any(any(nums[k::ell]) for k in range(1, ell)):
                return cur
            cur = _new(ell, cur.level - 1, nums[::ell], cur.den)
        return cur

    def as_rational(self) -> Fraction | None:
        c = self.canonical()
        return Fraction(c.nums[0], c.den) if c.level == 0 else None

    # -- the ring-specific hooks of ExactVector -------------------------------

    def _with(self, nums: tuple, den: int) -> "CyclotomicNumber":
        return _new(self.ell, self.level, nums, den)

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.ell != self.ell and other.level > 0 and self.level > 0:
                raise ValueError("mixing cyclotomic towers of different primes")
            return other
        if isinstance(other, (int, Fraction)):
            return _new(self.ell, 0, (other.numerator,), other.denominator)
        return None

    def _align(self, other):
        lvl = max(self.level, other.level)
        return self.embed_to(lvl), other.embed_to(lvl)

    def _fold(self, raw) -> list:
        return _reduce(self.ell, self.level, raw)

    # -- arithmetic --------------------------------------------------------

    # bound in this class's own namespace, where perfbench/traced_cli.py
    # looks them up to count calls
    __add__ = __radd__ = ExactVector.__add__

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber) and not (self.level and other.level):
            # a level-0 factor scales the other one
            a, s = (self, other) if other.level == 0 else (other, self)
            return a._scaled(s.nums[0], s.den)
        return ExactVector.__mul__(self, other)

    __rmul__ = __mul__

    # -- comparisons -------------------------------------------------------

    def __hash__(self):
        c = self.canonical()
        if c.level == 0:
            return hash(Fraction(c.nums[0], c.den))
        return hash((c.ell, c.level, c.nums, c.den))

    def __repr__(self):
        c = self.canonical()
        r = c.as_rational()
        if r is not None:
            return str(r)
        terms = []
        for e, x in enumerate(c.coeffs):
            if x == 0:
                continue
            z = f"z{c.ell ** c.level}"
            mono = "1" if e == 0 else (z if e == 1 else f"{z}^{e}")
            terms.append(mono if x == 1 and e else f"{x}*{mono}" if e else str(x))
        return " + ".join(terms).replace("+ -", "- ")


def zeta(ell: int, level: int, exponent: int = 1) -> CyclotomicNumber:
    """zeta_{l^level}^exponent as a reduced power-basis vector."""
    if level == 0:
        return CyclotomicNumber.rational(ell, 1)
    e = exponent % ell**level
    raw = [0] * (e + 1)
    raw[e] = 1
    return _new(ell, level, tuple(_reduce(ell, level, raw)), 1)


def ell_valuation(x: CyclotomicNumber) -> int:
    """Normalised l-adic valuation: nu(zeta - 1) = 1, nu(l) = phi(l^i).

    At level i >= 1, x = sum_j c_j zeta^j / den with integers c_j.
    Taylor-shift sum_j c_j X^j by X -> X + 1 to get x * den as
    sum_k d_k (zeta - 1)^k, and return min_k(phi * ord_l(d_k) + k) minus
    phi * ord_l(den).  The extension is totally ramified with
    uniformizer zeta - 1, so the terms have pairwise distinct valuations
    mod phi and the minimum is exact.  The shift keeps the degree below
    phi, so no reduction modulo Phi is needed.
    """
    if x.is_zero():
        raise ZeroArgument("valuation of zero")
    ell = x.ell
    if x.level == 0:
        return ord_int(x.nums[0], ell) - ord_int(x.den, ell)
    d = list(x.nums)
    phi = len(d)
    for i in range(phi - 1):
        for j in range(phi - 2, i - 1, -1):
            d[j] += d[j + 1]
    best = min(phi * ord_int(dk, ell) + k for k, dk in enumerate(d) if dk)
    return best - phi * ord_int(x.den, ell)


def is_ell_integral(x: CyclotomicNumber) -> bool:
    """True iff x lies in the l-local ring of integers Z_(l)[zeta].

    The power basis is an integral basis for Q(zeta_{l^i}), so this is
    exactly "every coefficient has denominator prime to l"; in lowest
    terms the common denominator is the lcm of those denominators.
    """
    return x.is_ell_integral(x.ell)

