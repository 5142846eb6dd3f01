"""Exact arithmetic in the prime-power cyclotomic tower Q(zeta_{l^i}).

An element is a vector of rationals on the power basis
1, z, ..., z^(phi(l^i) - 1) of Q(zeta_{l^i}), always kept reduced modulo
the cyclotomic polynomial Phi_{l^i}(X) = Phi_l(X^(l^(i-1))).  Level 0 is
plain Q.  Elements of different levels over the same l mix freely: the
lower one embeds via zeta_i = zeta_j^(l^(j-i)).  Products and reductions
run on integer numerators over one common denominator; ``_reduce`` is
the only fold modulo Phi.

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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .arith import ord_frac, ord_int
from .errors import ZeroArgument

_ZERO = Fraction(0)


def phi_prime_power(ell: int, level: int) -> int:
    if level == 0:
        return 1
    m = ell**level
    return m - m // ell


def _reduce(ell: int, level: int, raw) -> list:
    """Reduce dense integer coefficients to the power basis at ``level``."""
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


def _numerators(coeffs) -> tuple[list, int]:
    """Integer numerators of ``coeffs`` over their least common denominator."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(nums, den) -> tuple:
    return tuple(Fraction(x, den) if x else _ZERO for x in nums)


class CyclotomicNumber:
    __slots__ = ("ell", "level", "coeffs")

    def __init__(self, ell: int, level: int, coeffs, reduced: bool = False):
        self.ell = ell
        self.level = level
        if reduced:
            self.coeffs = tuple(coeffs)
        else:
            nums, den = _numerators([Fraction(c) for c in coeffs])
            self.coeffs = _fractions(_reduce(ell, level, nums), den)
        assert len(self.coeffs) == phi_prime_power(ell, level)

    @classmethod
    def rational(cls, ell: int, x) -> "CyclotomicNumber":
        return cls(ell, 0, (Fraction(x),), reduced=True)

    @classmethod
    def zero(cls, ell: int, level: int = 0) -> "CyclotomicNumber":
        n = phi_prime_power(ell, level)
        return cls(ell, level, (Fraction(0),) * n, reduced=True)

    # -- level bookkeeping -------------------------------------------------

    def embed_to(self, level: int) -> "CyclotomicNumber":
        if level == self.level:
            return self
        if level < self.level:
            raise ValueError("can only embed into a higher level")
        # z_low^e = z^(e * stretch) with e * stretch < phi: already reduced
        stretch = 0 if self.level == 0 else self.ell ** (level - self.level)
        out = [_ZERO] * phi_prime_power(self.ell, level)
        for e, c in enumerate(self.coeffs):
            out[e * stretch] = c
        return CyclotomicNumber(self.ell, level, out, reduced=True)

    def canonical(self) -> "CyclotomicNumber":
        """Equal element at the smallest possible level."""
        cur = self
        while cur.level >= 1:
            if cur.level == 1:
                if any(cur.coeffs[1:]):
                    return cur
                cur = CyclotomicNumber.rational(cur.ell, cur.coeffs[0])
                continue
            ell = cur.ell
            if any(c for e, c in enumerate(cur.coeffs) if e % ell):
                return cur
            down = cur.coeffs[::ell]
            cur = CyclotomicNumber(ell, cur.level - 1, down, reduced=True)
        return cur

    def as_rational(self) -> Fraction | None:
        c = self.canonical()
        return c.coeffs[0] if c.level == 0 else None

    def is_rational(self) -> bool:
        return self.as_rational() is not None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.ell != self.ell and other.level > 0 and self.level > 0:
                raise ValueError("mixing cyclotomic towers of different primes")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(self.ell, other)
        return None

    def _common(self, other):
        lvl = max(self.level, other.level)
        return self.embed_to(lvl), other.embed_to(lvl)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return CyclotomicNumber(
            a.ell, a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), reduced=True
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.ell, self.level, tuple(-c for c in self.coeffs), reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == 0 or other.level == 0:
            a, s = (self, other.coeffs[0]) if other.level == 0 else (other, self.coeffs[0])
            if s == 1:
                return a
            if s == -1:
                return -a
            return CyclotomicNumber(a.ell, a.level, tuple(c * s for c in a.coeffs), reduced=True)
        a, b = self._common(other)
        na, da = _numerators(a.coeffs)
        nb, db = _numerators(b.coeffs)
        out = [0] * (2 * len(na) - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    if y:
                        out[i + j] += x * y
        folded = _reduce(a.ell, a.level, out)
        return CyclotomicNumber(a.ell, a.level, _fractions(folded, da * db), reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicNumber.rational(self.ell, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.level == 0:
            return CyclotomicNumber.rational(self.ell, 1 / self.coeffs[0])
        m = self._mult_matrix()
        n = len(self.coeffs)
        e0 = [Fraction(int(i == 0)) for i in range(n)]
        sol = linalg.solve_unique(m, e0)
        return CyclotomicNumber(self.ell, self.level, sol, reduced=True)

    def _mult_matrix(self):
        """Matrix of y -> self*y on the power basis (columns indexed by basis)."""
        n = len(self.coeffs)
        cols = []
        for j in range(n):
            shifted = [0] * j + list(self.coeffs)
            cols.append(CyclotomicNumber(self.ell, self.level, shifted).coeffs)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def norm(self) -> Fraction:
        """Field norm to Q (det of the multiplication-by-self matrix)."""
        if self.level == 0:
            return self.coeffs[0]
        return linalg.determinant(self._mult_matrix())

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        c = self.canonical()
        if c.level == 0:
            return hash(c.coeffs[0])
        return hash((c.ell, c.level, c.coeffs))

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
    m = ell**level
    e = exponent % m
    raw = [Fraction(0)] * (e + 1)
    raw[e] = Fraction(1)
    return CyclotomicNumber(ell, level, raw)


def ell_valuation(x: CyclotomicNumber) -> int:
    """Normalised l-adic valuation: nu(zeta - 1) = 1, nu(l) = phi(l^i).

    At level i >= 1, clear denominators to integers c_j over one den,
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
        return ord_frac(x.coeffs[0], ell)
    d, den = _numerators(x.coeffs)
    phi = len(d)
    for i in range(phi - 1):
        for j in range(phi - 2, i - 1, -1):
            d[j] += d[j + 1]
    best = min(phi * ord_int(dk, ell) + k for k, dk in enumerate(d) if dk)
    return best - phi * ord_int(den, ell)


def is_ell_integral(x: CyclotomicNumber) -> bool:
    """True iff x lies in the l-local ring of integers Z_(l)[zeta].

    The power basis is an integral basis for Q(zeta_{l^i}), so this is
    exactly "every coefficient has denominator prime to l".
    """
    return all(c.denominator % x.ell != 0 for c in x.coeffs)


def congruent_mod(x: CyclotomicNumber, y: CyclotomicNumber, modulus) -> bool:
    """x = y mod ``modulus`` in the l-local integers (modulus rational)."""
    scaled = (x - y) * (1 / Fraction(modulus))
    return is_ell_integral(scaled)
