"""Dense univariate polynomials over Q on the integer exact kernel.

A ``Poly`` is a ``cyclotomic.ExactVector``: integer numerators, low
degree first, over one positive common denominator in lowest terms.
The numerators are kept trimmed, so the zero polynomial has ``nums ==
()``, ``den == 1`` and degree -1.  Sums zero-pad the shorter operand and
products are a bare ``convolve``.  There is no division: each quotient
of the minimal polynomial m that the engine needs is the product of the
other factors that ``invariants.min_polynomial`` lists.  Horner
evaluation runs on the numerators with one division by ``den`` at the
end; at an ``int`` or a ``Fraction`` it stays in integers throughout.
A Poly can be evaluated at anything that supports ``+`` and ``*`` with
ints and ``Fraction``s.  The engine itself evaluates a polynomial only
at f, by ``invariants.poly_at_f``, and maps the result to the slots;
Horner at cyclotomic numbers and group-ring elements is the tests'
referee for it.

>>> m = Poly((Fraction(-1, 2), 0, 2))
>>> m.nums, m.den, m.degree
((-1, 0, 4), 2, 2)
>>> m
-1/2 + 2*Y^2
>>> m(Fraction(1, 2))
Fraction(0, 1)
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cyclotomic import ExactVector, lowest_terms


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _raw(nums: tuple, den: int) -> "Poly":
    """Poly from numerators in lowest terms, taken as they are."""
    x = object.__new__(Poly)
    x.nums = nums
    x.den = den
    return x


class Poly(ExactVector):
    __slots__ = ()

    def __init__(self, coeffs=()):
        nums, den = linalg.clear_denominators(coeffs)
        self.nums, self.den = lowest_terms(_trim(nums), den)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- the ring-specific hooks of ExactVector -------------------------------

    def _with(self, nums, den: int) -> "Poly":
        return _raw(_trim(nums), den)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return self._with((other.numerator,), other.denominator)
        return None

    def _align(self, other):
        """Both operands zero-padded to one length (not trimmed)."""
        n = max(len(self.nums), len(other.nums))
        return tuple(_raw(p.nums + (0,) * (n - len(p.nums)), p.den) for p in (self, other))

    def _fold(self, raw) -> list:
        return raw

    def __hash__(self):
        if len(self.nums) <= 1:
            return hash(Fraction(self.nums[0], self.den) if self.nums else 0)
        return hash(("Poly", self.nums, self.den))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation on the numerators, divided by ``den`` once
        at the end.  At an int or a ``Fraction`` p/s it runs on the
        homogenised integer form sum_k nums_k p^k s^(deg - k)."""
        nums = self.nums
        number = isinstance(x, (int, Fraction))
        if not nums:
            return Fraction(0) if number else 0 * x
        acc = nums[-1]
        if number:
            p, s = x.numerator, x.denominator
            scale = 1
            for c in reversed(nums[:-1]):
                scale *= s
                acc = acc * p + c * scale
            return Fraction(acc, self.den * scale)
        for c in reversed(nums[:-1]):
            acc = acc * x + c
        if isinstance(acc, int):
            return Fraction(acc, self.den)
        return acc * Fraction(1, self.den) if self.den != 1 else acc

    # -- integrality and reduction ---------------------------------------------

    def has_integer_coeffs(self) -> bool:
        return self.den == 1

    def reduce_mod(self, ell: int) -> tuple[int, ...]:
        """Coefficients mod ell (requires ell-integral coefficients)."""
        den_inv = pow(self.den % ell, -1, ell)
        return _trim(x * den_inv % ell for x in self.nums)

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "Y" if k == 1 else f"Y^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def from_roots(roots) -> list:
    """Coefficients (low degree first) of the monic prod of (Y - t).

    Roots may live in any commutative Fraction-algebra; the returned
    coefficients live there too (the leading one stays the int 1).
    The engine builds its minimal polynomials with ``from_power_sums``;
    this product over the roots is kept as the tests' referee for it.
    """
    coeffs = [1]
    for t in roots:
        shifted = [0] + coeffs  # multiply by Y
        for k, c in enumerate(coeffs):
            shifted[k] = shifted[k] - t * c
        coeffs = shifted
    return coeffs


def from_power_sums(sums) -> list:
    """Coefficients (low degree first) of the monic polynomial of degree
    d = len(sums) whose roots have the power sums p_1, ..., p_d = sums.

    Newton's identities k e_k = sum_{j=1}^k (-1)^(j-1) e_(k-j) p_j give
    the elementary symmetric functions e_k, and the coefficient of Y^k
    is (-1)^(d-k) e_(d-k).  Power sums may be ints or ``Fraction``s; a
    coefficient comes back as an int exactly when it is an integer.

    >>> from_power_sums([3, 5])  # roots 1 and 2
    [2, -3, 1]
    """
    e = [1]
    for k in range(1, len(sums) + 1):
        acc = 0
        for j in range(1, k + 1):
            term = e[k - j] * sums[j - 1]
            acc = acc + term if j % 2 else acc - term
        ek = Fraction(acc, k)
        e.append(ek.numerator if ek.denominator == 1 else ek)
    d = len(sums)
    return [e[d - k] if (d - k) % 2 == 0 else -e[d - k] for k in range(d + 1)]
