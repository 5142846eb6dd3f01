from fractions import Fraction
from math import gcd

import pytest
import sympy

from cuspcenter.arith import (
    divisors,
    is_prime,
    moebius,
    multiplicative_order,
    ord_frac,
    ord_int,
    prime_power,
)
from cuspcenter.errors import ZeroArgument


def test_is_prime_small():
    primes = [p for p in range(100) if is_prime(p)]
    assert primes == list(sympy.primerange(0, 100))


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None


def test_multiplicative_order_vs_sympy():
    for m in (3, 5, 7, 9, 25, 63):
        for a in range(2, m):
            if sympy.gcd(a, m) != 1:
                continue
            assert multiplicative_order(a, m) == sympy.n_order(a, m)


def test_ord_int():
    assert ord_int(9, 3) == 2
    assert ord_int(10, 3) == 0
    assert ord_int(-27, 3) == 3
    with pytest.raises(ZeroArgument):
        ord_int(0, 5)


def test_ord_frac():
    assert ord_frac(Fraction(9, 2), 3) == 2
    assert ord_frac(Fraction(2, 9), 3) == -2
    assert ord_frac(Fraction(-5, 7), 5) == 1


def test_ord_frac_additive_on_products():
    samples = [Fraction(9, 2), Fraction(2, 9), Fraction(5, 3), Fraction(-27, 10)]
    for x in samples:
        for y in samples:
            assert ord_frac(x * y, 3) == ord_frac(x, 3) + ord_frac(y, 3)


def test_euler_phi_and_moebius():
    # Moebius inversion: phi(m) = sum over d | m of mu(d) m/d, with phi
    # counted as the residues prime to m
    for m in (1, 3, 9, 7, 49, 5, 25, 12, 30):
        phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert phi == sum(moebius(d) * (m // d) for d in divisors(m))
    assert [moebius(k) for k in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(63) == [1, 3, 7, 9, 21, 63]
