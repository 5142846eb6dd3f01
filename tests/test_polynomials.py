from fractions import Fraction

from cuspcenter.polynomials import Poly, from_roots


def test_basic_arithmetic():
    p = Poly((1, 2, 1))          # 1 + 2Y + Y^2
    q = Poly((-1, 1))            # Y - 1
    assert (p + q).coeffs == (0, 3, 1)
    assert (p - q).coeffs == (2, 1, 1)
    assert (p * q).coeffs == (-1, -1, 1, 1)
    assert (q**2).coeffs == (1, -2, 1)
    assert p.degree == 2
    assert Poly(()).degree == -1


def test_evaluation():
    m = Poly((-2, -1, 1))
    assert m(2) == 0
    assert m(-1) == 0
    assert m(Fraction(1, 2)) == Fraction(-9, 4)


def test_from_roots():
    coeffs = from_roots([Fraction(2), Fraction(-1)])
    assert [Fraction(c) for c in coeffs] == [Fraction(-2), Fraction(-1), Fraction(1)]
    # empty product is the constant 1
    assert from_roots([]) == [Fraction(1)]


def test_reduce_mod_and_integrality():
    m = Poly((-2, -1, 1))
    assert m.reduce_mod(3) == (1, 2, 1)
    assert m.is_ell_integral(3)
    assert not Poly((Fraction(1, 3), 1)).is_ell_integral(3)
    assert Poly((Fraction(1, 2), 1)).is_ell_integral(3)
    assert m.has_integer_coeffs()
    assert not Poly((Fraction(1, 2),)).has_integer_coeffs()


def test_monic_and_repr():
    m = Poly((-2, -1, 1))
    assert m.nums[-1] == m.den  # leading coefficient 1
    assert "Y" in repr(m)
