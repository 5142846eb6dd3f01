from fractions import Fraction

from conftest import fraction_from_power_sums, fraction_poly_repr
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcenter.polynomials import Poly, from_power_sums, from_roots


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


def power_sums_of(roots):
    return [sum(Fraction(t) ** k for t in roots) for k in range(1, len(roots) + 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=12))
def test_from_power_sums_matches_from_roots_on_integer_roots(roots):
    coeffs = from_power_sums([int(p) for p in power_sums_of(roots)])
    assert coeffs == from_roots(roots)
    assert all(isinstance(c, int) for c in coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=9), max_size=8))
def test_from_power_sums_matches_from_roots_on_rational_roots(roots):
    assert from_power_sums(power_sums_of(roots)) == from_roots(roots)


def test_from_power_sums_keeps_non_integer_coefficients():
    # roots 0 and 1/2: p_1 = 1/2, p_2 = 1/4, and Y^2 - Y/2
    assert from_power_sums([Fraction(1, 2), Fraction(1, 4)]) == [0, Fraction(-1, 2), 1]
    # integer power sums need not give integer coefficients: p = (1, 0)
    # is the pair of roots (1 +- i)/2, with Y^2 - Y + 1/2
    assert from_power_sums([1, 0]) == [Fraction(1, 2), -1, 1]


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


power_sums = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=10),
    st.lists(st.fractions(-50, 50, max_denominator=12), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(power_sums)
def test_from_power_sums_matches_the_fraction_newton(sums):
    # arbitrary power sums, integral or not and mostly not those of any
    # rational roots: the same coefficients, an int exactly where the
    # referee's is one
    got = from_power_sums(sums)
    want = fraction_from_power_sums(sums)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_from_power_sums_keeps_ints_where_every_division_is_exact():
    # roots 1, 2, 3, 4: every e_k is an integer, and so is every step
    sums = [sum(t**k for t in (1, 2, 3, 4)) for k in range(1, 5)]
    assert from_power_sums(sums) == [24, -50, 35, -10, 1]
    # one moved power sum makes e_2 = (e_1 p_1 - p_2) / 2 non-integral on
    # both paths alike
    moved = [sums[0] + 1] + sums[1:]
    assert from_power_sums(moved) == fraction_from_power_sums(moved)
    assert any(isinstance(c, Fraction) for c in from_power_sums(moved))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(-40, 40, max_denominator=12), max_size=8))
def test_poly_repr_matches_the_fraction_text(coeffs):
    p = Poly(coeffs)
    assert repr(p) == fraction_poly_repr(p)
