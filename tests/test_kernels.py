"""Property tests: each fast arithmetic kernel against the slow referee
it replaced.  The pi-adic valuation is checked against ord_l of the
field norm (a determinant), the integer product against a schoolbook
Fraction product reduced by long division by Phi_{l^r}, scaling by a
rational against coefficientwise products, and the multi-column solve
against one solve per column."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcenter import linalg
from cuspcenter.arith import ord_frac
from cuspcenter.cyclotomic import CyclotomicNumber, ell_valuation, phi_prime_power
from cuspcenter.errors import NoSolution, ZeroArgument

LEVELS = [(2, 1), (2, 3), (3, 1), (3, 3), (5, 2), (7, 1), (31, 1)]


def coefficient(ell):
    """Rationals n/d * l^k, so valuations of either sign show up."""
    return st.builds(
        lambda n, d, k: Fraction(n, d) * Fraction(ell) ** k,
        st.integers(-20, 20),
        st.integers(1, 12),
        st.integers(-2, 2),
    )


def element(ell, level):
    """A cyclotomic number at ``level``; sometimes an embedded rational."""
    phi = phi_prime_power(ell, level)
    dense = st.lists(coefficient(ell), min_size=phi, max_size=phi).map(
        lambda cs: CyclotomicNumber(ell, level, cs, reduced=True)
    )
    embedded = coefficient(ell).map(lambda c: CyclotomicNumber.rational(ell, c).embed_to(level))
    return st.one_of(dense, embedded)


@pytest.mark.parametrize("ell,level", LEVELS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_pi_adic_valuation_matches_norm(ell, level, data):
    x = data.draw(element(ell, level))
    if x.is_zero():
        with pytest.raises(ZeroArgument):
            ell_valuation(x)
    else:
        assert ell_valuation(x) == ord_frac(x.norm(), ell)


@pytest.mark.parametrize("ell,level", LEVELS)
def test_valuation_of_zero_raises(ell, level):
    with pytest.raises(ZeroArgument):
        ell_valuation(CyclotomicNumber.zero(ell, level))


def schoolbook_product(ell, level, a, b):
    """Fraction convolution, then long division by
    Phi_{l^r}(X) = sum_{j < l} X^(j l^(r-1)) (monic, degree phi)."""
    phi = phi_prime_power(ell, level)
    step = ell ** (level - 1)
    out = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    phi_poly = [Fraction(0)] * (phi + 1)
    for j in range(ell):
        phi_poly[j * step] = Fraction(1)
    for top in range(len(out) - 1, phi - 1, -1):
        c = out[top]
        if c:
            for k, p in enumerate(phi_poly):
                out[top - phi + k] -= c * p
    return tuple(out[:phi])


def stretched(x, level):
    """Coefficients of x embedded at ``level``, written out directly."""
    stretch = x.ell ** (level - x.level)
    out = [Fraction(0)] * phi_prime_power(x.ell, level)
    for e, c in enumerate(x.coeffs):
        out[e * stretch] = c
    return out


@pytest.mark.parametrize("ell,level", [(2, 3), (3, 1), (3, 2), (5, 2), (7, 1)])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_product_matches_schoolbook(ell, level, data):
    x = data.draw(element(ell, level))
    y = data.draw(element(ell, level))
    assert (x * y).coeffs == schoolbook_product(ell, level, x.coeffs, y.coeffs)
    # a lower-level factor is embedded first
    low = data.draw(element(ell, level - 1))
    expected = schoolbook_product(ell, level, stretched(low, level), x.coeffs)
    assert (low * x).coeffs == expected
    assert (x * low).coeffs == expected


@pytest.mark.parametrize("ell,level", [(2, 3), (3, 1), (5, 2), (31, 1)])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_rational_scaling_matches_coefficientwise(ell, level, data):
    """Multiplying by a level-0 factor, the +-1 short cuts included,
    scales every coefficient and keeps the level."""
    x = data.draw(element(ell, level))
    s = data.draw(st.one_of(st.sampled_from([1, -1]), coefficient(ell)))
    expected = tuple(c * s for c in x.coeffs)
    for scalar in (s, Fraction(s), CyclotomicNumber.rational(ell, s)):
        for product in (x * scalar, scalar * x):
            assert product.level == level
            assert product.coeffs == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_columns_matches_solve_unique(data):
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, nrows))
    entry = st.integers(-4, 4)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    rhs_list = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
            rhs_list.append([sum(a * b for a, b in zip(r, x)) for r in rows])
        else:
            rhs_list.append(data.draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    outcomes = []
    for b in rhs_list:
        try:
            outcomes.append(linalg.solve_unique(rows, b))
        except (NoSolution, ValueError) as exc:
            outcomes.append(type(exc))
    if NoSolution in outcomes:
        expected_error = NoSolution
    elif ValueError in outcomes:
        expected_error = ValueError
    else:
        expected_error = None
    if expected_error is not None:
        with pytest.raises(expected_error):
            linalg.solve_columns(rows, rhs_list)
        return
    sols = linalg.solve_columns(rows, rhs_list)
    assert sols == outcomes
    for sol, b in zip(sols, rhs_list):
        assert [sum(a * s for a, s in zip(r, sol)) for r in rows] == b
