"""Property tests: each fast arithmetic kernel against the slow referee
it replaced.  The pi-adic valuation is checked against ord_l of the
field norm (a determinant), the integer product against a schoolbook
Fraction product reduced by long division by Phi_{l^r}, scaling by a
rational against coefficientwise products, and the multi-column solve
against one solve per column.

The integer exact kernel is checked against the Fraction arithmetic it
replaced: ``RefCyclotomic``, ``RefGroupRing``, ``RefPoly`` and
``ref_echelon`` are the earlier implementations on tuples of
``Fraction``s, kept here only as referees.  Every operation of
``CyclotomicNumber``, ``Poly``, the dense group ring of ``conftest``
(itself the referee of the invariant ring's orbit coordinates) and the
fraction-free ``linalg._echelon`` is compared with them on drawn
operands, and every cyclotomic, group-ring or polynomial result is
checked to be in the one normal form (den > 0, gcd(*nums, den) == 1,
and for a polynomial no trailing zero numerator) that equality and
hashing rely on.  A guard counts ``Fraction`` arithmetic in the
deformation sweep and the invariant ring, which must make none.

``matrices.charpoly`` (Berkowitz) is checked against the Leibniz sum
it replaced, ``conftest.leibniz_charpoly``, over the integers, GF(9)
and Q(zeta_5)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GroupRingElement, invert, leibniz_charpoly, rank_mod

from cuspcenter import linalg
from cuspcenter.arith import ord_frac
from cuspcenter.centermap import BlockVector
from cuspcenter.cyclotomic import (
    CyclotomicNumber,
    ell_valuation,
    is_ell_integral,
    phi_prime_power,
    zeta,
)
from cuspcenter.deformation import deformation_suite
from cuspcenter.errors import NoSolution, ZeroArgument
from cuspcenter.finitefield import finite_field
from cuspcenter.invariants import invariant_ring
from cuspcenter.matrices import charpoly
from cuspcenter.params import validate_parameters
from cuspcenter.polynomials import Poly

ZERO = Fraction(0)

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
        lambda cs: CyclotomicNumber(ell, level, cs)
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
        assert ell_valuation(x) == ord_frac(RefCyclotomic(ell, level, x.coeffs).norm(), ell)


@pytest.mark.parametrize("ell,level", LEVELS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_residue_test_matches_valuation(ell, level, data):
    # centermap.delta_class compares l-integral entries in the residue
    # field Z_(l)[zeta]/(zeta - 1) = F_l through the sum of numerators
    phi = phi_prime_power(ell, level)
    nums = data.draw(st.lists(st.integers(-40, 40), min_size=phi, max_size=phi))
    if data.draw(st.booleans()):
        nums[0] -= sum(nums)  # residue 0, so valuation >= 1
    if data.draw(st.booleans()):
        nums = [ell * x for x in nums]
    den = data.draw(st.integers(1, 30).filter(lambda d: d % ell))
    x = CyclotomicNumber(ell, level, [Fraction(c, den) for c in nums])
    if data.draw(st.integers(0, 4)) == 0:
        x = CyclotomicNumber.rational(ell, Fraction(nums[0], den)).embed_to(level)
    assert is_ell_integral(x)
    if not x.is_zero():
        assert (sum(x.nums) % ell == 0) == (ell_valuation(x) >= 1)


@pytest.mark.parametrize("ell,level", LEVELS)
def test_valuation_of_zero_raises(ell, level):
    with pytest.raises(ZeroArgument):
        ell_valuation(CyclotomicNumber.zero(ell, level))


def ref_reduce(ell, level, raw):
    """Fraction long division by Phi_{l^level}(X) = sum_{j < l} X^(j l^(level-1))
    (monic, degree phi)."""
    if level == 0:
        return (sum(raw, ZERO),)
    phi = phi_prime_power(ell, level)
    step = ell ** (level - 1)
    out = [ZERO] * max(len(raw), phi)
    for e, c in enumerate(raw):
        out[e] += Fraction(c)
    for top in range(len(out) - 1, phi - 1, -1):
        c = out[top]
        if c:
            for j in range(ell):
                out[top - phi + j * step] -= c
    return tuple(out[:phi])


def schoolbook_product(ell, level, a, b):
    """Fraction convolution, then long division by Phi_{l^r}."""
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(ell, level, out)


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
    sols = [[Fraction(x, den) for x in nums] for nums, den in linalg.solve_columns(rows, rhs_list)]
    assert sols == outcomes
    for sol, b in zip(sols, rhs_list):
        assert [sum(a * s for a, s in zip(r, sol)) for r in rows] == b


# -- referees -----------------------------------------------------------------


def ref_echelon(aug, ncols):
    """Gauss-Jordan over Fraction, in place; returns the pivot columns."""
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    return pivots


def ref_solve_columns(rows, rhs_list):
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in r] + [Fraction(b[i]) for b in rhs_list]
           for i, r in enumerate(rows)]
    pivots = ref_echelon(aug, ncols)
    if any(any(r[ncols:]) for r in aug[len(pivots):]):
        raise NoSolution("inconsistent")
    if len(pivots) < ncols:
        raise ValueError("underdetermined")
    sols = [[ZERO] * ncols for _ in rhs_list]
    for i, col in enumerate(pivots):
        for j in range(len(rhs_list)):
            sols[j][col] = aug[i][ncols + j]
    return sols


def ref_invert(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    if len(ref_echelon(aug, n)) < n:
        raise NoSolution("singular")
    return [r[n:] for r in aug]


class RefCyclotomic:
    """A power-basis vector of ``Fraction``s at ``level``."""

    def __init__(self, ell, level, coeffs):
        self.ell, self.level = ell, level
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == phi_prime_power(ell, level)

    def embed_to(self, level):
        stretch = 0 if self.level == 0 else self.ell ** (level - self.level)
        out = [ZERO] * phi_prime_power(self.ell, level)
        for e, c in enumerate(self.coeffs):
            out[e * stretch] = c
        return RefCyclotomic(self.ell, level, out)

    def _common(self, other):
        if not isinstance(other, RefCyclotomic):
            other = RefCyclotomic(self.ell, 0, (other,))
        lvl = max(self.level, other.level)
        return self.embed_to(lvl), other.embed_to(lvl)

    def __add__(self, other):
        a, b = self._common(other)
        return RefCyclotomic(a.ell, a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return RefCyclotomic(self.ell, self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __mul__(self, other):
        a, b = self._common(other)
        product = schoolbook_product(a.ell, a.level, a.coeffs, b.coeffs)
        return RefCyclotomic(a.ell, a.level, product)

    def mult_matrix(self):
        n = len(self.coeffs)
        cols = [ref_reduce(self.ell, self.level, [ZERO] * j + list(self.coeffs)) for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def power(self, k):
        out = RefCyclotomic(self.ell, 0, (1,))
        for _ in range(k):
            out = out * self
        return out

    def canonical(self):
        cur = self
        while cur.level >= 1:
            if cur.level == 1:
                if any(cur.coeffs[1:]):
                    return cur
                return RefCyclotomic(cur.ell, 0, cur.coeffs[:1])
            if any(c for e, c in enumerate(cur.coeffs) if e % cur.ell):
                return cur
            cur = RefCyclotomic(cur.ell, cur.level - 1, cur.coeffs[:: cur.ell])
        return cur

    def norm(self):
        return linalg.determinant(self.mult_matrix())

    def is_ell_integral(self):
        return all(c.denominator % self.ell for c in self.coeffs)


class RefGroupRing:
    """Dense ``Fraction`` coefficients in Q[X]/(X^modulus - 1)."""

    def __init__(self, modulus, coeffs):
        self.modulus = modulus
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def __add__(self, other):
        return RefGroupRing(self.modulus, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return RefGroupRing(self.modulus, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        m = self.modulus
        if not isinstance(other, RefGroupRing):
            return RefGroupRing(m, [a * other for a in self.coeffs])
        out = [ZERO] * m
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[(i + j) % m] += a * b
        return RefGroupRing(m, out)

    def power(self, k):
        out = RefGroupRing(self.modulus, [1] + [0] * (self.modulus - 1))
        for _ in range(k):
            out = out * self
        return out

    def frobenius(self, a):
        out = [ZERO] * self.modulus
        for e, c in enumerate(self.coeffs):
            out[e * a % self.modulus] += c
        return RefGroupRing(self.modulus, out)


# -- helpers and strategies -----------------------------------------------------


def assert_lowest_terms(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert all(type(v) is int for v in x.nums)


def agree(x, ref):
    assert_lowest_terms(x)
    assert x.level == ref.level
    assert x.coeffs == ref.coeffs


def rational(ell):
    """``coefficient``, often zero."""
    return st.one_of(st.just(ZERO), coefficient(ell))


def draw_pair(data, ell, level):
    """A cyclotomic number at ``level`` and its referee; sometimes one
    embedded from a lower level, so canonical() has something to demote."""
    low = data.draw(st.integers(0, level))
    phi = phi_prime_power(ell, low)
    cs = data.draw(st.lists(rational(ell), min_size=phi, max_size=phi))
    x = CyclotomicNumber(ell, low, cs).embed_to(level)
    return x, RefCyclotomic(ell, low, cs).embed_to(level)


TOWERS = [(2, 3), (3, 2), (5, 2), (7, 1)]  # (l, top level)
KERNEL = settings(derandomize=True, max_examples=40, deadline=None)


# -- cyclotomic numbers ------------------------------------------------------------


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_constructor_reduces_like_long_division(ell, top, data):
    level = data.draw(st.integers(1, top))
    raw = data.draw(st.lists(rational(ell), min_size=1, max_size=3 * ell**level))
    x = CyclotomicNumber(ell, level, raw)
    agree(x, RefCyclotomic(ell, level, ref_reduce(ell, level, raw)))
    assert CyclotomicNumber(ell, level, x.coeffs) == x


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_ring_operations_match_fraction_referee(ell, top, data):
    x, rx = draw_pair(data, ell, data.draw(st.integers(0, top)))
    y, ry = draw_pair(data, ell, data.draw(st.integers(0, top)))
    agree(x + y, rx + ry)
    agree(x - y, rx - ry)
    agree(x * y, rx * ry)
    agree(y * x, rx * ry)
    agree(-x, -rx)
    assert (x == y) == (not any((rx - ry).coeffs))


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_scaling_by_int_fraction_and_level_zero(ell, top, data):
    x, rx = draw_pair(data, ell, data.draw(st.integers(0, top)))
    s = data.draw(st.one_of(st.sampled_from([1, -1]), st.integers(-6, 6), rational(ell)))
    for scalar in (s, Fraction(s), CyclotomicNumber.rational(ell, s)):
        for product in (x * scalar, scalar * x):
            agree(product, rx * s)
        agree(x + scalar, rx + s)
        agree(scalar + x, rx + s)
        agree(x - scalar, rx - s)
        agree(scalar - x, -rx + s)


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_powers_and_inverse(ell, top, data):
    # the engine never divides in Q(zeta): a negative power is refused
    x, rx = draw_pair(data, ell, data.draw(st.integers(0, top)))
    k = data.draw(st.integers(0, 4))
    agree(x**k, rx.power(k))
    with pytest.raises(ValueError):
        x ** -(k + 1)


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_canonical_valuation_and_integrality(ell, top, data):
    x, rx = draw_pair(data, ell, data.draw(st.integers(0, top)))
    agree(x.canonical(), rx.canonical())
    ref_rational = rx.canonical().coeffs[0] if rx.canonical().level == 0 else None
    assert x.as_rational() == ref_rational
    if x.is_zero():
        with pytest.raises(ZeroArgument):
            ell_valuation(x)
    else:
        assert ell_valuation(x) == ord_frac(rx.norm(), ell)
    assert is_ell_integral(x) == rx.is_ell_integral()


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_equal_elements_hash_equal_across_levels(ell, top, data):
    x, _ = draw_pair(data, ell, data.draw(st.integers(0, top)))
    up = x.embed_to(data.draw(st.integers(x.level, top)))
    assert_lowest_terms(up)
    assert up == x and hash(up) == hash(x)
    assert {x: "key"}[up] == "key"
    assert len({x, up, x.canonical()}) == 1
    r = x.as_rational()
    if r is not None:
        assert hash(x) == hash(r) and x == r
    s = data.draw(rational(ell))
    embedded = CyclotomicNumber.rational(ell, s).embed_to(top)
    assert hash(embedded) == hash(s) and embedded == s


def test_zeta_tower_is_in_lowest_terms():
    for ell, top in TOWERS:
        for level in range(top + 1):
            for e in range(ell**level + 2):
                z = zeta(ell, level, e)
                assert_lowest_terms(z)
                assert z == zeta(ell, level + 1, e * ell)


# -- group ring ---------------------------------------------------------------------


@pytest.mark.parametrize("modulus,ell", [(3, 3), (7, 7), (8, 2), (9, 3), (25, 5)])
@KERNEL
@given(data=st.data())
def test_group_ring_matches_fraction_referee(modulus, ell, data):
    def draw():
        cs = data.draw(st.lists(rational(ell), min_size=modulus, max_size=modulus))
        return GroupRingElement(modulus, cs), RefGroupRing(modulus, cs)

    (x, rx), (y, ry) = draw(), draw()

    def check(got, ref):
        assert_lowest_terms(got)
        assert got.coeffs == ref.coeffs

    check(x + y, rx + ry)
    check(x - y, rx - ry)
    check(x * y, rx * ry)
    check(-x, rx * -1)
    s = data.draw(st.one_of(st.integers(-6, 6), rational(ell)))
    check(x * s, rx * s)
    check(s * x, rx * s)
    check(x + s, rx + RefGroupRing(modulus, [s] + [0] * (modulus - 1)))
    k = data.draw(st.integers(0, 4))
    check(x**k, rx.power(k))
    a = data.draw(st.integers(0, 2 * modulus))
    check(x.frobenius(a), rx.frobenius(a))
    assert x.is_ell_integral(ell) == all(c.denominator % ell for c in rx.coeffs)
    assert (x == y) == (rx.coeffs == ry.coeffs)
    same = GroupRingElement(modulus, rx.coeffs)
    assert same == x and hash(same) == hash(x)
    const = GroupRingElement.unit(modulus, 0, s)
    assert const == s and hash(const) == hash(s) and len({const, s}) == 1


def test_shape_guards_are_raises():
    with pytest.raises(ValueError):
        GroupRingElement(3, (1, 0))
    with pytest.raises(ValueError):
        BlockVector(3, 1, (0, 1), (1,))


# -- fraction-free elimination ---------------------------------------------------------


def entries():
    ratios = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.one_of(st.integers(-4, 4), ratios)


def matrix(data, nrows, ncols):
    row = st.lists(entries(), min_size=ncols, max_size=ncols)
    return data.draw(st.lists(row, min_size=nrows, max_size=nrows))


@KERNEL
@given(data=st.data())
def test_integer_echelon_matches_fraction_echelon(data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    extra = data.draw(st.integers(0, 3))
    rows = matrix(data, nrows, ncols + extra)
    if data.draw(st.booleans()) and nrows > 1:
        # a dependent row makes rank deficiency likely
        rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1 % nrows])]
    got = [list(r) for r in rows]
    ref = [[Fraction(x) for x in r] for r in rows]
    pivots = linalg._echelon(got, ncols)
    assert pivots == ref_echelon(ref, ncols)
    k = len(pivots)
    # the pivot rows stay primitive integer rows: each is its reduced
    # echelon row times its pivot entry
    assert all(type(x) is int for r in got for x in r)
    assert all(gcd(*r) == 1 for r in got[:k])
    assert [[Fraction(x, r[col]) for x in r] for r, col in zip(got, pivots)] == ref[:k]
    assert all(not any(r[:ncols]) for r in got[k:])
    assert any(any(r[ncols:]) for r in got[k:]) == any(any(r[ncols:]) for r in ref[k:])


def solve_outcome(solve, *args):
    try:
        return solve(*args)
    except (NoSolution, ValueError) as exc:
        return type(exc)


@KERNEL
@given(data=st.data())
def test_solve_columns_matches_fraction_referee(data):
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, nrows))
    rows = matrix(data, nrows, ncols)
    if data.draw(st.integers(0, 3)) == 0 and ncols > 1:
        for r in rows:  # a dependent column: underdetermined when consistent
            r[-1] = r[0] - r[1]
    rhs_list = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.integers(0, 3)):
            x = data.draw(st.lists(entries(), min_size=ncols, max_size=ncols))
            rhs_list.append([sum((a * b for a, b in zip(r, x)), ZERO) for r in rows])
        else:
            rhs_list.append(data.draw(st.lists(entries(), min_size=nrows, max_size=nrows)))
    got = solve_outcome(linalg.solve_columns, rows, rhs_list)
    if isinstance(got, list):
        # each solution as integer numerators over one denominator, in lowest terms
        assert all(type(x) is int for nums, den in got for x in (*nums, den))
        assert all(den > 0 and gcd(den, *nums) == 1 for nums, den in got)
        got = [[Fraction(x, den) for x in nums] for nums, den in got]
    assert got == solve_outcome(ref_solve_columns, rows, rhs_list)


@KERNEL
@given(data=st.data())
def test_invert_matches_fraction_referee(data):
    n = data.draw(st.integers(1, 5))
    rows = matrix(data, n, n)
    if data.draw(st.integers(0, 3)) == 0 and n > 1:
        rows[-1] = [3 * x for x in rows[0]]  # singular
    got = solve_outcome(invert, rows)
    assert got == solve_outcome(ref_invert, rows)


def test_elimination_outcomes():
    # full rank, rank deficient, inconsistent, singular
    assert linalg.solve_unique([[2, 1], [1, 3], [1, -2]], [3, 4, -1]) == [1, 1]
    with pytest.raises(ValueError):
        linalg.solve_unique([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(NoSolution):
        linalg.solve_unique([[1, 2], [2, 4]], [1, 3])
    with pytest.raises(NoSolution):
        invert([[Fraction(1, 2), 1], [1, 2]])
    assert invert([[Fraction(1, 2), 1], [1, 3]]) == [[6, -2], [-2, 1]]


@KERNEL
@given(data=st.data())
def test_rank_mod_matches_determinant(data):
    # full rank mod p iff p does not divide the determinant
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if data.draw(st.integers(0, 3)) == 0 and n > 1:
        rows[-1] = [x + p * y for x, y in zip(rows[0], rows[-1])]  # singular mod p
    det = linalg.determinant(rows)
    assert (rank_mod(rows, p) == n) == (det % p != 0)


def test_rank_mod_outcomes():
    assert rank_mod([[1, 2], [3, 4]], 2) == 1
    assert rank_mod([[1, 2], [3, 4]], 3) == 2
    assert rank_mod([[0, 5], [5, 0], [1, 1]], 5) == 1
    assert rank_mod([], 3) == 0


# -- polynomials ---------------------------------------------------------------------


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class RefPoly:
    """Dense ``Fraction`` coefficients, low degree first, trimmed."""

    def __init__(self, coeffs=()):
        self.coeffs = _ref_trim(Fraction(c) for c in coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RefPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RefPoly((other,))
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RefPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, RefPoly) else RefPoly((-Fraction(other),)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefPoly(tuple(c * other for c in self.coeffs))
        if not self or not other:
            return RefPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out, base = RefPoly((1,)), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def is_ell_integral(self, ell):
        return all(c == 0 or ord_frac(c, ell) >= 0 for c in self.coeffs)

    def reduce_mod(self, ell):
        out = []
        for c in self.coeffs:
            den_inv = pow(c.denominator % ell, -1, ell)
            out.append(c.numerator * den_inv % ell)
        return _ref_trim(out)

    def __repr__(self):
        if not self.coeffs:
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


def poly_agrees(p, ref):
    assert type(p) is Poly
    assert_lowest_terms(p)
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == ref.coeffs
    assert p.degree == ref.degree


def draw_poly(data, ell, max_len=6):
    """A polynomial and its referee, built from coefficients that may
    end in zeros, so trimming is exercised."""
    cs = data.draw(st.lists(rational(ell), max_size=max_len))
    if data.draw(st.booleans()):
        cs = cs + [0] * data.draw(st.integers(1, 2))
    return Poly(cs), RefPoly(cs)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


POLY_ELLS = [2, 3, 5, 7]


def test_zero_polynomial_normal_form():
    for zero in (Poly(), Poly((0, 0)), Poly((Fraction(0, 5),)), Poly((1, 2)) - Poly((1, 2)),
                 Poly((3,)) * 0, Poly((Fraction(1, 3), 1)) * Poly()):
        assert zero.nums == () and zero.den == 1
        assert zero.degree == -1 and not zero and zero.is_zero()
        assert zero == 0 and hash(zero) == hash(0)
        assert repr(zero) == "0"


@pytest.mark.parametrize("ell", POLY_ELLS)
@KERNEL
@given(data=st.data())
def test_poly_ring_operations_match_fraction_referee(ell, data):
    (p, rp), (q, rq) = draw_poly(data, ell), draw_poly(data, ell)
    poly_agrees(p, rp)
    poly_agrees(p + q, rp + rq)
    poly_agrees(p - q, rp - rq)
    poly_agrees(p * q, rp * rq)
    poly_agrees(q * p, rp * rq)
    poly_agrees(-p, -rp)
    k = data.draw(st.integers(0, 4))
    poly_agrees(p**k, rp**k)
    s = data.draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-6, 6), rational(ell)))
    for scalar in (s, Fraction(s)):
        poly_agrees(p * scalar, rp * s)
        poly_agrees(scalar * p, rp * s)
        poly_agrees(p + scalar, rp + s)
        poly_agrees(scalar + p, rp + s)
        poly_agrees(p - scalar, rp - s)
        poly_agrees(scalar - p, s - rp)
        assert (p == scalar) == (rp == scalar)
        assert (Poly((scalar,)) == scalar) and hash(Poly((scalar,))) == hash(scalar)
    assert (p == q) == (rp == rq)
    same = Poly(list(rp.coeffs) + [0])
    assert same == p and hash(same) == hash(p)


def same_value(got, want):
    assert type(got) is type(want)
    assert got == want
    if isinstance(got, CyclotomicNumber):
        assert got.level == want.level
    if isinstance(got, (CyclotomicNumber, GroupRingElement)):
        assert_lowest_terms(got)
        assert (got.nums, got.den) == (want.nums, want.den)


@pytest.mark.parametrize("ell,top", TOWERS)
@KERNEL
@given(data=st.data())
def test_poly_evaluation_matches_fraction_referee(ell, top, data):
    p, rp = draw_poly(data, ell, max_len=5)
    n = data.draw(st.integers(-6, 6))
    same_value(p(n), rp(n))
    x = data.draw(rational(ell))
    same_value(p(x), rp(x))
    z, _ = draw_pair(data, ell, data.draw(st.integers(0, top)))
    same_value(p(z), rp(z))
    modulus = ell ** data.draw(st.integers(1, top))
    g = GroupRingElement(
        modulus, data.draw(st.lists(rational(ell), min_size=modulus, max_size=modulus))
    )
    same_value(p(g), rp(g))


@pytest.mark.parametrize("ell", POLY_ELLS)
@KERNEL
@given(data=st.data())
def test_poly_integrality_reduction_and_repr(ell, data):
    p, rp = draw_poly(data, ell)
    assert p.is_ell_integral(ell) == rp.is_ell_integral(ell)
    assert outcome(p.reduce_mod, ell) == outcome(rp.reduce_mod, ell)
    assert p.has_integer_coeffs() == rp.has_integer_coeffs()
    assert repr(p) == repr(rp)
    assert bool(p) == bool(rp)
    top = (0,) * len(rp.coeffs) + (1,)  # Y^(deg + 1)
    monic, rmonic = p + Poly(top), rp + RefPoly(top)
    assert repr(monic) == repr(rmonic)


# -- no Fraction arithmetic on the integer paths ------------------------------------------

# -- characteristic polynomial ----------------------------------------------------


def square(data, entry, max_n):
    n = data.draw(st.integers(0, max_n))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return tuple(data.draw(st.lists(row, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_berkowitz_charpoly_matches_leibniz_over_integers(data):
    a = square(data, st.integers(-9, 9), 5)
    assert charpoly(a, 0, 1) == leibniz_charpoly(a, 0, 1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_berkowitz_charpoly_matches_leibniz_over_gf9(data):
    f9 = finite_field(9)
    a = square(data, st.sampled_from(list(f9.elements())), 4)
    assert charpoly(a, f9.zero, f9.one) == leibniz_charpoly(a, f9.zero, f9.one)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_berkowitz_charpoly_matches_leibniz_over_q_zeta_5(data):
    zero, one = CyclotomicNumber.zero(5, 1), CyclotomicNumber.rational(5, 1).embed_to(1)
    a = square(data, element(5, 1), 3)
    assert charpoly(a, zero, one) == leibniz_charpoly(a, zero, one)


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


def count_fraction_arithmetic(monkeypatch) -> list:
    """Wrap Fraction's arithmetic dunders; returns the list of calls."""
    calls = []
    for name in FRACTION_ARITHMETIC:
        def counted(*args, _name=name, _plain=getattr(Fraction, name)):
            calls.append(_name)
            return _plain(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_deformation_sweep_and_invariant_ring_do_no_fraction_arithmetic(monkeypatch):
    sweep = validate_parameters(3, 5, 4)
    ring = invariant_ring(sweep)
    wide = validate_parameters(2, 127, 7)
    calls = count_fraction_arithmetic(monkeypatch)
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls == ["__add__"]
    calls.clear()
    deformation_suite(sweep, ring)
    assert calls == []
    invariant_ring(wide)
    assert calls == []
