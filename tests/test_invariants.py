"""Invariant subring of the cyclic group algebra: orbit structure,
the distinguished generator f, and its minimal polynomial.  The engine
holds invariant elements as orbit coordinates; the dense group ring of
``conftest`` (``GroupRingElement``, ``trace_powers``,
``group_ring_invariant_ring``) is its referee."""

import builtins
import json
import re
from fractions import Fraction
from math import prod

import pytest

import conftest
from conftest import (
    GroupRingElement,
    division_multiplicity,
    exponents,
    group_ring_invariant_ring,
    group_ring_power_sums,
    invert,
    is_invariant,
    omega_value,
    rank_mod,
    spread,
    taylor_lemma_valuations,
    trace_element,
    trace_powers,
)

from cuspcenter import cli, invariants
from cuspcenter.arith import is_prime, multiplicative_order, ord_frac, prime_power
from cuspcenter.deformation import deformation_suite
from cuspcenter.errors import (
    AssertionFailure,
    CuspCenterError,
    IntegralityFailure,
    ParameterError,
)
from cuspcenter.invariants import (
    at_zeta,
    factor_values,
    invariant_ring,
    min_polynomial,
    orbit_structure,
    orbit_sums,
    poly_at_f,
    power_coordinates,
    power_sums,
    pullback_mod_ell_check,
    t_valuation,
    trace_exponents,
    trace_multiplication,
    uniformizer_check,
)
from cuspcenter.cyclotomic import CyclotomicNumber, ell_valuation
from cuspcenter.params import reduce_parameters, validate_parameters
from cuspcenter.polynomials import Poly, from_roots

# (label, q, ell, n) -> frozen (orbit reps, min poly coefficients low-first)
FROZEN = {
    "P1": ((2, 3, 2), (0, 1), (-2, -1, 1)),
    "P2": ((2, 7, 3), (0, 1, 3), (-6, -1, -2, 1)),
    "P3": ((8, 3, 2), (0, 1, 2, 3, 4), (-2, 5, 4, -5, -1, 1)),
    "P4": ((4, 5, 2), (0, 1, 2), (2, -3, -1, 1)),
    "P5": ((3, 5, 4), (0, 1), (-4, -3, 1)),
}


def basis(ps):
    """(rows, times_f): the basis matrix, column k holding f^k, and
    multiplication by f, as ``invariant_ring`` builds them."""
    times_f = trace_multiplication(ps, trace_exponents(ps))
    return tuple(zip(*power_coordinates(times_f, len(times_f)))), times_f


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_orbit_reps_frozen(label):
    (q, ell, n), reps, _ = FROZEN[label]
    ps = validate_parameters(q, ell, n)
    orbits = orbit_structure(ps)
    assert orbits.reps == reps
    assert orbits.modulus == ps.ell_power
    # partition covers Z/l^r and nonzero orbits all have size n
    assert sorted(e for o in orbits.orbits for e in o) == list(range(ps.ell_power))
    assert all(len(o) == n for o in orbits.orbits if o != (0,))


def test_orbit_contents_p2():
    ps = validate_parameters(2, 7, 3)
    orbits = orbit_structure(ps)
    assert orbits.orbits == ((0,), (1, 2, 4), (3, 5, 6))
    assert orbits.reps == (0, 1, 3)
    assert orbits.index == (0, 1, 1, 2, 1, 2, 2)


def test_orbit_contents_p3():
    ps = validate_parameters(8, 3, 2)
    orbits = orbit_structure(ps)
    assert orbits.orbits == ((0,), (1, 8), (2, 7), (3, 6), (4, 5))


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_min_polynomial_frozen(label):
    (q, ell, n), _, coeffs = FROZEN[label]
    ps = validate_parameters(q, ell, n)
    m, factors, omegas, _ = min_polynomial(ps, *basis(ps))
    assert m.coeffs == tuple(Fraction(c) for c in coeffs)
    assert factors[0].coeffs == (Fraction(-n), Fraction(1))
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    assert prod == m
    assert len(omegas) == ps.r
    # each omega_i actually kills its factor
    for omega, m_i in zip(omegas, factors[1:]):
        assert (m_i(omega) * 1).is_zero()


def coset_walk(ps, i):
    """Referee for the conjugate sums at level i: walk the units of
    Z/l^i upwards and open one coset a<q> at each unit not yet covered,
    as the engine did before it read the orbit representatives.
    Returns the coset minima and their conjugate sums."""
    ell, n = ps.ell, ps.n
    m = ell**i
    subgroup = sorted(pow(ps.q, k, m) for k in range(n))
    assert len(set(subgroup)) == n  # ord of q mod l^i is n
    assigned = set()
    minima = []
    for a in range(1, m):
        if a % ell == 0 or a in assigned:
            continue
        assigned |= {a * h % m for h in subgroup}
        minima.append(a)
    return minima, [omega_value(ps, i, a) for a in minima]


REFEREE_CASES = sorted(v[0] for v in FROZEN.values()) + [
    (17, 3, 2),
    (7, 5, 4),
    (53, 3, 2),
    (2, 31, 5),
    (2, 127, 7),
]


@pytest.mark.parametrize("q,ell,n", REFEREE_CASES + [(211, 53, 2)])
def test_poly_at_f_matches_horner(q, ell, n):
    # the referee: one group-ring Horner pass at f, for every listed
    # factor of m and for m, whose degree D asks for f^D
    ps = validate_parameters(q, ell, n)
    data = invariant_ring(ps)
    f = trace_element(ps)
    for h in data.m_factors + (data.m,):
        assert spread(ps, poly_at_f(h, data.basis_matrix, data.times_f)) == h(f)
    assert tuple(spread(ps, x) for x in data.factor_images) == tuple(
        h(f) for h in data.m_factors
    )
    assert data.m.degree == len(data.basis_matrix)


def test_poly_at_f_on_denominators_and_high_degree():
    # Fraction coefficients, the zero polynomial and degrees past D: the
    # numerators over h's denominator are the coordinates of h(f)
    ps = validate_parameters(2, 7, 3)
    data = invariant_ring(ps)
    d, f = data.dimension, trace_element(ps)
    for h in (
        Poly(()),
        Poly((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))),
        data.m * data.m + Poly((0, Fraction(1, 7))),
        Poly([1] * (3 * d)),
    ):
        nums = poly_at_f(h, data.basis_matrix, data.times_f)
        assert all(type(x) is int for x in nums)
        assert spread(ps, [Fraction(x, h.den) for x in nums]) == h(f)


def test_invariants_reports_a_corrupted_m_1_as_at_the_horner_certificate(
    monkeypatch, capsys
):
    # one wrong coefficient of m_1: the invariants command fails with
    # the envelope that the Horner certificate m_1(f) gave
    plain = invariants.from_power_sums
    levels = []

    def corrupted(sums):
        coeffs = plain(sums)
        levels.append(len(coeffs))
        if len(levels) == 1:
            coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(invariants, "from_power_sums", corrupted)
    code = cli.main(["invariants", "--q", "2", "--ell", "31", "--out", "json"])
    env = json.loads(capsys.readouterr().out)
    assert code == 1 and levels == [7]
    assert env["status"] == "fail"
    assert env["artifacts"]["error"] == {
        "type": "AssertionFailure",
        "message": "m_1(omega_1) != 0",
        "witness": "1",
    }


@pytest.mark.parametrize("q,ell,n", REFEREE_CASES)
def test_conjugate_sums_match_the_coset_walk(q, ell, n):
    ps = validate_parameters(q, ell, n)
    _, factors, omegas, _ = min_polynomial(ps, *basis(ps))
    scaled = [0]
    for i in range(1, ps.r + 1):
        minima, sums = coset_walk(ps, i)
        scaled += [a * ell ** (ps.r - i) for a in minima]
        roots = from_roots(sums)
        m_i = Poly([c if isinstance(c, int) else c.as_rational() for c in roots])
        assert factors[i] == m_i
        assert omegas[i - 1] == sums[0] == omega_value(ps, i)
        assert all(m_i(s).is_zero() for s in sums)
    # the coset minima of every level, scaled by l^(r-i), are the orbit
    # representatives: so each level reads its minima from them in order
    assert orbit_structure(ps).reps == tuple(sorted(scaled))


def test_omega_values_are_roots_of_m_only():
    # the r+1 roots n, omega_1, ..., omega_r are pairwise distinct
    ps = validate_parameters(8, 3, 2)
    m, _, omegas, _ = min_polynomial(ps, *basis(ps))
    assert len(omegas) == 2
    assert omegas[0] != omegas[1]
    for omega in omegas:
        assert omega != ps.n
        assert (m(omega) * 1).is_zero()


def test_trace_element_p1():
    ps = validate_parameters(2, 3, 2)
    assert trace_exponents(ps) == (1, 2)
    f = trace_element(ps)
    assert f.coeffs == (Fraction(0), Fraction(1), Fraction(1))  # X + X^2
    f2 = f * f
    assert f2.coeffs == (Fraction(2), Fraction(1), Fraction(1))  # 2 + X + X^2
    # in orbit coordinates on S_0 = 1, S_1 = X + X^2: f S_0 = S_1 and
    # f S_1 = 2 S_0 + S_1, so f^2 = 2 + f
    times_f = trace_multiplication(ps, trace_exponents(ps))
    assert [sorted(column) for column in times_f] == [[(1, 1)], [(0, 2), (1, 1)]]
    assert power_coordinates(times_f, 3) == [[1, 0], [0, 1], [2, 1]]


def test_group_ring_frobenius_invariance():
    ps = validate_parameters(2, 7, 3)
    orbits = orbit_structure(ps)
    f = trace_element(ps)
    assert is_invariant(f, orbits)
    assert is_invariant(f * f, orbits)
    skew = GroupRingElement.unit(7, 1)  # bare X is not invariant under *2
    assert not is_invariant(skew, orbits)
    # each column of the multiplication matrix is one invariance check:
    # X + X^2 is not q-invariant, and neither is its product with S_3
    with pytest.raises(AssertionFailure, match=r"^f S_0 is not q-invariant$"):
        trace_multiplication(ps, (1, 2))
    for j, column in enumerate(trace_multiplication(ps, trace_exponents(ps))):
        assert len(column) <= ps.n
        fs = f * spread(ps, [int(i == j) for i in range(3)])
        assert spread(ps, [dict(column).get(i, 0) for i in range(3)]) == fs


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_uniformizer_all_levels(label):
    (q, ell, n), _, _ = FROZEN[label]
    ps = validate_parameters(q, ell, n)
    for i in range(1, ps.r + 1):
        report = uniformizer_check(ps, i)
        assert report["valuation"] == n
        assert report["aux_valuation"] == n


def test_omega_minus_n_valuation_direct():
    # independent of uniformizer_check: recompute the valuation raw
    ps = validate_parameters(2, 3, 2)
    omega = omega_value(ps, 1)
    assert ell_valuation(omega - 2) == 2


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_pullback_multiplicity(label):
    (q, ell, n), _, _ = FROZEN[label]
    ps = validate_parameters(q, ell, n)
    report = pullback_mod_ell_check(ps)
    assert report["multiplicity"] == n
    assert report["degree"] == q ** (n - 1)


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_invariant_ring_basis(label):
    (q, ell, n), reps, _ = FROZEN[label]
    ps = validate_parameters(q, ell, n)
    data = invariant_ring(ps)
    d = data.dimension
    assert d == len(reps) == data.m.degree
    # basis matrix times inverse is the identity, and the inverse is
    # l-integral, as j* <= n certifies
    inverse = invert(data.basis_matrix)
    for i in range(d):
        for j in range(d):
            acc = sum(data.basis_matrix[i][k] * inverse[k][j] for k in range(d))
            assert acc == Fraction(int(i == j))
            assert inverse[i][j] == 0 or ord_frac(inverse[i][j], ell) >= 0
    # m(f) = 0 holds (invariant_ring itself asserts it; re-check here,
    # and by the referee's Horner pass in the group ring)
    assert not any(poly_at_f(data.m, data.basis_matrix, data.times_f))
    assert data.m(trace_element(ps)).is_zero()


@pytest.mark.parametrize("q,ell,n", [(2, 31, 5), (17, 3, 2), (53, 3, 2), (2, 73, 9)])
def test_basis_matrix_rank_mod_ell_matches_inverse(q, ell, n):
    # the rank certificate against its referees, the rank mod l and the
    # inverse over Q built explicitly, beyond the frozen cases
    data = invariant_ring(validate_parameters(q, ell, n))
    rows = data.basis_matrix
    assert all(type(x) is int for row in rows for x in row)
    assert rank_mod(rows, ell) == data.dimension
    for row in invert(rows):
        assert all(x == 0 or ord_frac(x, ell) >= 0 for x in row)


def test_invariant_ring_rejects_a_basis_matrix_singular_mod_ell(monkeypatch):
    # M is in GL_D(Z_(l)) iff j* <= n: n passes, n + 1 and "none below l" raise
    ps = validate_parameters(2, 7, 3)
    monkeypatch.setattr(invariants, "t_valuation", lambda exps, n, ell: n)
    invariant_ring(ps)
    for j in (4, None):
        monkeypatch.setattr(invariants, "t_valuation", lambda exps, n, ell: j)
        with pytest.raises(IntegralityFailure, match="singular mod l"):
            invariant_ring(ps)


def orbit_sum(orbits, rep):
    """The sum of X^e over the orbit of ``rep``."""
    cs = [0] * orbits.modulus
    for e in orbits.orbits[orbits.reps.index(rep)]:
        cs[e] = 1
    return GroupRingElement(orbits.modulus, cs)


def orbit_certificate(data, rep):
    """h with h(f) = the orbit sum of X^rep: the column of the inverse
    basis matrix that belongs to ``rep``."""
    j = data.orbits.reps.index(rep)
    return Poly([row[j] for row in invert(data.basis_matrix)])


def test_express_orbit_sum_p1():
    ps = validate_parameters(2, 3, 2)
    data = invariant_ring(ps)
    f = trace_element(ps)
    h = orbit_certificate(data, 1)
    assert h.coeffs == (Fraction(0), Fraction(1))  # orbit of 1 is f itself
    assert h(f) == orbit_sum(data.orbits, 1)
    h0 = orbit_certificate(data, 0)
    assert h0.coeffs == (Fraction(1),)  # orbit of 0 is the identity
    assert h0(f) == orbit_sum(data.orbits, 0)


def test_express_orbit_sum_all_reps():
    for label in sorted(FROZEN):
        (q, ell, n), reps, _ = FROZEN[label]
        ps = validate_parameters(q, ell, n)
        data = invariant_ring(ps)
        f = trace_element(ps)
        for j, rep in enumerate(reps):
            h = orbit_certificate(data, rep)
            assert h.degree < data.dimension
            assert h.is_ell_integral(ell)
            assert (h(f) - orbit_sum(data.orbits, rep)).is_zero()
            # in orbit coordinates, h(f) is the j-th unit vector
            nums = poly_at_f(h, data.basis_matrix, data.times_f)
            assert [Fraction(x, h.den) for x in nums] == [int(i == j) for i in range(len(reps))]


def test_min_poly_mod_ell_shape():
    # m = (Y - n)^D mod l; spot-check the reduction for two cases
    ps = validate_parameters(2, 7, 3)
    m, _, _, _ = min_polynomial(ps, *basis(ps))
    # (Y - 3)^3 = Y^3 - 9Y^2 + 27Y - 27 = Y^3 + 5Y^2 + 6Y + 1 mod 7
    assert m.reduce_mod(7) == (1, 6, 5, 1)
    ps = validate_parameters(8, 3, 2)
    m, _, _, _ = min_polynomial(ps, *basis(ps))
    # (Y - 2)^5 mod 3 = (Y + 1)^5 = Y^5 + 5Y^4 + ... binomials mod 3
    assert m.reduce_mod(3) == (1, 2, 1, 1, 2, 1)


def test_unreduced_parameters_silently_reduce():
    # d = 2 reduces to (q, n, d) = (4, 2, 1); the invariant layer must
    # see exactly the reduced picture
    unreduced = validate_parameters(2, 5, 4, 2)
    reduced = validate_parameters(4, 5, 2)
    assert orbit_structure(unreduced) == orbit_structure(reduced)
    m_u, _, _, _ = min_polynomial(unreduced, *basis(unreduced))
    m_r, _, _, _ = min_polynomial(reduced, *basis(reduced))
    assert m_u == m_r


def test_orbit_reps_out_of_order_raise(monkeypatch):
    # walking the residues downwards lists the orbit of 0 last, so the
    # representatives neither ascend nor start at 0
    monkeypatch.setattr(
        invariants, "range", lambda m: builtins.range(m - 1, -1, -1), raising=False
    )
    invariants.orbit_structure.cache_clear()  # compute, do not recall
    with pytest.raises(AssertionFailure):
        orbit_structure(validate_parameters(2, 7, 3))


def test_uniformizer_check_rejects_a_level_outside_1_to_r():
    ps = validate_parameters(2, 3, 2)
    for level in (0, ps.r + 1):
        with pytest.raises(ParameterError, match=rf"^level {level} is outside 1..r = 1$"):
            uniformizer_check(ps, level)


def test_at_zeta_needs_l_to_the_level_to_divide_the_modulus():
    ps = validate_parameters(8, 3, 2)  # Q[Z/9]
    f = (0, 1, 0, 0, 0)  # the orbit sum of 1
    assert at_zeta(ps, f, 2, 1) == at_zeta(ps, f, 2, 10)
    assert at_zeta(ps, f, 0, 1) == 2 and at_zeta(ps, f, 0, 1).level == 0
    for level in (3, -1):
        with pytest.raises(ValueError, match="not defined"):
            at_zeta(ps, f, level, 1)
    # the referee's guard
    with pytest.raises(ValueError, match="not defined"):
        trace_element(ps).at_zeta(2, 1, 1)


ORBIT_SUM_CASES = [(2, 3, 2), (8, 3, 2), (53, 3, 2), (7, 5, 4), (2, 127, 7), (2, 5, 4, 2)]


@pytest.mark.parametrize("args", ORBIT_SUM_CASES)
def test_orbit_sums_match_omega_value(args):
    ps = validate_parameters(*args)
    sums = orbit_sums(ps)
    assert len(sums) == ps.ell_power
    for e in range(ps.ell_power):
        assert sums[e] == omega_value(ps, ps.r, e)
        assert sums[e].level == ps.r


@pytest.mark.parametrize("args", ORBIT_SUM_CASES)
def test_at_zeta_matches_the_omega_value_referee(args):
    # the image of f under X -> zeta_{l^i}^e, at every level and exponent,
    # from f's orbit coordinates; the image of a power is the power of
    # the image; and the referee's dense map agrees
    ps = validate_parameters(*args)
    _, f, f2 = power_coordinates(trace_multiplication(ps, trace_exponents(ps)), 3)
    dense = trace_element(ps)
    for i in range(1, ps.r + 1):
        for e in range(ps.ell**i):
            image = at_zeta(ps, f, i, e)
            assert image == omega_value(ps, i, e) == dense.at_zeta(ps.ell, i, e)
            assert image.level == i
            assert at_zeta(ps, f2, i, e) == image * image


def test_orbit_sums_map_f_once_per_orbit(monkeypatch):
    calls = []
    plain = invariants.at_zeta

    def counted(ps, coords, level, exponent):
        calls.append(exponent)
        return plain(ps, coords, level, exponent)

    monkeypatch.setattr(invariants, "at_zeta", counted)
    ps = validate_parameters(53, 3, 2)
    invariants.orbit_sums.cache_clear()  # compute, do not recall
    orbit_sums(ps)
    assert calls == list(orbit_structure(ps).reps)
    orbit_sums(ps)
    assert len(calls) == len(orbit_structure(ps).reps) == 14


def test_invariant_ring_builds_the_powers_of_f_once(monkeypatch):
    # one multiplication matrix, one pass over the powers, and one more
    # product by f, for f^D in m(f)
    calls = []
    for name in ("trace_multiplication", "power_coordinates", "_times"):
        plain = getattr(invariants, name)

        def counted(*args, _name=name, _plain=plain):
            calls.append(_name)
            return _plain(*args)

        monkeypatch.setattr(invariants, name, counted)
    ring = invariant_ring(validate_parameters(53, 3, 2))
    d = ring.dimension
    assert calls == ["trace_multiplication", "power_coordinates"] + ["_times"] * d


def test_min_polynomial_runs_no_cyclotomic_product(monkeypatch):
    # power sums and Newton's identities stay in the integers, and the
    # certificate runs in the group ring
    calls = []
    plain = CyclotomicNumber.__mul__

    def counted(a, b):
        calls.append(1)
        return plain(a, b)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted)
    ps = validate_parameters(2, 127, 7)
    m, _, _, _ = min_polynomial(ps, *basis(ps))
    assert m.degree == 19
    assert calls == []


@pytest.mark.parametrize("q,ell,n", [(2, 7, 3), (8, 3, 2), (53, 3, 2), (2, 31, 5)])
def test_power_sums_are_those_of_the_conjugate_sums(q, ell, n):
    ps = validate_parameters(q, ell, n)
    rows, _ = basis(ps)
    for i in range(1, ps.r + 1):
        _, sums = coset_walk(ps, i)
        expected = [sum(s**k for s in sums) for k in range(1, len(sums) + 1)]
        assert power_sums(ps, i, rows) == [x.as_rational() for x in expected]
        assert power_sums(ps, i, rows) == group_ring_power_sums(ps, i, trace_powers(ps))


def _shift_index(sums):
    return sums[1:] + [sums[0]]  # p_(k+1) in place of p_k


def _shift_first(sums):
    return [sums[0] + 1] + sums[1:]


@pytest.mark.parametrize("shift", [_shift_index, _shift_first])
@pytest.mark.parametrize("q,ell,n", [(2, 7, 3), (8, 3, 2), (2, 31, 5), (53, 3, 2)])
def test_shifted_power_sums_raise(monkeypatch, shift, q, ell, n):
    plain = invariants.power_sums
    monkeypatch.setattr(invariants, "power_sums", lambda *a: shift(plain(*a)))
    # at (8,3,2) and (53,3,2) level 1 has a single power sum, which the
    # index shift leaves in place: level 2 is the first to fail there
    failed = r"m_\d( coefficient not an integer|\(omega_\d\) != 0)"
    with pytest.raises(AssertionFailure, match=failed):
        ps = validate_parameters(q, ell, n)
        min_polynomial(ps, *basis(ps))


@pytest.mark.parametrize("k", [0, 1, -2])
@pytest.mark.parametrize("q,ell,n", [(2, 7, 3), (8, 3, 2), (2, 31, 5)])
def test_one_corrupted_coefficient_fails_the_certificate(monkeypatch, k, q, ell, n):
    plain = invariants.from_power_sums

    def corrupted(sums):
        coeffs = plain(sums)
        coeffs[k] += 1
        return coeffs

    monkeypatch.setattr(invariants, "from_power_sums", corrupted)
    with pytest.raises(AssertionFailure, match=r"m_1\(omega_1\) != 0"):
        ps = validate_parameters(q, ell, n)
        min_polynomial(ps, *basis(ps))


def test_power_sums_need_no_division_by_n():
    # on any integer orbit coordinates, not only the powers of f, the
    # closed form equals the referee's Ramanujan sum over the spread
    # element, whose division by n is exact as n divides phi(l^i); one
    # more X^1 in f^1 breaks invariance, and with it the divisibility
    for args in [(2, 7, 3), (8, 3, 2), (7, 5, 4), (2, 31, 5)]:
        ps = validate_parameters(*args)
        d = len(orbit_structure(ps).reps)
        rows = [[(7 * j + 3 * k * k + 1) % 11 - 5 for k in range(d)] for j in range(d)]
        dense = [spread(ps, column) for column in zip(*rows)]
        for i in range(1, ps.r + 1):
            assert power_sums(ps, i, rows) == group_ring_power_sums(ps, i, dense)
        dense[1] = dense[1] + GroupRingElement.unit(ps.ell_power, 1)
        with pytest.raises(AssertionFailure, match=f"not divisible by n = {ps.n}"):
            group_ring_power_sums(ps, 1, dense)


def test_a_non_integer_coefficient_raises(monkeypatch):
    # p_1 = 1, p_2 = 0 give Y^2 - Y + 1/2
    monkeypatch.setattr(invariants, "power_sums", lambda ps, i, rows: [1, 0])
    with pytest.raises(AssertionFailure, match="not an integer: 1/2"):
        ps = validate_parameters(4, 5, 2)
        min_polynomial(ps, *basis(ps))


# the golden parameter sets and the ladder
LEMMA_CASES = [
    (2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4), (2, 5, 4, 2),
    (17, 3, 2), (53, 3, 2), (7, 5, 4), (2, 127, 7), (2, 73, 9), (997, 499, 2),
    (3, 7, 6), (2, 31, 5), (2, 11, 10),
]


@pytest.mark.parametrize("args", LEMMA_CASES)
def test_lemmas_match_the_taylor_division_and_rank_referees(args):
    # the norm and division referees run on q's powers, the lemmas on
    # the exponents of f
    ps = reduce_parameters(validate_parameters(*args))
    q, ell, n, m = ps.q, ps.ell, ps.n, ps.ell_power
    f = trace_element(ps)
    exps = [pow(q, k, m) for k in range(n)]
    for i in range(1, ps.r + 1):
        report = uniformizer_check(ps, i)
        assert (report["valuation"], report["aux_valuation"]) == (n, n)
        assert taylor_lemma_valuations(ps, i, f, exps) == (n, n)
    abstract = [q**k for k in range(n)]  # no reduction mod X^(l^r) - 1
    assert pullback_mod_ell_check(ps) == {"multiplicity": n, "degree": q ** (n - 1)}
    assert division_multiplicity(abstract, n, ell) == n
    ring = invariant_ring(ps)
    assert rank_mod(ring.basis_matrix, ell) == ring.dimension


def reduced_sets(max_q: int, max_ell_power: int):
    """Every reduced admissible (q, l, n): q a prime power up to max_q,
    l a prime not dividing q with n = ord_l(q) >= 2 and l^r up to
    max_ell_power."""
    for q in range(2, max_q + 1):
        if prime_power(q) is None:
            continue
        for ell in range(3, max_ell_power + 1):
            if is_prime(ell) and q % ell and multiplicative_order(q, ell) > 1:
                ps = validate_parameters(q, ell, multiplicative_order(q, ell))
                if ps.ell_power <= max_ell_power:
                    yield ps


@pytest.mark.slow
def test_t_valuation_matches_the_referees_on_every_small_set():
    # j* is nu(omega_i - n) at every level, the (X - 1)-multiplicity of
    # sum_k X^(a_k) - n and, through the rank of the basis matrix, says
    # whether M is in GL_D(Z_(l)); here it is n on all 2 481 sets.  The
    # rank referee runs in the group-ring sweep below, on l^r <= 200
    count = 0
    for ps in reduced_sets(64, 500):
        f = trace_element(ps)
        j = t_valuation(trace_exponents(ps), ps.n, ps.ell)
        assert j == ps.n, ps
        for i in range(1, ps.r + 1):
            assert ell_valuation((f - ps.n).at_zeta(ps.ell, i, 1)) == j, (ps, i)
        assert division_multiplicity(exponents(f), ps.n, ps.ell) == j, ps
        count += 1
    assert count == 2481


# the mutations patch invariants.trace_exponents, which the referee's
# trace_element reads too
def perturb_exponent(ps):
    """a_1 = q moved to q + 1."""
    a = trace_exponents(ps)
    return (a[0], (ps.q + 1) % ps.ell_power, *a[2:])


def exponent_times_ell(ps):
    """a_1 = q replaced by l q, divisible by l."""
    a = trace_exponents(ps)
    return (a[0], ps.ell * ps.q % ps.ell_power, *a[2:])


@pytest.mark.parametrize("mutation", [perturb_exponent, exponent_times_ell])
@pytest.mark.parametrize("args", [(2, 7, 3), (8, 3, 2), (7, 5, 4), (2, 127, 7), (53, 3, 2)])
def test_a_mutated_exponent_fails_the_lemmas_and_their_referees(monkeypatch, mutation, args):
    ps = validate_parameters(*args)
    monkeypatch.setattr(invariants, "trace_exponents", mutation)
    f = trace_element(ps)
    for i in range(1, ps.r + 1):
        nu, aux = taylor_lemma_valuations(ps, i, f, exponents(f))
        assert (nu, aux) != (ps.n, ps.n)
        with pytest.raises(AssertionFailure, match=r"^nu\(omega") as failure:
            uniformizer_check(ps, i)
        assert failure.value.witness == {"level": i, "nu": nu}
    multiplicity = division_multiplicity(exponents(f), ps.n, ps.ell)
    assert multiplicity != ps.n
    with pytest.raises(AssertionFailure, match=rf"multiplicity is {multiplicity},"):
        pullback_mod_ell_check(ps)
    with pytest.raises(CuspCenterError):
        invariant_ring(ps)


def test_lemma_failures_past_the_exact_range(monkeypatch):
    # every exponent divisible by l: f - n vanishes in F_l[Z/l], and the
    # lemmas can only say "at least l", as the referees agree
    ps = validate_parameters(8, 3, 2)
    monkeypatch.setattr(invariants, "trace_exponents", lambda ps: (3, 6))
    f = trace_element(ps)  # X^3 + X^6
    assert t_valuation((3, 6), 2, 3) is None
    for i in (1, 2):
        assert taylor_lemma_valuations(ps, i, f, exponents(f))[0] >= 3
        with pytest.raises(AssertionFailure, match=r"= at least 3 != n = 2$"):
            uniformizer_check(ps, i)
    assert division_multiplicity(exponents(f), 2, 3) >= 3
    with pytest.raises(AssertionFailure, match="multiplicity is at least 3,"):
        pullback_mod_ell_check(ps)
    with pytest.raises(AssertionFailure, match="not a sum of n = 3 powers"):
        t_valuation((3, 6), 3, 3)


@pytest.mark.parametrize("args", [(17, 3, 2), (2, 31, 5), (7, 5, 4), (2, 127, 7), (53, 3, 2)])
def test_a_stale_stored_power_fails_invariant_ring(monkeypatch, args):
    # f^k replaced by f^(k-1), k = 1 .. D-1: the rank is read off f's
    # exponents, so the power sums, the certificates and m(f) = 0 must
    # catch it
    ps = validate_parameters(*args)
    plain = invariants.power_coordinates
    dimension = len(orbit_structure(ps).reps)
    for k in range(1, dimension):

        def stale(times_f, count, k=k):
            powers = plain(times_f, count)
            powers[k] = powers[k - 1]
            return powers

        monkeypatch.setattr(invariants, "power_coordinates", stale)
        with pytest.raises(CuspCenterError):
            invariant_ring(ps)


# -- the group-ring referee -----------------------------------------------------------

GOLDEN_SETS = [(2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4), (2, 5, 4, 2)]
# the default rows of tools/bench_ladder.py, for every command
LADDER_SETS = [
    (2, 3), (2, 7), (3, 5), (2, 31), (3, 7), (2, 127),
    (17, 3, 2), (7, 5, 4), (53, 3, 2), (101, 17, 2), (211, 53, 2),
    (2, 73), (997, 499),
    (5, 3, 2), (9, 5, 2), (11, 3, 2),
    (13, 5, 4), (64, 19, 3),
]


def full_parameters(args):
    """validate_parameters with n defaulting to ord_l(q), as the CLI does."""
    q, ell = args[:2]
    return validate_parameters(q, ell, *(args[2:] or (multiplicative_order(q, ell),)))


def assert_matches_the_group_ring(ps, sweep_deformation: bool) -> None:
    """basis_matrix, m, its factors, the omegas, the factor images and
    ``factor_values``, and the images of the factors of m that
    ``deformation`` reads at each distinct trace, and their product
    m(Y), against ``conftest.group_ring_invariant_ring``.  The
    deformation sweep runs with one unit assignment, as the T-side does
    not touch the ring."""
    ring, ref = invariant_ring(ps), group_ring_invariant_ring(ps)
    assert ring.basis_matrix == ref.basis_matrix
    assert rank_mod(ring.basis_matrix, ps.ell) == ring.dimension
    assert (ring.m, ring.m_factors, ring.omegas) == (ref.m, ref.m_factors, ref.omegas)
    assert tuple(spread(ps, x) for x in ring.factor_images) == ref.factor_images
    ell, r, reps = ps.ell, ps.r, ring.orbits.reps
    assert factor_values(ring) == tuple(
        tuple(x.at_zeta(ell, r, e) for e in reps) for x in ref.factor_images
    )
    images = []
    if sweep_deformation:
        factors_at = {}
        orbit_sums(ps)  # recall the traces, so only the factor table is recorded
        with pytest.MonkeyPatch.context() as mp:
            plain = invariants.at_zeta

            def recorded(ps, coords, level, a):
                factors_at.setdefault(a, []).append(plain(ps, coords, level, a))
                return factors_at[a][-1]

            mp.setattr(invariants, "at_zeta", recorded)
            deformation_suite(ps, ring, unit_choices=(1,))
        for a, values in factors_at.items():
            assert values == [x.at_zeta(ell, r, a) for x in ref.factor_images]
            images.append((a, prod(values)))
    else:
        m_of_f = poly_at_f(ring.m, ring.basis_matrix, ring.times_f)
        images = [(a, at_zeta(ps, m_of_f, r, a)) for a in reps]
    ref_m_of_f = conftest.group_ring_poly_at_f(ref.m, ref.powers)
    assert [a for a, _ in images] == list(reps)
    assert all(value == ref_m_of_f.at_zeta(ell, r, a) for a, value in images)


@pytest.mark.parametrize("args", GOLDEN_SETS + LADDER_SETS)
def test_invariant_ring_matches_the_group_ring_referee(args):
    assert_matches_the_group_ring(full_parameters(args), sweep_deformation=True)


def test_invariant_ring_matches_the_group_ring_referee_on_every_small_set():
    # every reduced set with q <= 64 and l^r <= 200; the deformation
    # sweep runs where its n x n charpoly stays small
    count = 0
    for ps in reduced_sets(64, 200):
        assert_matches_the_group_ring(ps, sweep_deformation=ps.n <= 8)
        count += 1
    assert count > 0


# -- mutations, on both paths ------------------------------------------------------------
#
# Each mutation is applied alike to the engine (in process and through
# the ``invariants`` command) and to the group-ring referee, and must
# fail the same check class on both: the invariance check, the m_i
# pipeline and its certificates, or m(f) = 0.

MUTATION_SETS = [(2, 7, 3), (8, 3, 2), (7, 5, 4), (2, 127, 7), (53, 3, 2), (2, 31, 5)]
CHECKS = ("not q-invariant", r"^m_\d coefficient not an integer", r"^m_\d\(omega", r"^m\(f\) != 0")


def assert_fails_alike(ps, capsys) -> None:
    """The engine, the referee and the ``invariants`` command all fail,
    with AssertionFailure, at the same one of the CHECKS."""
    with pytest.raises(CuspCenterError) as engine:
        invariant_ring(ps)
    with pytest.raises(CuspCenterError) as referee:
        group_ring_invariant_ring(ps)
    assert type(engine.value) is type(referee.value) is AssertionFailure
    failed = [[bool(re.search(c, str(x.value))) for c in CHECKS] for x in (engine, referee)]
    assert failed[0] == failed[1] and sum(failed[0]) == 1
    argv = ["invariants", "--q", str(ps.q), "--ell", str(ps.ell), "--n", str(ps.n)]
    assert cli.main(argv + ["--out", "json"]) == 1
    env = json.loads(capsys.readouterr().out)
    assert env["status"] == "fail"
    assert env["artifacts"]["error"]["type"] == "AssertionFailure"
    assert env["artifacts"]["error"]["message"] == str(engine.value)


@pytest.mark.parametrize("args", MUTATION_SETS)
def test_a_mutated_multiplication_entry_fails_on_both_paths(monkeypatch, capsys, args):
    # column 1, f S_1 = f^2, gains one more S_i at its first entry (i, c);
    # the referee's product by f gains g_(rep_1) S_i
    ps = validate_parameters(*args)
    plain, reps = invariants.trace_multiplication, orbit_structure(ps).reps
    i, c = plain(ps, trace_exponents(ps))[1][0]
    extra = spread(ps, [int(k == i) for k in range(len(reps))])

    def mutated(ps, exponents):
        columns = list(plain(ps, exponents))
        columns[1] = ((i, c + 1),) + columns[1][1:]
        return tuple(columns)

    monkeypatch.setattr(invariants, "trace_multiplication", mutated)
    monkeypatch.setattr(conftest, "times_f", lambda g, f: g * f + extra * g.nums[reps[1]])
    assert_fails_alike(ps, capsys)


@pytest.mark.parametrize("args", MUTATION_SETS)
def test_a_mutated_exponent_fails_on_both_paths(monkeypatch, capsys, args):
    # a_1 = q moved to q + 1: f is no longer q-invariant
    ps = validate_parameters(*args)
    monkeypatch.setattr(invariants, "trace_exponents", perturb_exponent)
    assert_fails_alike(ps, capsys)


@pytest.mark.parametrize("args", MUTATION_SETS)
def test_a_mutated_power_coordinate_fails_on_both_paths(monkeypatch, capsys, args):
    # coordinate 1 of the stored f^(D-1) moved by one; the referee's
    # f^(D-1) gains the orbit sum of 1
    ps = validate_parameters(*args)
    plain, plain_dense = invariants.power_coordinates, conftest.trace_powers
    d = len(orbit_structure(ps).reps)

    def mutated(times_f, count):
        powers = plain(times_f, count)
        powers[-1][1] += 1
        return powers

    def mutated_dense(ps):
        powers = plain_dense(ps)
        powers[-1] = powers[-1] + spread(ps, [int(k == 1) for k in range(d)])
        return powers

    monkeypatch.setattr(invariants, "power_coordinates", mutated)
    monkeypatch.setattr(conftest, "trace_powers", mutated_dense)
    assert_fails_alike(ps, capsys)
