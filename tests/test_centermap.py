"""Block vectors, case analysis, and the generator-reconstruction
pipeline.  Numeric expectations were frozen from hand computations:
P1 gamma = (2, -1) with unit -1, P2 witness delta = (0, 14, 14) with
unit 2, P5 unit -216 = -1080/5, and the reconstruction scalars
(7/8, -1/8) for GL_2(F_8) ellipics and (416/729, -500/729) for the
degree-4 semisimple classes of GL_4(F_3)."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from operator import mul

import pytest

from cuspcenter.centermap import (
    BUCKETS,
    DEGREE_N,
    NON_PRIMARY,
    PRIMARY_SMALL_DIAG,
    PRIMARY_SMALL_NONDIAG,
    REALIZED_WITNESS,
    BlockVector,
    block_slots,
    case_bucket,
    delta_class,
    delta_form,
    orbit_coordinates,
    verify_endo_ring,
    express_all_in_gamma,
    express_in_gamma,
    g_of_gamma_check,
    gamma_power_basis,
    gamma_vector,
    lemma_signs_check,
    minimality_certificate,
    s_membership,
    theta_orbit_vector,
)
from conftest import (
    CASES,
    as_coords,
    as_pair,
    class_buckets,
    class_certificates,
    class_deltas,
    class_reconstructions,
    coord_values,
    frac,
    fraction_lemma_signs_check,
    omega_value,
    per_class,
    rationals,
    slot_s_membership,
    slots,
    spread,
    trace_powers,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcenter import centermap, cli, invariants, linalg
from cuspcenter.arith import ord_frac
from cuspcenter.characters import cuspidal_dimension
from cuspcenter.classes import (
    ClassType,
    class_predicates,
    enumerate_classes,
    group_classes,
    theta_exponent,
)
from cuspcenter.cyclotomic import CyclotomicNumber, phi_prime_power, zeta
from cuspcenter.errors import AssertionFailure, IntegralityFailure, NoSolution
from cuspcenter.finitefield import FqPoly, finite_field, minimal_polynomial, sylow_generator
from cuspcenter.invariants import at_zeta, factor_values, invariant_ring, power_coordinates
from cuspcenter.params import reduce_parameters, validate_parameters
from cuspcenter.polynomials import Poly

# frozen bucket counts, in BUCKETS order, and the idempotent units
EXPECTED_BUCKETS = {
    "P1": ((1, 0, 0, 1, 1), Fraction(-1)),
    "P2": ((1, 1, 1, 1, 2), Fraction(2)),
    "P3": ((1, 21, 6, 7, 28), Fraction(-1)),
    "P4": ((1, 3, 2, 3, 6), Fraction(-1)),
    "P5": ((1, 44, 10, 5, 18), Fraction(-216)),
    "U4": ((1, 3, 2, 3, 6), Fraction(-1)),
}

EXPECTED_RECONS = {"P1": 1, "P2": 2, "P3": 28, "P4": 6, "P5": 16, "U4": 6}


@pytest.mark.parametrize("label", sorted(EXPECTED_BUCKETS))
def test_bucket_counts_and_idempotent_unit(label, endo_results):
    res = endo_results[label]
    counts, unit = EXPECTED_BUCKETS[label]
    assert tuple(res.case_report.bucket_counts[b] for b in BUCKETS) == counts
    assert res.idempotent_unit == as_pair(unit)
    assert len(class_reconstructions(res)) == EXPECTED_RECONS[label]


def test_scaled_idempotent_shape(endo_results):
    for label, res in endo_results.items():
        ps = res.params
        vals = rationals(res.scaled_idempotent)
        assert vals[0] == ps.ell_power
        assert all(v == 0 for v in vals[1:])


def test_p1_gamma_and_certificates(endo_results):
    res = endo_results["P1"]
    assert rationals(res.gamma) == (Fraction(2), Fraction(-1))
    certs = class_certificates(res)
    assert certs["x+1:(1,1)"].coeffs == (Fraction(1),)
    assert certs["x+1:(2)"].coeffs == (Fraction(-2), Fraction(1))
    assert certs["x^2+x+1:(1)"].coeffs == (Fraction(1), Fraction(-1))


def test_p1_deltas_frozen(endo_results):
    deltas = class_deltas(endo_results["P1"])
    assert rationals(deltas["x+1:(1,1)"]) == (Fraction(1), Fraction(1))
    assert rationals(deltas["x+1:(2)"]) == (Fraction(0), Fraction(-3))
    assert rationals(deltas["x^2+x+1:(1)"]) == (Fraction(-1), Fraction(2))


def test_p2_witness_delta_and_certificate(endo_results):
    res = endo_results["P2"]
    wit = res.case_report.witness_label
    assert wit == "x+1:(3)"
    assert per_class(res, res.coordinates)[wit] == ((12, -2, -2), 1)  # 14 * 1 - 2 * N
    assert res.coordinates[res.case_report.witness_key] == ((12, -2, -2), 1)
    assert rationals(class_deltas(res)[wit]) == (
        Fraction(0),
        Fraction(14),
        Fraction(14),
    )
    h = class_certificates(res)[wit]
    assert h.coeffs == (Fraction(12), Fraction(-1), Fraction(-1))  # 12 - Y - Y^2


def test_g_reports(endo_results):
    res = endo_results["P1"]
    assert res.g_report["g_at_n"] == (3, 1)  # g = Y + 1 at n = 2
    res = endo_results["P2"]
    assert res.g_report["g_at_n"] == (14, 1)  # g = Y^2 + Y + 2 at n = 3
    for res in endo_results.values():
        assert res.g_report["valuation"] == res.params.r


def test_reconstruction_scalars_p3(endo_results):
    res = endo_results["P3"]
    # every elliptic class of GL_2(F_8) has |C| = 56 and the same chain
    for rec in class_reconstructions(res):
        assert rec["unit"] == Fraction(-8)
        assert rec["steinberg_slot"] == Fraction(7, 8)
        assert rec["correction"] == Fraction(-1, 8)
        assert rec["theta_exponent"] % 9 != 0  # a genuine l-singular class


def test_reconstruction_scalars_p5(endo_results):
    res = endo_results["P5"]
    semisimple = [
        rec
        for rec in class_reconstructions(res)
        if rec["steinberg_slot"] == Fraction(416, 729)
    ]
    assert semisimple  # the regular semisimple degree-4 chain appears
    for rec in semisimple:
        assert rec["unit"] == Fraction(-729)
        assert rec["correction"] == Fraction(-500, 729)


def test_lemma_signs_frozen_spots(endo_results):
    # each row holds lhs and rhs as (num, den) pairs
    rows = {(row["v"], row["d"]): row for row in endo_results["P1"].signs}
    assert rows[(2, 1)]["lhs"] == (1, 2)
    assert rows[(2, 1)]["rhs"] == (2, 1)
    rows = {(row["v"], row["d"]): row for row in endo_results["P2"].signs}
    assert rows[(3, 1)]["lhs"] == (1, 1)
    assert rows[(3, 1)]["rhs"] == (8, 1)
    assert rows[(1, 3)]["lhs"] == rows[(1, 3)]["rhs"] == (1, 1)


def test_lemma_signs_all_divisor_pairs():
    for q, ell, n in ((2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4)):
        ps = validate_parameters(q, ell, n)
        rows = lemma_signs_check(ps)
        assert len(rows) == sum(1 for v in range(1, n + 1) if n % v == 0)
        for row in rows:
            diff = frac(row["lhs"]) - frac(row["rhs"])
            if diff:
                from cuspcenter.arith import ord_frac

                assert ord_frac(diff, ell) >= ps.r


def image(coords, ps) -> BlockVector:
    """The referee for orbit coordinates (nums, den): V spread over its
    orbits as a dense ``conftest.GroupRingElement`` and mapped to every
    slot by its ``at_zeta``."""
    orbits = invariants.orbit_structure(ps)
    x = spread(ps, coord_values(coords))
    return BlockVector(
        ps.ell, ps.r, orbits.reps, [x.at_zeta(ps.ell, ps.r, rep) for rep in orbits.reps]
    )


def in_s(coords, entries, ps) -> bool:
    """Both S-membership predicates on the vector with these orbit
    coordinates, whose image must be these slot values."""
    coords = as_coords(coords)
    vec = BlockVector(ps.ell, ps.r, block_slots(ps), entries)
    assert slots(image(coords, ps)) == slots(vec)
    assert s_membership(coords, ps.ell) == slot_s_membership(vec)
    return s_membership(coords, ps.ell)


def test_s_membership_accepts():
    ps = validate_parameters(2, 7, 3)
    assert in_s((1, 0, 0), [1, 1, 1], ps)
    # N, whose image is the scaled idempotent (l^r, 0, 0): slot
    # difference has valuation r
    assert in_s((1, 1, 1), [7, 0, 0], ps)
    # witness shape (0, 14, 14) = 14 * 1 - 2 * N
    assert in_s((12, -2, -2), [0, 14, 14], ps)


def test_s_membership_rejects():
    ps = validate_parameters(2, 7, 3)
    reps = block_slots(ps)
    # slot difference not divisible by l^r: 2 * 1 - N / 7
    assert not in_s((Fraction(13, 7), Fraction(-1, 7), Fraction(-1, 7)), [1, 2, 2], ps)
    # unequal cuspidal coordinates map to irrational cuspidal slots
    assert not s_membership(as_coords((0, 7, 14)), 7)
    assert image(as_coords((0, 7, 14)), ps).entries[1].as_rational() is None
    # denominators prime to l are units, so 7/2 entries stay inside S
    half = Fraction(-1, 2)
    assert in_s((3, half, half), [0, Fraction(7, 2), Fraction(7, 2)], ps)
    third = Fraction(1, 7)
    assert not in_s((third, 0, 0), [third, third, third], ps)
    # the slot referee on vectors outside the image of the invariants
    assert not slot_s_membership(BlockVector(7, 1, reps, [0, 7, 14]))
    assert not slot_s_membership(BlockVector(7, 1, reps, [3, zeta(7, 1), zeta(7, 1)]))


def test_s_flags_by_bucket(endo_results):
    # asserted True off the degree-n bucket by case_analysis; verify the
    # recorded flags are consistent with an independent recomputation
    for res in endo_results.values():
        flags, deltas = per_class(res, res.case_report.in_s), class_deltas(res)
        for label, bucket in class_buckets(res).items():
            if bucket in (NON_PRIMARY, PRIMARY_SMALL_DIAG, PRIMARY_SMALL_NONDIAG):
                assert flags[label]
            assert flags[label] == slot_s_membership(deltas[label])


def test_degree_n_s_flags_observed(endo_results):
    # not asserted by the engine, but these two cases happen to land
    # entirely inside S; record that observation so a change is loud
    res = endo_results["P1"]
    assert per_class(res, res.case_report.in_s)["x^2+x+1:(1)"]
    res5 = endo_results["P5"]
    in_s = per_class(res5, res5.case_report.in_s)
    flags = [in_s[label] for label, bucket in class_buckets(res5).items() if bucket == DEGREE_N]
    assert len(flags) == 18 and all(flags)


def test_gamma_is_theta_orbit_of_one():
    for q, ell, n in ((2, 3, 2), (8, 3, 2), (3, 5, 4)):
        ps = validate_parameters(q, ell, n)
        assert slots(theta_orbit_vector(ps, 1)) == slots(gamma_vector(ps))


def test_theta_orbit_vector_q_orbit_invariance():
    ps = validate_parameters(8, 3, 2)
    # j and j*q give the same vector (the sum is over the q-power orbit)
    for j in (1, 2, 4):
        assert slots(theta_orbit_vector(ps, j)) == slots(theta_orbit_vector(ps, j * 8 % 9))


ORBIT_SUM_CASES = [(2, 3, 2), (8, 3, 2), (53, 3, 2), (7, 5, 4), (2, 127, 7), (2, 5, 4, 2)]


@pytest.mark.parametrize("args", ORBIT_SUM_CASES)
def test_theta_orbit_vector_matches_per_slot_omega_values(args):
    # the referee: every slot's orbit sum built on its own
    ps = validate_parameters(*args)
    reduced = reduce_parameters(ps)
    reps = block_slots(ps)
    for j in range(ps.ell_power):
        entries = [CyclotomicNumber.rational(ps.ell, reduced.n)]
        entries += [omega_value(ps, ps.r, i * j) for i in reps[1:]]
        assert slots(theta_orbit_vector(ps, j)) == slots(BlockVector(ps.ell, ps.r, reps, entries))


def test_endo_ring_builds_each_orbit_sum_and_factor_value_once(monkeypatch):
    # (2,127,7): 19 slots, m = (Y - 7) m_1.  Images under the one map,
    # invariants.at_zeta: m_1(f) and omega_1 in min_polynomial, 2 * 19
    # factor values and the 19 slots of gamma, its orbit sums;
    # uniformizer_check reads f's exponents and the gamma system is
    # solved in orbit coordinates, so neither maps anything.  Every
    # polynomial in f is evaluated on the sparse product by poly_at_f,
    # once: each factor in min_polynomial, whose images the table maps
    # (m_1(f) is also its certificate); m(f) = (f - 7) m_1(f) is one more
    # product by f, not a poly_at_f.  No Poly is evaluated by Horner at a
    # number.
    counts = {"map": 0, "poly": 0}
    evaluated = []
    plain_map, plain_call = invariants.at_zeta, Poly.__call__
    plain_at_f = invariants.poly_at_f

    def at_zeta(*args):
        counts["map"] += 1
        return plain_map(*args)

    def call(self, x):
        counts["poly"] += 1
        return plain_call(self, x)

    def at_f(h, times_f):
        evaluated.append(h)
        return plain_at_f(h, times_f)

    for module in (invariants, centermap):
        monkeypatch.setattr(module, "at_zeta", at_zeta)
    monkeypatch.setattr(Poly, "__call__", call)
    monkeypatch.setattr(invariants, "poly_at_f", at_f)
    invariants.orbit_sums.cache_clear()  # compute, do not recall
    res = verify_endo_ring(2, 127, 7)
    y_minus_n, m_1 = res.ring.m_factors
    assert counts == {"map": 2 + 2 * 19 + 19, "poly": 0}
    assert evaluated == [m_1, y_minus_n]


@pytest.mark.parametrize("args", [(17, 3, 2), (2, 127, 7)])
def test_endo_ring_builds_two_slot_vectors_and_no_slot_product(monkeypatch, args):
    # every key is held as its orbit coordinates: the only slot vectors
    # are gamma and the scaled idempotent, and the case analysis, the
    # idempotent and the gamma replay multiply no cyclotomic numbers
    built, products, entered, inside = [], [], [], []
    plain_init = BlockVector.__init__

    def init(self, *args):
        built.append(1)
        plain_init(self, *args)

    def counted(plain):
        def mul(a, b):
            products.append(bool(inside))
            return plain(a, b)

        return mul

    def watched(name, plain):
        def call(*args):
            entered.append(name)
            inside.append(name)
            try:
                return plain(*args)
            finally:
                inside.pop()

        return call

    monkeypatch.setattr(BlockVector, "__init__", init)
    for dunder in ("__mul__", "__rmul__"):
        monkeypatch.setattr(CyclotomicNumber, dunder, counted(getattr(CyclotomicNumber, dunder)))
    names = ("case_analysis", "reconstruct_scaled_idempotent", "reconstruct_gamma")
    for name in names:
        monkeypatch.setattr(centermap, name, watched(name, getattr(centermap, name)))
    res = verify_endo_ring(*args)
    assert len(built) == 2
    assert rationals(res.scaled_idempotent)[0] == res.params.ell_power
    assert set(entered) == set(names) and not any(products)


def horner_table(ring, gamma: BlockVector) -> tuple:
    """The referee for ``factor_values``: each listed factor of m at
    every slot of gamma, by one Horner pass per slot in Q(zeta).  At a
    made-up gamma it feeds the certificates a table the engine cannot
    build."""
    return tuple(tuple(h(e) for e in gamma.entries) for h in ring.m_factors)


def test_minimality_negative():
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    fake = BlockVector(3, 1, block_slots(ps), [2, 2])  # repeated slot value
    with pytest.raises(AssertionFailure, match=r"^gamma slots 0 and 1 coincide$"):
        minimality_certificate(ring, fake, horner_table(ring, fake))


def test_minimality_rejects_factors_that_do_not_multiply_to_m():
    ps = validate_parameters(8, 3, 2)
    ring = invariant_ring(ps)
    gamma = gamma_vector(ps)
    minimality_certificate(ring, gamma, factor_values(ring))
    # every listed factor still divides m, but their product does not equal it
    repeated = ring._replace(m_factors=ring.m_factors + ring.m_factors[-1:])
    with pytest.raises(AssertionFailure, match="do not multiply to m"):
        minimality_certificate(repeated, gamma, factor_values(repeated))


def test_g_of_gamma_rejects_a_first_factor_other_than_y_minus_n():
    ps = validate_parameters(8, 3, 2)
    ring = invariant_ring(ps)
    gamma = gamma_vector(ps)
    g_of_gamma_check(ring, factor_values(ring))
    # the same factors, so the same product m, in another order
    swapped = ring._replace(m_factors=ring.m_factors[1:] + ring.m_factors[:1])
    assert prod(swapped.m_factors, start=Poly((1,))) == ring.m
    with pytest.raises(AssertionFailure, match="not Y - n"):
        g_of_gamma_check(swapped, factor_values(swapped))


def evaluate_poly_vector(h: Poly, gamma: BlockVector) -> BlockVector:
    """h at every slot of gamma, by one Horner pass per slot in
    Q(zeta)."""
    return BlockVector(gamma.ell, gamma.r, gamma.reps, [h(e) for e in gamma.entries])


def zero_pattern(vec: BlockVector) -> list:
    return [e.is_zero() for e in vec.entries]


REFEREE_CASES = [(2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4), (2, 5, 4, 2)]
REFEREE_CASES += [(2, 127, 7), (53, 3, 2), (7, 5, 4)]


@pytest.mark.parametrize("args", REFEREE_CASES)
def test_factor_table_matches_horner_referee(args):
    # m, each m/factor and g, each by its own Horner pass, vanish exactly
    # where the table says their factors do
    ps = validate_parameters(*args)
    ring = invariant_ring(ps)
    gamma = gamma_vector(ps)
    values = factor_values(ring)
    factors = ring.m_factors
    assert len(values) == len(factors)
    assert all(len(row) == len(gamma.entries) for row in values)
    assert values == horner_table(ring, gamma)

    def table_zeros(rows):
        return [any(row[s].is_zero() for row in rows) for s in range(len(gamma.entries))]

    one = Poly((1,))
    assert zero_pattern(evaluate_poly_vector(ring.m, gamma)) == table_zeros(values)
    for k in range(len(factors)):
        others = prod(factors[:k] + factors[k + 1 :], start=one)
        pattern = zero_pattern(evaluate_poly_vector(others, gamma))
        assert pattern == table_zeros(values[:k] + values[k + 1 :])
        assert not all(pattern)
    g = prod(factors[1:], start=one)
    assert zero_pattern(evaluate_poly_vector(g, gamma)) == table_zeros(values[1:])
    report = g_of_gamma_check(ring, values)
    assert report["g_at_n"] == as_pair(g(Fraction(ring.ps.n)))  # n of the reduced set
    assert report["g"] == repr(g)


def test_g_of_gamma_rejects_a_cuspidal_slot_equal_to_n():
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    fake = BlockVector(3, 1, block_slots(ps), [2, 2])
    with pytest.raises(AssertionFailure, match=r"^g\(gamma\) nonzero at cuspidal slot 1$"):
        g_of_gamma_check(ring, horner_table(ring, fake))


def test_g_of_gamma_rejects_an_irrational_steinberg_slot():
    # g = Y + 1 still vanishes at the cuspidal slot -1, but g(zeta) is
    # not rational
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    fake = BlockVector(3, 1, block_slots(ps), [zeta(3, 1), -1])
    with pytest.raises(AssertionFailure, match=r"^g\(n\) must be a nonzero rational$"):
        g_of_gamma_check(ring, horner_table(ring, fake))


def test_express_in_gamma_failure_modes():
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    reps = block_slots(ps)
    # a vector with an irrational slot cannot be a polynomial in gamma;
    # no orbit coordinates map to it, so only the referee can be asked
    outside = BlockVector(3, 1, reps, [0, zeta(3, 1)])
    with pytest.raises(NoSolution):
        gram_express_all_in_gamma([outside], ring)
    # rationally consistent but with non-l-integral coordinates: 1/3
    third = as_coords((Fraction(1, 3), 0))
    expected = BlockVector(3, 1, reps, [Fraction(1, 3), Fraction(1, 3)])
    assert slots(image(third, ps)) == slots(expected)
    with pytest.raises(IntegralityFailure):
        express_in_gamma(third, ring)


def test_express_all_in_gamma_failure_modes():
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    gamma = gamma_vector(ps)
    reps = block_slots(ps)
    # 1, f and 5 f in orbit coordinates, and on the slots
    valid = [as_coords(v) for v in ((1, 0), (0, 1), (0, 5))]
    vecs = [BlockVector(3, 1, reps, [1, 1]), gamma, slot_scale(gamma, 5)]
    assert [slots(image(v, ps)) for v in valid] == [slots(v) for v in vecs]
    outside = BlockVector(3, 1, reps, [0, zeta(3, 1)])
    with pytest.raises(NoSolution):
        gram_express_all_in_gamma(vecs[:2] + [outside] + vecs[2:], ring)
    fractional = as_coords((Fraction(1, 3), 0))
    with pytest.raises(IntegralityFailure):
        express_all_in_gamma(valid + [fractional], ring)
    assert express_each(valid, ring) == [Poly((1,)), Poly((0, 1)), Poly((0, 5))]
    # equal vectors share one certificate
    assert express_all_in_gamma(valid + valid[:1], ring) == (
        [Poly((1,)), Poly((0, 1)), Poly((0, 5))],
        [0, 1, 2, 0],
    )


def express_each(vecs, ring) -> list:
    """The certificate of each vector, read off ``express_all_in_gamma``'s
    distinct certificates and columns."""
    certificates, columns = express_all_in_gamma(vecs, ring)
    return [certificates[c] for c in columns]


def key_coordinates(res) -> dict:
    """label -> the orbit coordinates of the class's delta vector."""
    ps = res.params
    return {ct.label(): orbit_coordinates(delta_form(ct, ps), ps) for ct in res.classes}


def test_express_all_matches_per_vector(endo_results):
    res = endo_results["P3"]
    vecs = list(key_coordinates(res).values())
    batch = express_each(vecs, res.ring)
    assert batch == [express_in_gamma(v, res.ring) for v in vecs]
    assert batch == list(class_certificates(res).values())


def test_express_all_in_gamma_eliminates_once(endo_results, monkeypatch):
    res = endo_results["P2"]
    calls = []
    echelon = linalg._echelon

    def counted(*args):
        calls.append(1)
        return echelon(*args)

    vecs = list(key_coordinates(res).values())
    monkeypatch.setattr(linalg, "_echelon", counted)
    assert len(vecs) == 6
    express_all_in_gamma(vecs, res.ring)
    assert len(calls) == 1


def _numerators(vec: BlockVector) -> tuple[list[int], int]:
    """(nums, den): the power-basis coordinates of a block vector, phi
    per slot, as integer numerators over one denominator."""
    den = lcm(*(e.den for e in vec.entries))
    nums = []
    for e in vec.entries:
        scale = den // e.den
        nums += [x * scale for x in e.nums]
    return nums, den


def gram_express_all_in_gamma(vecs, ring):
    """Referee for ``express_all_in_gamma`` on slot vectors: the path it
    replaced.  For each vec the unique h with deg h < D and h(gamma) =
    vec; NoSolution if any vec is outside Q[gamma], IntegralityFailure
    if its coordinates exist but are not l-integral, and every
    NoSolution before any IntegralityFailure.

    Column k of the integer matrix A (D * phi rows, D columns) holds the
    images of f^k at every slot.  Each candidate comes from the D x D
    normal equations (A^T A) y = A^T b, all solved by one elimination,
    and is certified by the integer identity A y_num = y_den b on all
    D * phi coordinates."""
    distinct = {(vec.reps, vec.entries): vec for vec in vecs}
    ps, reps = ring.ps, ring.orbits.reps
    powers = trace_powers(ps)
    cols = [[x for rep in reps for x in fk.at_zeta(ps.ell, ps.r, rep).nums] for fk in powers]
    gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    targets = [_numerators(vec) for vec in distinct.values()]
    sols = linalg.solve_columns(gram, [[sum(map(mul, a, b)) for a in cols] for b, _ in targets])
    rows = list(zip(*cols))
    out = {}
    for key, (b, den), (y_nums, y_den) in zip(distinct, targets, sols):
        if any(sum(map(mul, row, y_nums)) != y_den * x for row, x in zip(rows, b)):
            raise NoSolution("vector is not a polynomial in gamma")
        out[key] = Poly([Fraction(y, y_den * den) for y in y_nums])
    if not all(h.is_ell_integral(ps.ell) for h in out.values()):
        raise IntegralityFailure("gamma-certificate is not l-integral")
    return [out[(vec.reps, vec.entries)] for vec in vecs]


POWER_COLUMN_CASES = [(2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4), (2, 5, 4, 2)]
POWER_COLUMN_CASES += [(2, 127, 7), (53, 3, 2), (7, 5, 4), (2, 73, 9)]


@pytest.mark.parametrize("args", POWER_COLUMN_CASES)
def test_power_images_match_gamma_power_basis(args):
    # column k of the gamma system, the images of f^k slot by slot,
    # against the powers of gamma multiplied out in Q(zeta)
    ps = validate_parameters(*args)
    ring = invariant_ring(ps)
    ell, r = ring.ps.ell, ring.ps.r
    pows = gamma_power_basis(gamma_vector(ps), ring.dimension)
    columns = list(power_coordinates(ring.times_f, ring.dimension))
    assert len(columns) == len(pows) == ring.dimension
    for fk, pw in zip(columns, pows):
        images = [at_zeta(ps, fk, r, rep) for rep in ring.orbits.reps]
        assert all(x.den == 1 and x.level == r for x in images)
        col = [x for image in images for x in image.nums]
        assert (col, 1) == _numerators(pw)


@pytest.mark.parametrize("args", POWER_COLUMN_CASES)
def test_orbit_coordinates_map_to_delta_vectors(args):
    # per (type key, theta exponent): the image of V at every slot is the
    # delta vector, the two S-membership predicates agree, and the
    # orbit-coordinate certificates equal the D * phi referee's on the
    # slot vectors
    ps = reduce_parameters(validate_parameters(*args))
    ring = invariant_ring(ps)
    firsts, _ = group_classes(enumerate_classes(finite_field(ps.q), ps.n), ps)
    coords = [orbit_coordinates(delta_form(ct, ps), ps) for ct in firsts]
    vecs = [delta_class(ct, ps) for ct in firsts]
    assert [slots(image(v, ps)) for v in coords] == [slots(v) for v in vecs]
    assert [s_membership(v, ps.ell) for v in coords] == [slot_s_membership(v) for v in vecs]
    assert express_each(coords, ring) == gram_express_all_in_gamma(vecs, ring)


def _coordinates(vec, phi):
    """A block vector flattened to rationals, one per (slot, power-basis
    coordinate)."""
    out = []
    for e in vec.entries:
        out += [Fraction(x, e.den) for x in e.nums]
        out += [0] * (phi - len(e.nums))
    return out


def ref_express_all_in_gamma(vecs, gamma_pows, ps):
    """Referee for ``express_all_in_gamma``: the path it replaced.  One
    elimination of the full D * phi-row gamma-power system, then each
    certificate re-checked slot by slot in cyclotomic arithmetic."""
    column_of = {}
    columns = [column_of.setdefault((vec.reps, vec.entries), len(column_of)) for vec in vecs]
    distinct = list({(vec.reps, vec.entries): vec for vec in vecs}.values())
    phi = phi_prime_power(ps.ell, ps.r)
    rows = [list(row) for row in zip(*(_coordinates(v, phi) for v in gamma_pows))]
    sols = [
        [Fraction(x, den) for x in nums]
        for nums, den in linalg.solve_columns(rows, [_coordinates(vec, phi) for vec in distinct])
    ]
    out = []
    for vec, sol in zip(distinct, sols):
        h = Poly(sol)
        if not h.is_ell_integral(ps.ell):
            raise IntegralityFailure("gamma-certificate is not l-integral")
        for s in range(len(vec.entries)):
            acc = CyclotomicNumber.zero(ps.ell, ps.r)
            for coeff, pw in zip(sol, gamma_pows):
                acc = acc + pw.entries[s] * coeff
            if not (acc - vec.entries[s]).is_zero():
                raise AssertionFailure("gamma-certificate fails to reproduce the vector")
        out.append(h)
    return [out[k] for k in columns]


def outcome(express, *args):
    try:
        return express(*args)
    except (NoSolution, IntegralityFailure, AssertionFailure, ValueError) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def endo_2_31():
    return verify_endo_ring(2, 31, 5)


def test_express_all_matches_full_system_referee(endo_results, endo_2_31, endo_17_3):
    for res in [*endo_results.values(), endo_2_31, endo_17_3]:
        pows = gamma_power_basis(res.gamma, res.ring.dimension)
        vecs = list(class_deltas(res).values())
        got = express_each(list(key_coordinates(res).values()), res.ring)
        assert got == gram_express_all_in_gamma(vecs, res.ring)
        assert got == ref_express_all_in_gamma(vecs, pows, res.params)
        assert got == list(class_certificates(res).values())


def perturbed(data, res):
    """The distinct orbit coordinates of the delta vectors of ``res``
    with some of them moved: scaled by 1/l, or shifted by the multiple of
    N that moves the Steinberg slot by a multiple of l^r (still an
    l-integral polynomial in gamma) or of l^(r-1)."""
    ps = res.params
    vecs = [coord_values(v) for v in dict.fromkeys(key_coordinates(res).values())]
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(vecs) - 1))
        if data.draw(st.sampled_from(["scale", "steinberg"])) == "scale":
            vecs[k] = tuple(v / ps.ell for v in vecs[k])
            continue
        shift = data.draw(st.integers(1, 9)) * ps.ell ** data.draw(st.integers(ps.r - 1, ps.r))
        vecs[k] = tuple(v + Fraction(shift, ps.ell_power) for v in vecs[k])
    return [as_coords(v) for v in vecs]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_express_all_matches_referee_on_perturbed_batches(endo_results, data):
    res = endo_results[data.draw(st.sampled_from(sorted(endo_results)))]
    vecs = perturbed(data, res)
    got = outcome(express_each, vecs, res.ring)
    images = [image(v, res.params) for v in vecs]
    assert got == outcome(gram_express_all_in_gamma, images, res.ring)
    assert got is not AssertionFailure


def slot_perturbed(data, res):
    """The distinct delta vectors of ``res`` with some of them moved:
    off Q[gamma] (a zeta or a rational on one cuspidal slot), or scaled
    by 1/l, or shifted on the Steinberg slot by a multiple of l^r (still
    an l-integral polynomial in gamma) or of l^(r-1)."""
    ps = res.params
    vecs = list({(vec.reps, vec.entries): vec for vec in class_deltas(res).values()}.values())
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(vecs) - 1))
        vec = vecs[k]
        kind = data.draw(st.sampled_from(["zeta", "rational", "scale", "steinberg"]))
        entries = list(vec.entries)
        if kind == "scale":
            vecs[k] = slot_scale(vec, Fraction(1, ps.ell))
            continue
        if kind == "steinberg":
            s = 0
            shift = data.draw(st.integers(1, 9)) * ps.ell ** data.draw(st.integers(ps.r - 1, ps.r))
        else:
            s = data.draw(st.integers(1, len(entries) - 1))
            c = data.draw(st.integers(1, 9))
            shift = c * zeta(ps.ell, ps.r, data.draw(st.integers(1, 5))) if kind == "zeta" else c
        entries[s] = entries[s] + shift
        vecs[k] = BlockVector(ps.ell, ps.r, vec.reps, entries)
    return vecs


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_gram_referee_matches_full_system_on_perturbed_batches(endo_results, data):
    res = endo_results[data.draw(st.sampled_from(sorted(endo_results)))]
    pows = gamma_power_basis(res.gamma, res.ring.dimension)
    vecs = slot_perturbed(data, res)
    got = outcome(gram_express_all_in_gamma, vecs, res.ring)
    assert got == outcome(ref_express_all_in_gamma, vecs, pows, res.params)
    assert got is not AssertionFailure


def test_no_solution_wins_over_integrality_failure():
    # the ordering of the slot referees: no orbit coordinates map
    # outside Q[gamma], so the engine cannot meet a NoSolution
    ps = validate_parameters(2, 7, 3)
    ring = invariant_ring(ps)
    gamma = gamma_vector(ps)
    pows = gamma_power_basis(gamma, 3)
    reps = block_slots(ps)
    outside = BlockVector(7, 1, reps, [0, zeta(7, 1), 0])
    fractional = slot_scale(gamma, Fraction(1, 7))
    for batch in ([fractional, outside], [outside, fractional], [gamma, fractional, outside]):
        with pytest.raises(NoSolution):
            gram_express_all_in_gamma(batch, ring)
        with pytest.raises(NoSolution):
            ref_express_all_in_gamma(batch, pows, ps)


def test_certificates_reproduce_deltas(endo_results):
    for res in endo_results.values():
        gamma, deltas = res.gamma, class_deltas(res)
        pows = gamma_power_basis(gamma, res.ring.dimension)
        for label, h in class_certificates(res).items():
            vec = deltas[label]
            for slot_idx in range(len(vec.entries)):
                acc = CyclotomicNumber.zero(res.params.ell, res.params.r)
                for coeff, pw in zip(h.coeffs, pows):
                    acc = acc + pw.entries[slot_idx] * coeff
                assert (acc - vec.entries[slot_idx]).is_zero()
            assert h.is_ell_integral(res.params.ell)
            assert h.degree < res.ring.dimension


def assert_matches_per_class(res):
    """Referee for the per-key records: plain class_predicates on every
    class against its key's first class (but for the label), and each
    class's delta_class vector, one by one, against the image of its
    key's orbit coordinates and through the slot chain's
    reconstruction."""
    ps = res.params
    assert res.labels == [ct.label() for ct in res.classes]
    firsts, key_of = group_classes(res.classes, ps)
    assert res.key_of == key_of
    singular = []
    for ct, k in zip(res.classes, key_of):
        pred = dict(class_predicates(ct, ps), label=None)
        assert pred == dict(class_predicates(firsts[k], ps), label=None)
        vec = delta_class(ct, ps)
        assert slots(image(res.coordinates[k], ps)) == slots(vec)
        if case_bucket(ct, ps) == DEGREE_N and theta_exponent(ct, ps):
            singular.append(slot_reconstruct_gamma(ps, ct, vec, res.scaled_idempotent))
    assert [list(rec.items()) for rec in singular] == [
        list(rec.items()) for rec in class_reconstructions(res)
    ]


def test_delta_class_standalone_matches_pipeline(endo_results):
    for res in endo_results.values():
        assert_matches_per_class(res)


@pytest.mark.parametrize(
    "shift,error", [(1, AssertionFailure), (7, None), (Fraction(1, 7), IntegralityFailure)]
)
def test_delta_class_residue_and_integrality_checks(monkeypatch, shift, error):
    # shift the delta entries of the cuspidal slots by ``shift`` through
    # the class's delta form, whose orbit sum of 0 is n: a unit moves
    # them in the residue field, a multiple of l does not
    ps = validate_parameters(2, 7, 3)
    ct = next(ct for ct in enumerate_classes(finite_field(2), 3) if ct.class_size() > 1)
    form = centermap.delta_form

    def shifted(c, p):
        st, scalar, j = form(c, p)
        assert j == 0
        return st, as_pair(frac(scalar) + Fraction(shift, p.n)), j

    expected = delta_class(ct, ps)
    monkeypatch.setattr(centermap, "delta_form", shifted)
    if error is None:
        assert delta_class(ct, ps).entries[1] == expected.entries[1] + shift
    else:
        with pytest.raises(error):
            delta_class(ct, ps)


def form_vector(ct, form, ps) -> BlockVector:
    """The engine's reading of a delta form: ``check_form``, then the
    image of its ``orbit_coordinates``."""
    centermap.check_form(ct, form, ps)
    return image(orbit_coordinates(form, ps), ps)


def slot_form_vector(ct, form, ps) -> BlockVector:
    """The referee for ``check_form`` and ``orbit_coordinates``: every
    slot multiplied out in Q(zeta), each entry tested for l-integrality,
    then each cuspidal entry against slot 0 in the residue field at
    zeta = 1."""
    st, c, j = frac(form[0]), frac(form[1]), form[2]
    reps = block_slots(ps)
    sums = invariants.orbit_sums(ps)
    entries = [st] + [sums[i * j % ps.ell_power] * c for i in reps[1:]]
    vec = BlockVector(ps.ell, ps.r, reps, entries)
    for slot, e in zip(vec.reps, vec.entries):
        if not e.is_ell_integral(ps.ell):
            raise IntegralityFailure(
                f"delta entry at slot {slot} of {ct.label()} is not l-integral"
            )
    e0 = vec.entries[0]
    for slot, e in zip(vec.reps[1:], vec.entries[1:]):
        if sum((e - e0).nums) % ps.ell:
            raise AssertionFailure(
                f"delta entries of {ct.label()} differ in the residue field",
                witness={"slot": slot},
            )
    return vec


def failure_or_vector(fn, *args):
    """The vector, or the type, message and witness of the failure."""
    try:
        return fn(*args)
    except (AssertionFailure, IntegralityFailure) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@pytest.mark.parametrize("args", REFEREE_CASES)
def test_form_vector_matches_the_slot_referee(args):
    # every key's delta form, and forms moved off it: st or c shifted by
    # a unit (the residues disagree) or by a multiple of l (they agree
    # again), divided by l (not l-integral once l no longer divides it),
    # or with another theta exponent
    ps = reduce_parameters(validate_parameters(*args))
    ell, n = ps.ell, ps.n
    firsts, _ = group_classes(enumerate_classes(finite_field(ps.q), ps.n), ps)
    moves = [
        lambda st, c, j: (st, c, j),
        lambda st, c, j: (st + 1, c, j),
        lambda st, c, j: (st + ell, c, j),
        lambda st, c, j: (st, c + 1, j),
        lambda st, c, j: (st + n, c + 1, j),
        lambda st, c, j: (st / ell, c, j),
        lambda st, c, j: (st, c / ell, j),
        lambda st, c, j: (st / ell, c / ell, j),
        lambda st, c, j: (st, c, j + 1),
    ]
    seen = set()
    for ct in firsts:
        form = delta_form(ct, ps)
        for move in moves:
            st, c, j = move(frac(form[0]), frac(form[1]), form[2])
            moved = as_pair(st), as_pair(c), j
            got = failure_or_vector(form_vector, ct, moved, ps)
            want = failure_or_vector(slot_form_vector, ct, moved, ps)
            if isinstance(got, BlockVector):
                seen.add(BlockVector)
                assert slots(got) == slots(want)
            else:
                seen.add(got[0])
                assert got == want
        assert isinstance(failure_or_vector(form_vector, ct, form, ps), BlockVector)
    assert seen == {BlockVector, AssertionFailure, IntegralityFailure}


# -- the slot chain: the referee for the orbit-coordinate checks --------------------


def slot_scale(vec, c) -> BlockVector:
    return BlockVector(vec.ell, vec.r, vec.reps, [e * c for e in vec.entries])


def slot_minus(u, v) -> BlockVector:
    assert u.reps == v.reps
    return BlockVector(u.ell, u.r, u.reps, [a - b for a, b in zip(u.entries, v.entries)])


def slot_witness_unit(vec, label, ps) -> Fraction:
    """The slot referee for the witness check of ``case_analysis``: the
    vector must be (0, a, ..., a) with a rational and ord_l a = r; the
    unit is a / l^r."""
    if not vec.entries[0].is_zero():
        raise AssertionFailure("witness vector has nonzero Steinberg slot", witness=label)
    tail = rationals(vec)[1:]
    if any(v is None or v != tail[0] for v in tail):
        raise AssertionFailure("witness vector is not constant on cuspidal slots", witness=label)
    if not tail[0]:
        raise AssertionFailure("witness vector vanishes on cuspidal slots", witness=label)
    if ord_frac(tail[0], ps.ell) != ps.r:
        raise AssertionFailure(
            f"witness valuation is {ord_frac(tail[0], ps.ell)}, expected r = {ps.r}",
            witness=label,
        )
    return tail[0] / ps.ell_power


def slot_case_analysis(ps, classes, vecs):
    """The slot referee for ``case_analysis`` on the delta vector of
    every class: the witness shape, cuspidal slots that vanish on a
    non-primary class and S-membership where it is asserted.  Returns
    the witness's label, vector and unit."""
    found = []
    for ct, vec in zip(classes, vecs):
        label, bucket = ct.label(), case_bucket(ct, ps)
        if bucket == REALIZED_WITNESS:
            found.append((label, vec, slot_witness_unit(vec, label, ps)))
        elif bucket == NON_PRIMARY:
            if any(not e.is_zero() for e in vec.entries[1:]):
                raise AssertionFailure(
                    "cuspidal slots must vanish on a non-primary class", witness=label
                )
            if not slot_s_membership(vec):
                raise AssertionFailure("non-primary class outside S", witness=label)
        elif bucket != DEGREE_N and not slot_s_membership(vec):
            raise AssertionFailure(f"{bucket} class outside S", witness=label)
    if len(found) != 1:
        raise AssertionFailure(f"expected exactly one realized-witness class, found {len(found)}")
    return found[0]


def slot_scaled_idempotent(ps, witness, unit) -> BlockVector:
    """The slot referee for ``reconstruct_scaled_idempotent``: l^r * 1 -
    (1/u) * witness, multiplied out in Q(zeta), must be (l^r, 0, ..., 0)."""
    if ord_frac(unit, ps.ell) != 0:
        raise AssertionFailure(f"witness unit {unit} is not an l-unit")
    one = BlockVector(ps.ell, ps.r, witness.reps, [1] * len(witness.reps))
    idem = slot_minus(slot_scale(one, ps.ell_power), slot_scale(witness, 1 / unit))
    expected = (Fraction(ps.ell_power),) + (Fraction(0),) * (len(witness.reps) - 1)
    if rationals(idem) != expected:
        raise AssertionFailure("scaled idempotent has the wrong shape", witness=repr(idem))
    return idem


def slot_reconstruct_gamma(ps, ct, vec, scaled_idem) -> dict:
    """The slot referee for ``reconstruct_gamma``: divide the delta
    vector by the sign/unit scalar, subtract the multiple of the scaled
    idempotent that corrects slot 0 to n, and compare with the
    theta-orbit vector, every step in Q(zeta)."""
    unit = Fraction(ct.class_size() * (-1) ** (ps.n - 1), cuspidal_dimension(ps))
    if ord_frac(unit, ps.ell) != 0:
        raise AssertionFailure(f"|C|/dim is not an l-unit on {ct.label()}", witness=str(unit))
    w = slot_scale(vec, 1 / unit)
    w0 = w.entries[0].as_rational()
    assert w0 is not None
    c = (w0 - ps.n) / ps.ell_power
    if ord_frac(c, ps.ell) < 0:
        raise AssertionFailure(f"idempotent correction {c} is not l-integral on {ct.label()}")
    candidate = slot_minus(w, slot_scale(scaled_idem, c))
    j = theta_exponent(ct, ps)
    expected = theta_orbit_vector(ps, j)
    if slots(candidate) != slots(expected):
        raise AssertionFailure(
            f"reconstruction of {ct.label()} missed its theta-orbit vector",
            witness={"got": repr(candidate), "expected": repr(expected)},
        )
    return {"label": ct.label(), "theta_exponent": j, "unit": unit, "steinberg_slot": w0,
            "correction": c}


def slot_endo_ring(ps):
    """The slot referee for the per-class half of ``verify_endo_ring``,
    on each key's ``delta_class`` vector: the case analysis, the scaled
    idempotent, the replay of every l-singular degree-n key and the
    class of the canonical Sylow generator.  Returns the witness label,
    its unit, the scaled idempotent and the reconstruction records."""
    classes = enumerate_classes(finite_field(ps.q), ps.n)
    firsts, key_of = group_classes(classes, ps)
    vecs = [delta_class(ct, ps) for ct in firsts]
    label, witness, unit = slot_case_analysis(ps, classes, [vecs[k] for k in key_of])
    idem = slot_scaled_idempotent(ps, witness, unit)
    replayed = {
        k: slot_reconstruct_gamma(ps, ct, vecs[k], idem)
        for k, ct in enumerate(firsts)
        if case_bucket(ct, ps) == DEGREE_N and theta_exponent(ct, ps)
    }
    records = [dict(replayed[k], label=ct.label()) for ct, k in zip(classes, key_of) if k in replayed]
    eps, _ = sylow_generator(finite_field(ps.q**ps.n), ps.ell)
    eps_poly = minimal_polynomial(eps, finite_field(ps.q))
    for ct, rec in zip([ct for ct, k in zip(classes, key_of) if k in replayed], records):
        rebuilt = theta_orbit_vector(ps, rec["theta_exponent"])
        if ct.factors[0][0] == eps_poly and slots(rebuilt) != slots(gamma_vector(ps)):
            raise AssertionFailure("class of the canonical Sylow generator does not rebuild gamma")
    return label, unit, idem, records


SLOT_CHAIN_CASES = [*CASES.values(), (2, 31, 5), (7, 5, 4), (53, 3, 2), (2, 73, 9)]
SLOT_CHAIN_CASES += [(2, 127, 7), (101, 17, 2)]


@pytest.mark.parametrize("args", SLOT_CHAIN_CASES)
def test_endo_ring_matches_the_slot_chain(args):
    res = verify_endo_ring(*args)
    label, unit, idem, records = slot_endo_ring(res.params)
    assert (res.case_report.witness_label, frac(res.idempotent_unit)) == (label, unit)
    assert slots(res.scaled_idempotent) == slots(idem)
    assert [list(rec.items()) for rec in class_reconstructions(res)] == [
        list(rec.items()) for rec in records
    ]


# -- the failure texts of the integer rationals, against str of their Fraction -----


@pytest.mark.parametrize("args", REFEREE_CASES)
def test_lemma_signs_match_the_fraction_referee(args):
    # every row, and with r raised past the true congruence the first
    # failing pair, its message and its lhs / rhs witness text
    ps = reduce_parameters(validate_parameters(*args))
    rows = lemma_signs_check(ps)
    want = fraction_lemma_signs_check(ps)
    assert [{**row, "lhs": frac(row["lhs"]), "rhs": frac(row["rhs"])} for row in rows] == want
    raised = ps._replace(r=ps.r + 4)
    got = failure_or_vector(lemma_signs_check, raised)
    assert got[0] is AssertionFailure
    assert got == failure_or_vector(fraction_lemma_signs_check, raised)


@pytest.mark.parametrize("unit", [Fraction(7, 2), Fraction(-1, 14), Fraction(49)])
def test_a_witness_unit_off_the_units_fails_as_on_the_slots(endo_results, unit):
    res = endo_results["P2"]  # l = 7
    ps, k = res.params, res.case_report.witness_key
    witness = class_deltas(res)[res.case_report.witness_label]
    got = failure_or_vector(
        centermap.reconstruct_scaled_idempotent, ps, res.coordinates[k], as_pair(unit)
    )
    assert got == failure_or_vector(slot_scaled_idempotent, ps, witness, unit)
    assert got[1] == f"witness unit {unit} is not an l-unit"


def test_a_class_size_off_the_units_fails_as_on_the_slots(monkeypatch, endo_results):
    # dim times l: every l-singular degree-n class's |C|/dim loses its
    # l-unit, in the engine's replay and in the slot referee's
    res = endo_results["P3"]
    ps = res.params
    firsts, _ = group_classes(res.classes, ps)
    vecs = class_deltas(res)
    plain = centermap.cuspidal_dimension

    def times_ell(p):
        return p.ell * plain(p)

    monkeypatch.setattr(centermap, "cuspidal_dimension", times_ell)
    monkeypatch.setitem(globals(), "cuspidal_dimension", times_ell)
    seen = 0
    for ct, coords, rec in zip(firsts, res.coordinates, res.reconstructions):
        if rec is None:
            continue
        got = failure_or_vector(centermap.reconstruct_gamma, ps, ct, coords)
        want = failure_or_vector(
            slot_reconstruct_gamma, ps, ct, vecs[ct.label()], res.scaled_idempotent
        )
        assert got == want
        assert got[2] == str(Fraction(ct.class_size() * (-1) ** (ps.n - 1), times_ell(ps)))
        seen += 1
    assert seen


# -- failure paths: one key's delta form moved --------------------------------------


def move_forms(monkeypatch, pick, move):
    """Patch ``centermap.delta_form`` to move the form of every class
    that ``pick`` accepts.  verify_endo_ring asks for one form per key,
    at the key's first class in census order, so this moves whole keys.
    ``move`` reads and returns st and c as ``Fraction``s."""
    plain = centermap.delta_form

    def moved(ct, ps):
        form = plain(ct, ps)
        if not pick(ct, ps):
            return form
        st, c, j = move(ps, frac(form[0]), frac(form[1]), form[2])
        return as_pair(st), as_pair(c), j

    monkeypatch.setattr(centermap, "delta_form", moved)


def first_in(bucket):
    return lambda ct, ps: centermap.case_bucket(ct, ps) == bucket


def l_singular(ct, ps):
    return centermap.case_bucket(ct, ps) == DEGREE_N and theta_exponent(ct, ps) != 0


def cli_failure(capsys, args) -> tuple:
    """The exit code and the error of the endo-ring JSON envelope."""
    q, ell, n = args
    code = cli.main(["endo-ring", "--q", str(q), "--ell", str(ell), "--n", str(n), "--out", "json"])
    return code, json.loads(capsys.readouterr().out)["artifacts"]["error"]


def envelope_error(failure) -> dict:
    kind, message, witness = failure
    error = {"type": kind.__name__, "message": message}
    if witness is not None:
        error["witness"] = repr(witness)
    return error


REPLAY_MISSED = "reconstruction of x^3+x^2+1:(1) missed its theta-orbit vector"
MOVED_FORMS = {
    "witness-steinberg": (
        (2, 7, 3), first_in(REALIZED_WITNESS), lambda ps, st, c, j: (st + ps.ell, c, j),
        "witness vector has nonzero Steinberg slot", "x+1:(3)",
    ),
    "witness-shape": (
        (2, 7, 3), first_in(REALIZED_WITNESS), lambda ps, st, c, j: (st, c, 1),
        "witness vector is not constant on cuspidal slots", "x+1:(3)",
    ),
    # a = 0 has no valuation: the check names the witness, and raises no
    # ZeroArgument
    "witness-zero": (
        (2, 7, 3), first_in(REALIZED_WITNESS), lambda ps, st, c, j: (0 * st, 0 * c, j),
        "witness vector vanishes on cuspidal slots", "x+1:(3)",
    ),
    "witness-valuation": (
        (2, 7, 3), first_in(REALIZED_WITNESS), lambda ps, st, c, j: (st, c * ps.ell, j),
        "witness valuation is 2, expected r = 1", "x+1:(3)",
    ),
    "non-primary-cuspidal": (
        (2, 7, 3), first_in(NON_PRIMARY), lambda ps, st, c, j: (st, c + ps.ell, j),
        "cuspidal slots must vanish on a non-primary class", "x+1:(1)|x^2+x+1:(1)",
    ),
    "non-primary-outside-s": (
        (8, 3, 2), first_in(NON_PRIMARY), lambda ps, st, c, j: (st + ps.ell, c, j),
        "non-primary class outside S", "x+1:(1)|x+2:(1)",
    ),
    "diagonalizable-outside-s": (
        (17, 3, 2), first_in(PRIMARY_SMALL_DIAG), lambda ps, st, c, j: (st + ps.ell, c, j),
        "primary-small-diagonalizable class outside S", "x+1:(1,1)",
    ),
    "nondiagonalizable-outside-s": (
        (17, 3, 2), first_in(PRIMARY_SMALL_NONDIAG), lambda ps, st, c, j: (st + ps.ell, c, j),
        "primary-small-nondiagonalizable class outside S", "x+1:(2)",
    ),
    "replay-correction": (
        (8, 3, 2), l_singular, lambda ps, st, c, j: (st + ps.ell, c, j),
        "idempotent correction -1/6 is not l-integral on x^2+x+1:(1)", None,
    ),
    "replay-scalar": (
        (2, 7, 3), l_singular, lambda ps, st, c, j: (st, c + ps.ell, j), REPLAY_MISSED, dict,
    ),
    "replay-exponent": (
        (2, 7, 3), l_singular, lambda ps, st, c, j: (st, c, 3 * j % 7), REPLAY_MISSED, dict,
    ),
}


@pytest.mark.parametrize("args,pick,move,message,witness", MOVED_FORMS.values(), ids=MOVED_FORMS)
def test_a_moved_delta_form_fails_as_on_the_slots(
    monkeypatch, capsys, args, pick, move, message, witness
):
    # each reachable failure of the case analysis and the gamma replay,
    # with the slot chain's type, message and witness, in process and as
    # the exit-1 envelope; a missed replay's witness is the slot vectors
    move_forms(monkeypatch, pick, move)
    got = failure_or_vector(verify_endo_ring, *args)
    assert got[:2] == (AssertionFailure, message)
    assert set(got[2]) == {"got", "expected"} if witness is dict else got[2] == witness
    assert got == failure_or_vector(slot_endo_ring, validate_parameters(*args))
    assert cli_failure(capsys, args) == (1, envelope_error(got))


def test_a_sylow_class_off_the_orbit_of_one_fails(monkeypatch, capsys):
    # every l-singular theta exponent, in the forms and in the replay,
    # moved to 3 j: each replay matches, but the class of the canonical
    # Sylow generator no longer rebuilds gamma
    plain = centermap.theta_exponent
    move_forms(monkeypatch, l_singular, lambda ps, st, c, j: (st, c, 3 * j % 7))
    monkeypatch.setattr(centermap, "theta_exponent", lambda ct, ps: 3 * plain(ct, ps) % 7)
    got = failure_or_vector(verify_endo_ring, 2, 7, 3)
    message = "class of the canonical Sylow generator does not rebuild gamma"
    assert got == (AssertionFailure, message, None)
    assert cli_failure(capsys, (2, 7, 3)) == (1, envelope_error(got))


def test_a_census_without_the_witness_class_fails(monkeypatch, capsys):
    plain = centermap.case_bucket

    def bucket(ct, ps):
        found = plain(ct, ps)
        return PRIMARY_SMALL_NONDIAG if found == REALIZED_WITNESS else found

    monkeypatch.setattr(centermap, "case_bucket", bucket)
    got = failure_or_vector(verify_endo_ring, 2, 7, 3)
    assert got == (AssertionFailure, "expected exactly one realized-witness class, found 0", None)
    assert cli_failure(capsys, (2, 7, 3)) == (1, envelope_error(got))


@pytest.fixture(scope="module")
def endo_17_3():
    return verify_endo_ring(17, 3, 2)


def test_per_type_records_match_per_class_at_17_3(endo_17_3):
    assert_matches_per_class(endo_17_3)


def test_endo_ring_computes_once_per_type_at_17_3(monkeypatch):
    deltas, columns = [], []
    plain_delta, plain_solve = centermap.delta_form, centermap.solve_columns

    def counted_delta(*args):
        deltas.append(1)
        return plain_delta(*args)

    def counted_solve(rows, rhs_list):
        columns.append(len(rhs_list))
        return plain_solve(rows, rhs_list)

    monkeypatch.setattr(centermap, "delta_form", counted_delta)
    monkeypatch.setattr(centermap, "solve_columns", counted_solve)
    res = verify_endo_ring(17, 3, 2)
    # 288 classes, 12 (type key, theta exponent) pairs, 8 distinct vectors
    assert len(deltas) == 12
    assert len(columns) == 1 and columns[0] <= 12
    labels = [ct.label() for ct in res.classes]
    assert len(labels) == 288 and res.labels == labels
    # every per-class result is held once per key
    assert len(res.coordinates) == len(res.reconstructions) == len(res.certificate_of) == 12
    assert len(res.case_report.in_s) == 12 and len(res.certificates) == columns[0]
    singular = [
        ct.label()
        for ct in res.classes
        if case_bucket(ct, res.params) == DEGREE_N and theta_exponent(ct, res.params)
    ]
    assert len(singular) == 128
    assert [rec["label"] for rec in class_reconstructions(res)] == singular


def test_labels_rendered_once_per_class_at_17_3(monkeypatch):
    # 288 classes; class_predicates (12 type keys) still puts a label
    # in its own record, once per key; reconstruct_gamma renders one
    # only in a failure message
    renders = []
    plain_label = ClassType.label

    def counted(ct):
        renders.append(1)
        return plain_label(ct)

    monkeypatch.setattr(ClassType, "label", counted)
    res = verify_endo_ring(17, 3, 2)
    assert len(res.classes) == 288
    assert len(renders) <= 288 + 12


def test_fqpoly_hashed_once_per_factor_at_17_3(monkeypatch):
    # the census is checked by one pass over its sort keys and grouped
    # on type keys and theta exponents: no class type is ever hashed
    hashes = []
    plain_hash = FqPoly.__hash__

    def counted(poly):
        hashes.append(1)
        return plain_hash(poly)

    monkeypatch.setattr(FqPoly, "__hash__", counted)
    verify_endo_ring(17, 3, 2)
    assert hashes == []


def test_classes_ell_groups_the_census_at_17_3(capsys, monkeypatch):
    # one label per class for the artifact, plus one inside each of the
    # 12 class_predicates calls, one per (type key, theta exponent)
    renders, preds = [], []
    plain_label, plain_preds = ClassType.label, cli.class_predicates

    def counted_label(ct):
        renders.append(1)
        return plain_label(ct)

    def counted_preds(ct, ps):
        preds.append(1)
        return plain_preds(ct, ps)

    monkeypatch.setattr(ClassType, "label", counted_label)
    monkeypatch.setattr(cli, "class_predicates", counted_preds)
    monkeypatch.delenv("CUSPCENTER_CACHE", raising=False)
    code = cli.main(["classes", "--q", "17", "--n", "2", "--ell", "3", "--out", "json"])
    out = capsys.readouterr().out.encode("ascii")
    assert code == 0
    assert len(renders) <= 288 + 12
    assert len(preds) == 12
    assert hashlib.sha256(out).hexdigest() == (
        "a949195cf0761271fc83f72ca95b503fd19226686f1d8a684e017c54669dc122"
    )


def test_classes_centralizer_once_per_type_key_at_17_2(capsys, monkeypatch):
    calls = []
    plain = ClassType.centralizer_order

    def counted(ct):
        calls.append(ct.type_key)
        return plain(ct)

    monkeypatch.setattr(ClassType, "centralizer_order", counted)
    monkeypatch.delenv("CUSPCENTER_CACHE", raising=False)
    code = cli.main(["classes", "--q", "17", "--n", "2", "--out", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # GL_2 has four class types: central, non-central unipotent times a
    # scalar, split semisimple and elliptic
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 4
    rows = out["artifacts"]["classes"]
    assert len(rows) == 288
    assert sum(row["size"] for row in rows) == out["artifacts"]["group_order"]


def test_classes_centralizer_not_dividing_the_order_raises(capsys, monkeypatch):
    monkeypatch.setattr(ClassType, "centralizer_order", lambda ct: 7)
    monkeypatch.delenv("CUSPCENTER_CACHE", raising=False)
    code = cli.main(["classes", "--q", "3", "--n", "2", "--out", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    error = out["artifacts"]["error"]
    assert error["type"] == "AssertionFailure"
    assert error["message"].endswith("does not divide 48")
    assert error["witness"] == repr(error["message"].split()[4])  # the label


def test_s_membership_once_per_vector_at_17_3(monkeypatch):
    calls = []

    def counted(coords, ell):
        calls.append(coords)
        return s_membership(coords, ell)

    monkeypatch.setattr(centermap, "s_membership", counted)
    res = verify_endo_ring(17, 3, 2)
    assert len(calls) <= 12
    flags = per_class(res, res.case_report.in_s)
    assert list(flags) == [ct.label() for ct in res.classes]
    assert len(flags) == 288
    assert flags == {label: slot_s_membership(vec) for label, vec in class_deltas(res).items()}


# sha256 of `--out json` stdout by command.  The endo-ring pins were
# recorded before per-type records, the deformation and invariants pins
# before Poly and Fr moved onto integer numerators, the (3,7,6) and
# (2,31,5) deformation pins with the Leibniz charpoly and per-point
# commutation products, the (53,3,2) invariants pin with the coset
# walk that built each m_i before it read the orbit representatives,
# and the (2,31,5) and (2,127,7) endo-ring pins with the full-system
# gamma solve and the valuation-based residue test.  The classes and
# oracle pins were recorded while json.dumps still wrote the envelope.
PINNED_JSON = {
    "2-31": (
        "endo-ring --q 2 --ell 31",
        "6a4f7dc6e243746322eaf8128eeb3cc8f0b1cb6d5a3b8c38a13177dc74aca435",
    ),
    "2-127": (
        "endo-ring --q 2 --ell 127",
        "6f3d2122a6326f1210557b2740851080ef6a973c9a04970c4ae7bb355842aae4",
    ),
    "17-3": (
        "endo-ring --q 17 --ell 3",
        "2d87d4d376e6ff2f89db2ab3a8498e5643278307eb56dcad60a7c0f2559a190c",
    ),
    "7-5": (
        "endo-ring --q 7 --ell 5",
        "bb3502f78f845d9dc9800f843dc775067afb7faf2301a750c7cefa482f21cbab",
    ),
    "deformation-3-5": (
        "deformation --q 3 --ell 5",
        "cfde5c28e87a7218779782dd7848f269093ef8faa3bf68af08f36cb60ed4df9b",
    ),
    "deformation-2-7": (
        "deformation --q 2 --ell 7",
        "e3393e7a496e0b6deb6a9acd21f080c77ecdf8b7c2fd92603d6025029051f386",
    ),
    "deformation-3-7": (
        "deformation --q 3 --ell 7",
        "21a5ada004257f1a441428cc40f40dcf89ae450a2af3d04ba26f46eca15af638",
    ),
    "deformation-2-31": (
        "deformation --q 2 --ell 31",
        "1aaee79564b0670d02ec6f892351b31e505b0778f1cfc0a307c867324991753d",
    ),
    "invariants-2-127": (
        "invariants --q 2 --ell 127",
        "22fbf27cfba4c8abaf934240b2a6c40df426ff133f61ffa6dcad15bd91f11ba5",
    ),
    "invariants-8-3": (
        "invariants --q 8 --ell 3",
        "d70aded49ed98726922eac10ffa02b2e3d02f6eff2f011c461d8046c99009133",
    ),
    # r = 3: levels map to orbit representatives through l^(r-i)
    "invariants-53-3": (
        "invariants --q 53 --ell 3",
        "a905980694c43e140b4568434de0781346c8871efc22bcbbc38475d295f1239a",
    ),
    # recorded while m_i was still the product over its conjugate sums
    "invariants-2-73": (
        "invariants --q 2 --ell 73",
        "99c82c2ab175ab6198b6130780ad98cb087af30851ff0655ed90d8567abd0e70",
    ),
    "invariants-211-53": (
        "invariants --q 211 --ell 53",
        "8309a8ffdde93d15a18e58c0ed4f40bc58b9962944c250be0932462c12a9f579",
    ),
    "classes-17-2-3": (
        "classes --q 17 --n 2 --ell 3",
        "a949195cf0761271fc83f72ca95b503fd19226686f1d8a684e017c54669dc122",
    ),
    "oracle-4-2-5": (
        "oracle --q 4 --n 2 --ell 5",
        "191197a2afd2976fd421b66994ba38b9bdabf7045b4de1578633e661049241cf",
    ),
    # recorded while the census multiplied flat matrices entry by entry
    # and orthogonality summed RootSums: GL_3(F_2), GL_2(F_5) with the
    # census, GL_2(F_8) with the table alone
    "oracle-2-3-7": (
        "oracle --q 2 --n 3 --ell 7",
        "229fcc3f41c54ea27439d80e96850e0ba9bcdbad87e00e3b4d41657b1e06323a",
    ),
    "oracle-5-2-3": (
        "oracle --q 5 --n 2 --ell 3",
        "16969cbfed075a41f9a19e1477a744968736b42fe7cc9b8b703808f5a26f28c0",
    ),
    "oracle-8-2-3": (
        "oracle --q 8 --n 2 --ell 3",
        "413a80f74574d3aff6be08bcf97ae02a769fd371561664d03587e6187bb9c9c1",
    ),
}


@pytest.mark.parametrize("command,digest", PINNED_JSON.values(), ids=PINNED_JSON)
def test_endo_ring_json_pinned(command, digest):
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcenter", *command.split(), "--out", "json"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-1000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# sha256 of `--out text` stdout, one command per subcommand, recorded
# while the record types were still dataclasses: `report._text_value`
# lists every tuple, so a record reaching the text envelope shows here.
PINNED_TEXT = {
    "endo-ring-2-3": (
        "endo-ring --q 2 --ell 3",
        "59ee780702867dfcf0cddeedeb405924078460f966e83b12cb3f4102bf2e9097",
    ),
    "invariants-2-127": (
        "invariants --q 2 --ell 127",
        "a742bdc041c8fdee93569cda3618db540885b16630d5f80788de42879b222926",
    ),
    "classes-4-2-5": (
        "classes --q 4 --n 2 --ell 5",
        "a9270cd952b6d867d4ca554af353a8535ed8d11fc4608775f21a78e424e070f6",
    ),
    "oracle-4-2-5": (
        "oracle --q 4 --n 2 --ell 5",
        "41c8a779fe1960662b3cd773562994c728e950fa8d5893401be802a74cce8dd8",
    ),
    "deformation-2-7": (
        "deformation --q 2 --ell 7",
        "5aa541ad467b6731f4868681fe3fc8d2078660b588f5c1a51b481df63094972b",
    ),
}


@pytest.mark.parametrize("command,digest", PINNED_TEXT.values(), ids=PINNED_TEXT)
def test_text_output_pinned(command, digest):
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcenter", *command.split(), "--out", "text"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-1000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_reduced_twin_agrees(endo_results):
    p4, u4 = endo_results["P4"], endo_results["U4"]
    assert u4.params == p4.params
    assert u4.params_input != p4.params_input
    assert u4.ring.m == p4.ring.m
    assert slots(u4.gamma) == slots(p4.gamma)
    assert {k: v.coeffs for k, v in class_certificates(u4).items()} == {
        k: v.coeffs for k, v in class_certificates(p4).items()
    }
    assert u4.idempotent_unit == p4.idempotent_unit


def test_check_log_is_complete(endo_results):
    for res in endo_results.values():
        joined = " ".join(res.checks)
        for needle in (
            "invariant-ring",
            "uniformizer",
            "pullback",
            "classes:",
            "delta:",
            "case analysis",
            "sign congruences",
            "scaled idempotent",
            "gamma:",
            "gamma reconstruction",
            "closure:",
            "g = m/(Y - n)",
        ):
            assert needle in joined
