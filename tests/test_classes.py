"""Class-type combinatorics for GL_n(F_q): enumeration against the
generating function, sizes against classical tables, and the
centralizer-order dichotomy."""

import json
import sys
from collections import Counter

import pytest
from conftest import partitions, referee_census

from cuspcenter import classes, finitefield
from cuspcenter.arith import prime_power
from cuspcenter.centermap import verify_endo_ring
from cuspcenter.classes import (
    class_predicates,
    conjugacy_class_count,
    enumerate_classes,
    group_classes,
    group_order,
    is_ell_regular,
    make_class_type,
    partitions_upto,
    representative_matrix,
    theta_exponent,
)
from cuspcenter.cli import main
from cuspcenter.errors import AssertionFailure, ScaleLimit
from cuspcenter.finitefield import FqPoly, embedding, finite_field
from cuspcenter.matrices import charpoly as generic_charpoly
from cuspcenter.params import validate_parameters


def test_partitions():
    assert partitions(0) == ((),)
    assert partitions(1) == ((1,),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(7)) == 15
    assert partitions_upto(0) == ()
    assert partitions_upto(3) == ((1,), (1, 1), (1, 1, 1), (2,), (2, 1), (3,))
    # every partition of each size 1..m, in increasing tuple order
    for m in range(9):
        merged = sorted(lam for b in range(1, m + 1) for lam in partitions(b))
        assert list(partitions_upto(m)) == merged


def test_group_orders():
    assert group_order(2, 2) == 6
    assert group_order(3, 2) == 48
    assert group_order(4, 2) == 180
    assert group_order(2, 3) == 168
    assert group_order(3, 4) == 24261120


@pytest.mark.parametrize(
    "q,n,count",
    [(2, 2, 3), (3, 2, 8), (4, 2, 15), (2, 3, 6), (3, 4, 78), (8, 2, 63)],
)
def test_class_counts(q, n, count):
    assert conjugacy_class_count(q, n) == count
    classes = enumerate_classes(finite_field(q), n)
    assert len(classes) == count


def test_class_sizes_gl2_f2():
    classes = enumerate_classes(finite_field(2), 2)
    assert Counter(ct.class_size() for ct in classes) == Counter({1: 1, 3: 1, 2: 1})
    assert sum(ct.class_size() for ct in classes) == 6


def test_class_sizes_gl3_f2():
    classes = enumerate_classes(finite_field(2), 3)
    assert sorted(ct.class_size() for ct in classes) == [1, 21, 24, 24, 42, 56]
    assert sum(ct.class_size() for ct in classes) == 168


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 4), (8, 2)])
def test_sizes_partition_group(q, n):
    classes = enumerate_classes(finite_field(q), n)
    assert sum(ct.class_size() for ct in classes) == group_order(q, n)


def test_centralizer_examples():
    # identity of GL_3(F_2): centralizer is the whole group
    f2 = finite_field(2)
    x_plus_1 = FqPoly.from_encodings(f2, (1, 1))
    identity = make_class_type(((x_plus_1, (1, 1, 1)),))
    assert identity.centralizer_order() == 168
    # regular unipotent of GL_3(F_2): |C| = q^2 (q - 1) = 4
    reg_unip = make_class_type(((x_plus_1, (3,)),))
    assert reg_unip.centralizer_order() == 4
    assert reg_unip.class_size() == 42
    # regular unipotent of GL_4(F_3): |C| = q^3 (q - 1) = 54
    f3 = finite_field(3)
    x_minus_1 = FqPoly.from_encodings(f3, (2, 1))
    ru4 = make_class_type(((x_minus_1, (4,)),))
    assert ru4.centralizer_order() == 54
    assert ru4.class_size() == 449280


def test_class_type_predicates():
    f2 = finite_field(2)
    x_plus_1 = FqPoly.from_encodings(f2, (1, 1))
    quad = FqPoly.from_encodings(f2, (1, 1, 1))
    elliptic = make_class_type(((quad, (1,)),))
    assert elliptic.is_primary and elliptic.is_semisimple
    split = make_class_type(((quad, (1,)), (x_plus_1, (1,))), n=3)
    assert not split.is_primary
    nonss = make_class_type(((x_plus_1, (2,)),))
    assert nonss.is_primary and not nonss.is_semisimple
    assert elliptic.degree_profile == ((2, 1),)
    assert split.degree_profile == ((1, 1), (2, 1))


def test_enumeration_deterministic_and_sorted():
    f4 = finite_field(4)
    a = enumerate_classes(f4, 2)
    b = enumerate_classes(f4, 2)
    assert a == b
    assert list(a) == sorted(a, key=lambda ct: ct.sort_key())
    labels = [ct.label() for ct in a]
    assert len(set(labels)) == len(labels)


# every GL_n(F_q) with n >= 2 and q^n <= 10^4
REFEREE_SETS = [
    (q, n) for n in range(2, 14) for q in range(2, 101) if prime_power(q) and q**n <= 10**4
]


def test_referee_sets_cover_gl_n_up_to_10_4():
    assert len(REFEREE_SETS) == 70
    assert (97, 2) in REFEREE_SETS and (3, 8) in REFEREE_SETS and (2, 13) in REFEREE_SETS


@pytest.mark.parametrize("q,n", REFEREE_SETS)
def test_census_in_order_by_construction_matches_the_referee(q, n):
    field = finite_field(q)
    assert enumerate_classes(field, n) == referee_census(field, n)


def mutate_partitions(monkeypatch, mutation):
    """Make the census walk take ``mutation`` of each partitions_upto
    list; the lists are taken first, so the cache never sees it."""
    lists = {m: partitions_upto(m) for m in range(1, 5)}
    monkeypatch.setattr(classes, "partitions_upto", lambda m: tuple(mutation(lists[m])))


def emit_a_class_twice(lams):
    # (2,) becomes (1, 1): the count stays, a class comes twice and one is missing
    return [(1, 1) if lam == (2,) else lam for lam in lams]


def test_census_check_refuses_a_class_emitted_twice(monkeypatch):
    mutate_partitions(monkeypatch, emit_a_class_twice)
    with pytest.raises(AssertionFailure, match="not strictly increasing"):
        enumerate_classes(finite_field(4), 2)


def test_census_check_refuses_partitions_out_of_order(monkeypatch):
    mutate_partitions(monkeypatch, reversed)
    with pytest.raises(AssertionFailure, match="not strictly increasing"):
        enumerate_classes(finite_field(4), 2)


def test_census_check_refuses_polynomials_out_of_order(monkeypatch):
    # the walk takes the polynomials in irreducible_polys order, which is
    # FqPoly.sort_key's; here each degree comes in encoding order instead
    # (coefficients compared from the top), and the check, which reads
    # ClassType.sort_key, refuses the census
    plain = classes.irreducible_polys

    def encoding_order(field, a, scale_bound):
        polys = plain(field, a, scale_bound)
        return sorted(polys, key=lambda p: [c.encoding for c in p.coeffs[::-1]])

    monkeypatch.setattr(classes, "irreducible_polys", encoding_order)
    with pytest.raises(AssertionFailure, match="not strictly increasing"):
        enumerate_classes(finite_field(4), 2)


def test_classes_with_a_class_emitted_twice_exits_1(capsys, monkeypatch):
    monkeypatch.delenv("CUSPCENTER_CACHE", raising=False)
    mutate_partitions(monkeypatch, emit_a_class_twice)
    code = main(["classes", "--q", "4", "--n", "2", "--out", "json"])
    env = json.loads(capsys.readouterr().out)
    assert code == 1 and env["status"] == "fail"
    assert env["artifacts"]["error"]["type"] == "AssertionFailure"
    assert "not strictly increasing" in env["artifacts"]["error"]["message"]


def test_enumeration_many_polys_gf53():
    # 52 linear plus 1378 quadratic irreducibles: the enumeration must not
    # nest once per polynomial
    classes = enumerate_classes(finite_field(53), 2)
    assert len(classes) == conjugacy_class_count(53, 2) == 2808


def test_enumeration_scale_limit():
    with pytest.raises(ScaleLimit):
        enumerate_classes(finite_field(8), 2, scale_bound=50)


def test_ell_regular_p5():
    # exactly two ell-regular primary degree-4 classes for (q,l,n)=(3,5,4)
    ps = validate_parameters(3, 5, 4)
    classes = enumerate_classes(finite_field(3), 4)
    deg4 = [ct for ct in classes if ct.is_primary and ct.factors[0][0].degree == 4]
    assert len(deg4) == 18
    regular = [ct for ct in deg4 if is_ell_regular(ct, ps)]
    assert len(regular) == 2
    # non-primary and lower-degree-primary classes are always ell-regular
    for ct in classes:
        if all(poly.degree < 4 for poly, _ in ct.factors):
            assert is_ell_regular(ct, ps)


def test_centralizer_dichotomy_all_cases():
    for q, ell, n in ((2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4)):
        ps = validate_parameters(q, ell, n)
        for ct in enumerate_classes(finite_field(q), n):
            report = class_predicates(ct, ps)  # raises if dichotomy fails
            assert report["class_size"] * report["centralizer_order"] == group_order(
                q, n
            )


def test_representative_charpoly():
    # char poly of the representative equals prod P^parts
    f2 = finite_field(2)
    for ct in enumerate_classes(f2, 3):
        rep = representative_matrix(ct)
        expected = FqPoly(f2, (f2.one,))
        for poly, lam in ct.factors:
            expected = expected * poly ** sum(lam)
        cp = generic_charpoly(
            [list(row) for row in rep], zero=f2.zero, one=f2.one
        )
        assert tuple(cp) == expected.coeffs


def test_representative_is_invertible():
    f3 = finite_field(3)
    for ct in enumerate_classes(f3, 2):
        rep = representative_matrix(ct)
        # determinant = (-1)^n * constant term of charpoly, nonzero
        cp = generic_charpoly([list(row) for row in rep], zero=f3.zero, one=f3.one)
        assert cp[0]  # constant term nonzero <=> invertible


def test_theta_exponent_reads_roots_from_one_orbit_pass(monkeypatch):
    # every consumer (class enumeration, class predicates, cuspidal
    # values, the degree-n filter, gamma reconstruction) shares one
    # Frobenius pass over F_64; none falls back to the brute-force search
    from cuspcenter import classes

    f8, f64 = finite_field(8), finite_field(64)
    finitefield.frobenius_orbits.cache_clear()  # compute, do not recall
    finitefield._irreducibles.cache_clear()
    original_roots_in = finitefield.roots_in
    roots_in_calls = []

    def counting_roots_in(poly, big):
        roots_in_calls.append(poly)
        return original_roots_in(poly, big)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("cuspcenter") and (
            getattr(module, "roots_in", None) is original_roots_in
        ):
            monkeypatch.setattr(module, "roots_in", counting_roots_in)
    original_smallest_root = classes.smallest_root
    used_roots = {}

    def recording_smallest_root(poly, big):
        used_roots[poly] = original_smallest_root(poly, big)
        return used_roots[poly]

    monkeypatch.setattr(classes, "smallest_root", recording_smallest_root)
    result = verify_endo_ring(8, 3, 2)
    assert roots_in_calls == []
    # two passes, F_8 over itself (degree 1) and F_64 over F_8 (degree 2),
    # each walked once and read again by every later lookup
    passes = finitefield.frobenius_orbits.cache_info()
    assert passes.misses == passes.currsize == 2 and passes.hits >= 28
    finitefield.frobenius_orbits(f8, f64)
    assert finitefield.frobenius_orbits.cache_info().misses == passes.misses
    degree_2 = [
        ct.factors[0][0]
        for ct in result.classes
        if ct.is_primary and ct.factors[0][0].degree == 2
    ]
    assert len(degree_2) == 28
    assert set(used_roots) == set(degree_2)
    for poly in degree_2:
        assert used_roots[poly] == original_roots_in(poly, f64)[0]


def test_group_classes_keys_by_type_and_theta_exponent():
    ps = validate_parameters(8, 3, 2)
    classes = enumerate_classes(finite_field(8), 2)
    firsts, key_of = group_classes(classes, ps)

    def key(ct):
        return ct.type_key, theta_exponent(ct, ps)

    assert len(key_of) == len(classes) == 63
    assert len({key(ct) for ct in firsts}) == len(firsts) == 11
    assert all(key(ct) == key(firsts[k]) for ct, k in zip(classes, key_of))
    # firsts[k] is the first class with key k, and firsts keep census order
    first_at = [key_of.index(k) for k in range(len(firsts))]
    assert [classes[i] for i in first_at] == firsts
    assert first_at == sorted(first_at)


def test_make_class_type_checks_the_degree_total():
    x_plus_1 = FqPoly.from_encodings(finite_field(2), (1, 1))
    with pytest.raises(AssertionFailure):
        make_class_type(((x_plus_1, (2, 1)),), 2)


def test_representative_matrix_checks_its_size():
    x_plus_1 = FqPoly.from_encodings(finite_field(2), (1, 1))
    ct = make_class_type(((x_plus_1, (2,)),))
    assert len(representative_matrix(ct)) == 2
    with pytest.raises(AssertionFailure):
        representative_matrix(ct._replace(n=3))
