"""Brute-force census vs the product-formula class data.  These five
groups (orders 6, 48, 180, 480, 168: every GL_n(F_q) with n >= 2 and
order at most the default bound 1000) are small enough to enumerate
outright, which makes them the referee for everything classes.py
computes.

The census itself runs on integer encodings through ``FieldTables`` and
the row-action tables of ``RowVectors``.  Its referee here is the plain
census over ``FFElement`` matrices with generic product, Leibniz
determinant and Gaussian inverse.  The census builds the group row by
row, outside the span of the rows already chosen, and reads each
inverse off the row-action tables; the encoded paths they replaced, all
q^(n^2) candidates filtered by a Leibniz determinant and a Gauss-Jordan
inverse through ``FieldTables``, are their referees."""

from itertools import permutations, product

import pytest

from cuspcenter import matrixoracle
from cuspcenter.classes import enumerate_classes, group_order
from cuspcenter.errors import AssertionFailure, ScaleLimit
from cuspcenter.finitefield import finite_field
from cuspcenter.matrices import mat_mul
from cuspcenter.matrixoracle import (
    FieldTables,
    RowVectors,
    census_cross_check,
    encode_matrix,
    invertible_rows,
    mat_mul as enc_mat_mul,
    matrix_census,
)

GROUPS = [(2, 2, 6, 3), (3, 2, 48, 8), (4, 2, 180, 15), (5, 2, 480, 24), (2, 3, 168, 6)]


# ---------------------------------------------------------------------------
# referee: the census over FFElement matrices
# ---------------------------------------------------------------------------


def _det(a, zero):
    n = len(a)
    total = zero
    for perm in permutations(range(n)):
        prod = a[0][perm[0]]
        for i in range(1, n):
            prod = prod * a[i][perm[i]]
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = total - prod if odd else total + prod
    return total


def _inverse(a, zero, one):
    n = len(a)
    aug = [list(a[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != zero)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [x * inv_p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != zero:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(r[n:]) for r in aug)


def _all_matrices(field, n):
    order = field.order
    for enc in range(order ** (n * n)):
        entries = []
        x = enc
        for _ in range(n * n):
            entries.append(field.element(x % order))
            x //= order
        yield tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))


def referee_census(field, n):
    """(sizes, centralizers, orbit_of) with FFElement-matrix keys."""
    zero, one = field.zero, field.one
    group = [g for g in _all_matrices(field, n) if _det(g, zero)]
    assert len(group) == group_order(field.order, n)
    pairs = [(h, _inverse(h, zero, one)) for h in group]
    orbit_of, sizes, centralizers = {}, [], []
    for g in group:
        if g in orbit_of:
            continue
        orbit = {mat_mul(mat_mul(h, g, zero), hinv, zero) for h, hinv in pairs}
        for mat in orbit:
            orbit_of[mat] = len(sizes)
        sizes.append(len(orbit))
        centralizers.append(
            sum(1 for h, _ in pairs if mat_mul(h, g, zero) == mat_mul(g, h, zero))
        )
    return tuple(sizes), tuple(centralizers), orbit_of


# ---------------------------------------------------------------------------
# referee: the group and the inverses on encodings, by determinant and
# Gauss-Jordan elimination through FieldTables
# ---------------------------------------------------------------------------


def _neg(t, x):
    return next(y for y in range(len(t.log)) if t.add(x, y) == 0)


def _inv(t, x):
    return t.exp[t.order - t.log[x]]


def _signed_permutations(n):
    out = []
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out.append((inversions % 2, perm))
    return out


def referee_det(t, a, signed_perms):
    """Leibniz determinant of a flat matrix of encodings."""
    total = 0
    for odd, perm in signed_perms:
        n = len(perm)
        prod = a[perm[0]]
        for i in range(1, n):
            prod = t.mul(prod, a[i * n + perm[i]])
        total = t.add(total, _neg(t, prod) if odd else prod)
    return total


def referee_inverse(t, a, n):
    """Gauss-Jordan inverse of an invertible flat n x n matrix of encodings."""
    rows = [list(a[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = _inv(t, rows[col][col])
        rows[col] = [t.mul(x, scale) for x in rows[col]]
        for i in range(n):
            f = rows[i][col]
            if i != col and f:
                nf = _neg(t, f)
                rows[i] = [t.add(x, t.mul(nf, y)) for x, y in zip(rows[i], rows[col])]
    return tuple(x for row in rows for x in row[n:])


def referee_group(t, vecs, q, n):
    """Every q^(n^2) candidate in encoding order (entry k is digit k,
    lowest first, of its index in base q), kept where its determinant is
    nonzero."""
    signed_perms = _signed_permutations(n)
    candidates = (digits[::-1] for digits in product(range(q), repeat=n * n))
    return [vecs.rows(g) for g in candidates if referee_det(t, g, signed_perms)]


GROUPS_AND_UNITS = [(q, n) for q, n, _, _ in GROUPS] + [(7, 1)]


@pytest.mark.parametrize("q,n", GROUPS_AND_UNITS)
def test_row_spans_list_the_referee_group_in_order(q, n):
    t = FieldTables(finite_field(q))
    vecs = RowVectors(t, q, n)
    group = invertible_rows(vecs)
    assert group == referee_group(t, vecs, q, n)
    assert len(group) == group_order(q, n)


@pytest.mark.parametrize("q,n", GROUPS_AND_UNITS)
def test_inverses_read_off_the_tables_match_the_referee(q, n):
    t = FieldTables(finite_field(q))
    vecs = RowVectors(t, q, n)
    for h in invertible_rows(vecs):
        hinv = vecs.inverse(vecs.action(h))
        assert vecs.flat(hinv) == referee_inverse(t, vecs.flat(h), n)


@pytest.mark.parametrize("q,n", [(q, n) for q, n, _, _ in GROUPS] + [(101, 1)])
def test_census_matches_referee(q, n):
    field = finite_field(q)
    sizes, centralizers, orbit_of = referee_census(field, n)
    census = matrix_census(field, n)
    assert census.sizes == sizes
    assert census.centralizers == centralizers
    assert census.orbit_of == {encode_matrix(m): idx for m, idx in orbit_of.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_tables_reproduce_field_arithmetic(q):
    field = finite_field(q)
    t = FieldTables(field)
    for x in field.elements():
        assert _neg(t, x.encoding) == (-x).encoding
        if x:
            assert _inv(t, x.encoding) == x.inverse().encoding
        for y in field.elements():
            assert t.add(x.encoding, y.encoding) == (x + y).encoding
            assert t.mul(x.encoding, y.encoding) == (x * y).encoding


# ---------------------------------------------------------------------------
# the census against classes.py, its checks and its bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,n,order,count", GROUPS)
def test_census_cross_check(q, n, order, count):
    field = finite_field(q)
    classes = enumerate_classes(field, n)
    report = census_cross_check(field, n, classes)
    assert report["group_order"] == order
    assert report["class_count"] == count
    assert sum(row["size"] for row in report["classes"]) == order
    for row in report["classes"]:
        assert row["size"] * row["centralizer_order"] == order


def test_census_orbit_partition():
    census = matrix_census(finite_field(2), 2)
    assert census.group_order == 6
    assert sorted(census.sizes) == [1, 2, 3]
    # every group element is assigned to exactly one orbit
    assert len(census.orbit_of) == 6
    assert sum(census.sizes) == 6


def test_corrupted_mul_table_entry_is_caught(monkeypatch):
    class CorruptTables(FieldTables):
        def mul(self, x, y):
            # (-1) * (-1) = -1 in GF(3)
            return 2 if (x, y) == (2, 2) else super().mul(x, y)

    monkeypatch.setattr(matrixoracle, "FieldTables", CorruptTables)
    with pytest.raises(AssertionFailure, match="invertible matrices"):
        matrix_census(finite_field(3), 2)


def test_corrupted_inverse_is_caught(monkeypatch):
    class CorruptRowVectors(RowVectors):
        def inverse(self, act):
            inv = super().inverse(act)
            h = super().inverse(self.action(inv))
            # the two elements of order 3 get themselves as inverse
            return h if tuple(act[r] for r in h) == inv else inv

    monkeypatch.setattr(matrixoracle, "RowVectors", CorruptRowVectors)
    with pytest.raises(AssertionFailure, match=r"h \* h\^-1"):
        matrix_census(finite_field(2), 2)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (7, 1)])
def test_vector_tables_work_entry_by_entry(q, n):
    t = FieldTables(finite_field(q))
    vecs = RowVectors(t, q, n)
    for u, du in enumerate(vecs.digits):
        for w, dw in enumerate(vecs.digits):
            assert vecs.add[u][w] == vecs.index(map(t.add, du, dw))
        for c in range(q):
            assert vecs.scale[c][u] == vecs.index(t.mul(c, x) for x in du)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_row_action_tables_match_the_flat_product(q, n):
    t = FieldTables(finite_field(q))
    vecs = RowVectors(t, q, n)
    group = list(matrix_census(finite_field(q), n).orbit_of)
    for b in group[::7]:
        act = vecs.action(vecs.rows(b))
        for a in group[::5]:
            ab = tuple(act[r] for r in vecs.rows(a))
            assert vecs.flat(ab) == enc_mat_mul(t, a, b, n)


def _corrupt_identity_table(monkeypatch, vector):
    """Make the identity matrix's row-action table send ``vector`` to
    the wrong row."""

    class CorruptRowVectors(RowVectors):
        def action(self, rows):
            act = super().action(rows)
            if rows == self.rows((1, 0, 0, 1)):
                act[vector] = self.add[act[vector]][1]
            return act

    monkeypatch.setattr(matrixoracle, "RowVectors", CorruptRowVectors)


def test_corrupted_row_action_entry_is_caught_by_the_table_identity(monkeypatch):
    # e_0 = (1, 0) is a row of I = I^-1, so h * h^-1 through the tables
    # (h = I) reads the wrong entry
    _corrupt_identity_table(monkeypatch, 1)
    with pytest.raises(AssertionFailure, match="through the row-action tables"):
        matrix_census(finite_field(3), 2)


def test_corrupted_row_action_entry_is_caught_by_orbit_stabilizer(monkeypatch):
    # (1, 1) is no row of I, so the table identity passes; but h I is
    # read from I's table for every h, and the orbit of the central
    # element I grows past its single element
    _corrupt_identity_table(monkeypatch, 1 + 3)
    with pytest.raises(AssertionFailure, match="orbit-stabilizer mismatch"):
        matrix_census(finite_field(3), 2)


def test_every_row_action_entry_is_caught_or_unread(monkeypatch):
    # GL_2(F_2): each single wrong entry of each table either raises or
    # sits where the census never reads it, leaving the census unchanged
    field = finite_field(2)
    expected = matrix_census(field, 2)
    caught = 0
    for target in range(expected.group_order):
        for vector in range(1, 4):
            calls = []

            class CorruptRowVectors(RowVectors):
                def action(self, rows):
                    act = super().action(rows)
                    if len(calls) == target:
                        act[vector] = self.add[act[vector]][1]
                    calls.append(rows)
                    return act

            monkeypatch.setattr(matrixoracle, "RowVectors", CorruptRowVectors)
            try:
                census = matrix_census(field, 2)
            except AssertionFailure:
                caught += 1
            else:
                assert census == expected
    assert caught


def test_census_scale_limit():
    # GL_2(F_8) has order 3528 > default bound 1000
    with pytest.raises(ScaleLimit):
        matrix_census(finite_field(8), 2)
    # raising the bound makes it feasible in principle; don't run it here
    with pytest.raises(ScaleLimit):
        census_cross_check(
            finite_field(8), 2, enumerate_classes(finite_field(8), 2)
        )


def test_census_respects_custom_bound():
    with pytest.raises(ScaleLimit):
        matrix_census(finite_field(2), 2, max_group_order=5)
    census = matrix_census(finite_field(2), 2, max_group_order=6)
    assert census.group_order == 6
