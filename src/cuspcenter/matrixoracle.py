"""Brute-force conjugacy oracle for small GL_n(F_q).

Enumerates the group literally, splits it into conjugation orbits, and
counts centralizers by commutation.  Deliberately formula-free so it
can referee the product-formula combinatorics in classes.py: the two
sides are matched through companion-block representatives and must
agree class-by-class on sizes and centralizer orders.

The census runs on integer encodings, not on field elements.  A field
element is its ``FFElement.encoding``; a matrix is enumerated, and
keyed in ``MatrixCensus.orbit_of``, as the flat row-major tuple of its
n^2 entry encodings.  ``FieldTables`` derives F_q's arithmetic on
encodings once per census from the field's own + and * (log and
Zech-log tables, so O(q) entries even where q is large); the flat
matrix product below works through those tables alone.  Everything
else works on a second encoding: a row vector v is the index sum_k v_k
q^k, a matrix is the tuple of its n row indices, and ``RowVectors``
gives each group element h the table ``v -> v h`` of q^n entries, built
from ``FieldTables`` once per census.  Row i of A B is then
``act_B[row_i(A)]``, so a product costs n lookups, and row i of h^-1 is
the vector that ``act_h`` sends to e_i.  The group itself is built row
by row, each row outside the span of the rows already chosen, so the
census costs O(|G| (q^n + classes)) table lookups, not q^(n^2) n!
products.  None of this shares code with the engine's kernels in
``matrices`` or ``linalg``.
"""

from __future__ import annotations

from collections import namedtuple

from .classes import group_order, representative_matrix
from .errors import AssertionFailure, ScaleLimit
from .finitefield import FiniteField


class FieldTables:
    """F_q arithmetic on encodings, taken from the field's own + and *.

    ``exp[i]`` is the encoding of g^i for the first primitive element g
    in encoding order (stored twice over, so exponent sums need no
    reduction), ``log`` inverts it and ``zech[i]`` is log(1 + g^i)
    (None where 1 + g^i = 0).  Encoding 0 is zero and 1 is one.

    >>> from cuspcenter.finitefield import finite_field
    >>> t = FieldTables(finite_field(4))     # F_2[u]/(u^2 + u + 1)
    >>> t.mul(2, 3), t.add(2, 3)             # u(u+1) = 1, u + (u+1) = 1
    (1, 1)
    >>> mat_mul(t, (2, 1, 0, 3), (3, 1, 0, 2), 2)  # [[u, 1], [0, u+1]] times its inverse
    (1, 0, 0, 1)
    """

    def __init__(self, field: FiniteField):
        q = field.order
        order = q - 1
        elements = [field.element(x) for x in range(q)]
        for cand in elements[1:]:
            powers = [field.one]
            x = cand
            while x != field.one:
                powers.append(x)
                x = x * cand
            if len(powers) == order:
                break
        else:
            raise AssertionFailure(f"no primitive element found in {field!r}")
        exp = [x.encoding for x in powers]
        log = [None] * q
        for i, enc in enumerate(exp):
            log[enc] = i
        self.order = order
        self.exp = exp + exp
        self.log = log
        self.zech = [log[(field.one + x).encoding] for x in powers]

    def mul(self, x: int, y: int) -> int:
        if x and y:
            return self.exp[self.log[x] + self.log[y]]
        return 0

    def add(self, x: int, y: int) -> int:
        if not x:
            return y
        if not y:
            return x
        lx = self.log[x]
        z = self.zech[(self.log[y] - lx) % self.order]
        return 0 if z is None else self.exp[lx + z]


def mat_mul(t: FieldTables, a: tuple, b: tuple, n: int) -> tuple:
    """Product of two flat n x n matrices of encodings."""
    mul, add = t.mul, t.add
    out = []
    for i in range(0, n * n, n):
        for j in range(n):
            acc = mul(a[i], b[j])
            for k in range(1, n):
                acc = add(acc, mul(a[i + k], b[k * n + j]))
            out.append(acc)
    return tuple(out)


class RowVectors:
    """Row vectors of F_q^n as indices v = sum_k v_k q^k, and matrices
    as the tuples of their n row indices.

    ``add[u][w]`` is the index of u + w and ``scale[c][w]`` that of
    c * w.  Both start as ``FieldTables``' own sums and products (the
    vectors of length 1) and grow one digit at a time: with u = u_0 +
    q u' and w = w_0 + q w', u + w = (u_0 + w_0) + q (u' + w').

    >>> from cuspcenter.finitefield import finite_field
    >>> t = FieldTables(finite_field(4))
    >>> vecs = RowVectors(t, 4, 2)
    >>> a = vecs.rows((2, 1, 0, 3))          # [[u, 1], [0, u+1]]
    >>> a
    (6, 12)
    >>> act = vecs.action(a)                 # act[v] = v a
    >>> a_inv = vecs.inverse(act)
    >>> vecs.flat(a_inv)
    (3, 1, 0, 2)
    >>> vecs.flat(tuple(vecs.action(a_inv)[r] for r in a))  # row i of a a^-1 is act_a^-1[row_i(a)]
    (1, 0, 0, 1)
    >>> invertible_rows(vecs)[:2]            # rows 0..3 lie in the span of (1, 0)
    [(4, 1), (5, 1)]
    """

    def __init__(self, t: FieldTables, q: int, n: int):
        self.n = n
        self.weights = [q**k for k in range(n)]
        self.digits = [tuple(v // w % q for w in self.weights) for v in range(q**n)]
        field = range(q)
        f_add = [[t.add(x, y) for y in field] for x in field]
        f_mul = [[t.mul(c, x) for x in field] for c in field]
        add, scale = f_add, f_mul
        for _ in range(n - 1):
            high = range(len(add))
            add = [
                [f_add[u0][w0] + q * by_u[w] for w in high for w0 in field]
                for by_u in add
                for u0 in field
            ]
            scale = [
                [f_mul[c][w0] + q * scale[c][w] for w in high for w0 in field] for c in field
            ]
        self.add, self.scale = add, scale

    def index(self, entries) -> int:
        return sum(x * w for x, w in zip(entries, self.weights))

    def rows(self, flat: tuple) -> tuple:
        """Row indices of a flat row-major matrix."""
        n = self.n
        return tuple(self.index(flat[i : i + n]) for i in range(0, n * n, n))

    def flat(self, rows: tuple) -> tuple:
        """Flat row-major entry encodings of a matrix given by rows."""
        return tuple(x for r in rows for x in self.digits[r])

    def action(self, rows: tuple) -> list:
        """``act[v] = v h`` for every row vector v, where h has the row
        indices ``rows``: v h = sum_k v_k row_k(h), built one digit of v
        at a time."""
        act = [0]
        for row in rows:
            multiples = [by_c[row] for by_c in self.scale]  # c * row_k(h), c in F_q
            act = [self.add[m][a] for m in multiples for a in act]
        return act

    def inverse(self, act: list) -> tuple:
        """The row indices of h^-1, read off h's table ``act``: row i is
        e_i h^-1, the vector that ``act`` sends to e_i = q^i.  ValueError
        if ``act`` misses some e_i."""
        return tuple(map(act.index, self.weights))


def invertible_rows(vecs: RowVectors) -> list:
    """GL_n(F_q) as row-index tuples, in the order of the flat encodings
    read as base-q numbers, entry 0 lowest: the last row is the most
    significant, and each row runs through its indices in ascending
    order, skipping those in the span of the rows after it."""
    indices = range(len(vecs.digits))
    partial = [((), {0})]  # the rows i+1..n-1 chosen so far, and their span
    for _ in range(vecs.n - 1):
        grown = []
        for rows, span in partial:
            for r in indices:
                if r not in span:
                    multiples = [by_c[r] for by_c in vecs.scale]  # c * r, c in F_q
                    grown.append(((r, *rows), {vecs.add[m][s] for m in multiples for s in span}))
        partial = grown
    return [(r, *rows) for rows, span in partial for r in indices if r not in span]


def encode_matrix(rows) -> tuple:
    """Flat row-major encoding tuple of a matrix of ``FFElement`` rows."""
    return tuple(x.encoding for row in rows for x in row)


class MatrixCensus(namedtuple("MatrixCensus", "q n group_order sizes centralizers orbit_of")):
    """The literal census of GL_n(F_q): ``sizes`` holds the orbit sizes
    in discovery order, ``centralizers`` the matching centralizer
    orders, and ``orbit_of`` maps a flat encoding tuple to its orbit
    index."""

    __slots__ = ()


def matrix_census(field: FiniteField, n: int, max_group_order: int = 1000) -> MatrixCensus:
    expected_order = group_order(field.order, n)
    if expected_order > max_group_order:
        raise ScaleLimit(
            f"|GL_{n}(F_{field.order})| = {expected_order} exceeds bound {max_group_order}"
        )
    t = FieldTables(field)
    vecs = RowVectors(t, field.order, n)
    group = invertible_rows(vecs)
    if len(group) != expected_order:
        raise AssertionFailure(
            f"counted {len(group)} invertible matrices, formula says {expected_order}"
        )
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    identity_rows = vecs.rows(identity)
    act = {h: vecs.action(h) for h in group}
    table_failure = "h * h^-1 is not the identity through the row-action tables"
    pairs = []
    for h, act_h in act.items():
        h_flat = vecs.flat(h)
        try:
            hinv = vecs.inverse(act_h)
        except ValueError:  # act_h is no bijection
            raise AssertionFailure(table_failure, witness=list(h_flat)) from None
        if mat_mul(t, h_flat, vecs.flat(hinv), n) != identity:
            raise AssertionFailure(
                "h * h^-1 is not the identity in brute-force census", witness=list(h_flat)
            )
        act_hinv = act.get(hinv)
        if act_hinv is None or tuple(act_hinv[r] for r in h) != identity_rows:
            raise AssertionFailure(table_failure, witness=list(h_flat))
        pairs.append((h, act_h, act_hinv))
    orbit_rows: dict = {}
    sizes = []
    centralizers = []
    for g, act_g in act.items():
        if g in orbit_rows:
            continue
        idx = len(sizes)
        by_g = act_g.__getitem__
        orbit = set()
        commuting = 0
        for h, act_h, act_hinv in pairs:
            hg = tuple(map(by_g, h))
            orbit.add(tuple(map(act_hinv.__getitem__, hg)))
            if hg == tuple(map(act_h.__getitem__, g)):
                commuting += 1
        for mat in orbit:
            orbit_rows[mat] = idx
        if commuting * len(orbit) != len(group):
            raise AssertionFailure(
                "orbit-stabilizer mismatch in brute-force census",
                witness={"orbit_size": len(orbit), "centralizer": commuting},
            )
        sizes.append(len(orbit))
        centralizers.append(commuting)
    if sum(sizes) != len(group):
        raise AssertionFailure("orbits do not partition the group")
    return MatrixCensus(
        q=field.order,
        n=n,
        group_order=len(group),
        sizes=tuple(sizes),
        centralizers=tuple(centralizers),
        orbit_of={vecs.flat(rows): idx for rows, idx in orbit_rows.items()},
    )


def census_cross_check(field: FiniteField, n: int, class_types, max_group_order: int = 1000) -> dict:
    """Match every enumerated class type to a brute-force orbit and
    compare sizes and centralizer orders exactly."""
    census = matrix_census(field, n, max_group_order)
    if len(class_types) != len(census.sizes):
        raise AssertionFailure(
            f"{len(class_types)} class types vs {len(census.sizes)} matrix orbits"
        )
    seen = set()
    per_class = []
    for ct in class_types:
        idx = census.orbit_of.get(encode_matrix(representative_matrix(ct)))
        if idx is None:
            raise AssertionFailure(
                f"representative of {ct.label()} is singular or missing", witness=ct.label()
            )
        if idx in seen:
            raise AssertionFailure(
                f"two class types map to one matrix orbit ({ct.label()})", witness=ct.label()
            )
        seen.add(idx)
        if census.sizes[idx] != ct.class_size():
            raise AssertionFailure(
                f"size mismatch for {ct.label()}: census {census.sizes[idx]}, "
                f"formula {ct.class_size()}",
                witness=ct.label(),
            )
        if census.centralizers[idx] != ct.centralizer_order():
            raise AssertionFailure(
                f"centralizer mismatch for {ct.label()}", witness=ct.label()
            )
        per_class.append(
            {
                "label": ct.label(),
                "size": census.sizes[idx],
                "centralizer_order": census.centralizers[idx],
            }
        )
    return {
        "group_order": census.group_order,
        "class_count": len(census.sizes),
        "classes": per_class,
    }
