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
matrix product, Leibniz determinant and Gauss-Jordan inverse below work
through those tables alone.  The orbit loop works on a second encoding:
a row vector v is the index sum_k v_k q^k, a matrix is the tuple of its
n row indices, and ``RowVectors`` gives each group element h the table
``v -> v h`` of q^n entries, built from ``FieldTables`` once per
census.  Row i of A B is then ``act_B[row_i(A)]``, so a product costs n
lookups.  None of this shares code with the engine's kernels in
``matrices`` or ``linalg``.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from .classes import ClassType, group_order, representative_matrix
from .errors import AssertionFailure, ScaleLimit
from .finitefield import FiniteField


class FieldTables:
    """F_q arithmetic on encodings, taken from the field's own + and *.

    ``exp[i]`` is the encoding of g^i for the first primitive element g
    in encoding order (stored twice over, so exponent sums need no
    reduction), ``log`` inverts it, ``zech[i]`` is log(1 + g^i) (None
    where 1 + g^i = 0) and ``neg`` lists -x.  Encoding 0 is zero and 1
    is one.

    >>> from cuspcenter.finitefield import finite_field
    >>> t = FieldTables(finite_field(4))     # F_2[u]/(u^2 + u + 1)
    >>> t.mul(2, 3), t.add(2, 3), t.inv(2)   # u(u+1) = 1, u + (u+1) = 1
    (1, 1, 3)
    >>> a = (2, 1, 0, 3)                     # [[u, 1], [0, u+1]]
    >>> mat_inverse(t, a, 2)
    (3, 1, 0, 2)
    >>> mat_mul(t, a, mat_inverse(t, a, 2), 2)
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
        self.neg = [(-x).encoding for x in elements]

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

    def inv(self, x: int) -> int:
        return self.exp[self.order - self.log[x]]


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
    >>> act = vecs.action(vecs.rows(mat_inverse(t, (2, 1, 0, 3), 2)))
    >>> vecs.flat(tuple(act[r] for r in a))  # row i of a a^-1 is act[row_i(a)]
    (1, 0, 0, 1)
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


def _signed_permutations(n: int) -> list:
    out = []
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        out.append((inversions % 2, perm))
    return out


def mat_det(t: FieldTables, a: tuple, signed_perms: list) -> int:
    """Leibniz determinant; ``signed_perms`` from ``_signed_permutations``."""
    mul, add, neg = t.mul, t.add, t.neg
    total = 0
    for odd, perm in signed_perms:
        n = len(perm)
        prod = a[perm[0]]
        for i in range(1, n):
            prod = mul(prod, a[i * n + perm[i]])
        total = add(total, neg[prod] if odd else prod)
    return total


def mat_inverse(t: FieldTables, a: tuple, n: int) -> tuple:
    """Gauss-Jordan inverse of an invertible flat n x n matrix."""
    mul, add, neg = t.mul, t.add, t.neg
    rows = [list(a[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            raise AssertionFailure("singular matrix passed the determinant filter")
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = t.inv(rows[col][col])
        rows[col] = [mul(x, scale) for x in rows[col]]
        for i in range(n):
            f = rows[i][col]
            if i != col and f:
                nf = neg[f]
                rows[i] = [add(x, mul(nf, y)) for x, y in zip(rows[i], rows[col])]
    return tuple(x for row in rows for x in row[n:])


def encode_matrix(rows) -> tuple:
    """Flat row-major encoding tuple of a matrix of ``FFElement`` rows."""
    return tuple(x.encoding for row in rows for x in row)


class MatrixCensus(NamedTuple):
    q: int
    n: int
    group_order: int
    sizes: tuple[int, ...]            # orbit sizes in discovery order
    centralizers: tuple[int, ...]     # matching centralizer orders
    orbit_of: dict                    # flat encoding tuple -> orbit index


def matrix_census(field: FiniteField, n: int, max_group_order: int = 1000) -> MatrixCensus:
    expected_order = group_order(field.order, n)
    if expected_order > max_group_order:
        raise ScaleLimit(
            f"|GL_{n}(F_{field.order})| = {expected_order} exceeds bound {max_group_order}"
        )
    t = FieldTables(field)
    vecs = RowVectors(t, field.order, n)
    signed_perms = _signed_permutations(n)
    # entry k of a matrix is digit k (lowest first) of its index in base q
    candidates = (digits[::-1] for digits in product(range(field.order), repeat=n * n))
    group = [vecs.rows(g) for g in candidates if mat_det(t, g, signed_perms)]
    if len(group) != expected_order:
        raise AssertionFailure(
            f"counted {len(group)} invertible matrices, formula says {expected_order}"
        )
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    identity_rows = vecs.rows(identity)
    act = {h: vecs.action(h) for h in group}
    pairs = []
    for h, act_h in act.items():
        h_flat = vecs.flat(h)
        hinv_flat = mat_inverse(t, h_flat, n)
        if mat_mul(t, h_flat, hinv_flat, n) != identity:
            raise AssertionFailure(
                "h * h^-1 is not the identity in brute-force census", witness=list(h_flat)
            )
        act_hinv = act.get(vecs.rows(hinv_flat))
        if act_hinv is None or tuple(act_hinv[r] for r in h) != identity_rows:
            raise AssertionFailure(
                "h * h^-1 is not the identity through the row-action tables",
                witness=list(h_flat),
            )
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
