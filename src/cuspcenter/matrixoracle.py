"""Brute-force conjugacy oracle for small GL_n(F_q).

Enumerates the group literally, splits it into conjugation orbits, and
counts centralizers by commutation.  Deliberately formula-free so it
can referee the product-formula combinatorics in classes.py: the two
sides are matched through companion-block representatives and must
agree class-by-class on sizes and centralizer orders.

The census runs on integer encodings, not on field elements.  A field
element is its ``FFElement.encoding``; a matrix is the flat row-major
tuple of its n^2 entry encodings.  ``FieldTables`` derives F_q's
arithmetic on encodings once per census from the field's own + and *
(log and Zech-log tables, so O(q) entries even where q is large), and
the matrix product, Leibniz determinant and Gauss-Jordan inverse below
work through those tables alone.  None of this shares code with the
engine's kernels in ``matrices`` or ``linalg``.
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
    signed_perms = _signed_permutations(n)
    # entry k of a matrix is digit k (lowest first) of its index in base q
    candidates = (digits[::-1] for digits in product(range(field.order), repeat=n * n))
    group = [g for g in candidates if mat_det(t, g, signed_perms)]
    if len(group) != expected_order:
        raise AssertionFailure(
            f"counted {len(group)} invertible matrices, formula says {expected_order}"
        )
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    pairs = []
    for h in group:
        hinv = mat_inverse(t, h, n)
        if mat_mul(t, h, hinv, n) != identity:
            raise AssertionFailure(
                "h * h^-1 is not the identity in brute-force census", witness=list(h)
            )
        pairs.append((h, hinv))
    orbit_of: dict = {}
    sizes = []
    centralizers = []
    for g in group:
        if g in orbit_of:
            continue
        idx = len(sizes)
        orbit = set()
        commuting = 0
        for h, hinv in pairs:
            hg = mat_mul(t, h, g, n)
            orbit.add(mat_mul(t, hg, hinv, n))
            if hg == mat_mul(t, g, h, n):
                commuting += 1
        for mat in orbit:
            orbit_of[mat] = idx
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
        orbit_of=orbit_of,
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
