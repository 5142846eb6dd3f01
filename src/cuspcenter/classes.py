"""Conjugacy class types of GL_n(F_q) and their exact combinatorics.

A conjugacy class of GL_n(F_q) is determined by assigning to finitely
many monic irreducible polynomials P != x over F_q a partition
lambda(P), with sum over P of deg(P) * |lambda(P)| = n.  Centralizer
orders come from the classical product formula: a primary piece with
deg P = a, Q = q^a contributes

    z(Q, lambda) = Q^(|lambda| + 2*n(lambda)) * prod_i prod_{k=1}^{m_i} (1 - Q^-k)

with n(lambda) = sum (i-1) lambda_i and m_i the multiplicity of the
part i.  Class sizes follow by dividing the group order.  The census
is built in ``ClassType.sort_key`` order, and one linear pass checks
that its keys strictly increase and its count is the generating
function's, prod_j (1 - u^j)/(1 - q u^j).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .arith import ord_int
from .errors import AssertionFailure, ScaleLimit
from .finitefield import (
    FiniteField,
    FqPoly,
    ell_part_and_dlog,
    finite_field,
    irreducible_polys,
    smallest_root,
)
from .params import ParameterSet, require_reduced


@lru_cache(maxsize=None)
def partitions_upto(m: int, top: int = 0) -> tuple:
    """Every partition of size 1 to m with parts at most ``top`` (no
    bound when 0), as descending tuples in increasing tuple order:
    (1,), (1, 1), ..., (2,), (2, 1), ... -- each part p comes first on
    its own, then followed by every smaller partition of the rest."""
    out = []
    for part in range(1, min(m, top or m) + 1):
        out.append((part,))
        out.extend((part,) + rest for rest in partitions_upto(m - part, part))
    return tuple(out)


def group_order(q: int, n: int) -> int:
    order = q ** (n * (n - 1) // 2)
    for k in range(1, n + 1):
        order *= q**k - 1
    return order


def conjugacy_class_count(q: int, n: int) -> int:
    """Coefficient of u^n in prod_{j>=1} (1 - u^j)/(1 - q u^j)."""
    series = [0] * (n + 1)
    series[0] = 1
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            series[k] -= series[k - j]
        for k in range(j, n + 1):
            series[k] += q * series[k - j]
    return series[n]


@lru_cache(maxsize=None)
def _z_factor(big_q: int, lam: tuple) -> int:
    """Q^(|lam| + 2 n(lam)) prod_m prod_{k<=m} (1 - Q^-k) over the part
    multiplicities m, as Q^e prod (Q^k - 1): an integer iff e >= 0."""
    n_lam = sum(i * part for i, part in enumerate(lam))  # 0-based index = (i-1)
    exp = sum(lam) + 2 * n_lam
    val = 1
    for mult in Counter(lam).values():
        for k in range(1, mult + 1):
            val *= big_q**k - 1
            exp -= k
    if exp < 0:
        raise AssertionFailure(
            f"centralizer factor z({big_q}, {lam}) = {val}/{big_q**-exp} is not integral"
        )
    return val * big_q**exp


class ClassType(namedtuple("ClassType", "factors n")):
    """The type of a conjugacy class of GL_n(F_q): ``factors`` is
    ((FqPoly, partition), ...), canonically sorted."""

    __slots__ = ()

    @property
    def field(self) -> FiniteField:
        return self.factors[0][0].field

    @property
    def q(self) -> int:
        return self.field.order

    def sort_key(self):
        return tuple(
            (poly.degree, tuple(c.encoding for c in poly.coeffs), lam)
            for poly, lam in self.factors
        )

    def label(self) -> str:
        return "|".join(
            f"{poly!r}:({','.join(map(str, lam))})" for poly, lam in self.factors
        )

    @property
    def is_primary(self) -> bool:
        return len(self.factors) == 1

    @property
    def is_semisimple(self) -> bool:
        return all(set(lam) == {1} for _, lam in self.factors)

    # diagonalizable over the algebraic closure = semisimple
    is_diagonalizable = is_semisimple

    @property
    def type_key(self) -> tuple:
        """The class's type: its sorted (deg P, partition) pairs.  Size,
        centralizer order, primary/semisimple and every per-factor degree
        and part count depend on the class only through this key."""
        return tuple(sorted((poly.degree, lam) for poly, lam in self.factors))

    @property
    def degree_profile(self) -> tuple:
        return tuple(sorted((poly.degree, sum(lam)) for poly, lam in self.factors))

    def centralizer_order(self) -> int:
        out = 1
        for poly, lam in self.factors:
            out *= _z_factor(self.q ** poly.degree, lam)
        return out

    def class_size(self) -> int:
        order = group_order(self.q, self.n)
        cent = self.centralizer_order()
        if order % cent:
            raise AssertionFailure(
                f"centralizer order {cent} of {self.label()} does not divide {order}",
                witness=self.label(),
            )
        return order // cent


def make_class_type(factors, n: int | None = None) -> ClassType:
    factors = tuple(
        sorted(
            ((poly, tuple(sorted(lam, reverse=True))) for poly, lam in factors),
            key=lambda fl: (fl[0].sort_key(), fl[1]),
        )
    )
    total = sum(poly.degree * sum(lam) for poly, lam in factors)
    if n is None:
        n = total
    if total != n or n <= 0:
        raise AssertionFailure(f"factor degrees total {total}, expected n = {n}")
    return ClassType(factors=factors, n=n)


def enumerate_classes(field: FiniteField, n: int, scale_bound: int = 10**6) -> tuple:
    """Every class type of GL_n over ``field``, in ``ClassType.sort_key``
    order by construction, checked by ``check_census``."""
    if field.order**n > scale_bound:
        raise ScaleLimit(f"class enumeration for GL_{n}(F_{field.order})")
    # in FqPoly.sort_key order, without x (invertible matrices only)
    polys = [p for a in range(1, n + 1) for p in irreducible_polys(field, a, scale_bound)]
    polys = [p for p in polys if p.degree > 1 or p.coeffs[0]]
    # depth-first over the next factor (polynomial, partition), children in
    # increasing order pushed in reverse, so leaves come out in sort-key order;
    # a stack, as recursion would nest once per polynomial (too deep at GF(53))
    out = []
    stack = [(0, n, ())]
    while stack:
        start, budget, chosen = stack.pop()
        if budget == 0:
            out.append(ClassType(chosen, n))
            continue
        children = []
        for idx in range(start, len(polys)):
            a = polys[idx].degree
            if a > budget:
                break  # polys are in increasing degree
            for lam in partitions_upto(budget // a):
                children.append((idx + 1, budget - a * sum(lam), chosen + ((polys[idx], lam),)))
        stack += reversed(children)
    out = tuple(out)
    check_census(out, field.order, n)
    return out


def check_census(classes, q: int, n: int) -> None:
    """The one check of a census, fresh or cached: its count is the
    generating function's and its sort keys strictly increase.  Every
    class uses the whole degree n, so no key is a proper prefix of
    another, and strict increase proves both the order and that no
    class comes twice."""
    expected = conjugacy_class_count(q, n)
    if len(classes) != expected:
        raise AssertionFailure(f"{len(classes)} classes, generating function says {expected}")
    prev = ()  # below every key, as no key is empty
    for ct in classes:
        key = ct.sort_key()
        if not prev < key:
            label = ct.label()
            raise AssertionFailure(f"census not strictly increasing at {label}", witness=label)
        prev = key


def theta_exponent(ct: ClassType, ps: ParameterSet) -> int:
    """Discrete log (base the canonical Sylow generator) of the l-part
    of a root of the type's first polynomial.  Zero exactly when the
    root is l-regular; well-defined mod l^r up to the q-power orbit.

    Only a degree-n polynomial can have an l-singular root (l divides
    q^a - 1 only for a = n), so only those look up their smallest root
    in the Frobenius orbits of F_{q^n}."""
    ps = require_reduced(ps)
    poly, _ = ct.factors[0]
    if poly.degree < ps.n:
        return 0
    root = smallest_root(poly, finite_field(ps.q**ps.n))
    return ell_part_and_dlog(root, ps.ell)


def group_classes(classes, ps: ParameterSet) -> tuple[list, list]:
    """Group the census by (type key, theta exponent), the pair on which
    every per-class quantity of the block depends: ``firsts[k]`` is the
    first class, in census order, with the k-th distinct pair and
    ``key_of[i]`` is the index of class i's pair.  Work done once per
    class of ``firsts`` is shared through ``key_of``; as ``firsts``
    keeps census order, a check that fails on a key fails at the same
    first class as a loop over every class would."""
    index, firsts, key_of = {}, [], []
    for ct in classes:
        k = index.setdefault((ct.type_key, theta_exponent(ct, ps)), len(firsts))
        if k == len(firsts):
            firsts.append(ct)
        key_of.append(k)
    return firsts, key_of


def is_ell_regular(ct: ClassType, ps: ParameterSet) -> bool:
    """True iff the class has order prime to ell."""
    return theta_exponent(ct, ps) == 0


def class_predicates(ct: ClassType, ps: ParameterSet) -> dict:
    """Named predicates for one class; asserts the centralizer-order
    dichotomy: ord_ell(|C|) is r for every class that is not primary
    diagonalizable, and 0 for every class that is.

    Everything but the label depends on the class only through
    ``ct.type_key`` and ``theta_exponent(ct, ps)``; the label appears
    in the result and in failure messages alone."""
    size = ct.class_size()
    cent = ct.centralizer_order()
    exempt = ct.is_primary and ct.is_diagonalizable
    v = ord_int(size, ps.ell) if size % ps.ell == 0 else 0
    if exempt:
        if v != 0:
            raise AssertionFailure(
                f"primary diagonalizable class {ct.label()} has ord_ell(|C|) = {v}",
                witness=ct.label(),
            )
    elif v != ps.r:
        raise AssertionFailure(
            f"class {ct.label()} has ord_ell(|C|) = {v} != r = {ps.r}",
            witness=ct.label(),
        )
    return {
        "label": ct.label(),
        "primary": ct.is_primary,
        "diagonalizable": ct.is_diagonalizable,
        "semisimple": ct.is_semisimple,
        "degree_profile": ct.degree_profile,
        "class_size": size,
        "centralizer_order": cent,
        "ell_regular": is_ell_regular(ct, ps),
    }


def companion(poly: FqPoly):
    """Companion matrix: subdiagonal ones, last column -coefficients."""
    field = poly.field
    m = poly.degree
    rows = [[field.zero] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = field.one
    for i in range(m):
        rows[i][m - 1] = -poly.coeffs[i]
    return tuple(tuple(r) for r in rows)


def representative_matrix(ct: ClassType):
    """Block-diagonal representative: one companion block of P^k for
    each part k of each factor's partition."""
    field = ct.field
    blocks = []
    for poly, lam in ct.factors:
        for part in lam:
            blocks.append(companion(poly**part))
    size = sum(len(b) for b in blocks)
    if size != ct.n:
        raise AssertionFailure(f"representative of {ct.label()} has size {size} != n = {ct.n}")
    rows = [[field.zero] * size for _ in range(size)]
    offset = 0
    for block in blocks:
        w = len(block)
        for i in range(w):
            for j in range(w):
                rows[offset + i][offset + j] = block[i][j]
        offset += w
    return tuple(tuple(r) for r in rows)
