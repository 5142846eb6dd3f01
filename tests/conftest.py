from itertools import permutations

import pytest

from cuspcenter import linalg, validate_parameters, verify_endo_ring
from cuspcenter.arith import ord_frac
from cuspcenter.centermap import delta_class
from cuspcenter.classes import group_classes
from cuspcenter.cyclotomic import CyclotomicNumber, zeta
from cuspcenter.errors import NoSolution
from cuspcenter.gl2table import gl2_character_table
from cuspcenter.params import require_reduced

# the test matrix: every reduced case plus the one unreduced alias
CASES = {
    "P1": (2, 3, 2, 1),
    "P2": (2, 7, 3, 1),
    "P3": (8, 3, 2, 1),
    "P4": (4, 5, 2, 1),
    "P5": (3, 5, 4, 1),
    "U4": (2, 5, 4, 2),   # reduces to P4
}


@pytest.fixture(scope="session")
def params():
    return {name: validate_parameters(*args) for name, args in CASES.items()}


@pytest.fixture(scope="session")
def endo_results():
    """verify_endo_ring is the expensive call; run each case once."""
    return {name: verify_endo_ring(*args) for name, args in CASES.items()}


@pytest.fixture(scope="session")
def table2():
    return gl2_character_table(2)


@pytest.fixture(scope="session")
def table4():
    return gl2_character_table(4)


@pytest.fixture(scope="session")
def table8():
    return gl2_character_table(8)


def leibniz_charpoly(a, zero, one) -> list:
    """The referee for ``matrices.charpoly``: coefficients c_0..c_n (low
    first) of det(Y*I - A) as the Leibniz sum over all n! permutations,
    each term a product of linear factors in Y with its inversion-count
    sign.  Generic over a commutative ring, division-free."""
    n = len(a)
    total = [zero] * (n + 1)
    for perm in permutations(range(n)):
        prod = [one]  # polynomial in Y, ring coefficients
        for i in range(n):
            lin = [zero - a[i][perm[i]], one] if perm[i] == i else [zero - a[i][perm[i]]]
            new = [zero] * (len(prod) + len(lin) - 1)
            for s, x in enumerate(prod):
                for t, y in enumerate(lin):
                    new[s + t] = new[s + t] + x * y
            prod = new
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for k, c in enumerate(prod):
            total[k] = total[k] - c if inversions % 2 else total[k] + c
    return total


def invert(rows) -> list:
    """The inverse of a square matrix as ``Fraction``s, by one reduction
    of [A | I] with the engine's ``linalg._echelon``; NoSolution if A is
    singular.  ``invariant_ring`` certifies its basis matrix by its rank
    mod l instead, and the tests use this inverse as the referee."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if len(linalg._echelon(aug, n)) < n:
        raise NoSolution("matrix is singular")
    return [r[n:] for r in aug]


def omega_value(ps, i, exponent=1):
    """The referee for the images of f under ``GroupRingElement.at_zeta``:
    the trace of zeta_{l^i}^exponent under the q-power orbit, the sum of
    zeta_{l^i}^(exponent q^k) over k < n, added up term by term in
    Q(zeta) at level i."""
    ps = require_reduced(ps)
    m = ps.ell**i
    total = CyclotomicNumber.zero(ps.ell, i)
    for k in range(ps.n):
        total = total + zeta(ps.ell, i, exponent * pow(ps.q, k, m))
    return total


def slot_s_membership(vec) -> bool:
    """The slot referee for ``centermap.s_membership``: a block vector
    lies in S = Z_(l)*1 + Z_(l)*(scaled idempotent) when its nonzero
    slots are equal and rational, everything is l-integral, and slot 0
    is congruent to the common value mod l^r."""
    vals = vec.rational_entries()
    if any(v is None for v in vals):
        return False
    e0, tail = vals[0], vals[1:]
    if any(v != tail[0] for v in tail):
        return False
    ell = vec.ell
    for v in (e0, tail[0]):
        if v != 0 and ord_frac(v, ell) < 0:
            return False
    diff = tail[0] - e0
    return diff == 0 or ord_frac(diff, ell) >= vec.r


def class_deltas(res) -> dict:
    """label -> the ``delta_class`` slot vector of every class of an
    endo-ring result, built once per key: the slot referee for the orbit
    coordinates that the engine holds."""
    firsts, key_of = group_classes(res.classes, res.params)
    vecs = [delta_class(ct, res.params) for ct in firsts]
    return {ct.label(): vecs[k] for ct, k in zip(res.classes, key_of)}
