from itertools import permutations
from math import inf, prod

import pytest

from cuspcenter import linalg, validate_parameters, verify_endo_ring
from cuspcenter.arith import ord_frac
from cuspcenter.centermap import delta_class
from cuspcenter.classes import group_classes
from cuspcenter.cyclotomic import CyclotomicNumber, ell_valuation, zeta
from cuspcenter.errors import NoSolution
from cuspcenter.gl2table import gl2_character_table
from cuspcenter.invariants import GroupRingElement
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
    singular.  ``invariant_ring`` certifies its basis matrix by j* <= n
    instead, and the tests use this inverse as the referee."""
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


def exponents(f) -> list:
    """The exponents of a group-ring element, each as often as its
    coefficient says: a_0, ..., a_(n-1) for the trace element f."""
    return [e for e, c in enumerate(f.nums) for _ in range(c)]


def taylor_lemma_valuations(ps, i, f, exps) -> tuple:
    """The referee for ``invariants.uniformizer_check``: nu(omega_i - n),
    omega_i the image of ``f`` at level i, and nu(prod_a (zeta^a - 1))
    over the exponents ``exps``, each by one Taylor shift in
    ``cyclotomic.ell_valuation`` (inf for a zero)."""
    m = ps.ell_power
    norm = prod((GroupRingElement.unit(m, a) - 1 for a in exps), start=1)
    values = ((f - ps.n).at_zeta(ps.ell, i, 1), norm.at_zeta(ps.ell, i, 1))
    return tuple(inf if x.is_zero() else ell_valuation(x) for x in values)


def division_multiplicity(exps, n: int, ell: int) -> int | None:
    """The referee for ``invariants.pullback_mod_ell_check``: the
    multiplicity of (X - 1) in sum_a X^a - n over F_l, by synthetic
    division by (X - 1) until a remainder is nonzero."""
    cur = [0] * (max(exps) + 1)
    for a in exps:
        cur[a] += 1
    cur[0] -= n
    cur = [c % ell for c in cur]
    multiplicity = 0
    while any(cur):
        acc = 0
        quo = [0] * (len(cur) - 1)
        for k in range(len(cur) - 1, 0, -1):
            acc = (acc + cur[k]) % ell
            quo[k - 1] = acc
        if (acc + cur[0]) % ell:
            return multiplicity
        multiplicity += 1
        cur = quo
    return None  # the polynomial vanishes mod l


def rank_mod(rows, p: int) -> int:
    """The referee for the rank certificate of ``invariants.invariant_ring``:
    the rank over F_p (p prime) of an integer matrix, by one forward
    elimination of its entries reduced mod p."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                c = f * inv % p
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank
