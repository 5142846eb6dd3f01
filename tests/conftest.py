from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, inf, lcm, prod
from typing import NamedTuple

import pytest

from cuspcenter import invariants, linalg, validate_parameters, verify_endo_ring
from cuspcenter.arith import ord_frac
from cuspcenter.centermap import case_bucket, delta_class
from cuspcenter.classes import ClassType, conjugacy_class_count, group_classes, make_class_type
from cuspcenter.cyclotomic import (
    CyclotomicNumber,
    ExactVector,
    _new,
    _reduce,
    ell_valuation,
    lowest_terms,
    phi_prime_power,
    zeta,
)
from cuspcenter.errors import AssertionFailure, IntegralityFailure, NoSolution
from cuspcenter.finitefield import irreducible_polys
from cuspcenter.gl2table import gl2_character_table
from cuspcenter.params import require_reduced
from cuspcenter.polynomials import Poly, from_power_sums

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


@lru_cache(maxsize=None)
def partitions(b: int) -> tuple:
    """All partitions of b as descending tuples, in descending lex order."""
    if b == 0:
        return ((),)
    return tuple(
        (part,) + rest
        for part in range(b, 0, -1)
        for rest in partitions(b - part)
        if not rest or rest[0] <= part
    )


def referee_census(field, n: int) -> tuple:
    """The referee for ``classes.enumerate_classes``: a depth-first walk
    over the polynomials in ``irreducible_polys`` order and the
    partitions of each size, every leaf put in canonical form by
    ``make_class_type``, a set to refuse a class that comes twice, and
    one sort of the census by ``ClassType.sort_key``."""
    polys = [
        poly
        for a in range(1, n + 1)
        for poly in irreducible_polys(field, a)
        if poly.degree > 1 or poly.coeffs[0]
    ]
    out = []
    stack = [(0, n, ())]
    while stack:
        start, budget, chosen = stack.pop()
        if budget == 0:
            out.append(make_class_type(chosen, n))
            continue
        for idx in range(start, len(polys)):
            a = polys[idx].degree
            if a > budget:
                break  # polys are in increasing degree
            for b in range(1, budget // a + 1):
                for lam in partitions(b):
                    stack.append((idx + 1, budget - a * b, chosen + ((polys[idx], lam),)))
    if len(out) != conjugacy_class_count(field.order, n) or len(set(out)) != len(out):
        raise AssertionFailure("the referee census has a class too many, too few or twice")
    out.sort(key=ClassType.sort_key)
    return tuple(out)


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
    """The referee for the images of f under ``invariants.at_zeta``:
    the trace of zeta_{l^i}^exponent under the q-power orbit, the sum of
    zeta_{l^i}^(exponent q^k) over k < n, added up term by term in
    Q(zeta) at level i."""
    ps = require_reduced(ps)
    m = ps.ell**i
    total = CyclotomicNumber.zero(ps.ell, i)
    for k in range(ps.n):
        total = total + zeta(ps.ell, i, exponent * pow(ps.q, k, m))
    return total


def slots(vec) -> tuple:
    """A block vector as a value to compare: (slot labels, entries).
    ``BlockVector`` defines no equality, so ``==`` on two of them would
    compare identities."""
    return vec.reps, vec.entries


def rationals(vec) -> tuple:
    """The entries of a block vector as rationals, None where one is
    irrational."""
    return tuple(e.as_rational() for e in vec.entries)


def slot_s_membership(vec) -> bool:
    """The slot referee for ``centermap.s_membership``: a block vector
    lies in S = Z_(l)*1 + Z_(l)*(scaled idempotent) when its nonzero
    slots are equal and rational, everything is l-integral, and slot 0
    is congruent to the common value mod l^r."""
    vals = rationals(vec)
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


def per_class(res, per_key) -> dict:
    """label -> per_key[k] for every class of an endo-ring result, k the
    index of its (type key, theta exponent): a per-key list read class
    by class, as the printed maps read it."""
    return {label: per_key[k] for label, k in zip(res.labels, res.key_of)}


def class_certificates(res) -> dict:
    """label -> the gamma-certificate of every class."""
    return per_class(res, [res.certificates[c] for c in res.certificate_of])


def class_buckets(res) -> dict:
    """label -> the case-analysis bucket of every class."""
    return {label: case_bucket(ct, res.params) for label, ct in zip(res.labels, res.classes)}


def class_reconstructions(res) -> list:
    """The replayed reconstruction of every l-singular degree-n class,
    in census order, each headed by the class's label."""
    recs = res.reconstructions
    return [
        {"label": label, **recs[k]}
        for label, k in zip(res.labels, res.key_of)
        if recs[k] is not None
    ]


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


# -- the group-ring referee --------------------------------------------------------
#
# ``invariants`` holds every q-invariant element as its orbit coordinates.
# The dense group ring Q[X]/(X^(l^r) - 1) it replaced is kept here as the
# referee: f^0, ..., f^(D-1) as full group-ring elements, each checked
# q-invariant, power sums read off their coefficients, m_i(f) and m(f)
# by sums of those powers, and every image by ``GroupRingElement.at_zeta``.


class GroupRingElement(ExactVector):
    """Element of Q[X]/(X^modulus - 1) on the ``ExactVector`` base: dense
    integer numerators over one common denominator, in lowest terms.
    Operands must share the modulus, and products fold modulo
    X^modulus - 1."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int, coeffs):
        nums, den = linalg.clear_denominators(coeffs)
        if len(nums) != modulus:
            raise ValueError(f"{len(nums)} coefficients for modulus {modulus}")
        self.modulus = modulus
        self.nums, self.den = lowest_terms(nums, den)

    def _with(self, nums: tuple, den: int) -> "GroupRingElement":
        x = object.__new__(GroupRingElement)
        x.modulus = self.modulus
        x.nums = nums
        x.den = den
        return x

    @classmethod
    def unit(cls, modulus: int, exponent: int = 0, scale=1):
        """scale * X^exponent for an int or ``Fraction`` scale."""
        nums = [0] * modulus
        nums[exponent % modulus] = scale.numerator
        x = object.__new__(cls)
        x.modulus = modulus
        x.nums = tuple(nums)
        x.den = scale.denominator
        return x

    def _coerce(self, other):
        if isinstance(other, GroupRingElement):
            return other
        if isinstance(other, (int, Fraction)):
            return GroupRingElement.unit(self.modulus, 0, other)
        return None

    def _align(self, other):
        if other.modulus != self.modulus:
            raise ValueError("mixing group rings of different moduli")
        return self, other

    def _fold(self, raw) -> list:
        m = self.modulus
        out = raw[:m]
        for e in range(m, len(raw)):
            out[e - m] += raw[e]
        return out

    def __hash__(self):
        # a rational element equals, so hashes as, that rational
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.modulus, self.nums, self.den))

    def frobenius(self, a: int) -> "GroupRingElement":
        """The map X^b -> X^(ab)."""
        m = self.modulus
        out = [0] * m
        for e, x in enumerate(self.nums):
            if x:
                out[e * a % m] += x
        return self._normal(out, self.den)

    def at_zeta(self, ell: int, level: int, exponent: int) -> CyclotomicNumber:
        """The image under the ring map X -> zeta_{l^level}^exponent
        (l^level must divide the modulus): one fold by ``_reduce``."""
        m = ell**level
        if self.modulus % m:
            raise ValueError(f"X -> zeta_{m} is not defined on Q[Z/{self.modulus}]")
        raw = [0] * m
        for k, x in enumerate(self.nums):
            if x:
                raw[k * exponent % m] += x
        return _new(ell, level, *lowest_terms(_reduce(ell, level, raw), self.den))

    def __repr__(self):
        terms = [
            f"{c}*X^{e}" if e else str(c) for e, c in enumerate(self.coeffs) if c
        ]
        return " + ".join(terms) if terms else "0"


def spread(ps, coords) -> GroupRingElement:
    """The q-invariant element with these orbit coordinates, each
    coordinate spread over its orbit."""
    orbits = invariants.orbit_structure(ps)
    cs = [0] * orbits.modulus
    for v, orbit in zip(coords, orbits.orbits):
        for e in orbit:
            cs[e] = v
    return GroupRingElement(orbits.modulus, cs)


def trace_element(ps) -> GroupRingElement:
    """f = sum_k X^(a_k) in Q[Z/l^r], the a_k read from
    ``invariants.trace_exponents``, as the engine reads them."""
    m = ps.ell_power
    cs = [0] * m
    for a in invariants.trace_exponents(ps):
        cs[a % m] += 1
    return GroupRingElement(m, cs)


def is_invariant(v: GroupRingElement, orbits) -> bool:
    return v.frobenius(orbits.multiplier) == v


def times_f(g: GroupRingElement, f: GroupRingElement) -> GroupRingElement:
    """g f: the referee's one multiplication by f."""
    return g * f


def trace_powers(ps) -> list:
    """f^0, f^1, ..., f^(D-1) in Q[Z/l^r], D the number of orbits."""
    f = trace_element(ps)
    powers = [GroupRingElement.unit(f.modulus)]
    for _ in range(len(invariants.orbit_structure(ps).reps) - 1):
        powers.append(times_f(powers[-1], f))
    return powers


def group_ring_poly_at_f(h: Poly, powers) -> GroupRingElement:
    """h(f) = sum_k h_k f^k from the dense powers, one more product by f
    per degree past them."""
    terms = list(powers[: len(h.nums)])
    while len(terms) < len(h.nums):
        terms.append(times_f(terms[-1], powers[1]))
    den = lcm(*(fk.den for fk in terms))
    acc = [0] * powers[0].modulus
    for c, fk in zip(h.nums, terms):
        if c:
            c *= den // fk.den
            acc = [a + c * x for a, x in zip(acc, fk.nums)]
    return powers[0]._normal(acc, h.den * den)


def group_ring_power_sums(ps, i: int, powers) -> list:
    """p_1, ..., p_d at level i from the dense coefficients c_e of f^k:
    (l^i T_i - l^(i-1) T_(i-1)) / n with T_j the sum of the c_e over
    l^j | e."""
    n, step = ps.n, ps.ell ** (i - 1)
    sums = []
    for k in range(1, phi_prime_power(ps.ell, i) // n + 1):
        nums = powers[k].nums
        total = ps.ell * step * sum(nums[:: ps.ell * step]) - step * sum(nums[::step])
        p, rem = divmod(total, n * powers[k].den)
        if rem:
            raise AssertionFailure(f"level-{i} power sum of f^{k} is not divisible by n = {n}")
        sums.append(p)
    return sums


class GroupRingRing(NamedTuple):
    powers: list
    m: Poly
    m_factors: tuple
    factor_images: tuple  # h(f) as group-ring elements
    omegas: tuple
    basis_matrix: tuple


def group_ring_invariant_ring(ps) -> GroupRingRing:
    """The referee for ``invariants.invariant_ring``: the dense path it
    replaced, with its checks in the engine's order (q-invariance, the
    m_i pipeline and certificates, j* <= n for the rank of the basis
    matrix mod l, here by synthetic division, m(f) = 0), each raising
    the engine's exception class."""
    ps = require_reduced(ps)
    orbits = invariants.orbit_structure(ps)
    powers = trace_powers(ps)
    for k, fk in enumerate(powers):
        if not is_invariant(fk, orbits):
            raise AssertionFailure(f"f^{k} is not q-invariant")
    ell = ps.ell
    factors, omegas, images = [Poly((-ps.n, 1))], [], []
    for i in range(1, ps.r + 1):
        coeffs = from_power_sums(group_ring_power_sums(ps, i, powers))
        if any(c.denominator != 1 for c in coeffs):
            raise AssertionFailure(f"m_{i} coefficient not an integer")
        m_i = Poly(coeffs)
        if m_i.degree != phi_prime_power(ell, i) // ps.n:
            raise AssertionFailure(f"deg m_{i} != phi(l^{i})/n")
        image = group_ring_poly_at_f(m_i, powers)
        if not image.at_zeta(ell, i, 1).is_zero():
            raise AssertionFailure(f"m_{i}(omega_{i}) != 0")
        factors.append(m_i)
        omegas.append(powers[1].at_zeta(ell, i, 1))
        images.append(image)
    images.insert(0, group_ring_poly_at_f(factors[0], powers))
    m = prod(factors, start=Poly((1,)))
    d = m.degree
    if d != len(orbits.reps) or not m.has_integer_coeffs():
        raise AssertionFailure("m has the wrong degree or a non-integer coefficient")
    if m.reduce_mod(ell) != tuple(comb(d, k) * pow(-ps.n, d - k, ell) % ell for k in range(d + 1)):
        raise AssertionFailure("m mod l is not (Y - n)^D")
    multiplicity = division_multiplicity(exponents(powers[1]), ps.n, ell)
    if multiplicity is None or multiplicity > ps.n:
        raise IntegralityFailure("basis matrix is singular mod l")
    if not group_ring_poly_at_f(m, powers).is_zero():
        raise AssertionFailure("m(f) != 0 in the group ring")
    return GroupRingRing(
        powers=powers,
        m=m,
        m_factors=tuple(factors),
        factor_images=tuple(images),
        omegas=tuple(omegas),
        basis_matrix=tuple(tuple(fk.nums[rep] for fk in powers) for rep in orbits.reps),
    )
