"""The q-power-invariant subring of W(k)[Z/l^r] and its presentation.

R = W(k)[X]/(X^(l^r) - 1) carries the ring endomorphism X^b -> X^(qb).
Because ord(q) = n in (Z/l^i)^x for every 1 <= i <= r, the orbits of
multiplication by q on Z/l^r are {0} and (l^r - 1)/n further orbits of
size exactly n, and the invariant subring has the orbit sums as a
W(k)-basis.  Everything here is computed over Q with exact rationals
on the integer kernel of ``cyclotomic.ExactVector``: group-ring elements
(``GroupRingElement``, products folded modulo X^(l^r) - 1), cyclotomic
numbers and the polynomials m, m_i and h (``Poly``) all keep integer
numerators over one denominator.  l-integrality is asserted where the
theory demands it.

The minimal polynomials m_i come out of the group ring, with no
cyclotomic arithmetic: the power sums of the conjugates of omega_i are
integers read off the powers of f against Ramanujan sums, and Newton's
identities turn them into the coefficients.  Each m_i is certified by
the image of m_i(f) at level i, and m by m(f) = 0.

A polynomial h is evaluated in one way, at f: ``poly_at_f`` sums
h(f) = sum_k h_k f^k from the stored powers of f.  Every value at a
slot is then an image under one ring map, ``GroupRingElement.at_zeta``:
X -> zeta_{l^i}^e.  It sends f to n at e = 0 (the Steinberg slot), to
the orbit sum of e at level r (a cuspidal slot), and to omega_i at
level i with e = 1; so it sends h(f) to h at that value.  No
polynomial is evaluated at a cyclotomic number: the Horner passes over
Q(zeta) and over the group ring are the tests' referees.

The l-adic lemmas (``uniformizer_check``, ``pullback_mod_ell_check``,
the rank of the basis matrix mod l) all read one number, j*
(``t_valuation``); the Taylor shifts of ``cyclotomic.ell_valuation``,
the synthetic division and the elimination mod l are the tests' referees.

Main outputs:
  * orbit_structure     - the orbits, with the order facts asserted
  * trace_element       - f = X + X^q + ... + X^(q^(n-1))
  * trace_powers        - f^0, ..., f^(D-1), D = #orbits, built once
  * poly_at_f           - h(f) for a polynomial h, from those powers
  * power_sums          - power sums of the conjugates of omega_i
  * orbit_sums          - the image of f at every e, once per orbit
  * omega_and_min_poly  - omega_i (f at level i), m_i and m_i(f)
  * min_polynomial      - m = (Y - n) * prod_i m_i and each factor at f
  * t_valuation         - j*, the t-adic valuation of f - n mod l
  * invariant_ring      - the powers of f and the change of basis
                          between orbit sums and them, certified
                          invertible with l-integral inverse by j* <= n;
                          column j of the inverse holds the h with
                          h(f) = the orbit sum of X^(reps[j])
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, inf, lcm, prod
from typing import NamedTuple

from . import linalg
from .arith import ord_int
from .cyclotomic import (
    CyclotomicNumber,
    ExactVector,
    _new,
    _reduce,
    lowest_terms,
    phi_prime_power,
)
from .errors import AssertionFailure, IntegralityFailure, ParameterError
from .params import ParameterSet, require_reduced
from .polynomials import Poly, from_power_sums


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


class OrbitStructure(NamedTuple):
    modulus: int
    multiplier: int
    orbits: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]


@lru_cache(maxsize=None)
def orbit_structure(ps: ParameterSet) -> OrbitStructure:
    """Orbits of multiplication by q on Z/l^r, with the order facts
    (every nonzero orbit has size exactly n) verified exhaustively.
    Memoised: the slots of every block vector come from here."""
    ps = require_reduced(ps)
    m = ps.ell_power
    q = ps.q % m
    seen = [False] * m
    orbits = []
    for a in range(m):
        if seen[a]:
            continue
        orbit = []
        b = a
        while not seen[b]:
            seen[b] = True
            orbit.append(b)
            b = b * q % m
        orbits.append(tuple(sorted(orbit)))
    for orbit in orbits:
        if orbit != (0,) and len(orbit) != ps.n:
            raise AssertionFailure(
                f"orbit {orbit} has size {len(orbit)} != n = {ps.n}", witness=orbit
            )
    expected = 1 + (m - 1) // ps.n
    if len(orbits) != expected:
        raise AssertionFailure(f"{len(orbits)} orbits, expected {expected}")
    reps = tuple(o[0] for o in orbits)
    if reps != tuple(sorted(reps)) or reps[0] != 0:
        raise AssertionFailure(f"orbit representatives {reps} are not sorted from 0")
    return OrbitStructure(modulus=m, multiplier=q, orbits=tuple(orbits), reps=reps)


def is_invariant(v: GroupRingElement, orbits: OrbitStructure) -> bool:
    return v.frobenius(orbits.multiplier) == v


def trace_element(ps: ParameterSet) -> GroupRingElement:
    """f = X + X^q + ... + X^(q^(n-1)) in Q[Z/l^r]."""
    ps = require_reduced(ps)
    m = ps.ell_power
    cs = [0] * m
    for k in range(ps.n):
        cs[pow(ps.q, k, m)] += 1
    return GroupRingElement(m, cs)


def trace_powers(ps: ParameterSet) -> list[GroupRingElement]:
    """f^0, f^1, ..., f^(D-1) in Q[Z/l^r], D the number of orbits: the
    columns of the basis matrix and the source of every power sum."""
    f = trace_element(ps)
    powers = [GroupRingElement.unit(f.modulus)]
    for _ in range(len(orbit_structure(ps).reps) - 1):
        powers.append(powers[-1] * f)
    return powers


def poly_at_f(h: Poly, powers) -> GroupRingElement:
    """h(f) = sum_k h_k f^k from the stored powers f^0, ..., f^(D-1)
    (``trace_powers``): one pass of integer multiply-adds over the
    numerators, divided by h's denominator and the powers' common one
    once at the end.  A power past the stored ones costs one product
    each; only m, of degree D, needs one, f^D = f^(D-1) f.  This is the
    engine's one evaluation of a polynomial in f: every value of h at
    a slot is the image of h(f) under ``GroupRingElement.at_zeta``."""
    terms = list(powers[: len(h.nums)])
    while len(terms) < len(h.nums):
        terms.append(terms[-1] * powers[1])
    den = lcm(*(fk.den for fk in terms))
    acc = [0] * powers[0].modulus
    for c, fk in zip(h.nums, terms):
        if c:
            c *= den // fk.den
            acc = [a + c * x for a, x in zip(acc, fk.nums)]
    return powers[0]._normal(acc, h.den * den)


def power_sums(ps: ParameterSet, i: int, powers) -> list[int]:
    """p_1, ..., p_d of the d = phi(l^i)/n conjugates of omega_i.

    Under X -> zeta_{l^i}^a, f goes to the conjugate of omega_i on the
    coset a<q>, and the phi(l^i) units a hit each conjugate n times.
    Summing f^k = sum_e c_e X^e over all units therefore gives
    p_k = (1/n) sum_e c_e c_{l^i}(e), with the Ramanujan sum c_{l^i}(e)
    = phi(l^i) where l^i | e, -l^(i-1) where only l^(i-1) | e, and 0
    elsewhere.  With T_j the sum of the c_e over l^j | e that is
    (l^i T_i - l^(i-1) T_(i-1)) / n, and n must divide it.
    """
    ps = require_reduced(ps)
    n = ps.n
    step = ps.ell ** (i - 1)
    sums = []
    for k in range(1, phi_prime_power(ps.ell, i) // n + 1):
        nums = powers[k].nums
        total = ps.ell * step * sum(nums[:: ps.ell * step]) - step * sum(nums[::step])
        p, rem = divmod(total, n * powers[k].den)
        if rem:
            raise AssertionFailure(
                f"level-{i} power sum {total}/{powers[k].den} of f^{k} "
                f"is not divisible by n = {n}",
                witness={"level": i, "power": k},
            )
        sums.append(p)
    return sums


@lru_cache(maxsize=None)
def orbit_sums(ps: ParameterSet) -> tuple[CyclotomicNumber, ...]:
    """sums[e] = sum_k zeta^(e q^k), the image of f at level r, for every
    e in Z/l^r, one per q-orbit.  Memoised: every slot value of Y is
    read from here."""
    orbits = orbit_structure(ps)
    f = trace_element(ps)
    sums = [None] * orbits.modulus
    for orbit in orbits.orbits:
        value = f.at_zeta(ps.ell, ps.r, orbit[0])
        for e in orbit:
            sums[e] = value
    return tuple(sums)


def omega_and_min_poly(ps: ParameterSet, i: int, powers):
    """(omega_i, m_i, m_i(f)), m_i the minimal polynomial of omega_i.

    ``powers`` are f^0, ..., f^(D-1) (``trace_powers``).  Their level-i
    power sums (``power_sums``) give the coefficients of m_i by Newton's
    identities (``polynomials.from_power_sums``); they must be integers
    and m_i must have degree phi(l^i)/n.  The certificate m_i(omega_i)
    = 0 is the image of m_i(f) (``poly_at_f``) under X -> zeta_{l^i},
    which sends f to omega_i; omega_i itself is built after it, for the
    report.
    """
    ps = require_reduced(ps)
    ell = ps.ell
    coeffs = from_power_sums(power_sums(ps, i, powers))
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionFailure(f"m_{i} coefficient not an integer: {c}", witness=i)
    m_i = Poly(coeffs)
    if m_i.degree != phi_prime_power(ell, i) // ps.n:
        raise AssertionFailure(f"deg m_{i} = {m_i.degree} != phi(l^{i})/n", witness=i)
    image = poly_at_f(m_i, powers)
    if not image.at_zeta(ell, i, 1).is_zero():
        raise AssertionFailure(f"m_{i}(omega_{i}) != 0", witness=i)
    return powers[1].at_zeta(ell, i, 1), m_i, image


def min_polynomial(ps: ParameterSet, powers):
    """(m, factors, omegas, images) with m = (Y - n) * prod_{i=1}^r m_i
    from the ``trace_powers`` of ps and images[k] = factors[k](f).
    Asserts: integer coefficients, degree = number of orbits, and
    m = (Y - n)^ceil(l^r / n) mod l.
    """
    ps = require_reduced(ps)
    levels = [omega_and_min_poly(ps, i, powers) for i in range(1, ps.r + 1)]
    omegas, m_is, images = zip(*levels)
    factors = [Poly((-ps.n, 1)), *m_is]
    images = [poly_at_f(factors[0], powers), *images]
    m = prod(factors, start=Poly((1,)))
    degree_expected = 1 + (ps.ell_power - 1) // ps.n
    if m.degree != degree_expected:
        raise AssertionFailure(f"deg m = {m.degree}, expected {degree_expected}")
    if not m.has_integer_coeffs():
        raise AssertionFailure("m has non-integer coefficients")
    # mod-l shape: (Y - n)^D
    ell = ps.ell
    d = m.degree
    binom = [comb(d, k) * pow(-ps.n, d - k, ell) % ell for k in range(d + 1)]
    if m.reduce_mod(ell) != tuple(binom):
        raise AssertionFailure("m mod l is not (Y - n)^D")
    return m, factors, omegas, images


def t_valuation(f: GroupRingElement, n: int, ell: int) -> int | None:
    """j*, the first j >= 1 with l not dividing c_j = sum_k binom(a_k, j),
    a_k the n exponents of f, or None if no j < l qualifies.  Over F_l,
    X^(l^i) - 1 = t^(l^i) with t = X - 1, and f - n maps to sum_j c_j t^j
    in F_l[Z/l^i] = F_l[t]/(t^(l^i)): j* is the t-adic valuation of f - n,
    the same at every level while below l, so only the a_k mod l count."""
    if f.den != 1 or min(f.nums) < 0 or sum(f.nums) != n:
        raise AssertionFailure(f"f is not a sum of n = {n} powers of X")
    residues = sorted((e % ell for e, c in enumerate(f.nums) for _ in range(c)), reverse=True)
    falling = [1] * n  # j! binom(a_k, j) mod l, and j! is prime to l
    for j in range(1, ell):
        while residues and residues[-1] < j:  # binom(a, j) = 0 for a < j
            residues.pop()
        falling = [x * (a - j + 1) % ell for x, a in zip(falling, residues)]
        if sum(falling) % ell:
            return j
    return None


def uniformizer_check(ps: ParameterSet, i: int) -> dict:
    """nu(omega_i - n) and nu(N(zeta_i)), N(zeta_i) = prod_k (zeta^(a_k) - 1)
    with a_k the exponents of f, must be exactly n at level i, 1 <= i <= r.

    With pi = zeta - 1 (nu(pi) = 1, nu(l) = phi(l^i) >= l - 1),
    omega_i - n = sum_(j>=1) c_j pi^j (``t_valuation``).  Terms before j*
    have nu >= j + phi(l^i) > j*, terms after it nu > j*, so nu = j*;
    with no j* < l every term has nu >= l > n.  zeta^a is a primitive
    l^(i - ord_l a)-th root of 1, so nu(zeta^a - 1) = l^(ord_l a): the norm
    has nu = n iff every a_k is prime to l (and is 0 if some l^i | a_k)."""
    ps = require_reduced(ps)
    if not 1 <= i <= ps.r:
        raise ParameterError(f"level {i} is outside 1..r = {ps.r}")
    f, ell, m = trace_element(ps), ps.ell, ps.ell**i
    val = t_valuation(f, ps.n, ell)
    if val != ps.n:
        val = f"at least {ell}" if val is None else val
        raise AssertionFailure(
            f"nu(omega_{i} - n) = {val} != n = {ps.n}", witness={"level": i, "nu": val}
        )
    aux = sum(c * ell ** ord_int(e % m, ell) if e % m else inf for e, c in enumerate(f.nums) if c)
    if aux != ps.n:
        raise AssertionFailure(f"nu(N(zeta_{i})) = {aux} != n", witness={"level": i})
    return {"level": i, "valuation": val, "aux_valuation": aux}


def pullback_mod_ell_check(ps: ParameterSet) -> dict:
    """Multiplicity of (X - 1) in P = X + X^q + ... + X^(q^(n-1)) - n over
    F_l, as an abstract polynomial of degree q^(n-1).  Must be exactly n.
    Below l it is the t-adic valuation of P mod X^l - 1 = t^l, which is
    f - n mod t^l as l^r | q^k - a_k: j* (``t_valuation``)."""
    ps = require_reduced(ps)
    multiplicity = t_valuation(trace_element(ps), ps.n, ps.ell)
    if multiplicity != ps.n:
        multiplicity = f"at least {ps.ell}" if multiplicity is None else multiplicity
        raise AssertionFailure(
            f"(X-1)-multiplicity is {multiplicity}, expected n = {ps.n}",
            witness={"multiplicity": multiplicity},
        )
    return {"multiplicity": multiplicity, "degree": ps.q ** (ps.n - 1)}


class InvariantRingData(NamedTuple):
    ps: ParameterSet
    orbits: OrbitStructure
    powers: tuple[GroupRingElement, ...]  # f^0, ..., f^(D-1)
    m: Poly
    m_factors: tuple[Poly, ...]
    factor_images: tuple[GroupRingElement, ...]  # h(f) for each listed factor h
    omegas: tuple[CyclotomicNumber, ...]
    basis_matrix: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.orbits.reps)


def invariant_ring(ps: ParameterSet) -> InvariantRingData:
    """The powers 1, f, ..., f^(D-1) and the change-of-basis data
    between them and the orbit sums.

    M[j][k] = coefficient of X^(rep_j) in f^k, an integer.  Asserts that
    every f^k is q-invariant, that M lies in GL_D(Z_(l)) and that
    m(f) = 0 in the group ring (``poly_at_f``, the one product f^D =
    f^(D-1) f).  M is integral, so M^(-1) exists and is l-integral iff
    det M is prime to l, iff M has full rank modulo l; M^(-1) is never
    built.  Column j of M^(-1) holds the h with h(f) = the orbit sum of
    X^(reps[j]).

    The rank is read off j* (``t_valuation``).  Mod l, f^k = sum_j
    M[j][k] S_j with orbit sums S_j of disjoint supports, so rank M = D iff
    the powers of g = f - n below D are independent in F_l[t]/(t^(l^r)).
    g^k has valuation k j* below l^r and is 0 after; (D - 1) n = l^r - 1,
    so they are iff j* <= n (a relation g^(D-1) = 0 otherwise).
    """
    ps = require_reduced(ps)
    orbits = orbit_structure(ps)
    powers = trace_powers(ps)
    m, factors, omegas, images = min_polynomial(ps, powers)
    for k, fk in enumerate(powers):
        if not is_invariant(fk, orbits):
            raise AssertionFailure(f"f^{k} is not q-invariant")
        if fk.den != 1:
            raise AssertionFailure(f"f^{k} has non-integer coefficients")
    rows = tuple(tuple(fk.nums[rep] for fk in powers) for rep in orbits.reps)
    j = t_valuation(powers[1], ps.n, ps.ell)
    if j is None or j > ps.n:
        raise IntegralityFailure(
            "basis matrix is singular mod l: its inverse is not l-integral"
        )
    if not poly_at_f(m, powers).is_zero():
        raise AssertionFailure("m(f) != 0 in the group ring")
    return InvariantRingData(
        ps=ps,
        orbits=orbits,
        powers=tuple(powers),
        m=m,
        m_factors=tuple(factors),
        factor_images=tuple(images),
        omegas=tuple(omegas),
        basis_matrix=rows,
    )
