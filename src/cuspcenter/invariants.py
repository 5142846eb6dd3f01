"""The q-power-invariant subring of W(k)[Z/l^r] and its presentation.

R = W(k)[X]/(X^(l^r) - 1) carries the ring endomorphism X^b -> X^(qb).
Because ord(q) = n in (Z/l^i)^x for every 1 <= i <= r, the orbits of
multiplication by q on Z/l^r are {0} and (l^r - 1)/n further orbits of
size exactly n, and the invariant subring has the orbit sums S_j as a
W(k)-basis.  An invariant element is held only as its orbit
coordinates V, with V = sum_j V_j S_j in the order of the orbit
representatives (each orbit's least element).  Everything here is
exact: the coordinates of the powers of f, the power sums and the
minimal polynomials m and m_i are integers or ``Poly``s on integer
numerators, and l-integrality is asserted where the theory demands it.

f = X^(a_0) + ... + X^(a_(n-1)), a_k = q^k mod l^r, is the orbit sum
of 1.  Multiplication by f on orbit coordinates is a sparse D x D
integer matrix, D = #orbits, the Gaussian-period structure of Gupta and
Zagier (Math. Comp. 60, 1993): column j is f S_j read at the
representatives.  It is built once, each column checked q-invariant,
and applied to 1 it gives f^0, ..., f^(D-1), the columns of the basis
matrix.

The minimal polynomials m_i come out of those coordinates, with no
cyclotomic arithmetic: the power sums of the conjugates of omega_i are
integers read off the powers of f against Ramanujan sums, and Newton's
identities turn them into the coefficients.  Each m_i is certified by
the image of m_i(f) at level i, and m by m(f) = 0.

A polynomial h is evaluated in one way, at f: ``poly_at_f`` gives the
coordinates of h(f) = sum_k h_k f^k from the basis matrix.  Every value
at a slot is then an image under one ring map, ``at_zeta``:
X -> zeta_{l^i}^e.  It sends f to n at e = 0 (the Steinberg slot), to
the orbit sum of e at level r (a cuspidal slot), and to omega_i at
level i with e = 1; so it sends h(f) to h at that value.  No
polynomial is evaluated at a cyclotomic number: the Horner passes over
Q(zeta) and over the group ring are the tests' referees, and so is the
dense group ring Q[X]/(X^(l^r) - 1) itself.

The l-adic lemmas (``uniformizer_check``, ``pullback_mod_ell_check``,
the rank of the basis matrix mod l) all read one number, j*
(``t_valuation``), off the exponents a_k; the Taylor shifts of
``cyclotomic.ell_valuation``, the synthetic division and the
elimination mod l are the tests' referees.

Main outputs:
  * orbit_structure      - the orbits and the orbit index of every e,
                           with the order facts asserted
  * trace_exponents      - a_0, ..., a_(n-1), the exponents of f
  * trace_multiplication - multiplication by f on orbit coordinates,
                           each column checked q-invariant
  * power_coordinates    - f^0, ..., f^(D-1) in orbit coordinates
  * at_zeta              - the one map of orbit coordinates to Q(zeta)
  * poly_at_f            - the orbit coordinates of h(f)
  * power_sums           - power sums of the conjugates of omega_i
  * orbit_sums           - the image of f at every e, once per orbit
  * omega_and_min_poly   - omega_i (f at level i), m_i and m_i(f)
  * min_polynomial       - m = (Y - n) * prod_i m_i and each factor at f
  * checked_factor_images - those factors at f, once they multiply to m
  * factor_values        - those factors at every slot, by ``at_zeta``
  * t_valuation          - j*, the t-adic valuation of f - n mod l
  * invariant_ring       - the basis matrix, whose column k holds f^k,
                           certified invertible with l-integral
                           inverse by j* <= n; column j of the inverse
                           holds the h with h(f) = the orbit sum of
                           X^(reps[j])
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, inf, prod
from operator import mul
from typing import NamedTuple

from .arith import ord_int
from .cyclotomic import CyclotomicNumber, _new, _reduce, lowest_terms, phi_prime_power
from .errors import AssertionFailure, IntegralityFailure, ParameterError
from .linalg import clear_denominators
from .params import ParameterSet, require_reduced
from .polynomials import Poly, from_power_sums


class OrbitStructure(NamedTuple):
    modulus: int
    multiplier: int
    orbits: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    index: tuple[int, ...]  # index[e]: the position of e's orbit in reps


@lru_cache(maxsize=None)
def orbit_structure(ps: ParameterSet) -> OrbitStructure:
    """Orbits of multiplication by q on Z/l^r, with the order facts
    (every nonzero orbit has size exactly n) verified exhaustively, and
    the orbit index of every e, recorded in the same pass.  Memoised:
    the slots of every block vector come from here."""
    ps = require_reduced(ps)
    m = ps.ell_power
    q = ps.q % m
    index = [None] * m
    orbits = []
    for a in range(m):
        if index[a] is not None:
            continue
        orbit = []
        b = a
        while index[b] is None:
            index[b] = len(orbits)
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
    return OrbitStructure(
        modulus=m, multiplier=q, orbits=tuple(orbits), reps=reps, index=tuple(index)
    )


def trace_exponents(ps: ParameterSet) -> tuple[int, ...]:
    """(a_0, ..., a_(n-1)), a_k = q^k mod l^r: f = sum_k X^(a_k)."""
    ps = require_reduced(ps)
    return tuple(pow(ps.q, k, ps.ell_power) for k in range(ps.n))


def trace_multiplication(ps: ParameterSet, exponents) -> tuple:
    """Multiplication by f = sum_k X^(a_k), a_k the ``exponents``, on
    orbit coordinates: column j lists the pairs (i, c), c != 0, with
    f S_j = sum_i c S_i.  f S_j = sum_(e in S_j, k) X^(e + a_k) is counted
    once and read at the representatives, after one check that it is
    q-invariant: its count at b equals its count at q b for every b of
    its support.  A column has at most n entries: its weights c |S_i|
    sum to n |S_j|, every S_i but S_0 = 1 has n terms, and the weight
    at S_0 is 0 or, when S_j is the orbit of -1, n."""
    orbits = orbit_structure(ps)
    m, q, index, reps = orbits.modulus, orbits.multiplier, orbits.index, orbits.reps
    columns = []
    for orbit in orbits.orbits:
        counts = Counter((e + a) % m for e in orbit for a in exponents)
        if any(counts[b * q % m] != c for b, c in counts.items()):
            raise AssertionFailure(
                f"f S_{orbit[0]} is not q-invariant", witness={"orbit": orbit[0]}
            )
        columns.append(tuple((index[b], c) for b, c in counts.items() if reps[index[b]] == b))
    return tuple(columns)


def _times(columns, coords) -> list:
    """The orbit coordinates of f V for the coordinates V = ``coords``
    and the ``trace_multiplication`` columns: O(n D) steps."""
    out = [0] * len(coords)
    for x, column in zip(coords, columns):
        if x:
            for i, c in column:
                out[i] += c * x
    return out


def power_coordinates(times_f, count: int) -> list[list[int]]:
    """f^0, ..., f^(count-1) in orbit coordinates, f^0 = 1 = S_0, each
    from the last by one ``times_f`` product."""
    powers = [[1] + [0] * (len(times_f) - 1)]
    while len(powers) < count:
        powers.append(_times(times_f, powers[-1]))
    return powers


def at_zeta(ps: ParameterSet, coords, level: int, exponent: int) -> CyclotomicNumber:
    """The image of V = sum_j coords[j] S_j (ints or ``Fraction``s) under
    the ring map X -> zeta_{l^level}^exponent, 0 <= level <= r: the
    coordinates are expanded over their orbits and folded once by
    ``_reduce``.  This is the engine's one map of q-invariant elements
    to Q(zeta): the m_i certificates, the omegas, ``orbit_sums``, the
    factor values, m(Y) in ``deformation`` and the slot vectors of
    ``centermap.coordinate_image`` are all its images."""
    if not 0 <= level <= ps.r:
        raise ValueError(f"X -> zeta_(l^{level}) is not defined on Q[Z/{ps.ell_power}]")
    nums, den = clear_denominators(coords)
    m = ps.ell**level
    raw = [0] * m
    for v, orbit in zip(nums, orbit_structure(ps).orbits):
        if v:
            for e in orbit:
                raw[e * exponent % m] += v
    return _new(ps.ell, level, *lowest_terms(_reduce(ps.ell, level, raw), den))


def poly_at_f(h: Poly, rows, times_f) -> tuple[int, ...]:
    """The numerators, over h's denominator, of the orbit coordinates of
    h(f) = sum_k h_k f^k: M h for the basis matrix M = ``rows``, whose
    column k holds f^k for k < D, in integer multiply-adds.  A power
    past the stored ones costs one ``times_f`` product each; only m, of
    degree D, needs one, f^D = f f^(D-1).  This is the engine's one
    evaluation of a polynomial in f: every value of h at a slot is the
    image of h(f) under ``at_zeta``."""
    nums = h.nums
    acc = [sum(map(mul, row, nums)) for row in rows]
    power = [row[-1] for row in rows]
    for c in nums[len(rows) :]:
        power = _times(times_f, power)
        acc = [a + c * x for a, x in zip(acc, power)]
    return tuple(acc)


def power_sums(ps: ParameterSet, i: int, rows) -> list[int]:
    """p_1, ..., p_d of the d = phi(l^i)/n conjugates of omega_i, from
    the basis matrix ``rows``.

    Under X -> zeta_{l^i}^a, f goes to the conjugate of omega_i on the
    coset a<q>, and the phi(l^i) units a hit each conjugate n times.
    Summing f^k = sum_e c_e X^e over all units therefore gives
    p_k = (1/n) sum_e c_e c_{l^i}(e), with the Ramanujan sum c_{l^i}(e)
    = phi(l^i) where l^i | e, -l^(i-1) where only l^(i-1) | e, and 0
    elsewhere: (l^i T_i - l^(i-1) T_(i-1)) / n with T_j the sum of the
    c_e over l^j | e.  An orbit keeps the l-adic valuation of its
    elements, so for the orbit coordinates V of f^k, T_j = V_0 +
    n sum_(rep != 0, l^j | rep) V_rep, and
    p_k = (phi(l^i)/n) V_0 + l^i sum_(l^i | rep) V_rep
    - l^(i-1) sum_(l^(i-1) | rep) V_rep over rep != 0: an integer, as n,
    the order of q mod l^i, divides phi(l^i).
    """
    ps = require_reduced(ps)
    reps = orbit_structure(ps).reps
    step = ps.ell ** (i - 1)
    phi = phi_prime_power(ps.ell, i)
    inner = [row for row, rep in zip(rows[1:], reps[1:]) if not rep % (ps.ell * step)]
    outer = [row for row, rep in zip(rows[1:], reps[1:]) if not rep % step]
    return [
        phi // ps.n * rows[0][k]
        + ps.ell * step * sum(row[k] for row in inner)
        - step * sum(row[k] for row in outer)
        for k in range(1, phi // ps.n + 1)
    ]


@lru_cache(maxsize=None)
def orbit_sums(ps: ParameterSet) -> tuple[CyclotomicNumber, ...]:
    """sums[e] = sum_k zeta^(e q^k), the image of f at level r, for every
    e in Z/l^r, one per q-orbit.  Memoised: every slot value of Y is
    read from here."""
    orbits = orbit_structure(ps)
    f = [0] * len(orbits.reps)
    f[orbits.index[1]] = 1  # f is the orbit sum of 1
    sums = [None] * orbits.modulus
    for orbit in orbits.orbits:
        value = at_zeta(ps, f, ps.r, orbit[0])
        for e in orbit:
            sums[e] = value
    return tuple(sums)


def omega_and_min_poly(ps: ParameterSet, i: int, rows, times_f):
    """(omega_i, m_i, m_i(f)), m_i the minimal polynomial of omega_i and
    m_i(f) as its orbit coordinates.

    ``rows`` is the basis matrix, whose column k holds f^k, and
    ``times_f`` the ``trace_multiplication``.  The level-i power sums
    (``power_sums``) give the coefficients of m_i by Newton's identities
    (``polynomials.from_power_sums``); they must be integers and m_i
    must have degree phi(l^i)/n.  The certificate m_i(omega_i) = 0 is
    the image of m_i(f) (``poly_at_f``) under X -> zeta_{l^i}, which
    sends f to omega_i; omega_i itself is built after it, for the
    report.
    """
    ps = require_reduced(ps)
    coeffs = from_power_sums(power_sums(ps, i, rows))
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionFailure(f"m_{i} coefficient not an integer: {c}", witness=i)
    m_i = Poly(coeffs)
    if m_i.degree != phi_prime_power(ps.ell, i) // ps.n:
        raise AssertionFailure(f"deg m_{i} = {m_i.degree} != phi(l^{i})/n", witness=i)
    image = poly_at_f(m_i, rows, times_f)
    if not at_zeta(ps, image, i, 1).is_zero():
        raise AssertionFailure(f"m_{i}(omega_{i}) != 0", witness=i)
    return at_zeta(ps, [row[1] for row in rows], i, 1), m_i, image


def min_polynomial(ps: ParameterSet, rows, times_f):
    """(m, factors, omegas, images) with m = (Y - n) * prod_{i=1}^r m_i
    from the basis matrix ``rows`` and the ``times_f`` of ps, and
    images[k] the orbit coordinates of factors[k](f).  Asserts: integer
    coefficients, degree = number of orbits, and
    m = (Y - n)^ceil(l^r / n) mod l.
    """
    ps = require_reduced(ps)
    levels = [omega_and_min_poly(ps, i, rows, times_f) for i in range(1, ps.r + 1)]
    omegas, m_is, images = zip(*levels)
    factors = [Poly((-ps.n, 1)), *m_is]
    images = [poly_at_f(factors[0], rows, times_f), *images]
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


def t_valuation(exponents, n: int, ell: int) -> int | None:
    """j*, the first j >= 1 with l not dividing c_j = sum_k binom(a_k, j),
    a_k the n ``exponents`` of f, or None if no j < l qualifies.  Over
    F_l, X^(l^i) - 1 = t^(l^i) with t = X - 1, and f - n maps to
    sum_j c_j t^j in F_l[Z/l^i] = F_l[t]/(t^(l^i)): j* is the t-adic
    valuation of f - n, the same at every level while below l, so only
    the a_k mod l count."""
    if len(exponents) != n:
        raise AssertionFailure(f"f is not a sum of n = {n} powers of X")
    residues = sorted((a % ell for a in exponents), reverse=True)
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
    exponents, ell, m = trace_exponents(ps), ps.ell, ps.ell**i
    val = t_valuation(exponents, ps.n, ell)
    if val != ps.n:
        val = f"at least {ell}" if val is None else val
        raise AssertionFailure(
            f"nu(omega_{i} - n) = {val} != n = {ps.n}", witness={"level": i, "nu": val}
        )
    aux = sum(ell ** ord_int(a % m, ell) if a % m else inf for a in exponents)
    if aux != ps.n:
        raise AssertionFailure(f"nu(N(zeta_{i})) = {aux} != n", witness={"level": i})
    return {"level": i, "valuation": val, "aux_valuation": aux}


def pullback_mod_ell_check(ps: ParameterSet) -> dict:
    """Multiplicity of (X - 1) in P = X + X^q + ... + X^(q^(n-1)) - n over
    F_l, as an abstract polynomial of degree q^(n-1).  Must be exactly n.
    Below l it is the t-adic valuation of P mod X^l - 1 = t^l, which is
    f - n mod t^l as l^r | q^k - a_k: j* (``t_valuation``)."""
    ps = require_reduced(ps)
    multiplicity = t_valuation(trace_exponents(ps), ps.n, ps.ell)
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
    times_f: tuple  # the ``trace_multiplication`` columns
    m: Poly
    m_factors: tuple[Poly, ...]
    factor_images: tuple[tuple[int, ...], ...]  # orbit coordinates of h(f), h a factor
    omegas: tuple[CyclotomicNumber, ...]
    basis_matrix: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.orbits.reps)


def checked_factor_images(ring: InvariantRingData) -> tuple:
    """``ring.factor_images``, the orbit coordinates of h(f) for each
    listed factor h of m, once the factors are checked to multiply to
    m, Y - n first.  Q(zeta) is a field, so at any image of f a product
    of factors vanishes iff one of them does."""
    factors = ring.m_factors
    if prod(factors, start=Poly((1,))) != ring.m:
        raise AssertionFailure("the listed factors of m do not multiply to m")
    if factors[0] != Poly((-ring.ps.n, 1)):
        raise AssertionFailure(f"first factor of m is {factors[0]!r}, not Y - n")
    return ring.factor_images


def factor_values(ring: InvariantRingData) -> tuple[tuple, ...]:
    """values[k][s] is the image of h(f), h the k-th listed factor of m,
    at slot s, mapped by ``at_zeta`` from ``checked_factor_images``: the
    zero pattern says where m, m/factor, g and, at each trace, m(Y) vanish."""
    ps, reps = ring.ps, ring.orbits.reps
    images = checked_factor_images(ring)
    return tuple(tuple(at_zeta(ps, x, ps.r, e) for e in reps) for x in images)


def invariant_ring(ps: ParameterSet) -> InvariantRingData:
    """The powers 1, f, ..., f^(D-1) and the change-of-basis data
    between them and the orbit sums.

    M[j][k] = coefficient of X^(rep_j) in f^k, the j-th orbit coordinate
    of f^k (``power_coordinates``), an integer.  Asserts that f S_j is
    q-invariant for every orbit sum S_j (``trace_multiplication``), so
    that every f^k is, that M lies in GL_D(Z_(l)) and that m(f) = 0 in
    the group ring (``poly_at_f``, the one product f^D = f f^(D-1)).
    M is integral, so M^(-1) exists and is l-integral iff det M is
    prime to l, iff M has full rank modulo l; M^(-1) is never built.
    Column j of M^(-1) holds the h with h(f) = the orbit sum of
    X^(reps[j]).

    The rank is read off j* (``t_valuation``).  Mod l, f^k = sum_j
    M[j][k] S_j with orbit sums S_j of disjoint supports, so rank M = D iff
    the powers of g = f - n below D are independent in F_l[t]/(t^(l^r)).
    g^k has valuation k j* below l^r and is 0 after; (D - 1) n = l^r - 1,
    so they are iff j* <= n (a relation g^(D-1) = 0 otherwise).
    """
    ps = require_reduced(ps)
    orbits = orbit_structure(ps)
    exponents = trace_exponents(ps)
    times_f = trace_multiplication(ps, exponents)
    rows = tuple(zip(*power_coordinates(times_f, len(orbits.reps))))
    m, factors, omegas, images = min_polynomial(ps, rows, times_f)
    j = t_valuation(exponents, ps.n, ps.ell)
    if j is None or j > ps.n:
        raise IntegralityFailure(
            "basis matrix is singular mod l: its inverse is not l-integral"
        )
    if any(poly_at_f(m, rows, times_f)):
        raise AssertionFailure("m(f) != 0 in the group ring")
    return InvariantRingData(
        ps=ps,
        orbits=orbits,
        times_f=times_f,
        m=m,
        m_factors=tuple(factors),
        factor_images=tuple(images),
        omegas=tuple(omegas),
        basis_matrix=rows,
    )
