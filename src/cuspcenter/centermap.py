"""Center-of-the-block engine: delta vectors, case analysis, and the
reconstruction of the endomorphism ring.

Every conjugacy class sum acts on each characteristic-zero member of
the block by a scalar; collecting those scalars over the block's slots
(slot 0 for the generalized Steinberg member, one slot per nonzero
orbit representative for the cuspidal members) gives the class's delta
vector, the image of one rational q-invariant element V of Q[Z/l^r].
The engine holds each delta as V's orbit-sum coordinates, on which the
map to the slots is injective: it checks the integrality, congruence
and per-case shapes, rebuilds the scaled idempotent and the generator
gamma and certifies each delta as an integral polynomial in gamma, all
in integer arithmetic on V, held as ``(nums, den)`` (``arith``).
The image of the center is W[Y]/(m(Y)) with m the minimal polynomial
computed from the invariant ring.  Slot vectors in Q(zeta) are built
for the printed gamma and idempotent.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .arith import lowest_terms, ord_frac, ratio, ratio_str
from .characters import (
    cuspidal_dimension,
    cuspidal_form,
    steinberg_dimension,
    steinberg_value,
)
from .classes import (
    ClassType,
    class_predicates,
    enumerate_classes,
    group_classes,
    theta_exponent,
)
from .cyclotomic import CyclotomicNumber
from .errors import AssertionFailure, IntegralityFailure
from .finitefield import finite_field, minimal_polynomial, sylow_generator
from .invariants import (
    InvariantRingData,
    at_zeta,
    factor_values,
    invariant_ring,
    orbit_structure,
    orbit_sums,
    power_coordinates,
    pullback_mod_ell_check,
    uniformizer_check,
)
from .linalg import solve_columns
from .params import ParameterSet, reduce_parameters, require_reduced, validate_parameters
from .polynomials import Poly


class BlockVector:
    """Vector of scalars indexed by the block's slots.

    Entries are stored uniformly at level r; slot 0 comes first and the
    remaining slots follow the orbit-representative order."""

    __slots__ = ("ell", "r", "reps", "entries")

    def __init__(self, ell: int, r: int, reps, entries):
        self.ell = ell
        self.r = r
        self.reps = tuple(reps)
        embedded = []
        for e in entries:
            if not isinstance(e, CyclotomicNumber):
                e = CyclotomicNumber.rational(ell, e)
            embedded.append(e.embed_to(r))
        self.entries = tuple(embedded)
        if len(self.entries) != len(self.reps):
            raise ValueError(f"{len(self.entries)} entries for {len(self.reps)} slots")

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(e) for e in self.entries) + ")"


def block_slots(ps: ParameterSet):
    """Slot labels: 0 then the nonzero orbit representatives."""
    return orbit_structure(ps).reps


def delta_form(ct: ClassType, ps: ParameterSet) -> tuple:
    """(st, c, j): the delta vector of one class carries st at slot 0 and
    c times the orbit sum of i*j at slot i != 0, with (c / (|C|/dim), j)
    the ``characters.cuspidal_form``; st and c are ``(num, den)`` pairs.
    It depends on the class only through ``ct.type_key`` and
    ``theta_exponent(ct, ps)``, on which ``classes.group_classes``
    groups the census."""
    ps = require_reduced(ps)
    size = ct.class_size()
    st = ratio(size * steinberg_value(ct, ps), steinberg_dimension(ps))
    (num, den), j = cuspidal_form(ct, ps)
    return st, ratio(num * size, den * cuspidal_dimension(ps)), j


def check_form(ct: ClassType, form: tuple, ps: ParameterSet) -> None:
    """Checks the delta vector of the ``delta_form`` (st, c, j) of
    ``ct``: IntegralityFailure if an entry is not l-integral (witness:
    slot 0 for st, else the first cuspidal slot), AssertionFailure if
    the entries fail to agree in the residue field F_l, read at zeta = 1
    (witness: the first cuspidal slot); both hold for every class of
    the group.

    Both are read off the form.  Slot 0 is st.  A cuspidal slot is c
    times an orbit sum s = sum_k zeta^(e q^k), which lies in Z_(l)[zeta]
    and maps to n under Z_(l)[zeta] -> Z_(l)[zeta]/(zeta - 1) = F_l.
    As 0 < n < l, s is an l-adic unit, so c s is l-integral iff c is,
    and then its residue is c n.  So the entries are l-integral iff st
    and c are, and then they agree in F_l iff st = c n (mod l); every
    cuspidal slot fails or passes alike, so the first one is the
    witness."""
    st, c, _ = form
    reps = block_slots(ps)
    ell = ps.ell
    for slot, (_, den) in ((reps[0], st), (reps[1], c)):
        if not den % ell:
            raise IntegralityFailure(
                f"delta entry at slot {slot} of {ct.label()} is not l-integral"
            )
    # the numerator of st - c n over st's and c's l-unit denominators
    if (st[0] * c[1] - c[0] * require_reduced(ps).n * st[1]) % ell:
        raise AssertionFailure(
            f"delta entries of {ct.label()} differ in the residue field",
            witness={"slot": reps[1]},
        )


def delta_class(ct: ClassType, ps: ParameterSet) -> BlockVector:
    """Delta vector of one class, |C| chi(C) / dim slot by slot, from its
    ``delta_form`` once ``check_form`` passes; ``oracle`` compares it
    with the GL_2 table, the engine holds the ``orbit_coordinates``."""
    ps = require_reduced(ps)
    form = delta_form(ct, ps)
    check_form(ct, form, ps)
    st, (num, den), j = form
    reps, sums = block_slots(ps), orbit_sums(ps)
    entries = [st] + [sums[i * j % ps.ell_power]._scaled(num, den) for i in reps[1:]]
    return BlockVector(ps.ell, ps.r, reps, entries)


def theta_coordinates(ps: ParameterSet, j: int) -> tuple:
    """The orbit-sum coordinates (nums, 1) of f_j = sum_k X^(j q^k), in
    the order of the orbit representatives (each orbit's least element):
    n at 0 for j = 0, else 1 at the orbit of j, read off the
    ``orbit_structure`` index."""
    orbits = orbit_structure(ps)
    k = orbits.index[j % ps.ell_power]
    value = ps.n if k == 0 else 1
    return tuple(value if i == k else 0 for i in range(len(orbits.reps))), 1


def orbit_coordinates(form: tuple, ps: ParameterSet) -> tuple:
    """The orbit-sum coordinates (nums, den) of V = c f_j + ((st - c n) /
    l^r) N for the ``delta_form`` (st, c, j), with N = sum_e X^e (all
    coordinates 1).  V maps to the delta vector: at slot 0 (X -> 1) to
    c n + (st - c n) = st, and at a slot i != 0 (X -> zeta^i), where N
    maps to 0, to c times the orbit sum of i*j."""
    (s, sd), (c, cd), j = form
    lr = ps.ell_power
    b = s * cd - c * ps.n * sd  # (st - c n) sd cd
    c *= sd * lr
    nums, _ = theta_coordinates(ps, j)
    return lowest_terms([b + c * x if x else b for x in nums], sd * cd * lr)


def steinberg_slot(coords, ps: ParameterSet) -> tuple[int, int]:
    """Slot 0 of the image of the orbit coordinates V: X -> 1 sends the
    orbit sum of 0 to 1 and every other one to its size n."""
    nums, den = coords
    return ratio(nums[0] + ps.n * sum(nums[1:]), den)


def orbit_split(coords):
    """(a, b) with V = a 1 + b N for the orbit coordinates V: a = V_0 -
    V_1 and b = V_1 when V_1 = ... = V_(D-1), else None.  a 1 + b N maps
    to (a + l^r b, a, ..., a), so by the injectivity in ``s_membership``
    the split exists iff the cuspidal slots share one rational value."""
    nums, den = coords
    head, tail = nums[0], nums[1:]
    if any(v != tail[0] for v in tail):
        return None
    return ratio(head - tail[0], den), ratio(tail[0], den)


def coordinate_image(coords, ps: ParameterSet) -> BlockVector:
    """The slot vector of the orbit coordinates V: slot i is the image
    of V under X -> zeta^i (``invariants.at_zeta``)."""
    reps = block_slots(ps)
    nums, den = coords
    entries = [at_zeta(ps, nums, ps.r, i)._scaled(1, den) for i in reps]
    return BlockVector(ps.ell, ps.r, reps, entries)


def s_membership(coords, ell: int) -> bool:
    """Whether the image of the orbit coordinates V = ``coords`` lies in
    S = Z_(l)*1 + Z_(l)*(scaled idempotent): exactly when V = a 1 + b N
    (``orbit_split``) with a, b in Z_(l).

    Proof: 1 is e_0, and N = sum_e X^e maps to (l^r, 0, ..., 0), the
    scaled idempotent.  The map to the slots is injective on the
    q-invariants over Q, which are Q[f] with f sent to D distinct slot
    values.  So the image of V lies in S exactly when V = a e_0 + b N
    with a, b in Z_(l).  D = 2 needs no other case: there f_j = N - 1
    for j != 0."""
    split = orbit_split(coords)
    return split is not None and all(den % ell for _, den in split)


REALIZED_WITNESS = "realized-witness"
NON_PRIMARY = "non-primary"
PRIMARY_SMALL_NONDIAG = "primary-small-nondiagonalizable"
PRIMARY_SMALL_DIAG = "primary-small-diagonalizable"
DEGREE_N = "degree-n"

BUCKETS = (REALIZED_WITNESS, NON_PRIMARY, PRIMARY_SMALL_NONDIAG, PRIMARY_SMALL_DIAG, DEGREE_N)


def case_bucket(ct: ClassType, ps: ParameterSet) -> str:
    if len(ct.factors) > 1:
        return NON_PRIMARY
    poly, lam = ct.factors[0]
    if poly.degree == ps.n:
        return DEGREE_N
    if poly.degree == 1 and not (poly.coeffs[0] + poly.field.one) and lam == (ps.n,):
        # polynomial is x - 1 with a single full-size block
        return REALIZED_WITNESS
    if all(part == 1 for part in lam):
        return PRIMARY_SMALL_DIAG
    return PRIMARY_SMALL_NONDIAG


class CaseReport(
    namedtuple("CaseReport", "bucket_counts in_s witness_label witness_key witness_unit")
):
    """What ``case_analysis`` found; ``in_s`` holds, per key, whether its
    vector lies in S (``s_membership``)."""

    __slots__ = ()


def case_analysis(ps: ParameterSet, classes, labels, key_of, coords) -> CaseReport:
    """classes in census order with their labels, rendered once by the
    caller for the failure witnesses, their key indices from
    ``group_classes``, and coords[k] the ``orbit_coordinates`` V of key
    k.  Checks the per-bucket shape of every class's vector, read off
    V: S-membership is asserted on the non-primary and both small-degree
    primary buckets, recorded per key (but deliberately not asserted
    either way) on the degree-n bucket, and the witness bucket must
    consist of the single regular-unipotent class whose vector is
    (0, u*l^r, ..., u*l^r) with u an l-unit: slot 0 is 0 and V = a 1 +
    b N (``orbit_split``) with ord_l a = r, u = a / l^r.  Non-primary
    cuspidal slots vanish iff a = 0.  Buckets are read per class, as
    x - 1 shares its key with the other linear factors.
    """
    ps = require_reduced(ps)
    counts = {b: 0 for b in BUCKETS}
    witness = (None, None, None)
    in_s = [s_membership(v, ps.ell) for v in coords]
    splits = [orbit_split(v) for v in coords]
    for ct, label, k in zip(classes, labels, key_of):
        split, flag = splits[k], in_s[k]
        bucket = case_bucket(ct, ps)
        counts[bucket] += 1
        if bucket == REALIZED_WITNESS:
            if steinberg_slot(coords[k], ps)[0]:
                raise AssertionFailure(
                    "witness vector has nonzero Steinberg slot", witness=label
                )
            if split is None:
                raise AssertionFailure(
                    "witness vector is not constant on cuspidal slots", witness=label
                )
            if not split[0][0]:
                raise AssertionFailure("witness vector vanishes on cuspidal slots", witness=label)
            if ord_frac(split[0], ps.ell) != ps.r:
                raise AssertionFailure(
                    f"witness valuation is {ord_frac(split[0], ps.ell)}, expected r = {ps.r}",
                    witness=label,
                )
            witness = (label, k, ratio(split[0][0], split[0][1] * ps.ell_power))
        elif bucket == NON_PRIMARY:
            if split is None or split[0][0]:
                raise AssertionFailure(
                    "cuspidal slots must vanish on a non-primary class", witness=label
                )
            if not flag:
                raise AssertionFailure(
                    "non-primary class outside S", witness=label
                )
        elif bucket in (PRIMARY_SMALL_DIAG, PRIMARY_SMALL_NONDIAG):
            if not flag:
                raise AssertionFailure(
                    f"{bucket} class outside S", witness=label
                )
    if counts[REALIZED_WITNESS] != 1:
        raise AssertionFailure(
            f"expected exactly one realized-witness class, found {counts[REALIZED_WITNESS]}"
        )
    return CaseReport(counts, in_s, *witness)


def lemma_signs_check(ps: ParameterSet) -> list:
    """For every factorization n = v * d the unit
    prod_{k=1}^{v-1}(q^{dk} - 1) / v must be congruent to
    q^(n(v-1)/2) mod l^r.  Checked as ord_l(lhs - rhs) >= r.  Each row
    holds lhs and rhs as ``(num, den)`` pairs."""
    ps = require_reduced(ps)
    out = []
    for v in range(1, ps.n + 1):
        if ps.n % v:
            continue
        d = ps.n // v
        lhs = ratio(prod(ps.q ** (d * k) - 1 for k in range(1, v)), v)
        rhs = (ps.q ** (ps.n * (v - 1) // 2), 1)
        diff = lhs[0] - rhs[0] * lhs[1]  # (lhs - rhs) times lhs's denominator
        if diff != 0 and ord_frac((diff, lhs[1]), ps.ell) < ps.r:
            raise AssertionFailure(
                f"sign congruence fails at (v, d) = ({v}, {d})",
                witness={"lhs": ratio_str(*lhs), "rhs": ratio_str(*rhs)},
            )
        out.append({"v": v, "d": d, "lhs": lhs, "rhs": rhs})
    return out


def gamma_vector(ps: ParameterSet) -> BlockVector:
    """Slot 0 carries n; slot i carries sum_k zeta^(i q^k)."""
    return theta_orbit_vector(ps, 1)


def theta_orbit_vector(ps: ParameterSet, j: int) -> BlockVector:
    """Expected action vector of a degree-n class with theta exponent j,
    the image of f_j: slot 0 is n, slot i is sum_k zeta^(i j q^k)."""
    ps = require_reduced(ps)
    return coordinate_image(theta_coordinates(ps, j), ps)


def reconstruct_scaled_idempotent(ps: ParameterSet, witness, unit) -> BlockVector:
    """From the orbit coordinates V = u l^r 1 - u N of the
    regular-unipotent delta, whose shape ``case_analysis`` has checked
    and whose unit u, a ``(num, den)`` pair, it returns, rebuild l^r *
    e_0 = l^r * 1 - (1/u) * V and return its image.  With u an l-unit,
    that is N, with image (l^r, 0, ..., 0), exactly when the witness has
    the shape above."""
    ps = require_reduced(ps)
    if ord_frac(unit, ps.ell) != 0:
        raise AssertionFailure(f"witness unit {ratio_str(*unit)} is not an l-unit")
    (u, ud), (nums, den) = unit, witness
    idem = [-x * ud for x in nums]  # -V / u over den u
    idem[0] += ps.ell_power * den * u
    idem = lowest_terms(idem, den * u)
    if idem != ((1,) * len(nums), 1):
        raise AssertionFailure(
            "scaled idempotent has the wrong shape", witness=repr(coordinate_image(idem, ps))
        )
    return BlockVector(ps.ell, ps.r, block_slots(ps), [ps.ell_power] + [0] * (len(nums) - 1))


def reconstruct_gamma(ps: ParameterSet, ct: ClassType, coords) -> dict:
    """Chain of moves recovering the theta-orbit vector of a degree-n
    class from the orbit coordinates V of its delta vector: W = V / unit
    minus the l-integral multiple c of N (the scaled idempotent) that
    corrects the ``steinberg_slot`` w0 of W to n must be f_j, j the
    class's theta exponent.  These are the slot moves, by the
    injectivity in ``s_membership``; w0 is rational as V is.

    Apart from failure messages, the result depends on the class only
    through ``ct.type_key``, its theta exponent and ``coords``, which is
    itself a function of those two.  The unit, w0 and c are ``(num,
    den)`` pairs."""
    ps = require_reduced(ps)
    unit = ratio(ct.class_size() * (-1) ** (ps.n - 1), cuspidal_dimension(ps))
    if ord_frac(unit, ps.ell) != 0:
        raise AssertionFailure(
            f"|C|/dim is not an l-unit on {ct.label()}", witness=ratio_str(*unit)
        )
    nums, den = coords
    w_nums, w_den = lowest_terms([x * unit[1] for x in nums], den * unit[0])
    w0 = steinberg_slot((w_nums, w_den), ps)
    c = ratio(w0[0] - ps.n * w0[1], w0[1] * ps.ell_power)
    if ord_frac(c, ps.ell) < 0:
        raise AssertionFailure(
            f"idempotent correction {ratio_str(*c)} is not l-integral on {ct.label()}"
        )
    candidate = lowest_terms([x * c[1] - c[0] * w_den for x in w_nums], w_den * c[1])
    j = theta_exponent(ct, ps)
    if candidate != theta_coordinates(ps, j):
        got, expected = coordinate_image(candidate, ps), theta_orbit_vector(ps, j)
        raise AssertionFailure(
            f"reconstruction of {ct.label()} missed its theta-orbit vector",
            witness={"got": repr(got), "expected": repr(expected)},
        )
    return {
        "theta_exponent": j,
        "unit": unit,
        "steinberg_slot": w0,
        "correction": c,
    }


def express_all_in_gamma(vecs, ring: InvariantRingData) -> tuple[list, list]:
    """(certificates, columns): for each distinct tuple V of orbit
    coordinates (``orbit_coordinates``) the unique h with deg h < D and
    h(f) = V, as an l-integral polynomial, and for each of ``vecs`` the
    index of its h; IntegralityFailure if any h is not l-integral.

    Column k of the basis matrix M, built here, its one reader, holds
    the orbit coordinates of f^k (``power_coordinates``), so M y = V is
    the group-ring identity h(f) = V with h = sum_k y_k Y^k.  The map to
    the slots sends f to gamma, so h(gamma) is the image of V: the delta
    vector.  One elimination of M solves every distinct V, once.
    ``invariant_ring`` certifies M in GL_D(Z_(l)), so h is l-integral
    exactly when V is; the check stays explicit."""
    column_of = {}
    columns = [column_of.setdefault(v, len(column_of)) for v in vecs]
    rows = tuple(zip(*power_coordinates(ring.times_f, ring.dimension)))
    sols = solve_columns(rows, [nums for nums, _ in column_of])
    # M y = nums / den is solved as M (den y) = nums
    out = [Poly(y, y_den * den) for (y, y_den), (_, den) in zip(sols, column_of)]
    if not all(h.is_ell_integral(ring.ps.ell) for h in out):
        raise IntegralityFailure("gamma-certificate is not l-integral")
    return out, columns


def express_in_gamma(vec, ring: InvariantRingData) -> Poly:
    """``express_all_in_gamma`` for a single vector."""
    return express_all_in_gamma([vec], ring)[0][0]


def gamma_power_basis(gamma: BlockVector, count: int):
    """[1, gamma, gamma^2, ...] multiplied out in Q(zeta): the tests'
    referee for the images of f^k, and the gamma system of
    ``perfbench/kernels.py``."""
    reps = gamma.reps
    ell, r = gamma.ell, gamma.r
    powers = [BlockVector(ell, r, reps, [1] * len(reps))]
    while len(powers) < count:
        prev = powers[-1]
        powers.append(
            BlockVector(ell, r, reps, [a * b for a, b in zip(prev.entries, gamma.entries)])
        )
    return powers


def _zero_slots(rows) -> list[bool]:
    """Per slot, whether the product of these ``factor_values`` rows
    vanishes there."""
    return [any(e.is_zero() for e in col) for col in zip(*rows)]


def minimality_certificate(ring: InvariantRingData, gamma: BlockVector, values: tuple) -> dict:
    """Proof that m is THE minimal polynomial of gamma acting on the
    block: the D slot values are pairwise distinct (so any annihilating
    polynomial has degree >= D), deg m = D, and m(gamma) = 0.  As a
    cross-check, dropping any single irreducible factor of m, that is
    taking the product of the others, leaves a polynomial that no longer
    kills gamma.  Both are read off the zero pattern of ``values``."""
    d = ring.dimension
    if ring.m.degree != d:
        raise AssertionFailure(f"deg m = {ring.m.degree} but there are {d} slots")
    for a in range(d):
        for b in range(a + 1, d):
            if gamma.entries[a] == gamma.entries[b]:
                raise AssertionFailure(
                    f"gamma slots {gamma.reps[a]} and {gamma.reps[b]} coincide"
                )
    if not all(_zero_slots(values)):
        raise AssertionFailure("m(gamma) != 0")
    dropped = []
    for k, factor in enumerate(ring.m_factors):
        if all(_zero_slots(values[:k] + values[k + 1 :])):
            raise AssertionFailure(
                f"m/{factor!r} still annihilates gamma — m is not minimal"
            )
        dropped.append(repr(factor))
    return {"degree": d, "distinct_slots": True, "proper_divisors_checked": dropped}


def g_of_gamma_check(ring: InvariantRingData, values: tuple) -> dict:
    """g = m / (Y - n), the product of the factors after Y - n, must
    vanish on every cuspidal slot while its Steinberg value g(n) has
    l-valuation exactly r, read off ``values``: the zero pattern of its
    rows after the first, and the product of their slot-0 entries."""
    ps = ring.ps
    rows = values[1:]
    for slot, zero in zip(ring.orbits.reps[1:], _zero_slots(rows)[1:]):
        if not zero:
            raise AssertionFailure(f"g(gamma) nonzero at cuspidal slot {slot}")
    g_n = prod(row[0] for row in rows).canonical()
    if g_n.level or g_n.is_zero():
        raise AssertionFailure("g(n) must be a nonzero rational")
    g_n = (g_n.nums[0], g_n.den)
    if ord_frac(g_n, ps.ell) != ps.r:
        raise AssertionFailure(
            f"ord_l g(n) = {ord_frac(g_n, ps.ell)}, expected r = {ps.r}"
        )
    g = prod(ring.m_factors[1:], start=Poly((1,)))
    return {"g": repr(g), "g_at_n": g_n, "valuation": ps.r}


class EndoRingResult(
    namedtuple(
        "EndoRingResult",
        "params_input params ring classes labels key_of coordinates case_report signs"
        " scaled_idempotent idempotent_unit gamma minimality reconstructions"
        " certificates certificate_of g_report checks",
    )
):
    """The classes in census order with their ``labels`` and
    ``group_classes`` index ``key_of``.  Per-class results are lists by
    key: ``coordinates``, ``case_report.in_s``, ``reconstructions``
    (None off the l-singular degree-n keys) and ``certificate_of``, an
    index into the distinct ``certificates``."""

    __slots__ = ()


def verify_endo_ring(
    q: int, ell: int, n: int, d: int = 1, scale_bound: int = 10**6
) -> EndoRingResult:
    """Full pipeline: validate and reduce parameters, build the
    invariant ring, enumerate classes, compute and classify all delta
    vectors, reconstruct the generator, and certify the presentation."""
    ps_input = validate_parameters(q, ell, n, d)
    ps = reduce_parameters(ps_input)
    checks = []

    ring = invariant_ring(ps)
    checks.append("invariant-ring: basis change and min poly verified")
    for level in range(1, ps.r + 1):
        uniformizer_check(ps, level)
    checks.append("uniformizer: nu(omega - n) = n at every level")
    pullback_mod_ell_check(ps)
    checks.append("pullback: (X-1)-multiplicity equals n mod l")

    field = finite_field(ps.q)
    classes = enumerate_classes(field, ps.n, scale_bound)
    firsts, key_of = group_classes(classes, ps)
    labels = [ct.label() for ct in classes]  # each label rendered once
    preds = [class_predicates(ct, ps) for ct in firsts]
    checks.append(f"classes: {len(classes)} types, centralizer orders verified")

    forms = [delta_form(ct, ps) for ct in firsts]
    for ct, form in zip(firsts, forms):
        check_form(ct, form, ps)
    coords = [orbit_coordinates(form, ps) for form in forms]
    checks.append("delta: all vectors l-integral and residue-consistent")

    case_report = case_analysis(ps, classes, labels, key_of, coords)
    checks.append("case analysis: bucket shapes verified")
    signs = lemma_signs_check(ps)
    checks.append("sign congruences: all divisor pairs verified")

    scaled_idem = reconstruct_scaled_idempotent(
        ps, coords[case_report.witness_key], case_report.witness_unit
    )
    checks.append("scaled idempotent reconstructed from the witness class")

    gamma = gamma_vector(ps)
    values = factor_values(ring)
    minimality = minimality_certificate(ring, gamma, values)
    checks.append("gamma: minimal polynomial certified")

    big = finite_field(ps.q**ps.n)
    eps, r_found = sylow_generator(big, ps.ell)
    if r_found != ps.r:
        raise AssertionFailure("Sylow depth mismatch in the big field")
    eps_poly = minimal_polynomial(eps, field)
    reconstructions = [
        reconstruct_gamma(ps, ct, coords[k])
        if case_bucket(ct, ps) == DEGREE_N and not preds[k]["ell_regular"]
        else None
        for k, ct in enumerate(firsts)
    ]
    replayed = sum(reconstructions[k] is not None for k in key_of)
    eps_recs = [
        reconstructions[k]
        for ct, k in zip(classes, key_of)
        if reconstructions[k] is not None and ct.factors[0][0] == eps_poly
    ]
    if not eps_recs:
        raise AssertionFailure("no class carries the canonical Sylow generator")
    gamma_coords = theta_coordinates(ps, 1)
    if any(theta_coordinates(ps, rec["theta_exponent"]) != gamma_coords for rec in eps_recs):
        raise AssertionFailure("class of the canonical Sylow generator does not rebuild gamma")
    checks.append(f"gamma reconstruction: {replayed} l-singular classes replayed")

    certificates, certificate_of = express_all_in_gamma(coords, ring)
    checks.append("closure: every delta vector is an l-integral polynomial in gamma")

    g_report = g_of_gamma_check(ring, values)
    checks.append("g = m/(Y - n): vanishes on cuspidal slots, ord g(n) = r")

    return EndoRingResult(
        params_input=ps_input,
        params=ps,
        ring=ring,
        classes=classes,
        labels=labels,
        key_of=key_of,
        coordinates=coords,
        case_report=case_report,
        signs=signs,
        scaled_idempotent=scaled_idem,
        idempotent_unit=case_report.witness_unit,
        gamma=gamma,
        minimality=minimality,
        reconstructions=reconstructions,
        certificates=certificates,
        certificate_of=certificate_of,
        g_report=g_report,
        checks=tuple(checks),
    )
