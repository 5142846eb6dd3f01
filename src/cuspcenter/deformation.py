"""Point-level checks of the two-generator matrix deformation ring and
emission of the center presentation.

A point is a pair of n x n matrices: Psi over Q(zeta_{l^r}), diagonal
with entries zeta^(a q^i), and Fr over Z, supported on the cyclic shift
with configurable unit entries, chosen so that Fr Psi Fr^{-1} = Psi^q
holds exactly.  Writing Y for the trace of Psi and T_1..T_n for the
characteristic-polynomial coefficients of Fr, every point must satisfy
m(Y) = 0 and (Y - n) T_k = 0 for k < n, with T_n invertible — the
relations of the presentation

    W[Y, T_1, ..., T_{n-1}, T_n^{+-1}] / ( m(Y), (Y - n) T_k ).

Psi and Y depend on a alone, and Fr, its characteristic polynomial
and det Fr on the units alone, so each side is built and checked on
its own, Fr and its T-values in plain ints.  Y is the image of f under
the ring map X -> zeta^a, so h(Y) is the image of h(f) for each listed
factor h of m, the cell of ``invariants.factor_values`` at a's slot,
the table that ``endo-ring`` reads too; Q(zeta) is a field, so
m(Y) = 0 exactly when one of them vanishes.  The commutation
relation factors too: Fr's entries are nonzero integers and Q(zeta) is
a field, so it holds exactly when Psi's diagonal is the q-power ladder,
checked once per a on the exponents of zeta, and every unit is nonzero,
checked once per unit assignment.  The T_k relations read a only
through whether a != 0, so they are checked once per unit assignment,
at a = 1, on integers.
``make_point`` and ``check_relations`` compose the same helpers for one
point that ``deformation_suite`` runs once per side.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

from .arith import ord_int
from .cyclotomic import CyclotomicNumber, zeta
from .errors import AssertionFailure, ParameterError, RelationFailure
from .invariants import InvariantRingData, factor_values, orbit_sums
from .matrices import charpoly
from .params import ParameterSet, require_reduced
from .polynomials import Poly


class DeformationPoint(NamedTuple):
    ps: ParameterSet
    zeta_exponent: int
    units: tuple
    psi_diagonal: tuple           # zeta^(a q^i), i = 0..n-1
    fr: tuple                     # int entries
    trace: CyclotomicNumber       # Y-coordinate
    t_values: tuple               # (T_1, ..., T_n), ints


def _psi_side(ps: ParameterSet, a: int) -> tuple:
    """(diagonal of Psi, diagonal of Psi^q, trace Y), the diagonals as
    the exponents a q^i and a q^(i+1) mod l^r of zeta at level r.
    Y = sum_i zeta^(a q^i) is the orbit sum of a."""
    m = ps.ell_power
    ladder = tuple(a * pow(ps.q, i, m) % m for i in range(ps.n + 1))
    return ladder[:-1], ladder[1:], orbit_sums(ps)[a]


def _fr_side(ps: ParameterSet, units: tuple) -> tuple:
    """(Fr, (T_1, ..., T_n)) over Z: row i of Fr holds units[j] in
    column j = i + 1 mod n, and T_k is the coefficient of Y^(n-k) in
    det(Y I - Fr).  Every unit must be nonzero: Fr must be invertible,
    and ``_check_commutation`` relies on it."""
    n = ps.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        if units[j] == 0:
            raise ParameterError(f"unit entry {j} of Fr is zero; units must be nonzero")
        rows[i][j] = units[j]
    fr = tuple(tuple(row) for row in rows)
    char = charpoly(fr, 0, 1)
    return fr, tuple(char[n - k] for k in range(1, n + 1))


def _check_commutation(a: int, diagonal: tuple, diagonal_q: tuple) -> None:
    """Fr Psi = Psi^q Fr for every Fr that ``_fr_side`` builds.  Psi and
    Psi^q are diagonal, so both sides vanish off Fr's support, and at
    Fr's entry (i, j), j = i + 1 mod n, they read f Psi[j][j] and
    Psi^q[i][i] f.  ``_fr_side`` has checked f != 0, Q(zeta) is a field
    and zeta has order l^r, so they agree exactly when the exponents of
    Psi[j][j] and Psi^q[i][i] are equal."""
    n = len(diagonal)
    for i in range(n):
        j = (i + 1) % n
        if diagonal[j] != diagonal_q[i]:
            raise RelationFailure(f"Fr Psi != Psi^q Fr at entry ({i}, {j}) for a = {a}")


def _check_trace(a: int, trace, ps: ParameterSet, values: list) -> None:
    """The relations on Y alone: m(Y) = 0, and Y = n at a = 0.  Y is the
    image of f under the ring map X -> zeta^a (``orbit_sums``), so h(Y)
    is the image of h(f) under that map for each factor h of m, and
    ``values`` holds them, the column of ``factor_values`` at a's slot;
    m(Y), their product, vanishes iff one of them does."""
    if not any(v.is_zero() for v in values):
        raise AssertionFailure(
            f"generator m(Y) does not vanish at a = {a}", witness=repr(prod(values))
        )
    if a == 0 and not (trace - ps.n).is_zero():
        raise AssertionFailure("generator Y - n does not vanish at a = 0")


def _check_det(units: tuple, t_values: tuple) -> None:
    """T_n = (-1)^n det Fr, and det Fr is the n-cycle's sign times the
    product of the unit entries."""
    n = len(units)
    expected = (-1) ** (n - 1)
    for u in units:
        expected *= u
    det_fr = t_values[n - 1] * (-1) ** n
    if det_fr != expected:
        raise AssertionFailure(
            "det Fr is not the signed product of the free unit entries",
            witness={"expected": expected, "got": repr(det_fr)},
        )


def _check_t_values(a: int, ell: int, t_values: tuple) -> None:
    """The relations that need both sides: for a != 0, T_1..T_{n-1}
    vanish and T_n is an l-unit; (Y - n) T_k = 0 for every k < n.

    The product (Y - n) T_k is never formed, because one factor is
    already proved zero: for a != 0 this call proves T_k == 0 as an
    integer, and for a = 0 the caller has run ``_check_trace``, which
    proves Y - n = 0."""
    if not a:
        return
    n = len(t_values)
    for k in range(n - 1):
        if t_values[k]:
            raise AssertionFailure(
                f"generator T_{k + 1} nonzero at a = {a}", witness=repr(t_values[k])
            )
    if ord_int(t_values[n - 1], ell) != 0:
        raise AssertionFailure(f"T_{n} is not an l-unit at a = {a}")


def make_point(ps: ParameterSet, zeta_exponent: int, units=None) -> DeformationPoint:
    """Psi = diag(zeta^a, zeta^(aq), ..., zeta^(aq^(n-1))) and the
    cyclic-shift Fr with the given nonzero unit entries; the
    commutation relation Fr Psi = Psi^q Fr is asserted exactly.  Psi
    lives at level r, Fr and its T-values over Z."""
    ps = require_reduced(ps)
    units = (1,) * ps.n if units is None else tuple(units)
    if len(units) != ps.n:
        raise ParameterError(f"need n = {ps.n} unit entries, got {len(units)}")
    a = zeta_exponent % ps.ell_power
    diagonal, diagonal_q, trace = _psi_side(ps, a)
    fr, t_values = _fr_side(ps, units)
    _check_commutation(a, diagonal, diagonal_q)
    return DeformationPoint(
        ps=ps,
        zeta_exponent=a,
        units=units,
        psi_diagonal=tuple(zeta(ps.ell, ps.r, e) for e in diagonal),
        fr=fr,
        trace=trace,
        t_values=t_values,
    )


def check_relations(pt: DeformationPoint, ps: ParameterSet, ring: InvariantRingData) -> dict:
    """Assert every defining relation at the point, naming the violated
    generator on failure."""
    ps = require_reduced(ps)
    a = pt.zeta_exponent % ps.ell_power
    slot = ring.orbits.index[a]
    _check_trace(a, pt.trace, ps, [row[slot] for row in factor_values(ring)])
    _check_t_values(a, ps.ell, pt.t_values)
    _check_det(pt.units, pt.t_values)
    return {
        "zeta_exponent": pt.zeta_exponent,
        "units": pt.units,
        "trace": pt.trace,
        "t_values": pt.t_values,
    }


class CenterPresentation(NamedTuple):
    """Generators-and-relations form of the endomorphism ring with the
    deformation parameters adjoined: Y plus n T-variables, the last of
    them invertible."""

    min_poly: Poly
    n: int                       # Y acts by n on the Steinberg slot

    @property
    def generators(self) -> tuple:
        names = ["Y"]
        names += [f"T{k}" for k in range(1, self.n)]
        names.append(f"T{self.n}^(+-1)")
        return tuple(names)

    def describe(self) -> str:
        rels = [f"m(Y) = {self.min_poly!r}"]
        ts = ", ".join(f"T{k}" for k in range(1, self.n))
        if ts:
            rels.append(f"(Y - {self.n}) * ({ts})")
        gens = ", ".join(self.generators)
        return f"W[{gens}] / <{'; '.join(rels)}>"


def emit_center_presentation(ring: InvariantRingData) -> CenterPresentation:
    return CenterPresentation(min_poly=ring.m, n=ring.ps.n)


def deformation_suite(
    ps: ParameterSet, ring: InvariantRingData, unit_choices=(1, -1, 2)
) -> dict:
    """Every zeta-exponent with every unit assignment: check all
    relations, and confirm that the trace values sweep out exactly the
    root set of m.  Fr and its charpoly are built and checked once
    per unit assignment, Psi, its trace and the commutation relation
    once per a, and m(Y) = 0, read off the ``factor_values`` table,
    at the first a of each distinct trace, as a later a would repeat
    the same check.  The T_k relations depend on a only through
    whether a != 0, so they are checked once per unit assignment, right
    after the a = 1 side: a failure names the same first point and
    carries the same message as a check at every point would.  So every
    point (a, units), l^r * len(unit_choices)^n of them, has all its
    relations checked, and ``points_checked`` counts them."""
    ps = require_reduced(ps)
    t_sides = []
    for units in product(unit_choices, repeat=ps.n):
        _, t_values = _fr_side(ps, units)
        _check_det(units, t_values)
        t_sides.append(t_values)
    table, index = factor_values(ring), ring.orbits.index
    traces = set()
    for a in range(ps.ell_power):
        diagonal, diagonal_q, trace = _psi_side(ps, a)
        if trace not in traces:
            _check_trace(a, trace, ps, [row[index[a]] for row in table])
            traces.add(trace)
        _check_commutation(a, diagonal, diagonal_q)
        if a == 1:
            for t_values in t_sides:
                _check_t_values(a, ps.ell, t_values)
    if len(traces) != ring.m.degree:
        raise AssertionFailure(
            f"trace sweep produced {len(traces)} values, expected deg m = {ring.m.degree}"
        )
    return {
        "points_checked": ps.ell_power * len(t_sides),
        "distinct_traces": len(traces),
        "presentation": emit_center_presentation(ring).describe(),
    }
