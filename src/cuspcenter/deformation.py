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
its own, Fr once, over Z[u_1..u_n] with the units as indeterminates
(Berkowitz's recurrence divides by nothing).  Y is the image of f under
the ring map X -> zeta^a, so h(Y) is the image of h(f) for each listed
factor h of m, the cell of ``invariants.factor_values`` at a's slot,
the table that ``endo-ring`` reads too; Q(zeta) is a field, so
m(Y) = 0 exactly when one of them vanishes.  The commutation
relation factors too: Fr's entries are nonzero integers and Q(zeta) is
a field, so it holds exactly when Psi's diagonal is the q-power ladder,
checked once per a on the exponents of zeta, and every unit is nonzero.
The relations on Fr are proved as identities: T_n = -u_1...u_n before
the sweep over a, and T_1..T_{n-1} = 0 with every unit choice an
l-unit at a = 1, as they read a only through a != 0.  Only where one
fails is the per-assignment check on integers replayed there.
``make_point`` and ``check_relations`` compose the same helpers for one
point that ``deformation_suite`` runs once per side.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import prod
from operator import add

from .arith import ord_int
from .cyclotomic import zeta
from .errors import AssertionFailure, ParameterError, RelationFailure, ScaleLimit
from .invariants import InvariantRingData, factor_values, orbit_sums
from .matrices import charpoly
from .params import ParameterSet, require_reduced


class DeformationPoint(
    namedtuple("DeformationPoint", "ps zeta_exponent units psi_diagonal fr trace t_values")
):
    """One point: ``psi_diagonal`` holds zeta^(a q^i), i = 0..n-1, ``fr``
    the int entries of Fr, ``trace`` the Y-coordinate and ``t_values``
    the ints (T_1, ..., T_n)."""

    __slots__ = ()


def _psi_side(ps: ParameterSet, a: int) -> tuple:
    """(diagonal of Psi, diagonal of Psi^q, trace Y), the diagonals as
    the exponents a q^i and a q^(i+1) mod l^r of zeta at level r.
    Y = sum_i zeta^(a q^i) is the orbit sum of a."""
    m = ps.ell_power
    ladder = tuple(a * pow(ps.q, i, m) % m for i in range(ps.n + 1))
    return ladder[:-1], ladder[1:], orbit_sums(ps)[a]


class _ZPoly(dict):
    """Z[u_1, u_2, ...], for Fr's units as indeterminates: {exponent tuple
    without trailing zeros: nonzero int}, falsy exactly when zero, with
    +, - and * (ints coerced by ``of``) for ``_fr_side`` and ``charpoly``."""

    __slots__ = ()

    @classmethod
    def of(cls, x):
        return x if isinstance(x, cls) else cls({(): x} if x else {})

    def __add__(self, other):
        out = _ZPoly(self)
        for e, c in _ZPoly.of(other).items():
            out[e] = out.get(e, 0) + c
        return _ZPoly({e: c for e, c in out.items() if c})

    def __mul__(self, other):
        out = {}
        for e, c in self.items():
            for f, d in _ZPoly.of(other).items():
                g = tuple(map(add, e, f)) + (e[len(f):] or f[len(e):])
                out[g] = out.get(g, 0) + c * d
        return _ZPoly({g: c for g, c in out.items() if c})

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    __radd__, __rmul__ = __add__, __mul__


def _fr_side(ps: ParameterSet, units: tuple) -> tuple:
    """(Fr, (T_1, ..., T_n)) over Z, or Z[u_1..u_n] for ``_ZPoly`` units:
    row i of Fr holds units[j] in column j = i + 1 mod n, and T_k is the
    coefficient of Y^(n-k) in det(Y I - Fr).  Every unit must be nonzero:
    Fr must be invertible, and ``_check_commutation`` relies on it."""
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


class CenterPresentation(namedtuple("CenterPresentation", "min_poly n")):
    """Generators-and-relations form of the endomorphism ring with the
    deformation parameters adjoined: Y plus n T-variables, the last of
    them invertible.  Y acts by ``n`` on the Steinberg slot."""

    __slots__ = ()

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


def _replay_fr_sides(ps: ParameterSet, unit_choices: tuple, failed: str, scale_bound: int) -> list:
    """(T_1, ..., T_n) over Z at each unit assignment in ``product``
    order, each checked by ``_check_det``: the check at every point that
    ``deformation_suite`` replays where the check ``failed`` fails.
    More than ``scale_bound`` assignments raise ``ScaleLimit`` instead."""
    count = len(unit_choices) ** ps.n
    if count > scale_bound:
        raise ScaleLimit(
            f"deformation: the check '{failed}' fails, and replaying it takes {count} "
            f"integer charpolys, one per unit assignment, above the scale bound {scale_bound}"
        )
    t_sides = []
    for units in product(unit_choices, repeat=ps.n):
        _, t_values = _fr_side(ps, units)
        _check_det(units, t_values)
        t_sides.append(t_values)
    return t_sides


def deformation_suite(
    ps: ParameterSet, ring: InvariantRingData, unit_choices=(1, -1, 2), scale_bound: int = 10**6
) -> dict:
    """Every zeta-exponent with every unit assignment: check all
    relations, and confirm that the trace values sweep out exactly the
    root set of m.  Psi, its trace and the commutation relation are
    built and checked once per a, and m(Y) = 0 (``factor_values``) at
    the first a of each distinct trace.  Fr's charpoly is built once,
    over Z[u_1..u_n], and its relations are proved as identities where
    a check at every point would first run them: no unit choice is zero
    and T_n = -u_1...u_n before the a-loop; T_1..T_{n-1} = 0 and every
    unit choice is an l-unit at a = 1.  Where one fails,
    ``_replay_fr_sides`` replays the per-assignment check there, so a
    failure names the same first point with the same message, and a
    nonzero T_k that vanishes at every assignment passes; a replay of
    more than ``scale_bound`` assignments raises ``ScaleLimit``.
    ``points_checked`` counts all l^r * len(unit_choices)^n points."""
    ps = require_reduced(ps)
    n, unit_choices = ps.n, tuple(unit_choices)
    _, t_poly = _fr_side(ps, tuple(_ZPoly({(0,) * i + (1,): 1}) for i in range(n)))
    t_sides = None
    if 0 in unit_choices:
        t_sides = _replay_fr_sides(ps, unit_choices, "no unit choice is zero", scale_bound)
    elif t_poly[n - 1] != _ZPoly({(1,) * n: -1}):
        t_sides = _replay_fr_sides(ps, unit_choices, f"T_{n} = -u_1...u_{n}", scale_bound)
    table, index = factor_values(ring), ring.orbits.index
    traces = set()
    for a in range(ps.ell_power):
        diagonal, diagonal_q, trace = _psi_side(ps, a)
        if trace not in traces:
            _check_trace(a, trace, ps, [row[index[a]] for row in table])
            traces.add(trace)
        _check_commutation(a, diagonal, diagonal_q)
        if a == 1:
            if t_sides is None and any(t_poly[: n - 1]):
                failed = f"T_1..T_{n - 1} = 0"
                t_sides = _replay_fr_sides(ps, unit_choices, failed, scale_bound)
            elif t_sides is None and any(ord_int(u, ps.ell) for u in unit_choices):
                failed = "every unit choice is an l-unit"
                t_sides = _replay_fr_sides(ps, unit_choices, failed, scale_bound)
            for t_values in t_sides or ():
                _check_t_values(a, ps.ell, t_values)
    if len(traces) != ring.m.degree:
        raise AssertionFailure(
            f"trace sweep produced {len(traces)} values, expected deg m = {ring.m.degree}"
        )
    return {
        "points_checked": ps.ell_power * len(unit_choices) ** n,
        "distinct_traces": len(traces),
        "presentation": emit_center_presentation(ring).describe(),
    }
