"""Point-level checks of the two-generator matrix deformation ring and
emission of the center presentation.

A point is a pair of n x n matrices over Q(zeta_{l^r}): Psi diagonal
with entries zeta^(a q^i), and Fr supported on the cyclic shift with
configurable unit entries, chosen so that Fr Psi Fr^{-1} = Psi^q holds
exactly.  Writing Y for the trace of Psi and T_1..T_n for the
characteristic-polynomial coefficients of Fr, every point must satisfy
m(Y) = 0 and (Y - n) T_k = 0 for k < n, with T_n invertible — the
relations of the presentation

    W[Y, T_1, ..., T_{n-1}, T_n^{+-1}] / ( m(Y), (Y - n) T_k ).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cyclotomic import CyclotomicNumber, ell_valuation, zeta
from .errors import AssertionFailure, RelationFailure
from .invariants import InvariantRingData
from .matrices import charpoly, mat_mul
from .params import ParameterSet, require_reduced
from .polynomials import Poly


@dataclass(frozen=True)
class DeformationPoint:
    ps: ParameterSet
    zeta_exponent: int
    units: tuple
    psi: tuple
    fr: tuple
    trace: CyclotomicNumber       # Y-coordinate
    t_values: tuple               # (T_1, ..., T_n)


def _diag(entries, zero):
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
    )


def make_point(ps: ParameterSet, zeta_exponent: int, units=None) -> DeformationPoint:
    """Psi = diag(zeta^a, zeta^(aq), ..., zeta^(aq^(n-1))) and the
    cyclic-shift Fr with the given unit entries; the commutation
    relation Fr Psi = Psi^q Fr is asserted exactly.  Psi lives at level
    r, Fr and its T-values over Q (level 0)."""
    ps = require_reduced(ps)
    n = ps.n
    a = zeta_exponent % ps.ell_power
    if units is None:
        units = (1,) * n
    units = tuple(units)
    assert len(units) == n
    zero = CyclotomicNumber.zero(ps.ell, ps.r)

    diag_entries = [
        zeta(ps.ell, ps.r, a * pow(ps.q, i, ps.ell_power)) for i in range(n)
    ]
    psi = _diag(diag_entries, zero)

    q_zero = CyclotomicNumber.zero(ps.ell)
    q_one = CyclotomicNumber.rational(ps.ell, 1)
    unit_cyclo = [CyclotomicNumber.rational(ps.ell, u) for u in units]
    fr_rows = [[q_zero] * n for _ in range(n)]
    for i in range(1, n):
        fr_rows[i - 1][i] = unit_cyclo[i]
    fr_rows[n - 1][0] = unit_cyclo[0]
    fr = tuple(tuple(row) for row in fr_rows)

    psi_q = _diag([e**ps.q for e in diag_entries], zero)
    lhs = mat_mul(fr, psi, zero)
    rhs = mat_mul(psi_q, fr, zero)
    for i in range(n):
        for j in range(n):
            if not (lhs[i][j] - rhs[i][j]).is_zero():
                raise RelationFailure(
                    f"Fr Psi != Psi^q Fr at entry ({i}, {j}) for a = {a}"
                )

    trace = zero
    for e in diag_entries:
        trace = trace + e
    char = charpoly(fr, q_zero, q_one)      # c_0 .. c_n of det(Y I - Fr)
    t_values = tuple(char[n - k] for k in range(1, n + 1))
    return DeformationPoint(
        ps=ps,
        zeta_exponent=a,
        units=units,
        psi=psi,
        fr=fr,
        trace=trace,
        t_values=t_values,
    )


def check_relations(pt: DeformationPoint, ps: ParameterSet, ring: InvariantRingData) -> dict:
    """Assert every defining relation at the point, naming the violated
    generator on failure."""
    ps = require_reduced(ps)
    n = ps.n
    m = ring.m
    mval = m(pt.trace) * 1
    if not mval.is_zero():
        raise AssertionFailure(
            f"generator m(Y) does not vanish at a = {pt.zeta_exponent}",
            witness=repr(mval),
        )
    if pt.zeta_exponent % ps.ell_power:
        for k in range(n - 1):
            if not pt.t_values[k].is_zero():
                raise AssertionFailure(
                    f"generator T_{k + 1} nonzero at a = {pt.zeta_exponent}",
                    witness=repr(pt.t_values[k]),
                )
        if ell_valuation(pt.t_values[n - 1]) != 0:
            raise AssertionFailure(
                f"T_{n} is not an l-unit at a = {pt.zeta_exponent}"
            )
    else:
        diff = pt.trace - ps.n
        if not diff.is_zero():
            raise AssertionFailure("generator Y - n does not vanish at a = 0")
    # the full finite generator check of <m(Y)> + <Y-n><T_1..T_{n-1}>
    y_minus_n = pt.trace - ps.n
    for k in range(n - 1):
        prod = y_minus_n * pt.t_values[k]
        if not prod.is_zero():
            raise AssertionFailure(
                f"generator (Y - n) T_{k + 1} does not vanish at a = {pt.zeta_exponent}"
            )
    # T_n must be (up to the cycle sign) the product of the unit entries
    expected = 1
    for u in pt.units:
        expected *= u
    if (n - 1) % 2:
        expected = -expected
    det_fr = pt.t_values[n - 1] * ((-1) ** n)
    # det(Y I - Fr) at Y = 0 is (-1)^n det Fr, so T_n = (-1)^n det Fr
    if not (det_fr - expected).is_zero():
        raise AssertionFailure(
            "det Fr is not the signed product of the free unit entries",
            witness={"expected": expected, "got": repr(det_fr)},
        )
    return {
        "zeta_exponent": pt.zeta_exponent,
        "units": pt.units,
        "trace": pt.trace,
        "t_values": pt.t_values,
    }


@dataclass(frozen=True)
class CenterPresentation:
    """Generators-and-relations form of the endomorphism ring with the
    deformation parameters adjoined: Y plus t_count T-variables, the
    last of them invertible."""

    min_poly: Poly
    steinberg_eval: int          # Y acts by this on the Steinberg slot
    t_count: int
    style: str                   # "quotient-ideal" | "parameter-ideal"

    @property
    def generators(self) -> tuple:
        names = ["Y"]
        names += [f"T{k}" for k in range(1, self.t_count)]
        names.append(f"T{self.t_count}^(+-1)")
        return tuple(names)

    def relation_values(self, pt: DeformationPoint) -> list:
        """Evaluate each defining relation at a point; all must vanish."""
        y = pt.trace
        shift = y - self.steinberg_eval
        out = [("m(Y)", self.min_poly(y) * 1)]
        for k in range(1, self.t_count):
            name = (
                f"(Y - {self.steinberg_eval})*T{k}"
                if self.style == "quotient-ideal"
                else f"T{k}*(Y - {self.steinberg_eval})"
            )
            out.append((name, shift * pt.t_values[k - 1]))
        return out

    def describe(self) -> str:
        rels = [f"m(Y) = {self.min_poly!r}"]
        ts = ", ".join(f"T{k}" for k in range(1, self.t_count))
        if ts:
            rels.append(f"(Y - {self.steinberg_eval}) * ({ts})")
        gens = ", ".join(self.generators)
        return f"W[{gens}] / <{'; '.join(rels)}>"


def emit_center_presentation(
    ring: InvariantRingData, style: str = "quotient-ideal", t_count: int | None = None
) -> CenterPresentation:
    ps = ring.ps
    if t_count is None:
        t_count = ps.n
    return CenterPresentation(
        min_poly=ring.m,
        steinberg_eval=ps.n,
        t_count=t_count,
        style=style,
    )


def deformation_suite(
    ps: ParameterSet, ring: InvariantRingData, unit_choices=(1, -1, 2)
) -> dict:
    """Every zeta-exponent with every unit assignment: build the point,
    check all relations, and confirm that the trace values sweep out
    exactly the root set of m.  The two presentation styles differ only
    in how they write (Y - n) T_k, so their relations are exactly the
    ones check_relations asserts at every point."""
    ps = require_reduced(ps)
    styles = [
        emit_center_presentation(ring, "quotient-ideal"),
        emit_center_presentation(ring, "parameter-ideal"),
    ]
    traces = []
    points_checked = 0
    for a in range(ps.ell_power):
        for units in product(unit_choices, repeat=ps.n):
            pt = make_point(ps, a, units)
            check_relations(pt, ps, ring)
            points_checked += 1
        traces.append(pt.trace)  # Y depends on a alone, not on the units

    distinct = []
    for t in traces:
        if all(not (t - s).is_zero() for s in distinct):
            distinct.append(t)
    if len(distinct) != ring.m.degree:
        raise AssertionFailure(
            f"trace sweep produced {len(distinct)} values, expected deg m = {ring.m.degree}"
        )
    for t in distinct:
        if not (ring.m(t) * 1).is_zero():
            raise AssertionFailure("a trace value is not a root of m")
    return {
        "points_checked": points_checked,
        "distinct_traces": len(distinct),
        "presentation": styles[0].describe(),
        "styles": tuple(p.style for p in styles),
    }
