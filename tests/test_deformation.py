"""Matrix deformation points and the emitted center presentation."""

from itertools import product
from math import prod

import pytest
from conftest import group_ring_poly_at_f, leibniz_charpoly, trace_powers

from cuspcenter import cli, deformation, invariants, matrices
from cuspcenter.arith import ord_frac
from cuspcenter.cyclotomic import CyclotomicNumber, zeta
from cuspcenter.deformation import (
    check_relations,
    deformation_suite,
    emit_center_presentation,
    make_point,
)
from cuspcenter.errors import (
    AssertionFailure,
    CuspCenterError,
    ParameterError,
    RelationFailure,
    ScaleLimit,
)
from cuspcenter.invariants import (
    at_zeta,
    invariant_ring,
    orbit_structure,
    orbit_sums,
    poly_at_f,
)
from cuspcenter.matrices import charpoly, mat_mul
from cuspcenter.params import validate_parameters
from cuspcenter.polynomials import Poly


def dense_point(ps, a, units):
    """The referee: the dense construction of a point -- full diagonal
    Psi and Psi^q, the commutation relation checked by two n^3 matrix
    products, and the Leibniz charpoly of Fr.  Returns (trace, T-values)."""
    n = ps.n
    zero = CyclotomicNumber.zero(ps.ell, ps.r)
    entries = [zeta(ps.ell, ps.r, a * pow(ps.q, i, ps.ell_power)) for i in range(n)]

    def diag(es):
        return tuple(tuple(es[i] if i == j else zero for j in range(n)) for i in range(n))

    psi, psi_q = diag(entries), diag([e**ps.q for e in entries])
    q_zero, q_one = CyclotomicNumber.zero(ps.ell), CyclotomicNumber.rational(ps.ell, 1)
    rows = [[q_zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i - 1][i] = CyclotomicNumber.rational(ps.ell, units[i])
    rows[n - 1][0] = CyclotomicNumber.rational(ps.ell, units[0])
    fr = tuple(tuple(row) for row in rows)
    lhs, rhs = mat_mul(fr, psi, zero), mat_mul(psi_q, fr, zero)
    assert all((lhs[i][j] - rhs[i][j]).is_zero() for i in range(n) for j in range(n))
    trace = zero
    for e in entries:
        trace = trace + e
    char = leibniz_charpoly(fr, q_zero, q_one)
    return trace, tuple(char[n - k] for k in range(1, n + 1))


def pointwise_commutation(a, diagonal, diagonal_q, fr):
    """The referee for the engine's once-per-a commutation check: at
    every entry (i, j) of Fr's support, Fr[i][j] Psi[j][j] and
    Psi^q[i][i] Fr[i][j] are multiplied out and compared."""
    n = len(fr)
    for i in range(n):
        j = (i + 1) % n
        f = fr[i][j]
        if f * diagonal[j] != diagonal_q[i] * f:
            raise RelationFailure(f"Fr Psi != Psi^q Fr at entry ({i}, {j}) for a = {a}")


def tamper_t_value(monkeypatch, k, change):
    """Make ``_fr_side`` return T_(k+1) + change(units), over Z and over
    Z[u_1..u_n] alike."""
    plain = deformation._fr_side

    def tampered(ps, units):
        fr, t_values = plain(ps, units)
        i = k % len(t_values)
        return fr, t_values[:i] + (t_values[i] + change(units),) + t_values[i + 1 :]

    monkeypatch.setattr(deformation, "_fr_side", tampered)


def vanishing_on_unit_choices(units):
    # nonzero in Z[u_1..u_n], zero wherever u_1 is 1, -1 or 2
    return (units[0] - 1) * (units[0] + 1) * (units[0] - 2)


def evaluate(t, units):
    """A T-value over Z[u_1..u_n], an int or a ``_ZPoly``, at
    u_i = units[i - 1]."""
    return sum(
        c * prod(u**k for u, k in zip(units, e)) for e, c in deformation._ZPoly.of(t).items()
    )


def per_point_suite(ps, ring, unit_choices=(1, -1, 2)):
    """The referee for the suite's identities: Fr's charpoly over Z at
    every unit assignment in ``product`` order, each checked by
    ``_check_det``, then the sweep over a with ``_check_t_values`` on
    every assignment at every a != 0.  Returns the points checked."""
    t_sides = []
    for units in product(unit_choices, repeat=ps.n):
        _, t_values = deformation._fr_side(ps, units)
        deformation._check_det(units, t_values)
        t_sides.append(t_values)
    table, index = invariants.factor_values(ring), ring.orbits.index
    for a in range(ps.ell_power):
        diagonal, diagonal_q, trace = deformation._psi_side(ps, a)
        deformation._check_trace(a, trace, ps, [row[index[a]] for row in table])
        deformation._check_commutation(a, diagonal, diagonal_q)
        for t_values in t_sides if a else ():
            deformation._check_t_values(a, ps.ell, t_values)
    return ps.ell_power * len(t_sides)


def logged_failure(monkeypatch, suite, ps, ring, unit_choices):
    """(type, message, witness, point) of the error ``suite`` raises,
    the point being the last integer unit assignment passed to
    ``_fr_side``, or ("t", a, i) for the i-th ``_check_t_values`` call
    at a."""
    log = []
    plain_fr, plain_t = deformation._fr_side, deformation._check_t_values

    def fr_side(ps, units):
        if not isinstance(units[0], deformation._ZPoly):
            log.append(units)
        return plain_fr(ps, units)

    def check_t_values(a, ell, t_values):
        log.append(("t", a, sum(e[0] == "t" and e[1] == a for e in log)))
        plain_t(a, ell, t_values)

    with monkeypatch.context() as patch:
        patch.setattr(deformation, "_fr_side", fr_side)
        patch.setattr(deformation, "_check_t_values", check_t_values)
        with pytest.raises(CuspCenterError) as exc:
            suite(ps, ring, unit_choices=unit_choices)
    err = exc.value
    return type(err), str(err), getattr(err, "witness", None), log[-1]


def test_p1_point_a1():
    ps = validate_parameters(2, 3, 2)
    pt = make_point(ps, 1)
    # trace = zeta + zeta^2 = -1
    assert pt.trace.as_rational() == -1
    # T_1 = trace of Fr = 0 for the pure shift
    assert pt.t_values[0] == 0
    # T_2 = (-1)^2 det Fr; shift with unit entries 1 has det -1
    assert pt.t_values[1] == -1
    ring = invariant_ring(ps)
    report = check_relations(pt, ps, ring)
    assert report["zeta_exponent"] == 1


def test_p1_point_a0():
    ps = validate_parameters(2, 3, 2)
    pt = make_point(ps, 0)
    assert pt.trace.as_rational() == 2  # Y = n on the Steinberg sheet
    ring = invariant_ring(ps)
    check_relations(pt, ps, ring)


def test_p2_point_a3():
    ps = validate_parameters(2, 7, 3)
    ring = invariant_ring(ps)
    pt = make_point(ps, 3)
    # trace is the second Gauss period; m kills it
    assert ring.m(pt.trace).is_zero()
    assert pt.t_values[0] == 0  # T_1
    assert pt.t_values[1] == 0  # T_2
    assert ord_frac(pt.t_values[2], ps.ell) == 0  # T_3 is an l-unit
    check_relations(pt, ps, ring)


def test_units_enter_determinant():
    ps = validate_parameters(2, 7, 3)
    pt = make_point(ps, 1, units=(2, -1, 1))
    # n = 3: det Fr = product of units = -2 (3-cycle is even), and
    # T_3 = (-1)^n det Fr = 2
    assert pt.t_values[2] == 2
    ring = invariant_ring(ps)
    check_relations(pt, ps, ring)


def test_commutation_relation_is_tight():
    # a wrong diagonal (not the q-power ladder) must be rejected by the
    # engine's own once-per-a commutation check
    ps = validate_parameters(2, 3, 2)
    pt = make_point(ps, 1)
    assert pt.psi_diagonal == (zeta(3, 1, 1), zeta(3, 1, 2))
    diagonal, diagonal_q, _ = deformation._psi_side(ps, 1)
    assert (diagonal, diagonal_q) == ((1, 2), (2, 1))  # exponents of zeta, mod 3
    deformation._check_commutation(1, diagonal, diagonal_q)
    bad = (1, 1)  # should be (zeta, zeta^q) = (zeta, zeta^2)
    with pytest.raises(RelationFailure, match=r"at entry \(0, 1\) for a = 1"):
        deformation._check_commutation(1, bad, (2, 2))


@pytest.mark.parametrize("q,ell,n", [(2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4)])
def test_commutation_matches_pointwise_referee(q, ell, n):
    # at the golden sizes the once-per-a check agrees with the per-point
    # products on every point, and on a diagonal shifted out of the
    # q-power ladder both raise the same message
    # the engine compares exponents of zeta; the referee multiplies the
    # zeta values built from them, with Psi^q's diagonal raised to q
    ps = validate_parameters(q, ell, n)
    frs = [deformation._fr_side(ps, units)[0] for units in product((1, -1, 2), repeat=n)]

    def zetas(exponents):
        return tuple(zeta(ps.ell, ps.r, e) for e in exponents)

    for a in range(ps.ell_power):
        diagonal, diagonal_q, _ = deformation._psi_side(ps, a)
        psi = zetas(diagonal)
        psi_q = tuple(e**ps.q for e in psi)
        deformation._check_commutation(a, diagonal, diagonal_q)
        for fr in frs:
            pointwise_commutation(a, psi, psi_q, fr)
        if a:
            shifted = diagonal[1:] + diagonal[:1]
            with pytest.raises(RelationFailure) as engine:
                deformation._check_commutation(a, shifted, diagonal_q)
            for fr in frs:
                with pytest.raises(RelationFailure) as referee:
                    pointwise_commutation(a, zetas(shifted), psi_q, fr)
                assert str(referee.value) == str(engine.value)


def test_units_length_is_a_parameter_error():
    ps = validate_parameters(2, 7, 3)
    with pytest.raises(ParameterError):
        make_point(ps, 1, units=(1, 1))


def test_zero_unit_is_a_parameter_error():
    # Fr must be invertible, and the commutation check relies on nonzero
    # entries: a zero unit is refused as bad input, never checked
    ps = validate_parameters(2, 7, 3)
    with pytest.raises(ParameterError, match="unit entry 1 of Fr is zero"):
        make_point(ps, 1, units=(1, 0, 1))
    with pytest.raises(ParameterError):
        deformation_suite(ps, invariant_ring(ps), unit_choices=(1, 0))


@pytest.mark.parametrize("q,ell,n", [(2, 3, 2), (2, 7, 3), (4, 5, 2)])
def test_points_match_dense_referee(q, ell, n):
    ps = validate_parameters(q, ell, n)
    for a in range(ps.ell_power):
        for units in product((1, -1, 2), repeat=n):
            pt = make_point(ps, a, units)
            trace, t_values = dense_point(ps, a, units)
            assert pt.trace == trace
            assert pt.t_values == t_values


def test_suite_builds_each_side_once(monkeypatch):
    # (3,5,4): one charpoly, of the Fr whose units are indeterminates,
    # for all 3^4 unit assignments, and no dense products
    calls = {"charpoly": 0, "mat_mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(deformation, "charpoly", counted("charpoly", charpoly))
    for mod in (matrices, deformation):
        if hasattr(mod, "mat_mul"):
            monkeypatch.setattr(mod, "mat_mul", counted("mat_mul", mat_mul))
    ps = validate_parameters(3, 5, 4)
    report = deformation_suite(ps, invariant_ring(ps))
    assert calls == {"charpoly": 1, "mat_mul": 0}
    assert report["points_checked"] == 405


@pytest.mark.parametrize(
    "q,ell,n",
    [(2, 3, 2), (2, 7, 3), (8, 3, 2), (4, 5, 2), (3, 5, 4)],
)
def test_deformation_suite(q, ell, n):
    ps = validate_parameters(q, ell, n)
    ring = invariant_ring(ps)
    report = deformation_suite(ps, ring)
    assert report["points_checked"] == ps.ell_power * 3**n
    assert report["distinct_traces"] == ring.m.degree


def test_full_sweep_2_31_5():
    # the full l^r * 3^n sweep at the widest phi of the ladder (phi = 30)
    ps = validate_parameters(2, 31, 5)
    report = deformation_suite(ps, invariant_ring(ps))
    assert report["points_checked"] == 7533
    assert report["distinct_traces"] == 7


def test_full_sweep_3_7_6():
    # n = 6: one charpoly of a 6 x 6 Fr over Z[u_1..u_6] for its 3^6 unit assignments
    ps = validate_parameters(3, 7, 6)
    ring = invariant_ring(ps)
    report = deformation_suite(ps, ring)
    assert report["points_checked"] == 5103
    assert report["distinct_traces"] == ring.m.degree == 2


def test_full_sweep_2_73_9():
    # 73 * 3^9 points; the T relations are identities in Z[u_1..u_9]
    ps = validate_parameters(2, 73, 9)
    report = deformation_suite(ps, invariant_ring(ps))
    assert report["points_checked"] == 1436859
    assert report["distinct_traces"] == 9


def test_full_sweep_2_19_18():
    # 19 * 3^18 points, n = 18 indeterminates, one charpoly
    ps = validate_parameters(2, 19, 18)
    report = deformation_suite(ps, invariant_ring(ps))
    assert report["points_checked"] == 7360989291
    assert report["distinct_traces"] == 2


def test_t_relations_checked_once_per_unit_assignment(monkeypatch):
    # they read a only through a != 0 and hold as identities in
    # Z[u_1..u_4] at (3,5,4), so no assignment is checked on integers;
    # a T_1 that is nonzero as a polynomial but vanishes on {1, -1, 2}^4
    # replays the check once per assignment, 3^4 checks, all at a = 1,
    # while the report still counts all 5 * 3^4 points
    calls = []
    plain = deformation._check_t_values

    def counted(a, ell, t_values):
        calls.append(a)
        plain(a, ell, t_values)

    monkeypatch.setattr(deformation, "_check_t_values", counted)
    ps = validate_parameters(3, 5, 4)
    ring = invariant_ring(ps)
    assert deformation_suite(ps, ring)["points_checked"] == 405
    assert calls == []
    tamper_t_value(monkeypatch, 0, vanishing_on_unit_choices)
    report = deformation_suite(ps, ring)
    assert len(calls) == 81 and set(calls) == {1}
    assert report["points_checked"] == 405


def test_tampered_t_value_fails_at_the_first_point(monkeypatch):
    plain = deformation._fr_side

    def tampered(ps, units):
        fr, t_values = plain(ps, units)
        return fr, (t_values[0] + 1,) + t_values[1:]

    monkeypatch.setattr(deformation, "_fr_side", tampered)
    ps = validate_parameters(3, 5, 4)
    with pytest.raises(AssertionFailure, match=r"^generator T_1 nonzero at a = 1$"):
        deformation_suite(ps, invariant_ring(ps))


SETS_BY_N = {2: (2, 3, 2), 3: (2, 7, 3), 4: (3, 5, 4), 5: (2, 31, 5), 6: (3, 7, 6), 7: (2, 127, 7)}


@pytest.mark.parametrize("n", sorted(SETS_BY_N))
def test_symbolic_t_values_match_berkowitz_and_leibniz_at_every_assignment(n):
    # the suite's one charpoly, over Z[u_1..u_n], against Berkowitz over
    # Z at each of the 3^n assignments and the Leibniz sum over
    # Z[u_1..u_n], both evaluated there
    ps = validate_parameters(*SETS_BY_N[n])
    units = tuple(deformation._ZPoly({(0,) * i + (1,): 1}) for i in range(n))
    fr, t_poly = deformation._fr_side(ps, units)
    assert not any(t_poly[: n - 1])
    assert t_poly[n - 1] == deformation._ZPoly({(1,) * n: -1})
    char = leibniz_charpoly(fr, 0, 1)
    t_leibniz = tuple(char[n - k] for k in range(1, n + 1))
    for point in product((1, -1, 2), repeat=n):
        berkowitz = deformation._fr_side(ps, point)[1]
        assert tuple(evaluate(t, point) for t in t_poly) == berkowitz
        assert tuple(evaluate(t, point) for t in t_leibniz) == berkowitz


def test_sparse_ring_arithmetic():
    ring = deformation._ZPoly
    u1, u2 = ring({(1,): 1}), ring({(0, 1): 1})
    assert u1 * u2 == ring({(1, 1): 1}) and u2 * u2 * u1 == ring({(1, 2): 1})
    assert (u1 + 1) * (u1 - 1) == u1 * u1 - 1 == ring({(2,): 1, (): -1})
    assert not u1 - u1 and not 0 - u1 + u1 and not u1 * 0 and 3 - u1 == ring({(): 3, (1,): -1})
    assert evaluate(u1 * u2 * u2 - 2 * u1 + 5, (3, -2)) == 3 * 4 - 6 + 5
    assert u1 != 0 and ring.of(0) == ring() and ring.of(u1) is u1


# each tampers with _fr_side or returns the unit choices to sweep
MUTATIONS = {
    "T_1 + 1": lambda mp, ps: tamper_t_value(mp, 0, lambda units: 1),
    "T_2 + u_1 - 1": lambda mp, ps: tamper_t_value(mp, 1, lambda units: units[0] - 1),
    "T_n + u_2 - 1": lambda mp, ps: tamper_t_value(mp, -1, lambda units: units[1] - 1),
    "l divides a unit choice": lambda mp, ps: (1, -1, ps.ell),
    "zero unit choice": lambda mp, ps: (1, -1, 0),
}


@pytest.mark.parametrize("args", [(3, 5, 4), (2, 7, 3)])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_failed_identity_replays_to_the_referees_first_failing_point(monkeypatch, args, mutation):
    # a failed identity replays the check on integers: the same
    # exception type, message, witness and first failing point as the
    # referee that checks every point
    ps = validate_parameters(*args)
    ring = invariant_ring(ps)
    unit_choices = MUTATIONS[mutation](monkeypatch, ps) or (1, -1, 2)
    engine = logged_failure(monkeypatch, deformation_suite, ps, ring, unit_choices)
    referee = logged_failure(monkeypatch, per_point_suite, ps, ring, unit_choices)
    assert engine == referee


@pytest.mark.parametrize("k", [0, 1, -1])
def test_t_value_nonzero_as_a_polynomial_but_zero_at_every_assignment_passes(monkeypatch, k):
    # T_k + (u_1 - 1)(u_1 + 1)(u_1 - 2) fails its identity, and the
    # replay finds it zero at every assignment, as the referee does
    ps = validate_parameters(3, 5, 4)
    ring = invariant_ring(ps)
    tamper_t_value(monkeypatch, k, vanishing_on_unit_choices)
    assert deformation_suite(ps, ring)["points_checked"] == per_point_suite(ps, ring) == 405


# the check each mutation breaks, as the ScaleLimit names it at n = 18
FAILED_CHECK = {
    "T_1 + 1": "T_1..T_17 = 0",
    "T_2 + u_1 - 1": "T_1..T_17 = 0",
    "T_n + u_2 - 1": "T_18 = -u_1...u_18",
    "l divides a unit choice": "every unit choice is an l-unit",
    "zero unit choice": "no unit choice is zero",
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_failed_identity_past_the_scale_bound_raises_scale_limit_without_a_replay(
    monkeypatch, mutation
):
    # at (2,19,18) a replay would run 3^18 = 387 420 489 integer charpolys:
    # the suite refuses it after the one charpoly over Z[u_1..u_18]
    ps = validate_parameters(2, 19, 18)
    ring = invariant_ring(ps)
    unit_choices = MUTATIONS[mutation](monkeypatch, ps) or (1, -1, 2)
    calls = []
    plain = deformation._fr_side

    def logged(ps, units):
        calls.append(units)
        return plain(ps, units)

    monkeypatch.setattr(deformation, "_fr_side", logged)
    message = (
        f"deformation: the check '{FAILED_CHECK[mutation]}' fails, and replaying it takes"
        " 387420489 integer charpolys, one per unit assignment, above the scale bound 1000000"
    )
    with pytest.raises(ScaleLimit) as exc:
        deformation_suite(ps, ring, unit_choices=unit_choices)
    assert str(exc.value) == message
    assert len(calls) == 1 and isinstance(calls[0][0], deformation._ZPoly)


def test_replay_runs_up_to_the_scale_bound_and_refuses_past_it(monkeypatch):
    # (3,5,4) has 3^4 = 81 unit assignments: a bound of 81 replays them
    # to the referee's failure, 80 refuses the replay; the CLI passes
    # --scale-bound in, so the refusal exits 2
    ps = validate_parameters(3, 5, 4)
    ring = invariant_ring(ps)
    tamper_t_value(monkeypatch, 0, lambda units: 1)
    with pytest.raises(AssertionFailure, match=r"^generator T_1 nonzero at a = 1$"):
        deformation_suite(ps, ring, scale_bound=81)
    with pytest.raises(ScaleLimit, match=r"takes 81 integer charpolys"):
        deformation_suite(ps, ring, scale_bound=80)
    line = "deformation --q 3 --ell 5 --n 4 --out json --scale-bound"
    assert [cli.main([*line.split(), bound]) for bound in ("81", "80")] == [1, 2]


def test_sweep_makes_no_cyclotomic_product_per_point(monkeypatch):
    # at (3,5,4) three unit choices give 81 times the points of one, and
    # neither makes a CyclotomicNumber product: m(Y) is the image of m(f)
    # at each a, and every other relation compares integers or exponents
    ps = validate_parameters(3, 5, 4)
    ring = invariant_ring(ps)
    calls = []
    plain = CyclotomicNumber.__mul__

    def counted(self, other):
        calls.append(None)
        return plain(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted)
    counts = []
    for unit_choices in ((1,), (1, -1, 2)):
        calls.clear()
        report = deformation_suite(ps, ring, unit_choices=unit_choices)
        counts.append((report["points_checked"], len(calls)))
    assert counts == [(5, 0), (405, 0)]
    zeta(5, 1) * zeta(5, 1)  # the counter is live
    assert len(calls) == 1


def test_trace_relations_checked_once_per_distinct_trace(monkeypatch):
    # (2,31,5): 31 exponents a, but only deg m = 7 distinct traces
    calls = []
    plain = deformation._check_trace

    def counted(a, trace, ps, ring):
        calls.append(a)
        plain(a, trace, ps, ring)

    monkeypatch.setattr(deformation, "_check_trace", counted)
    ps = validate_parameters(2, 31, 5)
    ring = invariant_ring(ps)
    report = deformation_suite(ps, ring)
    assert len(calls) == ring.m.degree == report["distinct_traces"] == 7
    assert calls[0] == 0
    # each check runs at the first a with its trace
    traces = [make_point(ps, a).trace for a in range(ps.ell_power)]
    assert calls == [a for a in range(ps.ell_power) if traces[a] not in traces[:a]]


def test_suite_sums_no_polynomial_in_f_and_runs_no_horner_pass(monkeypatch):
    # (2,31,5): m = (Y - 5) m_1, and each of the 7 distinct traces reads
    # m(Y) = 0 off the images of the two factors that invariant_ring
    # keeps, mapped once per factor and slot by factor_values; no
    # polynomial in f is summed again
    ps = validate_parameters(2, 31, 5)
    ring = invariant_ring(ps)
    orbit_sums(ps)  # recall the traces, so only the factor table is counted
    assert len(ring.m_factors) == 2
    evaluated, maps, horner = [], [], []
    plain_at_f = invariants.poly_at_f
    plain_map, plain_call = invariants.at_zeta, Poly.__call__

    def at_f(h, rows, times_f):
        evaluated.append(h)
        return plain_at_f(h, rows, times_f)

    def at_zeta(ps, coords, level, exponent):
        maps.append(exponent)
        return plain_map(ps, coords, level, exponent)

    def call(self, x):
        horner.append(x)
        return plain_call(self, x)

    monkeypatch.setattr(invariants, "poly_at_f", at_f)
    monkeypatch.setattr(invariants, "at_zeta", at_zeta)
    monkeypatch.setattr(Poly, "__call__", call)
    report = deformation_suite(ps, ring)
    check_relations(make_point(ps, 3), ps, ring)
    assert evaluated == []
    reps = list(orbit_structure(ps).reps)
    assert maps == [a for _ in range(2) for a in reps] * 2  # suite, then one point
    assert report["distinct_traces"] == 7
    assert horner == []


@pytest.mark.parametrize("args", [(2, 31, 5), (3, 7, 6), (8, 3, 2)])
def test_m_of_y_reads_as_horner_over_q_zeta(args):
    # the referee: one Horner pass in Q(zeta) at every trace, for m and
    # for each m with one factor dropped, which is nonzero at some traces
    ps = validate_parameters(*args)
    ring = invariant_ring(ps)
    traces = [make_point(ps, a).trace for a in range(ps.ell_power)]
    factors = ring.m_factors
    polys = [ring.m] + [
        prod(factors[:k] + factors[k + 1 :], start=Poly((1,))) for k in range(len(factors))
    ]
    powers = trace_powers(ps)
    for h in polys:
        h_of_f = poly_at_f(h, ring.basis_matrix, ring.times_f)
        dense = group_ring_poly_at_f(h, powers)
        assert [at_zeta(ps, h_of_f, ps.r, a) for a in range(ps.ell_power)] == [
            h(y) for y in traces
        ] == [dense.at_zeta(ps.ell, ps.r, a) for a in range(ps.ell_power)]
    assert all(ring.m(y).is_zero() for y in traces)


def test_dropped_factor_of_m_fails_at_the_first_missed_root():
    # (8,3,2): m = (Y - 2) m_1 m_2; without m_1, from m, the listed
    # factors and their images, the first a whose trace is a root of m_1
    # fails, found here by trying every a
    ps = validate_parameters(8, 3, 2)
    ring = invariant_ring(ps)
    y_minus_n, _, m_2 = ring.m_factors
    image_0, _, image_2 = ring.factor_images
    broken = ring._replace(
        m=y_minus_n * m_2, m_factors=(y_minus_n, m_2), factor_images=(image_0, image_2)
    )
    first = next(
        a for a in range(ps.ell_power) if not broken.m(make_point(ps, a).trace).is_zero()
    )
    message = rf"^generator m\(Y\) does not vanish at a = {first}$"
    with pytest.raises(AssertionFailure, match=message):
        deformation_suite(ps, broken)
    with pytest.raises(AssertionFailure, match=message):
        check_relations(make_point(ps, first), ps, broken)


def test_factors_that_do_not_multiply_to_m_fail():
    # a factor dropped from the list alone: m(Y) = 0 would be read off
    # a product that is not m
    ps = validate_parameters(8, 3, 2)
    ring = invariant_ring(ps)
    broken = ring._replace(m_factors=ring.m_factors[:2], factor_images=ring.factor_images[:2])
    message = "^the listed factors of m do not multiply to m$"
    with pytest.raises(AssertionFailure, match=message):
        deformation_suite(ps, broken)
    with pytest.raises(AssertionFailure, match=message):
        check_relations(make_point(ps, 1), ps, broken)


def test_presentation_describe_p1():
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    pres = emit_center_presentation(ring)
    assert pres.generators == ("Y", "T1", "T2^(+-1)")
    text = pres.describe()
    assert text == "W[Y, T1, T2^(+-1)] / <m(Y) = -2 - Y + Y^2; (Y - 2) * (T1)>"


def test_presentation_describe_p2():
    ps = validate_parameters(2, 7, 3)
    ring = invariant_ring(ps)
    pres = emit_center_presentation(ring)
    assert pres.generators == ("Y", "T1", "T2", "T3^(+-1)")
    assert "(Y - 3) * (T1, T2)" in pres.describe()


def test_relation_failure_on_broken_point():
    # tamper with a point: claim zeta-exponent 0 but use the a=1 trace
    ps = validate_parameters(2, 3, 2)
    ring = invariant_ring(ps)
    good = make_point(ps, 1)
    bad = good._replace(zeta_exponent=0)
    with pytest.raises(AssertionFailure):
        check_relations(bad, ps, ring)
