"""Acceptance gate.  One test per criterion; each prints a single
PASS line when its assertions (all exact, tolerance 0) hold.  Run as

    pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction

from cuspcenter.arith import ord_frac
from cuspcenter.centermap import (
    BUCKETS,
    DEGREE_N,
    NON_PRIMARY,
    PRIMARY_SMALL_DIAG,
    PRIMARY_SMALL_NONDIAG,
    REALIZED_WITNESS,
    block_slots,
    delta_class,
)
from cuspcenter.classes import enumerate_classes
from cuspcenter.cyclotomic import ell_valuation
from cuspcenter.deformation import deformation_suite
from cuspcenter.finitefield import finite_field
from cuspcenter.gl2table import (
    delta_equivalence_check,
    steinberg_cross_check,
)
from cuspcenter.invariants import (
    invariant_ring,
    orbit_structure,
    pullback_mod_ell_check,
)
from cuspcenter.matrixoracle import census_cross_check
from cuspcenter.params import validate_parameters

from conftest import (
    CASES,
    class_buckets,
    class_certificates,
    class_deltas,
    frac,
    omega_value,
    per_class,
    rationals,
    slot_s_membership,
)

EXPECTED_MIN_POLY = {
    "P1": (-2, -1, 1),
    "P2": (-6, -1, -2, 1),
    "P3": (-2, 5, 4, -5, -1, 1),
    "P4": (2, -3, -1, 1),
    "P5": (-4, -3, 1),
    "U4": (2, -3, -1, 1),
}


def test_criterion_1_pipeline(endo_results):
    """End-to-end pipeline on all six parameter sets, minimal
    polynomials matching the frozen expectations exactly."""
    for label in sorted(CASES):
        res = endo_results[label]
        got = tuple(res.ring.m.coeffs)
        want = tuple(Fraction(c) for c in EXPECTED_MIN_POLY[label])
        assert got == want, (label, got)
        # closure certificates exist for every class, one per key
        assert len(class_certificates(res)) == len(res.classes)
    print("PASS criterion-1 (tolerance 0): pipeline and minimal polynomials "
          "on P1-P5 and the unreduced twin")


def test_criterion_2_lemma_suite(params):
    """Orbit sizes, uniformizer valuations at every level, pullback
    multiplicity, degree formula, and the mod-l shape of m."""
    from math import comb

    from cuspcenter.params import reduce_parameters

    for label, ps_in in sorted(params.items()):
        ps = reduce_parameters(ps_in)
        orbits = orbit_structure(ps)
        assert all(len(o) == ps.n for o in orbits.orbits if o != (0,))
        for i in range(1, ps.r + 1):
            assert ell_valuation(omega_value(ps, i) - ps.n) == ps.n
        assert pullback_mod_ell_check(ps)["multiplicity"] == ps.n
        ring = invariant_ring(ps)
        d = ring.m.degree
        assert d == 1 + (ps.ell_power - 1) // ps.n
        binom = tuple(
            comb(d, k) * pow(-ps.n, d - k, ps.ell) % ps.ell for k in range(d + 1)
        )
        assert ring.m.reduce_mod(ps.ell) == binom
    print("PASS criterion-2 (tolerance 0): orbit/uniformizer/pullback/degree/"
          "mod-l lemma suite on all parameter sets")


def test_criterion_3_sign_congruences(endo_results):
    """Unit congruences for every divisor pair, with the two frozen
    spot values (the rows hold ``(num, den)`` pairs)."""
    for label, res in endo_results.items():
        for row in res.signs:
            diff = frac(row["lhs"]) - frac(row["rhs"])
            assert diff == 0 or ord_frac(diff, res.params.ell) >= res.params.r
    p1 = {(r["v"], r["d"]): r for r in endo_results["P1"].signs}
    assert p1[(2, 1)]["lhs"] == (1, 2) and p1[(2, 1)]["rhs"] == (2, 1)
    p2 = {(r["v"], r["d"]): r for r in endo_results["P2"].signs}
    assert p2[(3, 1)]["lhs"] == (1, 1) and p2[(3, 1)]["rhs"] == (8, 1)
    print("PASS criterion-3 (tolerance 0): sign congruences for all divisor "
          "pairs incl. frozen spots 1/2=2 (mod 3), 1=8 (mod 7)")


def test_criterion_4_oracle_equivalence(table2, table4, table8):
    """Brute-force censuses, character-table orthogonality, Steinberg
    sign formula, and delta equivalence table-vs-engine."""
    for q, n, count in ((2, 2, 3), (3, 2, 8), (4, 2, 15), (2, 3, 6)):
        field = finite_field(q)
        summary = census_cross_check(field, n, enumerate_classes(field, n))
        assert summary["class_count"] == count
    for table in (table2, table4, table8):
        assert steinberg_cross_check(table) == len(table.classes)
    for table, (q, ell) in ((table2, (2, 3)), (table4, (4, 5)), (table8, (8, 3))):
        ps = validate_parameters(q, ell, 2)
        reps = block_slots(ps)
        formula = {
            ct: delta_class(ct, ps)
            for ct in enumerate_classes(finite_field(q), 2)
        }
        checked = delta_equivalence_check(table, ps, formula)
        assert checked == len(formula) * len(reps)
    print("PASS criterion-4 (tolerance 0): censuses 3/8/15/6, Steinberg "
          "signs, and table-vs-engine delta equivalence for q = 2, 4, 8")


def test_criterion_5_case_analysis(endo_results):
    """Per-bucket vector shapes: witness uniqueness and valuation,
    vanishing cuspidal slots off primary, S-membership where asserted."""
    for label, res in endo_results.items():
        report = res.case_report
        ps = res.params
        assert report.bucket_counts[REALIZED_WITNESS] == 1
        assert sum(report.bucket_counts.values()) == len(res.classes)
        deltas = class_deltas(res)  # the slot vectors, an independent referee
        wit = deltas[report.witness_label]
        assert wit.entries[0].is_zero()
        tail = rationals(wit)[1:]
        assert all(v == tail[0] for v in tail)
        assert ord_frac(tail[0], ps.ell) == ps.r
        in_s = per_class(res, report.in_s)
        for class_label, bucket in class_buckets(res).items():
            vec = deltas[class_label]
            assert bucket in BUCKETS
            if bucket == NON_PRIMARY:
                assert all(e.is_zero() for e in vec.entries[1:])
            if bucket in (NON_PRIMARY, PRIMARY_SMALL_DIAG, PRIMARY_SMALL_NONDIAG):
                assert slot_s_membership(vec)
            assert in_s[class_label] == slot_s_membership(vec)
    print("PASS criterion-5 (tolerance 0): case-analysis bucket shapes and "
          "S-membership on all six runs")


def test_criterion_6_deformation(params):
    """Relation checks at every deformation point with unit sweeps,
    trace values exhausting the roots of m."""
    from cuspcenter.params import reduce_parameters

    for label, ps_in in sorted(params.items()):
        if label == "U4":
            continue  # same reduced parameters as P4
        ps = reduce_parameters(ps_in)
        ring = invariant_ring(ps)
        summary = deformation_suite(ps, ring)
        assert summary["points_checked"] == ps.ell_power * 3**ps.n
        assert summary["distinct_traces"] == ring.m.degree
    print("PASS criterion-6 (tolerance 0): deformation relations at "
          "l^r * 3^n points per case, trace sweep = roots of m")


def test_criterion_7_deterministic_json():
    """Two CLI runs are byte-identical and match the committed golden
    files."""
    import pathlib
    import subprocess
    import sys

    golden = pathlib.Path(__file__).parent / "golden" / "p2-q2-l7.json"
    cmd = [
        sys.executable, "-m", "cuspcenter",
        "endo-ring", "--q", "2", "--ell", "7", "--out", "json",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == golden.read_bytes()
    print("PASS criterion-7 (tolerance 0): byte-identical JSON across runs "
          "and against the golden file")
