"""Command-line driver.

Subcommands: invariants, endo-ring, classes, oracle, deformation.
Exit codes: 0 = all checks pass, 1 = a verification check failed,
2 = invalid parameters or out-of-scale request, 3 = internal error
(any exception outside the package's CuspCenterError taxonomy: the
failure envelope names it, and its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import centermap, deformation, gl2table, matrixoracle, report
from .arith import is_prime, multiplicative_order, prime_power
from .classes import class_predicates, enumerate_classes, group_classes, group_order
from .errors import CuspCenterError, ParameterError, ScaleLimit
from .finitefield import finite_field
from .invariants import (
    invariant_ring,
    pullback_mod_ell_check,
    uniformizer_check,
)
from .params import ParameterSet, reduce_parameters, validate_parameters

MAX_TABLE_MODULUS = 127  # largest q^2 - 1 for which the GL_2 table is built


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcenter",
        description=(
            "Exact computation of the endomorphism ring of the projective "
            "envelope of a cuspidal mod-l representation of GL_n(F_q), with "
            "its supporting oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("invariants", "invariant subring, minimal polynomial, lemma checks"),
        ("endo-ring", "full center pipeline: delta vectors, gamma, certificates"),
        ("classes", "conjugacy class census by type"),
        ("oracle", "brute-force and character-table cross-checks"),
        ("deformation", "matrix deformation points and presentation checks"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--q", type=int, required=True, help="order of the base field")
        p.add_argument("--ell", type=int, help="coefficient characteristic l")
        p.add_argument("--n", type=int, help="rank; defaults to ord_l(q)")
        p.add_argument("--d", type=int, default=1, help="divisor for the unreduced case")
        p.add_argument("--out", choices=("json", "text"), default="text")
        if name == "classes":
            p.add_argument("--cache-dir", help="census cache directory (or $CUSPCENTER_CACHE)")
        if name == "oracle":
            p.add_argument(
                "--max-group-order",
                type=int,
                default=1000,
                help="ceiling for brute-force group enumeration",
            )
        p.add_argument(
            "--scale-bound",
            type=int,
            default=10**6,
            help="ceiling for field/class enumerations",
        )
    return parser


def _default_n(q: int, ell: int | None, n: int | None) -> int:
    """``n``, or ord_l(q) when it is not given."""
    if n is not None:
        return n
    if ell is None:
        raise ParameterError("--n is required when --ell is not given")
    if q < 2 or not is_prime(ell) or q % ell == 0:
        raise ParameterError(f"need q >= 2 and a prime l not dividing q; got {q}, {ell}")
    return multiplicative_order(q, ell)


def _check_census_args(args) -> ParameterSet | None:
    """The arguments of ``classes`` and ``oracle``: an --n >= 1 and a
    prime-power q; with --ell, the block (q, ell, n, d), reduced."""
    if args.n is None:
        raise ParameterError(f"--n is required for the {args.command} command")
    if prime_power(args.q) is None:
        raise ParameterError(f"q = {args.q} is not a prime power")
    if args.n < 1:
        raise ParameterError("n must be positive")
    if args.ell is None:
        return None
    return reduce_parameters(validate_parameters(args.q, args.ell, args.n, args.d))


def _resolve_cache_dir(arg) -> str | None:
    if arg:
        return arg
    return os.environ.get("CUSPCENTER_CACHE") or None


def cmd_invariants(args) -> dict:
    n = _default_n(args.q, args.ell, args.n)
    ps_input = validate_parameters(args.q, args.ell, n, args.d)
    ps = reduce_parameters(ps_input)
    ring = invariant_ring(ps)
    checks = [
        "orbit structure: all nonzero orbits have size n",
        "basis change: orbit sums <-> powers of the trace element",
        "minimal polynomial: integer coefficients, degree, mod-l shape",
    ]
    for level in range(1, ps.r + 1):
        uniformizer_check(ps, level)
    checks.append("uniformizer: nu(omega - n) = n at every level")
    pullback = pullback_mod_ell_check(ps)
    checks.append("pullback: (X-1)-multiplicity equals n mod l")
    artifacts = {
        "min_poly": report.poly_json(ring.m),
        "min_poly_factors": [report.poly_json(f) for f in ring.m_factors],
        "omegas": [report.cyclo_json(o) for o in ring.omegas],
        "orbit_representatives": list(ring.orbits.reps),
        "dimension": ring.dimension,
        "pullback_degree": pullback["degree"],
    }
    return report.envelope(
        "invariants", report.params_json(ps_input), checks, artifacts
    )


def cmd_endo_ring(args) -> dict:
    n = _default_n(args.q, args.ell, args.n)
    result = centermap.verify_endo_ring(args.q, args.ell, n, args.d, args.scale_bound)
    pres = deformation.emit_center_presentation(result.ring)
    labels, key_of = result.labels, result.key_of
    # rendered once per distinct certificate and per key: the classes of
    # one key share each JSON subtree, which report.to_json_bytes writes once
    certs = [report.poly_json(h) for h in result.certificates]
    cert_of = [certs[c] for c in result.certificate_of]
    recs = result.reconstructions
    units = [rec and report.frac_json(rec["unit"]) for rec in recs]
    corrections = [rec and report.frac_json(rec["correction"]) for rec in recs]
    in_s = result.case_report.in_s
    artifacts = {
        "min_poly": report.poly_json(result.ring.m),
        "gamma": report.blockvector_json(result.gamma),
        "scaled_idempotent": report.blockvector_json(result.scaled_idempotent),
        "idempotent_unit": report.frac_json(result.idempotent_unit),
        "certificates": {label: cert_of[k] for label, k in zip(labels, key_of)},
        "bucket_counts": dict(result.case_report.bucket_counts),
        "s_membership": {label: in_s[k] for label, k in zip(labels, key_of)},
        "witness_class": result.case_report.witness_label,
        "class_count": len(result.classes),
        "reconstructions": [
            {
                "label": label,
                "theta_exponent": recs[k]["theta_exponent"],
                "unit": units[k],
                "correction": corrections[k],
            }
            for label, k in zip(labels, key_of)
            if recs[k] is not None
        ],
        "g_at_steinberg": report.frac_json(result.g_report["g_at_n"]),
        "presentation": pres.describe(),
        "action_table": {
            str(slot): report.cyclo_json(entry)
            for slot, entry in zip(result.gamma.reps, result.gamma.entries)
        },
    }
    return report.envelope(
        "endo-ring", report.params_json(result.params_input), list(result.checks), artifacts
    )


def cmd_classes(args) -> dict:
    ps = _check_census_args(args)
    field = finite_field(args.q)
    cache_dir = _resolve_cache_dir(args.cache_dir)
    checks = []
    classes = None
    if cache_dir:
        classes = report.load_census(cache_dir, args.q, args.n, field)
        if classes is not None:
            checks.append("census loaded from cache and revalidated")
    if classes is None:
        classes = enumerate_classes(field, args.n, args.scale_bound)
        checks.append("census enumerated and checked against the class-count series")
        if cache_dir:
            report.save_census(cache_dir, args.q, args.n, classes)
            checks.append("census written to cache")
    order = group_order(args.q, args.n)
    sizes = {}  # type key -> class size, its centralizer order checked once
    rows = []
    for ct in classes:
        size = sizes.get(ct.type_key)
        if size is None:
            size = sizes[ct.type_key] = ct.class_size()
        rows.append({"label": ct.label(), "size": size, "centralizer_order": order // size})
    artifacts = {"group_order": order, "class_count": len(classes), "classes": rows}
    if ps is not None:
        firsts, key_of = group_classes(classes, ps)
        preds = [class_predicates(ct, ps) for ct in firsts]
        for ct_art, k in zip(artifacts["classes"], key_of):
            ct_art["ell_regular"] = preds[k]["ell_regular"]
            ct_art["diagonalizable"] = preds[k]["diagonalizable"]
        checks.append("centralizer l-valuation dichotomy verified per class")
    parameters = {"q": args.q, "ell": args.ell, "n": args.n, "d": args.d}
    return report.envelope("classes", parameters, checks, artifacts)


def cmd_oracle(args) -> dict:
    ps = _check_census_args(args)
    field = finite_field(args.q)
    checks = []
    artifacts = {}
    ran_any = False
    skipped = []
    classes = None

    try:
        classes = enumerate_classes(field, args.n, args.scale_bound)
        summary = matrixoracle.census_cross_check(
            field, args.n, classes, args.max_group_order
        )
        checks.append(
            f"census: {summary['class_count']} type classes match the "
            f"brute-force orbits (group order {summary['group_order']})"
        )
        artifacts["census"] = summary
        ran_any = True
    except ScaleLimit as exc:
        skipped.append(f"census skipped: {exc}")

    if args.n == 2 and args.q * args.q - 1 <= MAX_TABLE_MODULUS:
        table = gl2table.gl2_character_table(args.q)
        rows = gl2table.verify_row_orthogonality(table)
        cols = gl2table.verify_column_orthogonality(table)
        checks.append(f"GL2 table: {rows} row and {cols} column orthogonality pairs")
        st = gl2table.steinberg_cross_check(table)
        checks.append(f"GL2 table: Steinberg row matches the sign formula on {st} classes")
        ran_any = True
        if ps is not None:
            if classes is None:  # raises the census's ScaleLimit again
                classes = enumerate_classes(field, 2, args.scale_bound)
            firsts, key_of = group_classes(classes, ps)
            vecs = [centermap.delta_class(ct, ps) for ct in firsts]
            deltas = {ct: vecs[k] for ct, k in zip(classes, key_of)}
            compared = gl2table.delta_equivalence_check(table, ps, deltas)
            checks.append(
                f"GL2 table: {compared} delta entries agree with the block engine"
            )
    elif args.n == 2:
        skipped.append(
            f"GL2 table skipped: modulus {args.q * args.q - 1} exceeds "
            f"{MAX_TABLE_MODULUS}"
        )

    if not ran_any:
        detail = "; ".join(skipped) if skipped else "no oracle applies to these parameters"
        raise ScaleLimit(detail)
    artifacts["skipped"] = skipped
    parameters = {"q": args.q, "ell": args.ell, "n": args.n, "d": args.d}
    return report.envelope("oracle", parameters, checks, artifacts)


def cmd_deformation(args) -> dict:
    n = _default_n(args.q, args.ell, args.n)
    ps = reduce_parameters(validate_parameters(args.q, args.ell, n, args.d))
    ring = invariant_ring(ps)
    summary = deformation.deformation_suite(ps, ring)
    # The third line is kept verbatim because stdout is pinned.  The two
    # "styles" wrote (Y - n) T_k in either order, the same product, and
    # deformation_suite asserts it at every point.
    checks = [
        f"commutation and relations: {summary['points_checked']} points",
        f"trace sweep: {summary['distinct_traces']} distinct roots of m",
        "both presentation styles vanish on the full point set",
    ]
    artifacts = {
        "points_checked": summary["points_checked"],
        "distinct_traces": summary["distinct_traces"],
        "presentation": summary["presentation"],
        "min_poly": report.poly_json(ring.m),
    }
    return report.envelope(
        "deformation",
        report.params_json(ps),
        checks,
        artifacts,
    )


_DISPATCH = {
    "invariants": cmd_invariants,
    "endo-ring": cmd_endo_ring,
    "classes": cmd_classes,
    "oracle": cmd_oracle,
    "deformation": cmd_deformation,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    parameters = {"q": args.q, "ell": args.ell, "n": args.n, "d": args.d}
    render = report.to_json_bytes if args.out == "json" else report.to_text
    try:
        # rendered inside the guard: a value the writer refuses is an
        # internal error (exit 3), never an empty stdout
        rendered = render(_DISPATCH[args.command](args))
        code = 0
    except (ParameterError, ScaleLimit) as exc:
        rendered = render(report.failure_envelope(args.command, parameters, exc))
        code = 2
    except CuspCenterError as exc:
        rendered = render(report.failure_envelope(args.command, parameters, exc))
        code = 1
    except Exception as exc:
        try:
            import traceback  # imported here: only exit 3 prints one

            traceback.print_exc(file=sys.stderr)  # stdout carries only the envelope
        except Exception:  # out of memory again, say: free the failed frames
            exc.__traceback__ = None
        rendered = render(report.failure_envelope(args.command, parameters, exc))
        code = 3
    out = sys.stdout
    if args.out == "json":
        out.buffer.write(rendered)
    else:
        out.write(rendered)
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
