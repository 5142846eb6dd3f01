"""Run one cuspcenter CLI command with outside-in tracing.

    python perfbench/traced_cli.py SUMMARY_PATH SPANS_PATH CLI_ARG...

The package is imported unchanged.  Every function in ``SPANNED`` is
replaced by a timing wrapper wherever a ``cuspcenter`` module binds it
(``characters`` and ``classes`` hold their own ``roots_in``; ``cyclotomic``
reaches ``linalg.determinant`` through the module attribute), and the
arithmetic dunders in ``COUNTED`` get count-only wrappers.  Then
``cuspcenter.cli.main`` runs on CLI_ARG with its stdout captured.

Spans stay in memory while the command runs.  When it ends, the
captured CLI output goes to this process's stdout unchanged, the raw
spans to SPANS_PATH (one JSON array per line: name, start ns, end ns,
parent index or -1) and a summary to SUMMARY_PATH: per function
``calls``, ``s`` (inclusive time, outermost calls only, so recursion is
not double counted) and ``self_s`` (span time minus child spans), the
counters, and the time the tracer spent on its own set-up and output.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from time import perf_counter_ns

# module -> public functions timed as spans (one metric prefix each)
SPANNED = {
    "finitefield": ("roots_in", "irreducible_polys", "sylow_generator", "ell_part_and_dlog"),
    "classes": ("enumerate_classes", "class_predicates"),
    "characters": ("cuspidal_value", "theta_exponent"),
    "centermap": (
        "verify_endo_ring",
        "delta_class",
        "case_analysis",
        "reconstruct_gamma",
        "express_in_gamma",
        "minimality_certificate",
    ),
    "linalg": ("solve_unique", "determinant"),
    "cyclotomic": ("ell_valuation",),
    "invariants": ("invariant_ring", "uniformizer_check", "pullback_mod_ell_check"),
    "polynomials": ("from_roots",),
    "matrices": ("charpoly", "mat_mul"),
    "deformation": ("make_point", "check_relations", "deformation_suite"),
    "report": ("to_json_bytes", "save_census", "load_census"),
    "cli": ("main",),
    "matrixoracle": ("census_cross_check",),
    "gl2table": ("gl2_character_table",),
}

# counter name -> (module, class, dunders sharing that counter)
COUNTED = {
    "finitefield.FFElement.mul.calls": ("finitefield", "FFElement", ("__mul__", "__rmul__")),
    "finitefield.FqPoly.call.calls": ("finitefield", "FqPoly", ("__call__",)),
    "cyclotomic.CyclotomicNumber.mul.calls": (
        "cyclotomic",
        "CyclotomicNumber",
        ("__mul__", "__rmul__"),
    ),
    "cyclotomic.CyclotomicNumber.add.calls": (
        "cyclotomic",
        "CyclotomicNumber",
        ("__add__", "__radd__"),
    ),
}

# span name -> counter that accumulates len(result)
RESULT_LENGTHS = {
    "finitefield.roots_in": "finitefield.roots_in.roots",
    "classes.enumerate_classes": "classes.class_count",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.cells: dict[str, list[int]] = {}

    def cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0])

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        length_cell = self.cell(RESULT_LENGTHS[name]) if name in RESULT_LENGTHS else None
        evals = self.cell("finitefield.FqPoly.call.calls")
        evals_in_roots = self.cell("finitefield.roots_in.evals")

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            before = evals[0]
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
            if length_cell is not None:
                length_cell[0] += len(result)
                if name == "finitefield.roots_in":
                    evals_in_roots[0] += evals[0] - before
            return result

        return functools.wraps(fn)(wrapper)

    @staticmethod
    def counted(cell: list[int], fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return functools.wraps(fn)(wrapper)

    def install(self, modules: dict) -> None:
        """Rebind every traced callable in every loaded cuspcenter module
        (``modules`` maps full module names to modules)."""
        replace = {}
        for mod, names in SPANNED.items():
            for fname in names:
                original = getattr(modules[f"cuspcenter.{mod}"], fname)
                replace[id(original)] = (original, self.span(f"{mod}.{fname}", original))
        for owner in modules.values():
            for attr, value in list(vars(owner).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
        for counter, (mod, cls_name, dunders) in COUNTED.items():
            cls = getattr(modules[f"cuspcenter.{mod}"], cls_name)
            cell = self.cell(counter)
            wrapped = {}
            for dunder in dunders:
                original = cls.__dict__[dunder]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.counted(cell, original)
                setattr(cls, dunder, wrapped[id(original)])

    def summary(self) -> dict:
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        funcs: dict[str, dict] = {}
        for name in (f"{m}.{f}" for m, fs in SPANNED.items() for f in fs):
            funcs[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for idx, (name, t0, t1, parent) in enumerate(spans):
            rec = funcs[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0 - child[idx]) / 1e9
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                rec["s"] += (t1 - t0) / 1e9
        return {
            "functions": funcs,
            "counters": {name: cell[0] for name, cell in self.cells.items()},
        }


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    import cuspcenter.cli  # noqa: F401  (imports every traced module)

    t_setup = time.perf_counter()
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "cuspcenter" or name.startswith("cuspcenter.")
    }
    tracer = Tracer()
    tracer.install(modules)
    cli_main = modules["cuspcenter.cli"].main
    real_stdout = sys.stdout
    captured = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stdout = captured
    tracer_s = time.perf_counter() - t_setup
    try:
        code = cli_main(cli_args)
    finally:
        t_out = time.perf_counter()
        captured.flush()
        sys.stdout = real_stdout
        real_stdout.buffer.write(captured.buffer.getvalue())
        real_stdout.flush()
        doc = tracer.summary()
        with open(spans_path, "w", encoding="ascii") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        doc["tracer_s"] = tracer_s + time.perf_counter() - t_out
        with open(summary_path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
