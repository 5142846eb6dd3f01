"""List the functions of `src/cuspcenter` that no CLI command enters.

    python3 tools/calltrace.py

Runs a fixed list of command lines (``COMMANDS``) through
`cuspcenter.driver.main` in this one process, each with `--out json` and
with `--out text`, under a `sys.setprofile` hook that records every
Python frame it sees.  The list covers the benchmark workloads, the
larger ladder rows, the deformation sweeps, the unreduced twins, the
bad-input (exit 2) paths and a line only argparse reads.  It then
compiles every module of the package and prints each function or
method whose code object no command entered.  A name that `perfbench/`
refers to (a span or counter of `perfbench/traced_cli.py`, or a name
`perfbench/kernels.py` imports or calls) is marked `pinned`: deleting
it would break the benchmark.

Exits 1 if a command's exit code differs from the one listed next to
it, else 0.  The run takes under a minute on one core.  This is a
traffic report, not a test: a name it lists may still be a test's
referee or a failure path that only a broken engine reaches.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import io
import pathlib
import sys
import tempfile
import time
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

CACHE = "{cache}"  # replaced by a fresh temporary directory

# (exit code, argv); each runs once per output format
COMMANDS = (
    # benchmark workloads
    (0, "endo-ring --q 17 --ell 3"),
    (0, f"classes --q 17 --n 2 --ell 3 --cache-dir {CACHE}"),  # cold cache
    (0, f"classes --q 17 --n 2 --ell 3 --cache-dir {CACHE}"),  # warm cache
    (0, "deformation --q 3 --ell 5"),
    (0, "deformation --q 2 --ell 7"),
    (0, "endo-ring --q 2 --ell 31"),
    (0, "invariants --q 2 --ell 127"),
    (0, "endo-ring --q 2 --ell 3"),
    (0, "endo-ring --q 2 --ell 7"),
    (0, "endo-ring --q 8 --ell 3"),
    (0, "endo-ring --q 4 --ell 5"),
    (0, "endo-ring --q 3 --ell 5"),
    (0, "endo-ring --q 2 --ell 5 --n 4 --d 2"),
    (0, "oracle --q 4 --n 2 --ell 5"),
    (0, "oracle --q 2 --n 3 --ell 7"),
    # ladder rows and sweeps
    (0, "endo-ring --q 53 --ell 3"),
    (0, "endo-ring --q 7 --ell 5"),
    (0, "endo-ring --q 2 --ell 127"),
    (0, "invariants --q 997 --ell 499 --n 2"),  # wide phi = 498
    (0, "deformation --q 2 --ell 31"),
    (0, "deformation --q 3 --ell 7"),
    # unreduced twins and the other commands
    (0, "invariants --q 2 --ell 5 --n 4 --d 2"),
    (0, "deformation --q 2 --ell 5 --n 4 --d 2"),
    (0, "invariants --q 8 --ell 3"),
    (0, "oracle --q 8 --n 2 --ell 3"),
    (0, "oracle --q 13 --n 1"),
    (0, "classes --q 4 --n 3"),
    # bad input and refused sizes
    (2, "invariants --q 6 --ell 5"),
    (2, "invariants --q 2 --ell 4"),
    (2, "endo-ring --q 3 --ell 6"),
    (2, "deformation --q 4 --ell 6"),
    (2, "endo-ring --q 2 --ell 3 --n 2 --d 2"),
    (2, "endo-ring --q 2 --ell 3 --d 0"),
    (2, "endo-ring --q 17 --ell 3 --scale-bound 100"),
    (2, "oracle --q 2 --n 0"),
    (2, "oracle --q 3 --n -1"),
    (2, "oracle --q 16 --n 2"),
    (2, "oracle --q 4 --n 2 --ell 5 --d 2"),
    (2, "classes --q 4"),
    # a line only argparse reads: build_parser and the fallback
    (0, "invariants --q=2 --ell 3"),
)


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"_calltrace_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_commands(cache: str) -> tuple[set, list]:
    """Run every command in both formats under the profile hook; return
    the code objects entered and the (argv, expected, got) mismatches."""
    from cuspcenter.driver import main

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    mismatches = []
    real_out, real_err = sys.stdout, sys.stderr
    for expected, line in COMMANDS:
        for fmt in ("json", "text"):
            argv = line.format(cache=cache).split() + ["--out", fmt]
            sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            sys.stderr = io.StringIO()
            sys.setprofile(hook)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
            finally:
                sys.setprofile(None)
                sys.stdout, sys.stderr = real_out, real_err
            if code != expected:
                mismatches.append((" ".join(argv), expected, code))
    return entered, mismatches


def code_key(code) -> tuple:
    """(file, first line, qualified name); before Python 3.11 the bare
    name stands in for the qualified one."""
    return code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def package_functions() -> dict:
    """(file, first line, qualified name) -> "module.qualname" for every
    named function and method compiled from the package's modules (not
    class bodies, lambdas or comprehensions)."""
    found = {}
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith("cuspcenter.") or mod_name == "cuspcenter.__main__":
            continue
        path = module.__file__
        stack = [compile(pathlib.Path(path).read_text(), path, "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    named = not const.co_name.startswith("<")
                    if named and const.co_flags & inspect.CO_NEWLOCALS:
                        key = code_key(const)
                        found[key] = f"{mod_name.split('.', 1)[1]}.{key[2]}"
    return found


def perfbench_names() -> tuple[set, set]:
    """(qualified names, bare attribute names) that perfbench relies on."""
    traced = load(PERFBENCH / "traced_cli.py")
    qualified = {f"{m}.{f}" for m, names in traced.SPANNED.items() for f in names}
    for mod, cls, dunders in traced.COUNTED.values():
        qualified |= {f"{mod}.{cls}.{d}" for d in dunders}
    modules, attributes = {}, set()
    for node in ast.walk(ast.parse((PERFBENCH / "kernels.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("cuspcenter"):
            for alias in node.names:
                if node.module == "cuspcenter":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    qualified.add(f"{node.module.split('.', 1)[1]}.{alias.name}")
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                qualified.add(f"{modules[node.value.id]}.{node.attr}")
    return qualified, attributes


def main() -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as cache:
        entered, mismatches = run_commands(cache)
    elapsed = time.perf_counter() - start
    seen = {code_key(c) for c in entered}
    qualified, attributes = perfbench_names()
    unentered = sorted(
        name for key, name in package_functions().items() if key not in seen
    )
    print(
        f"{len(COMMANDS)} command lines x 2 formats in {elapsed:.1f} s; "
        f"{len(unentered)} functions never entered:"
    )
    for name in unentered:
        owner, method = name.rsplit(".", 1)
        pinned = name in qualified or (
            name.count(".") == 2
            and (method in attributes or (method == "__init__" and owner in qualified))
        )
        print(f"  {name}{'  pinned' if pinned else ''}")
    for argv, expected, got in mismatches:
        print(f"unexpected exit {got} (expected {expected}): {argv}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
