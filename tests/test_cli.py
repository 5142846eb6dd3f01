"""CLI behaviour: exit codes, JSON determinism, cache wiring, and the
installed console script."""

import errno
import gc
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cuspcenter import errors, report
from cuspcenter.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SRC_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_p1(capsys):
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "3", "--out", "json")
    assert code == 0
    env = json.loads(out)
    assert env["status"] == "pass"
    nums = [c["num"] for c in env["artifacts"]["min_poly"]]
    assert nums == ["-2", "-1", "1"]
    assert env["parameters"] == {
        "q": 2, "ell": 3, "n": 2, "d": 1, "w": 2, "r": 1, "reduced": True,
    }


def test_invariants_p2_defaults_n(capsys):
    # --n defaults to ord_3... ord_7(2) = 3
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "7", "--out", "json")
    assert code == 0
    env = json.loads(out)
    nums = [c["num"] for c in env["artifacts"]["min_poly"]]
    assert nums == ["-6", "-1", "-2", "1"]
    assert env["parameters"]["n"] == 3


def test_invariants_wrong_n_exits_2(capsys):
    # ord_3(2) = 2, so n = 3 violates the order condition
    code, out = run_cli(
        capsys, "invariants", "--q", "2", "--ell", "3", "--n", "3", "--out", "json"
    )
    assert code == 2
    env = json.loads(out)
    assert env["status"] == "fail"
    assert env["artifacts"]["error"]["type"] == "DegenerateBlock"


# the error type where it is a subclass of ParameterError
BAD_D = {
    "oracle --q 4 --n 2 --ell 5 --d 2": "SupercuspidalCase",
    "oracle --q 4 --n 2 --ell 5 --d 7": "DegenerateBlock",
}


@pytest.mark.parametrize(
    "argv",
    [
        "invariants --q 2 --ell 4",
        "endo-ring --q 3 --ell 6",
        "deformation --q 4 --ell 6",
        "oracle --q 2 --n 0",
        "oracle --q 3 --n -1",
        "classes --q 2 --n 0",
        "endo-ring --q 2 --ell 3 --d 0",
        *BAD_D,
    ],
)
def test_bad_arguments_exit_2_with_a_parameter_error(capsys, argv):
    # a non-prime l sharing a factor with q, n < 1 for oracle as for
    # classes, a d < 1, and a d that names no block we handle
    code, out = run_cli(capsys, *argv.split(), "--out", "json")
    assert code == 2
    error = json.loads(out)["artifacts"]["error"]["type"]
    assert error == BAD_D.get(argv, "ParameterError")


def test_failure_envelope_pinned(capsys):
    # sha256 recorded while json.dumps still wrote the envelope
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "4", "--out", "json")
    assert code == 2
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "1937cf121044f7dd9365577de6d5f784b8a98966c67707bcb4bf595dfd227b52"
    )


def test_bad_q_exits_2(capsys):
    code, out = run_cli(capsys, "invariants", "--q", "6", "--ell", "5", "--out", "json")
    assert code == 2
    env = json.loads(out)
    assert env["artifacts"]["error"]["type"] == "InvalidPrime"


def test_oracle_small_group(capsys):
    code, out = run_cli(
        capsys, "oracle", "--q", "2", "--n", "2", "--ell", "3", "--out", "json"
    )
    assert code == 0
    env = json.loads(out)
    assert env["artifacts"]["census"]["group_order"] == 6
    assert env["artifacts"]["skipped"] == []
    joined = " ".join(env["checks"])
    assert "delta entries agree" in joined


def test_oracle_census_only_when_table_too_big(capsys):
    # GL_2(F_16): table modulus 255 > 127, census order 61200 > 1000,
    # so NO oracle is runnable -> exit 2
    code, out = run_cli(capsys, "oracle", "--q", "16", "--n", "2", "--out", "json")
    assert code == 2
    env = json.loads(out)
    assert env["artifacts"]["error"]["type"] == "ScaleLimit"


def test_oracle_gl2_f8_table_without_census(capsys):
    # |GL_2(F_8)| = 3528 > 1000 so the census is skipped, but the
    # character table (modulus 63) still runs -> exit 0
    code, out = run_cli(
        capsys, "oracle", "--q", "8", "--n", "2", "--ell", "3", "--out", "json"
    )
    assert code == 0
    env = json.loads(out)
    assert "census" not in env["artifacts"]
    assert any("census skipped" in s for s in env["artifacts"]["skipped"])
    assert any("delta entries agree" in c for c in env["checks"])


def test_oracle_enumerates_the_classes_once(capsys, monkeypatch):
    # the census cross-check and the GL_2 delta comparison share one list
    from cuspcenter import classes

    original = classes.enumerate_classes
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("cuspcenter") and (
            getattr(module, "enumerate_classes", None) is original
        ):
            monkeypatch.setattr(module, "enumerate_classes", counted)
    code, out = run_cli(capsys, "oracle", "--q", "4", "--n", "2", "--ell", "5", "--out", "json")
    assert code == 0
    assert "delta entries agree" in " ".join(json.loads(out)["checks"])
    assert len(calls) == 1


def test_oracle_refused_enumeration_still_exits_2(capsys):
    # the census skips the refused enumeration; the delta comparison
    # needs it and raises the same ScaleLimit
    code, out = run_cli(
        capsys, "oracle", "--q", "4", "--n", "2", "--ell", "5", "--scale-bound", "10",
        "--out", "json",
    )
    assert code == 2
    assert json.loads(out)["artifacts"]["error"]["type"] == "ScaleLimit"


def test_json_byte_determinism(capsys):
    _, out1 = run_cli(capsys, "endo-ring", "--q", "2", "--ell", "3", "--out", "json")
    _, out2 = run_cli(capsys, "endo-ring", "--q", "2", "--ell", "3", "--out", "json")
    assert out1 == out2
    env = json.loads(out1)
    assert env["artifacts"]["idempotent_unit"] == {"num": "-1", "den": "1"}


def test_classes_cache_flag(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, out1 = run_cli(
        capsys, "classes", "--q", "4", "--n", "2", "--cache-dir", cache, "--out", "json"
    )
    assert code == 0
    env1 = json.loads(out1)
    assert any("written to cache" in c for c in env1["checks"])
    code, out2 = run_cli(
        capsys, "classes", "--q", "4", "--n", "2", "--cache-dir", cache, "--out", "json"
    )
    assert code == 0
    env2 = json.loads(out2)
    assert any("loaded from cache" in c for c in env2["checks"])
    assert env1["artifacts"] == env2["artifacts"]


def test_census_cache_file_pinned(capsys, tmp_path):
    # sha256 of the file save_census writes, recorded while json.dumps
    # still wrote it
    code, _ = run_cli(
        capsys, "classes", "--q", "17", "--n", "2", "--cache-dir", str(tmp_path), "--out", "json"
    )
    assert code == 0
    (path,) = tmp_path.iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c0914ea2f43f71c3e828ae8a1a78a209364c561c3733cb10fb49761d611afbd0"
    )


@pytest.mark.parametrize("content", ["[]", "null", "3", '"x"'])
def test_a_cache_file_that_is_not_an_object_is_enumerated_again(capsys, tmp_path, content):
    argv = ("classes", "--q", "4", "--n", "2", "--cache-dir", str(tmp_path), "--out", "json")
    assert run_cli(capsys, *argv)[0] == 0
    (tmp_path / "census-v1-q4-n2.json").write_text(content)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert "census enumerated and checked against the class-count series" in checks
    assert "census written to cache" in checks


def test_classes_cache_env(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("CUSPCENTER_CACHE", cache)
    code, out = run_cli(capsys, "classes", "--q", "2", "--n", "2", "--out", "json")
    assert code == 0
    env = json.loads(out)
    assert any("written to cache" in c for c in env["checks"])


def test_classes_with_ell_annotations(capsys):
    code, out = run_cli(
        capsys, "classes", "--q", "2", "--n", "2", "--ell", "3", "--out", "json"
    )
    assert code == 0
    env = json.loads(out)
    rows = env["artifacts"]["classes"]
    assert len(rows) == 3
    assert all("ell_regular" in row and "diagonalizable" in row for row in rows)


def test_deformation_command(capsys):
    code, out = run_cli(capsys, "deformation", "--q", "2", "--ell", "3", "--out", "json")
    assert code == 0
    env = json.loads(out)
    assert env["artifacts"]["points_checked"] == 3 * 3**2
    assert env["artifacts"]["distinct_traces"] == 2


def test_text_output(capsys):
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "3")
    assert code == 0
    assert out.startswith("cuspcenter invariants")
    assert "status: PASS" in out
    assert "  PASS " in out


def test_endo_ring_unreduced_matches_reduced(capsys):
    _, out_u = run_cli(
        capsys, "endo-ring", "--q", "2", "--ell", "5", "--n", "4", "--d", "2",
        "--out", "json",
    )
    _, out_r = run_cli(capsys, "endo-ring", "--q", "4", "--ell", "5", "--out", "json")
    env_u, env_r = json.loads(out_u), json.loads(out_r)
    assert env_u["artifacts"]["min_poly"] == env_r["artifacts"]["min_poly"]
    assert env_u["artifacts"]["gamma"] == env_r["artifacts"]["gamma"]
    assert env_u["parameters"] != env_r["parameters"]


def test_internal_error_exits_3(capsys, monkeypatch):
    from cuspcenter import cli

    def broken(args):
        raise KeyError("missing slot")

    monkeypatch.setitem(cli._DISPATCH, "invariants", broken)
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "3", "--out", "json")
    assert code == 3
    env = json.loads(out)
    assert env["status"] == "fail"
    assert env["artifacts"]["error"] == {"type": "KeyError", "message": "'missing slot'"}


def test_memory_error_exits_3_even_when_importing_traceback_fails(capsys, monkeypatch):
    # out of memory, the lazy `import traceback` of the exit-3 handler can
    # raise MemoryError again: the envelope must still reach stdout
    import builtins

    from cuspcenter import cli

    def exhausted(args):
        raise MemoryError

    plain_import = builtins.__import__

    def importer(name, *args, **kwargs):
        if name == "traceback":
            raise MemoryError
        return plain_import(name, *args, **kwargs)

    monkeypatch.setitem(cli._DISPATCH, "invariants", exhausted)
    monkeypatch.setattr(builtins, "__import__", importer)
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "3", "--out", "json")
    monkeypatch.undo()
    assert code == 3
    env = json.loads(out)
    assert env["status"] == "fail"
    assert env["artifacts"]["error"] == {"type": "MemoryError", "message": ""}


def test_unrenderable_envelope_exits_3_with_the_failure_envelope(capsys, monkeypatch):
    # the envelope is rendered inside the guard, so a value the writer
    # refuses gives the exit-3 failure envelope, not an empty stdout
    from fractions import Fraction

    from cuspcenter import cli

    def unconverted(args):
        return report.envelope("invariants", {}, [], {"value": Fraction(1, 3)})

    monkeypatch.setitem(cli._DISPATCH, "invariants", unconverted)
    code, out = run_cli(capsys, "invariants", "--q", "2", "--ell", "3", "--out", "json")
    assert code == 3
    assert json.loads(out)["artifacts"]["error"] == {
        "type": "TypeError",
        "message": "Object of type Fraction is not JSON serializable",
    }


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcenter", "invariants", "--q", "2", "--ell", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: PASS" in proc.stdout
    proc = subprocess.run(
        ["cuspcenter", "invariants", "--q", "2", "--ell", "3", "--out", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


def test_supercuspidal_rejected(capsys):
    code, out = run_cli(
        capsys, "endo-ring", "--q", "2", "--ell", "3", "--n", "2", "--d", "2",
        "--out", "json",
    )
    assert code == 2
    env = json.loads(out)
    assert env["artifacts"]["error"]["type"] == "SupercuspidalCase"


# each subcommand accepts only the options it reads: --cache-dir is the
# census cache of `classes`, --max-group-order the brute-force ceiling
# of `oracle`
UNREAD_OPTIONS = [
    (command, option)
    for option, reader in (("--cache-dir", "classes"), ("--max-group-order", "oracle"))
    for command in ("invariants", "endo-ring", "classes", "oracle", "deformation")
    if command != reader
]


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS)
def test_an_option_the_subcommand_never_reads_exits_2(capsys, tmp_path, command, option):
    value = str(tmp_path) if option == "--cache-dir" else "10"
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "2", "--ell", "3", "--n", "2", option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the modules perfbench/traced_cli.py spans: it finds them in sys.modules
# right after `import cuspcenter.cli`
SPANNED_MODULES = (
    "finitefield", "classes", "characters", "centermap", "linalg", "cyclotomic",
    "invariants", "polynomials", "matrices", "deformation", "report",
    "matrixoracle", "gl2table",
)


# fractions, with decimal and numbers, which it imports: the engine holds
# its rationals as integer numerators over one denominator
NUMERIC_MODULES = ("fractions", "decimal", "numbers")


def test_cli_import_loads_every_spanned_module_and_nothing_heavy():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cuspcenter.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    loaded = set(proc.stdout.split())
    assert {
        "argparse", "dataclasses", "gettext", "hashlib", "json", "json.decoder", "locale",
        "traceback", "typing", *NUMERIC_MODULES,
    }.isdisjoint(loaded)
    assert {f"cuspcenter.{name}" for name in SPANNED_MODULES} <= loaded


# the engine modules each benchmark command must not load: a command
# imports only the modules it runs
OFF_THE_RING_PATH = ("centermap", "characters", "classes", "finitefield", "gl2table", "matrixoracle")
OFF_THE_PATH = {
    "deformation": OFF_THE_RING_PATH,
    "invariants": OFF_THE_RING_PATH,
    "classes": ("cyclotomic", "invariants", "centermap"),
    "endo-ring": ("gl2table", "matrixoracle"),
    "oracle": (),
}
# the lines whose path is narrower than their command's: an oracle with
# n != 2 builds no GL_2 table and no delta vectors
OFF_THE_LINE = {"oracle --q 2 --n 3 --ell 7": ("centermap", "gl2table")}


def imported_modules(verbose_stderr: str) -> set:
    """The modules a ``python -v`` process imported, read off its stderr:
    one line "import 'name' # loader" per module.  (``-X importtime``
    misses the modules that ``from . import name`` or
    ``importlib.import_module`` load.)"""
    return {
        line.split("'")[1] for line in verbose_stderr.splitlines() if line.startswith("import '")
    }


def test_no_benchmark_command_loads_the_numeric_modules(tmp_path):
    # every command of perfbench/references.json, in order (the cold
    # census cache before the warm one), each in a fresh `python -m
    # cuspcenter` process as the benchmark runs it, with its stdout pinned
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    references = json.loads(path.read_text())
    ran = set()
    for name, sha in sorted(references.items()):
        line = name.split(" (")[0]
        argv = line.split() + ["--out", "json"]
        if argv[0] == "classes":
            argv += ["--cache-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-S", "-v", "-m", "cuspcenter", *argv],
            capture_output=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        loaded = imported_modules(proc.stderr.decode())
        assert "cuspcenter.driver" in loaded, name
        off_path = OFF_THE_PATH[argv[0]] + OFF_THE_LINE.get(line, ())
        off = {*NUMERIC_MODULES, *(f"cuspcenter.{mod}" for mod in off_path)}
        assert not off & loaded, (name, sorted(off & loaded))
        assert hashlib.sha256(proc.stdout).hexdigest() == sha, name
        ran.add(argv[0])
    assert ran == set(OFF_THE_PATH)
    assert set(OFF_THE_LINE) <= {name.split(" (")[0] for name in references}


# the public names of the package, by the submodule that defines them
PUBLIC_NAMES = {
    "centermap": (
        "BlockVector", "EndoRingResult", "case_analysis", "delta_class",
        "express_all_in_gamma", "express_in_gamma", "gamma_vector", "lemma_signs_check",
        "reconstruct_gamma", "reconstruct_scaled_idempotent", "s_membership",
        "verify_endo_ring",
    ),
    "classes": ("ClassType", "enumerate_classes", "group_order"),
    "cyclotomic": ("CyclotomicNumber", "ell_valuation", "is_ell_integral", "zeta"),
    "deformation": (
        "CenterPresentation", "DeformationPoint", "check_relations", "deformation_suite",
        "emit_center_presentation", "make_point",
    ),
    "errors": (
        "AssertionFailure", "CuspCenterError", "DegenerateBlock", "IntegralityFailure",
        "InvalidPrime", "NoSolution", "ParameterError", "RelationFailure", "ScaleLimit",
        "SupercuspidalCase",
    ),
    "finitefield": ("FiniteField", "FqPoly", "finite_field"),
    "invariants": ("InvariantRingData", "invariant_ring", "orbit_structure"),
    "params": ("ParameterSet", "reduce_parameters", "validate_parameters"),
    "polynomials": ("Poly",),
    "report": ("SCHEMA_VERSION", "TOOL_VERSION"),
}

LAZY_ROOT = f"""
import sys
import cuspcenter
print(*sorted(name for name in sys.modules if name.startswith("cuspcenter.")))
public = {PUBLIC_NAMES!r}
assert sorted(cuspcenter.__all__) == sorted(["__version__", *sum(public.values(), ())])
assert cuspcenter.__version__ is sys.modules["cuspcenter.report"].TOOL_VERSION
for module, names in public.items():
    for name in names:
        assert getattr(cuspcenter, name) is getattr(sys.modules["cuspcenter." + module], name)
assert cuspcenter.linalg is sys.modules["cuspcenter.linalg"]
for name in ("no_such_name", "__main__"):
    try:
        getattr(cuspcenter, name)
    except AttributeError as exc:
        assert str(exc) == f"module 'cuspcenter' has no attribute {{name!r}}"
    else:
        raise AssertionError(name)
print("resolved")
"""


def test_import_cuspcenter_loads_no_submodule_and_resolves_each_public_name():
    # the package root resolves its names on first access (PEP 562), so
    # `python -m cuspcenter` loads only the modules of its command
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_ROOT], capture_output=True, text=True, env=SRC_ENV
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert proc.stdout == "\nresolved\n"


# a command whose engine module cannot be imported
FAILED_IMPORT = """
import sys
sys.modules["cuspcenter.deformation"] = None
from cuspcenter import driver
sys.exit(driver.main(["deformation", "--q", "2", "--ell", "7", "--out", "json"]))
"""


def test_an_engine_module_that_fails_to_import_exits_3_with_the_failure_envelope():
    # each command imports its engine modules inside main's guard
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FAILED_IMPORT], capture_output=True, text=True, env=SRC_ENV
    )
    assert proc.returncode == 3, proc.stderr[-1000:]
    env = json.loads(proc.stdout)
    assert (env["command"], env["status"]) == ("deformation", "fail")
    assert env["artifacts"]["error"] == {
        "type": "ModuleNotFoundError",
        "message": "import of cuspcenter.deformation halted; None in sys.modules",
    }
    assert proc.stderr.startswith("Traceback")


RECORD_TYPES = {
    "params": {"ParameterSet"},
    "classes": {"ClassType"},
    "invariants": {"OrbitStructure", "InvariantRingData"},
    "centermap": {"CaseReport", "EndoRingResult"},
    "deformation": {"DeformationPoint", "CenterPresentation"},
    "gl2table": {"GL2Class", "GL2Character", "GL2Table"},
    "matrixoracle": {"MatrixCensus"},
}


def test_no_record_instance_has_a_dict():
    # the record types are namedtuple subclasses with empty __slots__, so
    # an instance is a bare tuple (ClassType is built once per class,
    # 531 414 times at (27,5,4)); _replace keeps the type and repr names it
    from cuspcenter import centermap, deformation, gl2table, matrixoracle
    from cuspcenter.finitefield import finite_field

    found = {
        name: {
            cls.__name__
            for cls in vars(sys.modules[f"cuspcenter.{name}"]).values()
            if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
            and cls.__module__ == f"cuspcenter.{name}"
        }
        for name in RECORD_TYPES
    }
    assert found == RECORD_TYPES
    result = centermap.verify_endo_ring(2, 3, 2)
    table = gl2table.gl2_character_table(3)
    records = [
        result, result.params, result.ring, result.ring.orbits, result.case_report,
        result.classes[0], deformation.make_point(result.params, 1),
        deformation.emit_center_presentation(result.ring), table, table.classes[0],
        table.characters[0], matrixoracle.matrix_census(finite_field(2), 2),
    ]
    assert {type(x).__name__ for x in records} == set().union(*RECORD_TYPES.values())
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        assert type(record).__slots__ == ()
        copy = record._replace()
        assert type(copy) is type(record) and copy == record
        assert repr(record).startswith(f"{type(record).__name__}(")


def test_a_well_formed_command_never_imports_argparse(capsys):
    argv = ["invariants", "--q", "2", "--ell", "3", "--out", "json"]
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "cuspcenter", *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv), proc.stderr[-1000:]
    imported = imported_modules(proc.stderr)
    assert "cuspcenter.driver" in imported and "cuspcenter.cli" not in imported
    assert {"argparse", "gettext", "locale"}.isdisjoint(imported)


@pytest.mark.parametrize(
    "line,usage,mention",
    [
        ("--help", "usage: cuspcenter [-h]", "{invariants,endo-ring,classes,oracle,deformation}"),
        ("endo-ring --help", "usage: cuspcenter endo-ring [-h]", "--scale-bound SCALE_BOUND"),
    ],
)
def test_help_exits_0_with_the_usage_text(line, usage, mention):
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcenter", *line.split()],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(usage)
    assert mention in proc.stdout


# a cold then a warm census cache in one process: the file is named
# without a hash, and only the warm run parses JSON
CACHE_ROUND_TRIP = """
import io, sys
from cuspcenter.cli import main
for _ in range(2):
    sys.stdout = io.StringIO()
    code = main(sys.argv[1:])
    text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    print(code, "loaded from cache" in text)
print("hashlib" in sys.modules)
"""


def test_census_cache_round_trip_never_loads_hashlib(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CACHE_ROUND_TRIP,
         "classes", "--q", "4", "--n", "2", "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert proc.stdout.split("\n") == ["0 False", "0 True", "False", ""]
    assert [path.name for path in tmp_path.iterdir()] == ["census-v1-q4-n2.json"]


def test_main_never_freezes_the_collector(capsys):
    # an in-process caller goes on and must still be able to free each
    # command's garbage: nothing on the command path freezes it
    code, _ = run_cli(capsys, "endo-ring", "--q", "2", "--ell", "3", "--out", "json")
    assert code == 0
    assert gc.get_freeze_count() == 0


# a wrapper that registers an atexit handler, then ends through run():
# the handler's marker must still reach stderr after main returns, and
# stdout after main's bytes, where it sits in the buffer of a pipe
# until run() flushes it
RUN_WITH_ATEXIT = """
import atexit, sys
from cuspcenter import cli
atexit.register(lambda: [stream.write("atexit ran") for stream in (sys.stderr, sys.stdout)])
sys.exit(cli.run())
"""


@pytest.mark.parametrize(
    "line", ["endo-ring --q 17 --ell 3 --out json", "invariants --q 6 --ell 5 --out text"]
)
def test_run_ends_the_process_after_atexit_with_mains_code_and_bytes(capsysbinary, line):
    code = main(line.split())
    out = capsysbinary.readouterr().out
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITH_ATEXIT, *line.split()], capture_output=True, env=env
    )
    assert proc.returncode == code, proc.stderr.decode()[-1000:]
    assert proc.stderr.endswith(b"atexit ran")
    # main's bytes through a pipe, whole (147 635 for endo-ring), then the marker
    assert proc.stdout == out + b"atexit ran"
    if line.startswith("endo-ring"):
        assert (code, len(out)) == (0, 147635)
    else:
        assert code == 2


def test_every_command_line_entry_goes_through_run():
    package = SRC / "cuspcenter"
    assert (package / "__main__.py").read_text().endswith(
        "\nfrom .driver import run\n\nsys.exit(run())\n"
    )
    for module in ("driver.py", "cli.py"):  # python -m cuspcenter.driver, and .cli
        guard = (package / module).read_text().split('\nif __name__ == "__main__":\n')[1]
        assert guard.strip() == "sys.exit(run())"
    scripts = (SRC.parent / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    assert scripts.startswith('cuspcenter = "cuspcenter.driver:run"\n')


# python -m cuspcenter with the invariants command replaced by a raise:
# the package's __main__ runs as `-m` runs it
FAULTED_MAIN = """
import runpy
from cuspcenter import cli, errors
def fault(args):
    raise {0}
cli._DISPATCH["invariants"] = fault
runpy.run_module("cuspcenter", run_name="__main__", alter_sys=True)
"""

# (exit code, argv, the raise that replaces the invariants command)
EXIT_CASES = {
    "pass": (0, "invariants --q 2 --ell 3", None),
    "verification-failed": (
        1, "invariants --q 2 --ell 3", "errors.AssertionFailure('injected', witness=(1, 2))"
    ),
    "argparse": (2, "invariants --q 2 --ell 3 --max-group-order 5", None),
    "argparse-reads": (0, "invariants --q=2 --ell 3", None),
    "parameter-error": (2, "invariants --q 6 --ell 5", None),
    "internal-error": (3, "invariants --q 2 --ell 3", "KeyError('missing slot')"),
    "help": (0, "invariants --q 2 --ell 3 --help", None),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("expected,line,fault", EXIT_CASES.values(), ids=EXIT_CASES)
def test_python_m_matches_main_in_process(capsysbinary, monkeypatch, fmt, expected, line, fault):
    from cuspcenter import cli

    monkeypatch.setenv("COLUMNS", "80")  # one width for argparse's help in both processes

    argv = [*line.split(), "--out", fmt]
    if fault is None:
        command = ["-m", "cuspcenter"]
    else:
        command = ["-c", FAULTED_MAIN.format(fault)]

        def faulted(args):
            raise eval(fault, {"errors": errors})

        monkeypatch.setitem(cli._DISPATCH, "invariants", faulted)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    out = capsysbinary.readouterr().out
    proc = subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, env={**SRC_ENV, "COLUMNS": "80"}
    )
    assert code == proc.returncode == expected, proc.stderr.decode()[-1000:]
    assert proc.stdout == out
    assert (b"Traceback" in proc.stderr) == (expected == 3)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("line", ["endo-ring --q 17 --ell 3", "invariants --q 2 --ell 3"])
def test_a_full_stdout_exits_3_without_a_traceback(line, fmt):
    # stdout buffered, as by default: output the failed flush leaves in
    # the buffer must not fail again in the interpreter's final flush
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "cuspcenter", *line.split(), "--out", fmt],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 3
    assert proc.stderr.startswith("cuspcenter: cannot write the output: ")
    assert "No space left on device" in proc.stderr
    assert proc.stderr.count("\n") == 1  # no traceback, no "Exception ignored"


class RefusingStdout(io.StringIO):
    """A stdout with no file descriptor whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_refused_write_in_process_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", RefusingStdout())
    code = main(["invariants", "--q", "2", "--ell", "3"])
    monkeypatch.undo()
    assert code == 3
    assert capsys.readouterr().err == "cuspcenter: cannot write the output: [Errno 32] Broken pipe\n"


def load_perfbench(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_wraps_resolves_after_cli_import():
    # perfbench/traced_cli.py rebinds these by name, and kernels.py
    # imports from the package: a deletion that breaks either shows here
    import cuspcenter.cli  # noqa: F401  (the import traced_cli makes first)

    traced = load_perfbench("traced_cli")
    for mod, names in traced.SPANNED.items():
        module = sys.modules[f"cuspcenter.{mod}"]
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
    for mod, cls_name, dunders in traced.COUNTED.values():
        cls = getattr(sys.modules[f"cuspcenter.{mod}"], cls_name)
        for dunder in dunders:
            assert dunder in cls.__dict__, f"{cls_name}.{dunder}"
    load_perfbench("kernels")
