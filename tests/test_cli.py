"""CLI behaviour: exit codes, JSON determinism, cache wiring, and the
installed console script."""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cuspcenter import report
from cuspcenter.cli import main


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


def test_cli_import_loads_every_spanned_module_and_nothing_heavy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cuspcenter.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "hashlib", "traceback"}.isdisjoint(loaded)
    assert {f"cuspcenter.{name}" for name in SPANNED_MODULES} <= loaded


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
