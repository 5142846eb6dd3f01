"""Byte-exact comparison of endo-ring JSON envelopes against committed
golden files.  Any change to serialization, check wording, artifact
layout, or the mathematics itself shows up here first."""

import ast
import pathlib
import subprocess
import sys

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "p1-q2-l3": ["--q", "2", "--ell", "3"],
    "p2-q2-l7": ["--q", "2", "--ell", "7"],
    "p3-q8-l3": ["--q", "8", "--ell", "3"],
    "p4-q4-l5": ["--q", "4", "--ell", "5"],
    "p5-q3-l5": ["--q", "3", "--ell", "5"],
    "u4-q2-l5-d2": ["--q", "2", "--ell", "5", "--n", "4", "--d", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_endo_ring(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcenter", "endo-ring"]
        + CASES[name]
        + ["--out", "json"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-1000:]
    assert proc.stdout == expected


def test_golden_endo_ring_under_optimize():
    # -O strips assert statements: no check may depend on one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cuspcenter", "endo-ring"]
        + CASES["p1-q2-l3"]
        + ["--out", "json"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-1000:]
    assert proc.stdout == (GOLDEN_DIR / "p1-q2-l3.json").read_bytes()


def test_no_assert_statements_in_src():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
