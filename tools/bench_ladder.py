"""Time one `cuspcenter` command over a ladder of parameter sets, one
fresh process per run, and record one column of a BENCH file.

    python3 tools/bench_ladder.py --src SRC --column NAME --out BENCH.json \
        [--command deformation|endo-ring|invariants|classes] \
        [--rows q,ell[,n[,d]] ...]

Each row runs `python -m cuspcenter COMMAND --q Q --ell L [--n N]
[--d D] --out json` with `PYTHONPATH=SRC`: the median of 3 runs, or a
single run when the first one takes over 30 s.  SRC is byte-compiled
once before any run, so no run pays for compiling the package (a tree
copied with PYTHONDONTWRITEBYTECODE set has no .pyc).  The command
defaults to `deformation`; `deformation`, `endo-ring` and `invariants`
have default ladders, `classes` needs `--rows` with the n.  The column records the
wall times, their median, the exit code and the sha256 of stdout.  An
existing OUT file is read and the column is added to it (replacing one
of the same name), so two invocations against two source trees give a
before/after pair; an OUT file recorded for another command is refused.
Where a row has two columns, their sha256 must agree; the script exits 1
otherwise.  This is a measurement script, not a test.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 3
SINGLE_RUN_OVER_S = 30.0
DEFAULT_ROWS = {
    "deformation": ("2,3", "2,7", "3,5", "2,31", "3,7", "2,127"),
    "endo-ring": ("17,3,2", "7,5,4", "53,3,2", "101,17,2", "211,53,2"),
    "invariants": ("2,31", "2,73", "2,127", "211,53", "997,499"),
}
COMMANDS = ("deformation", "endo-ring", "invariants", "classes")
FLAGS = ("--q", "--ell", "--n", "--d")


def run_once(src: str, command: str, row: str) -> tuple:
    """(wall seconds, exit code, stdout sha256) of one fresh process."""
    args = [sys.executable, "-m", "cuspcenter", command]
    for flag, value in zip(FLAGS, row.split(",")):
        args += [flag, value]
    args += ["--out", "json"]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, env=env)
    wall = time.perf_counter() - start
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def time_row(src: str, command: str, row: str) -> dict:
    walls, codes, digests = [], set(), set()
    while len(walls) < RUNS:
        wall, code, digest = run_once(src, command, row)
        walls.append(round(wall, 3))
        codes.add(code)
        digests.add(digest)
        if walls[0] > SINGLE_RUN_OVER_S:
            break
    if len(codes) != 1 or len(digests) != 1:
        raise SystemExit(f"row {row}: runs disagree (exit codes {codes}, digests {digests})")
    return {
        "runs_s": walls,
        "median_s": statistics.median(walls),
        "exit_code": codes.pop(),
        "sha256": digests.pop(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the cuspcenter package")
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", required=True, help="BENCH JSON file to create or extend")
    parser.add_argument("--command", choices=COMMANDS, default="deformation")
    parser.add_argument("--rows", nargs="+", help="q,ell[,n[,d]] per row")
    args = parser.parse_args(argv)
    rows = args.rows or DEFAULT_ROWS.get(args.command)
    if not rows:
        parser.error(f"--rows is required for {args.command}")

    bench = {"command": f"{args.command} --out json", "rows": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            recorded = json.load(fh)
        if recorded["command"] != bench["command"]:
            parser.error(f"{args.out} holds `{recorded['command']}`, not `{bench['command']}`")
        bench = recorded
    bench["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    compileall.compile_dir(os.path.abspath(args.src), quiet=1)  # before any timing
    for row in rows:
        cell = time_row(args.src, args.command, row)
        bench["rows"].setdefault(row, {})[args.column] = cell
        print(f"{row:>10} {args.column}: {cell['median_s']:.3f} s {cell['sha256'][:12]}", flush=True)

    mismatched = [
        row for row, cols in bench["rows"].items()
        if len({c["sha256"] for c in cols.values()}) > 1
    ]
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if mismatched:
        print(f"stdout differs between columns on rows {mismatched}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
