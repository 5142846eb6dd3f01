"""Time `cuspcenter deformation` over a ladder of parameter sets, one
fresh process per run, and record one column of a BENCH file.

    python3 tools/bench_ladder.py --src SRC --column NAME --out BENCH.json \
        [--rows q,ell[,n[,d]] ...]

Each row runs `python -m cuspcenter deformation --q Q --ell L [--n N]
[--d D] --out json` with `PYTHONPATH=SRC`: the median of 3 runs, or a
single run when the first one takes over 30 s.  The column records the
wall times, their median, the exit code and the sha256 of stdout.  An
existing OUT file is read and the column is added to it (replacing one
of the same name), so two invocations against two source trees give a
before/after pair.  Where a row has two columns, their sha256 must
agree; the script exits 1 otherwise.  This is a measurement script, not
a test.
"""

from __future__ import annotations

import argparse
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
DEFAULT_ROWS = ("2,3", "2,7", "3,5", "2,31", "3,7", "2,127")
FLAGS = ("--q", "--ell", "--n", "--d")


def run_once(src: str, row: str) -> tuple:
    """(wall seconds, exit code, stdout sha256) of one fresh process."""
    args = [sys.executable, "-m", "cuspcenter", "deformation"]
    for flag, value in zip(FLAGS, row.split(",")):
        args += [flag, value]
    args += ["--out", "json"]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, env=env)
    wall = time.perf_counter() - start
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def time_row(src: str, row: str) -> dict:
    walls, codes, digests = [], set(), set()
    while len(walls) < RUNS:
        wall, code, digest = run_once(src, row)
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
    parser.add_argument("--rows", nargs="+", default=DEFAULT_ROWS, help="q,ell[,n[,d]] per row")
    args = parser.parse_args(argv)

    bench = {"command": "deformation --out json", "rows": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    for row in args.rows:
        cell = time_row(args.src, row)
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
