"""Time one `cuspcenter` command over a ladder of parameter sets on two
source trees, interleaved run by run, and record both columns in one
BENCH file.

    python3 tools/bench_ladder.py --parent SRC --change SRC --out BENCH.json \
        [--command deformation|endo-ring|invariants|classes|oracle] \
        [--rows q,ell[,n[,d]] ...] [--max-group-order N]

Each row runs `python -m cuspcenter COMMAND --q Q --ell L [--n N]
[--d D] --out json` with `PYTHONPATH=SRC`, one fresh process per run,
3 pairs of runs, or a single pair when the first run takes over 30 s.
The two trees alternate run by run, and the side that runs first
alternates pair by pair (parent, change, change, parent, ...), so drift
of the host's speed falls on both columns alike.  Both SRC trees are
first copied to `TMP/parent/src` and `TMP/change/src` in one temporary
directory, so that both sides' paths have the same length (the peak
RSS moves by up to 0.3 MB with the length of the tree's path).  The
copies are byte-compiled before any run, so no run pays for compiling
the package.

Each column records the wall times, their median, the command's peak
RSS in MB per run (`ru_maxrss` from `os.wait4`, read by a small
spawner process so that it does not inherit this script's high-water
mark), the exit code and the sha256 of stdout.
Each row also records `ratio_median`, the median over the pairs of
change / parent wall time.  The command defaults to `deformation`;
every command has a default ladder, and the `endo-ring`, `classes` and
`oracle` rows give the n (q,ell,n).  `--max-group-order N` is passed
on to `oracle`, whose census refuses groups over 1000 elements by
default, and its rows are keyed `q,ell,n --max-group-order N`.  The
script exits 1 when the two columns of a row disagree on the sha256 (or a
side's runs disagree among themselves).  This is a measurement script,
not a test.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 3
SINGLE_PAIR_OVER_S = 30.0
DEFAULT_ROWS = {
    "deformation": (
        "2,3", "2,7", "3,5", "2,31", "3,7", "2,127", "2,73", "2,11", "2,23", "2,13", "2,19",
    ),
    "endo-ring": ("17,3,2", "7,5,4", "53,3,2", "101,17,2", "211,53,2"),
    "invariants": ("2,31", "2,73", "2,127", "211,53", "997,499"),
    "classes": ("17,3,2", "101,17,2", "211,53,2", "13,5,4", "64,19,3"),
    "oracle": ("4,5,2", "2,7,3", "5,3,2", "8,3,2", "9,5,2", "11,3,2"),
}
COMMANDS = ("deformation", "endo-ring", "invariants", "classes", "oracle")
FLAGS = ("--q", "--ell", "--n", "--d")
SIDES = ("parent", "change")


# A child's ru_maxrss starts from the high-water mark of the process
# that spawned it (the kernel carries it across fork, vfork and exec),
# so the command is spawned by this small interpreter, not by the
# ladder: it times the command, reaps it with os.wait4, prints
# "wall_s maxrss_kb" to stderr and exits with the command's code.
SPAWNER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_once(src: str, argv: list) -> tuple:
    """(wall seconds, peak RSS in MB, exit code, stdout sha256) of one
    fresh process; stdout is hashed as it streams, never held whole."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    digest = hashlib.sha256()
    with subprocess.Popen(
        [sys.executable, "-S", "-c", SPAWNER, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
        report = proc.stderr.read().split()
    wall, maxrss_kb = float(report[0]), int(report[1])
    return wall, maxrss_kb / 1024, proc.returncode, digest.hexdigest()


def time_row(srcs: dict, command: str, row: str, extra: tuple = ()) -> dict:
    argv = [sys.executable, "-m", "cuspcenter", command]
    for flag, value in zip(FLAGS, row.split(",")):
        argv += [flag, value]
    argv += [*extra, "--out", "json"]
    runs = {side: [] for side in SIDES}
    for pair in range(PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(srcs[side], argv))
        if runs["parent"][0][0] > SINGLE_PAIR_OVER_S:
            break
    cell = {}
    for side, results in runs.items():
        walls = [round(r[0], 3) for r in results]
        codes, digests = {r[2] for r in results}, {r[3] for r in results}
        if len(codes) != 1 or len(digests) != 1:
            raise SystemExit(f"row {row} {side}: runs disagree ({codes}, {digests})")
        cell[side] = {
            "runs_s": walls,
            "median_s": statistics.median(walls),
            "peak_rss_mb": [round(r[1], 1) for r in results],
            "exit_code": codes.pop(),
            "sha256": digests.pop(),
        }
    ratios = [c[0] / p[0] for p, c in zip(runs["parent"], runs["change"])]
    cell["ratio_median"] = round(statistics.median(ratios), 3)
    return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="cuspcenter source tree before the change")
    parser.add_argument("--change", required=True, help="cuspcenter source tree with the change")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--command", choices=COMMANDS, default="deformation")
    parser.add_argument("--rows", nargs="+", help="q,ell[,n[,d]] per row")
    parser.add_argument("--max-group-order", type=int, help="oracle's census bound")
    args = parser.parse_args(argv)
    rows = args.rows or DEFAULT_ROWS[args.command]
    extra = ()
    if args.max_group_order is not None:
        if args.command != "oracle":
            parser.error("--max-group-order applies to --command oracle only")
        extra = ("--max-group-order", str(args.max_group_order))
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {}
        for side, src in (("parent", args.parent), ("change", args.change)):
            srcs[side] = os.path.join(tmp, side, "src")
            shutil.copytree(src, srcs[side], ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(srcs[side], quiet=1)  # before any timing
        return run_ladder(srcs, args.command, rows, args.out, extra)


def run_ladder(srcs: dict, command: str, rows, out: str, extra: tuple = ()) -> int:
    bench = {
        "command": f"{command} --out json",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rows": {},
    }
    for row in rows:
        key = " ".join([row, *extra])
        cell = bench["rows"][key] = time_row(srcs, command, row, extra)
        print(
            f"{key:>10} parent {cell['parent']['median_s']:.3f} s "
            f"{max(cell['parent']['peak_rss_mb']):.0f} MB, change "
            f"{cell['change']['median_s']:.3f} s {max(cell['change']['peak_rss_mb']):.0f} MB, "
            f"ratio {cell['ratio_median']:.3f}",
            flush=True,
        )
    mismatched = [
        row for row, cell in bench["rows"].items()
        if cell["parent"]["sha256"] != cell["change"]["sha256"]
    ]
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if mismatched:
        print(f"stdout differs between parent and change on rows {mismatched}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
