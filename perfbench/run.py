"""The cuspcenter benchmark: fixed workloads through the CLI, one fresh
process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references

Run it from the repository root.  Each workload is a list of units (one
CLI command, or the cold/warm cache pair); ``--seed`` sets the order of
the units in every pass and the kernel operands.  Commands run one at a
time, each in a fresh interpreter, so no process-wide cache survives from
one command to the next.  Every command's stdout must match the sha256
in ``references.json`` byte for byte, and the golden ``endo-ring`` cases
must also equal ``tests/golden/*.json``.

``--trace 0`` runs the units over and over until the next one would
overrun ``--seconds`` and reports the end-to-end metrics from the median
time of each unit, plus ``setup_s`` from several bare start-ups.  Times
are scaled by the calibration runs of ``calibrate.py`` around them.
``--trace 1`` runs one plain pass, then two passes through
``traced_cli.py`` (whose counts must agree exactly) and the seeded
kernels in ``kernels.py``, and reports the per-layer metrics.

The metric names and units are read from ``BENCHMARK.json``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from traced_cli import SPANNED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
SPEC = ROOT / "BENCHMARK.json"
REFERENCES = BENCH / "references.json"
WORK = ROOT / ".bench_build" / "perfbench"

RUN_DEADLINE_S = 170.0  # a whole run must end within 180 s
COMMAND_CAP_S = 120.0  # a command running longer is killed and fails
SETUP_GROUPS = 3  # of three set-up probes each
SETUP_PROBE = ["-c", "import cuspcenter.cli as cli; cli.build_parser()"]
REFERENCE_S = 0.25  # seconds calibrate.py takes on the reference host, a 2-vCPU 2.1 GHz Xeon VM
KERNEL_SECONDS = 0.4  # timed per kernel
CACHE = "{cache}"  # replaced by a fresh, empty cache directory per unit


@dataclass(frozen=True)
class Step:
    name: str  # key into references.json
    args: tuple[str, ...]
    golden: str | None = None  # tests/golden/<golden>.json must match too


def step(*args: str, label: str = "", golden: str | None = None) -> Step:
    name = " ".join(args).replace(f" --cache-dir {CACHE}", "") + (f" ({label})" if label else "")
    return Step(name, (*args, "--out", "json"), golden)


# Same parameter sets as tests/test_golden.py.
GOLDEN = {
    "p1-q2-l3": ("--q", "2", "--ell", "3"),
    "p2-q2-l7": ("--q", "2", "--ell", "7"),
    "p3-q8-l3": ("--q", "8", "--ell", "3"),
    "p4-q4-l5": ("--q", "4", "--ell", "5"),
    "p5-q3-l5": ("--q", "3", "--ell", "5"),
    "u4-q2-l5-d2": ("--q", "2", "--ell", "5", "--n", "4", "--d", "2"),
}

CLASSES_17 = ("classes", "--q", "17", "--n", "2", "--ell", "3", "--cache-dir", CACHE)

# workload -> units; a unit is a tuple of steps that always run in order
WORKLOADS: dict[str, tuple[tuple[Step, ...], ...]] = {
    "field-census": (
        (step("endo-ring", "--q", "17", "--ell", "3"),),
        (step(*CLASSES_17, label="cold cache"), step(*CLASSES_17, label="warm cache")),
    ),
    "deformation-sweep": (
        (step("deformation", "--q", "3", "--ell", "5"),),
        (step("deformation", "--q", "2", "--ell", "7"),),
    ),
    "valuation-wide": (
        (step("endo-ring", "--q", "2", "--ell", "31"),),
        (step("invariants", "--q", "2", "--ell", "127"),),
    ),
    "golden-ladder": tuple(
        (step("endo-ring", *args, golden=name),) for name, args in GOLDEN.items()
    )
    + (
        (step("oracle", "--q", "4", "--n", "2", "--ell", "5"),),
        (step("oracle", "--q", "2", "--n", "3", "--ell", "7"),),
    ),
}


@dataclass
class Proc:
    stdout: bytes
    stderr: bytes
    code: int | None  # None when killed at the cap
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Outcome:
    step: Step
    proc: Proc
    failure: str | None
    summary: dict | None = None  # traced runs only


class Runner:
    """Starts child interpreters one at a time and keeps the tallies."""

    def __init__(self, env: dict):
        self.env = env
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAIL {message}", file=sys.stderr)

    def spawn(self, argv: list[str]) -> Proc:
        """Run ``python argv`` to completion, or kill it at the cap."""
        cap = min(COMMAND_CAP_S, self.remaining())
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], self.env, file_actions=actions
        )
        finished = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                finished = bool(select.select([pidfd], [], [], max(cap, 0.0))[0])
            finally:
                os.close(pidfd)
        finally:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        return Proc(
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            code=os.waitstatus_to_exitcode(status) if finished else None,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
        )

    def calibrate(self) -> Proc:
        proc = self.spawn([str(BENCH / "calibrate.py")])
        self.record(proc.code == 0, f"calibration: exit code {proc.code}")
        return proc

    def run_unit(self, unit: tuple[Step, ...], refs: dict | None, traced: bool) -> list[Outcome]:
        cache = tempfile.mkdtemp(dir=WORK) if any(CACHE in s.args for s in unit) else ""
        try:
            return [self.run_step(s, cache, refs, traced) for s in unit]
        finally:
            if cache:
                shutil.rmtree(cache)

    def run_step(self, s: Step, cache: str, refs: dict | None, traced: bool) -> Outcome:
        args = [cache if a == CACHE else a for a in s.args]
        if traced:
            summary_path = WORK / "summary.json"
            spans_path = WORK / "spans" / (s.name.replace(" ", "_") + ".jsonl")
            argv = [str(BENCH / "traced_cli.py"), str(summary_path), str(spans_path), *args]
        else:
            argv = ["-m", "cuspcenter", *args]
        proc = self.spawn(argv)
        failure = check_output(s, proc, refs)
        summary = None
        if traced and failure is None:
            summary = json.loads(summary_path.read_text())
        self.record(failure is None, f"{s.name}: {failure}")
        print(f"  {proc.wall:8.3f} s  {s.name}{' (traced)' if traced else ''}", file=sys.stderr)
        return Outcome(s, proc, failure, summary)

    def run_pass(self, units, refs: dict, traced: bool = False) -> list[Outcome]:
        outcomes = []
        for unit in units:
            if self.remaining() <= 0:
                for s in unit:
                    self.record(False, f"{s.name}: not started, run deadline reached")
                continue
            outcomes += self.run_unit(unit, refs, traced)
        return outcomes


def check_output(s: Step, proc: Proc, refs: dict | None) -> str | None:
    """Why the command failed, or None; ``refs`` None skips the sha256 check."""
    if proc.code is None:
        return "killed at the per-command cap"
    if proc.code != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {proc.code} {tail}"
    if s.golden is not None:
        if proc.stdout != (GOLDEN_DIR / f"{s.golden}.json").read_bytes():
            return f"stdout differs from tests/golden/{s.golden}.json"
    if refs is not None and hashlib.sha256(proc.stdout).hexdigest() != refs.get(s.name):
        return "stdout sha256 differs from references.json"
    return None


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.proc.wall for o in outcomes)


def end_to_end(runner: Runner, units, refs: dict, rng: random.Random, seconds: float) -> dict:
    """Runs the units over and over, in a fresh seeded order each round,
    until the next unit would overrun ``seconds``; every unit runs at
    least once.  A whole command list costs the sum of the units' median
    times.

    The host's speed drifts, so a calibration run brackets every unit
    and every group of set-up probes; each time is scaled to the
    reference host by the mean of its two bracketing calibrations.
    """
    before = runner.calibrate()

    def bracketed(run) -> tuple[list, float, float]:
        nonlocal before
        result = run()
        after = runner.calibrate()
        wall_scale = REFERENCE_S / statistics.mean([before.wall, after.wall])
        cpu_scale = REFERENCE_S / statistics.mean([before.cpu, after.cpu])
        before = after
        return result, wall_scale, cpu_scale

    setup = []
    for _ in range(SETUP_GROUPS):
        probes, wall_scale, _ = bracketed(lambda: [runner.spawn(SETUP_PROBE) for _ in range(3)])
        for proc in probes:
            runner.record(proc.code == 0, f"set-up probe: exit code {proc.code}")
            setup.append(proc.wall * wall_scale)

    walls = [[] for _ in units]  # per unit, one scaled wall time per run of it
    cpus = [[] for _ in units]
    durations = [[] for _ in units]  # unscaled, calibration included
    commands: dict[str, list[float]] = {}
    rss, ok, attempted = 0.0, 0, 0
    start = time.perf_counter()
    queue: list[int] = []
    while True:
        if not queue:
            queue = rng.sample(range(len(units)), len(units))
        i = queue.pop()
        if all(durations):
            typical = statistics.median(durations[i])
            if time.perf_counter() - start + typical > seconds or typical > runner.remaining():
                break
        t0 = time.perf_counter()
        outcomes, wall_scale, cpu_scale = bracketed(lambda: runner.run_pass([units[i]], refs))
        durations[i].append(time.perf_counter() - t0)
        walls[i].append(pass_wall(outcomes) * wall_scale)
        cpus[i].append(sum(o.proc.cpu for o in outcomes) * cpu_scale)
        for o in outcomes:
            commands.setdefault(o.step.name, []).append(o.proc.wall * wall_scale)
            rss = max(rss, o.proc.rss_mb)
        attempted += len(units[i])
        ok += sum(o.failure is None for o in outcomes)
    print(f"{attempted} commands; runs per unit {[len(d) for d in durations]}", file=sys.stderr)
    return {
        "wall_s": sum(statistics.median(w) for w in walls if w),
        "cpu_s": sum(statistics.median(c) for c in cpus if c),
        "max_cmd_s": max((statistics.median(c) for c in commands.values()), default=0.0),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ok_ratio": ok / attempted,
    }


def layer_values(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """Per-layer (times, counts) summed over the commands of one traced pass."""
    functions = [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]
    times = {f"{f}.{key}": 0.0 for f in functions for key in ("s", "self_s")}
    counts: dict[str, int] = {f"{f}.calls": 0 for f in functions}
    overhead = []
    for o in outcomes:
        if o.summary is None:
            continue
        for f, rec in o.summary["functions"].items():
            counts[f"{f}.calls"] += rec["calls"]
            times[f"{f}.s"] += rec["s"]
            times[f"{f}.self_s"] += rec["self_s"]
        for name, value in o.summary["counters"].items():
            counts[name] = counts.get(name, 0) + value
        main_s = o.summary["functions"]["cli.main"]["s"]
        overhead.append(o.proc.wall - main_s - o.summary["tracer_s"])
    times["cli.process_overhead_s"] = statistics.mean(overhead) if overhead else 0.0
    return times, counts


def per_layer(runner: Runner, units, refs: dict, rng: random.Random, seed: int) -> dict:
    order = rng.sample(units, len(units))
    (WORK / "spans").mkdir(exist_ok=True)
    plain = pass_wall(runner.run_pass(order, refs))
    traced = [runner.run_pass(order, refs, traced=True) for _ in range(2)]
    walls = [pass_wall(t) for t in traced]
    (times_a, counts), (times_b, counts_b) = (layer_values(t) for t in traced)
    drift = sorted(k for k in counts.keys() | counts_b.keys() if counts.get(k) != counts_b.get(k))
    runner.record(not drift, f"counts differ between two traced passes: {drift}")

    # Function times become shares of the command time (cli.main.s): a
    # function a workload never calls then reads 0 of a measured total,
    # and the self shares of all functions add up to 1.
    times = {k: (times_a[k] + times_b[k]) / 2 for k in times_a}
    main_s = times["cli.main.s"]
    values: dict[str, float] = {
        "cli.main.s": main_s,
        "cli.process_overhead_s": times["cli.process_overhead_s"],
    }
    for key, t in times.items():
        if key.endswith(".self_s"):
            values[key.removesuffix(".self_s") + ".self_share"] = t / main_s if main_s else 0.0
        elif key.endswith(".s") and key != "cli.main.s":
            values[key.removesuffix(".s") + ".share"] = t / main_s if main_s else 0.0
    roots = counts.pop("finitefield.roots_in.roots", 0)
    evals = counts.pop("finitefield.roots_in.evals", 0)
    counts.pop("finitefield.FqPoly.call.calls", None)  # only feeds evals
    values.update(counts)
    values["finitefield.roots_in.evals_per_root"] = evals / roots if roots else 0.0
    suite_s = times["deformation.deformation_suite.s"]
    values["deformation.points_per_s"] = (
        values["deformation.check_relations.calls"] / suite_s if suite_s else 0.0
    )
    values["trace.overhead_ratio"] = statistics.mean(walls) / plain

    proc = runner.spawn([str(BENCH / "kernels.py"), str(seed), str(KERNEL_SECONDS)])
    kernels = json.loads(proc.stdout) if proc.code == 0 else {"rates": {}, "failures": []}
    runner.record(proc.code == 0, f"kernels: exit code {proc.code}")
    for message in kernels["failures"]:
        runner.record(False, message)
    runner.attempted += kernels.get("checked", 0) - len(kernels["failures"])
    values.update(kernels["rates"])
    return values


def emit(values: dict, declared: list[dict], runner: Runner) -> None:
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - set(names))
    if extra or (missing and not runner.failures):
        sys.exit(f"metrics out of step with BENCHMARK.json: missing {missing}, undeclared {extra}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values  # a metric is missing only when the run failed
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": metrics,
            }
        )
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CUSPCENTER_CACHE", None)  # caches stay cold unless a step asks for one
    return env


def record_references(runner: Runner) -> None:
    refs = {}
    for units in WORKLOADS.values():
        for unit in units:
            for o in runner.run_unit(unit, None, traced=False):
                if o.failure is not None:
                    sys.exit(f"{o.step.name}: {o.failure}")
                refs[o.step.name] = hashlib.sha256(o.proc.stdout).hexdigest()
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="rewrite references.json from the current program's output",
    )
    args = parser.parse_args()
    if not (SRC / "cuspcenter" / "cli.py").is_file() or not GOLDEN_DIR.is_dir():
        sys.exit(f"no cuspcenter checkout at {ROOT}: src/cuspcenter and tests/golden are required")
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)  # byte-compile once, before timing
    runner = Runner(child_env())
    if args.record_references:
        record_references(runner)
        return
    spec = json.loads(SPEC.read_text())
    refs = json.loads(REFERENCES.read_text())
    units = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    if args.trace:
        values = per_layer(runner, units, refs, rng, args.seed)
        emit(values, spec["per_layer"], runner)
    else:
        values = end_to_end(runner, units, refs, rng, args.seconds)
        emit(values, spec["end_to_end"], runner)


if __name__ == "__main__":
    main()
