"""Benchmark of dynkin-tilting, driven from outside through its CLI and its
public functions.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of a workload runs in a fresh interpreter (child.py) against
the sources under src/, which are byte-compiled first so that no timed
import compiles.  A pass runs every command once, in order, with a
single client.  With --trace 0 the run repeats passes for S seconds and
reports the end-to-end metrics of BENCHMARK.json as medians over passes;
with --trace 1 it alternates untraced and traced passes, adds one
call-counting pass, and reports the per-layer metrics.  The last stdout
line is the JSON result; the line before it records the host (nproc,
Python version, load average) and the pass times.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import selectors
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
MARKER = b"@perfbench "
COMMAND_TIMEOUT_S = 120

SELF_TIME_LAYERS = (
    "diagrams.build_cartan",
    "diagrams.positive_roots",
    "orbits.knit_category",
    "homs.build_matrices",
    "enumeration.count_tables",
    "enumeration.enumerate",
    "enumeration.format_set",
    "formulas",
    "oeis.triangle_doc",
    "oeis.render_triangle",
    "oeis.reconcile",
    "verify",
    "cli.run",
)
SPAN_COUNTS = (
    "orbits.indecs",
    "homs.pairs",
    "enumeration.sets",
    "formulas.a_s.calls",
    "oeis.cells",
    "oeis.bytes",
    "verify.checks",
)


@dataclass
class Outcome:
    """What one child process did.  `wall` and `cpu` leave out the child's
    reference loops; `speed` is REFERENCE_S over their mean CPU time."""

    spawned: float
    wall: float
    cpu: float
    speed: float
    code: int
    sha256: str
    nbytes: int
    nlines: int
    report: dict | None
    stderr: str


@dataclass
class Pass:
    mode: str
    outcomes: list[Outcome]

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    def at_reference_speed(self, attr: str) -> float:
        """Sum of each command's wall or cpu time, scaled to reference speed."""
        return sum(getattr(o, attr) * o.speed for o in self.outcomes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DYNKIN_TILTING_FIXTURES", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # the peak RSS of the large triangles depends on how the heap fragments:
    # at glibc's default threshold (128 KiB, moving) or at a fixed 128 or
    # 64 KiB it shifted by up to 10% with the checkout's path; with blocks
    # of 16 KiB and more mapped on their own it repeats within 0.2%
    env["MALLOC_MMAP_THRESHOLD_"] = "16384"
    return env


def run_child(argv: list[str], env: dict[str, str]) -> Outcome:
    """Run one child, streaming its stdout into a digest without keeping it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    digest = hashlib.sha256()
    nbytes = nlines = 0
    err = bytearray()
    spawned = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    deadline = spawned + COMMAND_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - perf_counter()
                if left <= 0:
                    break
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        nbytes += len(chunk)
                        nlines += chunk.count(b"\n")
                    else:
                        err += chunk
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
        code = proc.wait()
    wall = perf_counter() - spawned
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    proc.stdout.close()
    proc.stderr.close()
    report = None
    lines = bytes(err).splitlines()
    if lines and lines[-1].startswith(MARKER):
        report = json.loads(lines.pop()[len(MARKER) :])
    stderr = b"\n".join(lines).decode(errors="replace")
    speed = 1.0
    if report is not None:
        ref_walls, ref_cpus = zip(*report["reference"])
        wall -= sum(ref_walls)
        cpu -= sum(ref_cpus)
        speed = REFERENCE_S / statistics.fmean(ref_cpus)
    return Outcome(spawned, wall, cpu, speed, code, digest.hexdigest(), nbytes, nlines, report, stderr)


def run_pass(cmds: list[workloads.Command], mode: str, env: dict[str, str]) -> Pass:
    return Pass(mode, [run_child([sys.executable, str(CHILD), mode, *c.argv], env) for c in cmds])


def check(cmd: workloads.Command, out: Outcome) -> str | None:
    """Why the command failed, or None if its exit code and stdout are right."""
    if out.code != 0:
        return f"exit code {out.code}"
    if out.nbytes == 0:
        return "empty stdout"
    if out.report is None:
        return "no report from the child process"
    if cmd.sha256 is not None and out.sha256 != cmd.sha256:
        return f"stdout sha256 {out.sha256} differs from the pinned {cmd.sha256}"
    if cmd.lines is not None and out.nlines != cmd.lines:
        return f"{out.nlines} stdout lines, expected {cmd.lines}"
    return None


def setup_parts(o: Outcome) -> tuple[float, float]:
    """A child's start (spawn to its first statement) and its import of the
    CLI, scaled by the speed of its first reference loop, which runs between
    the two."""
    scale = REFERENCE_S / o.report["reference"][0][1]
    return (o.report["started"] - o.spawned) * scale, o.report["import_s"] * scale


class Run:
    """The passes of one benchmark run and the failures seen in them."""

    def __init__(self, cmds: list[workloads.Command], env: dict[str, str]) -> None:
        self.cmds = cmds
        self.env = env
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, cmds: list[workloads.Command], mode: str) -> Pass:
        p = run_pass(cmds, mode, self.env)
        for cmd, out in zip(cmds, p.outcomes):
            self.attempted += 1
            why = check(cmd, out)
            if why is not None:
                self.failed += 1
                tail = out.stderr[-2000:] if out.code != 0 or out.report is None else ""
                self.problem(f"{mode} pass, {cmd.label}: {why}\n{tail}".rstrip())
        self.passes.append(p)
        return p

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: FAIL {text}", file=sys.stderr)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(p: Pass) -> float:
    return max((o.report["peak_rss_kb"] for o in p.outcomes if o.report), default=0) / 1024


def measure(run: Run, seconds: int) -> dict[str, float]:
    """End-to-end metrics: passes repeated until the next would pass the
    deadline.  Times are medians at reference speed; set-up time is the
    median over every command of every pass."""
    deadline = perf_counter() + seconds
    passes: list[Pass] = []
    rounds: list[float] = []
    while True:
        t0 = perf_counter()
        passes.append(run.run(run.cmds, "plain"))
        rounds.append(perf_counter() - t0)
        if perf_counter() + median(rounds) > deadline:
            break
    setups = [sum(setup_parts(o)) for p in passes for o in p.outcomes if o.report]
    return {
        "wall_s": median([p.at_reference_speed("wall") for p in passes]),
        "cpu_s": median([p.at_reference_speed("cpu") for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([peak_rss_mb(p) for p in passes]),
        "pass_frac": (run.attempted - run.failed) / run.attempted,
    }


def trace(run: Run, seconds: int) -> dict[str, float]:
    """Per-layer metrics: untraced and span-traced passes alternate until the
    deadline, then commands that called count_tables run once more with the
    call counter.  Every pass must print the same bytes, and the exact counts
    must agree between span-traced passes."""
    deadline = perf_counter() + seconds
    plain: list[Pass] = []
    spans: list[Pass] = []
    rounds: list[float] = []
    while True:
        t0 = perf_counter()
        plain.append(run.run(run.cmds, "plain"))
        spans.append(run.run(run.cmds, "spans"))
        rounds.append(perf_counter() - t0)
        if perf_counter() + median(rounds) > deadline:
            break
    counted = [
        i
        for i, out in enumerate(spans[0].outcomes)
        if out.report and "enumeration.count_tables" in out.report["trace"]["self_s"]
    ]
    calls = run.run([run.cmds[i] for i in counted], "calls") if counted else None

    for i, cmd in enumerate(run.cmds):
        digests = {p.outcomes[i].sha256 for p in plain + spans}
        if calls is not None and i in counted:
            digests.add(calls.outcomes[counted.index(i)].sha256)
        if len(digests) != 1:
            run.problem(f"{cmd.label}: stdout differs between traced and untraced passes")

    def span_counts(p: Pass) -> dict[str, int]:
        totals: dict[str, int] = dict.fromkeys(SPAN_COUNTS, 0)
        for out in p.outcomes:
            for key, n in (out.report["trace"]["counts"] if out.report else {}).items():
                totals[key] = totals.get(key, 0) + n
        return totals

    counts = span_counts(spans[0])
    if any(span_counts(p) != counts for p in spans[1:]):
        run.problem("exact counts differ between traced passes")

    metrics: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = median(
            [sum(o.report["trace"]["self_s"].get(layer, 0.0) * o.speed for o in p.outcomes if o.report) for p in spans]
        )
    for key in SPAN_COUNTS:
        metrics[key] = counts[key]
    call_counts = calls.outcomes if calls is not None else []
    for kind in ("tilting", "antichain"):
        n_calls = sum(o.report["trace"]["counts"].get(f"enumeration.{kind}.calls", 0) for o in call_counts if o.report)
        n_sets = sum(o.report["trace"]["counts"].get(f"enumeration.{kind}.sets", 0) for o in call_counts if o.report)
        metrics[f"enumeration.{kind}.calls"] = n_calls
        metrics[f"enumeration.{kind}.sets"] = n_sets
        metrics[f"enumeration.{kind}.calls_per_set"] = n_calls / n_sets if n_sets else 0.0
    metrics["cli.stdout_bytes"] = sum(o.nbytes for o in spans[0].outcomes)
    for i, name in enumerate(("process.start_s", "cli.import_s")):
        metrics[name] = median([sum(setup_parts(o)[i] for o in p.outcomes if o.report) for p in plain])
    metrics["trace.untraced_wall_s"] = median([p.at_reference_speed("wall") for p in plain])
    metrics["trace.wall_s"] = median([p.at_reference_speed("wall") for p in spans])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    # stopping the benchmark unwinds through run_child, which kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dynkin_tilting" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program at {SRC / 'dynkin_tilting'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    host_before = host()
    run = Run(workloads.commands(args.workload, args.seed), env)
    compileall.compile_dir(SRC, quiet=1)
    values = trace(run, args.seconds) if args.trace else measure(run, args.seconds)

    mismatched = {m["name"] for m in declared} ^ set(values)
    if mismatched:
        print(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(mismatched)}", file=sys.stderr)
        return 2
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_before": host_before,
        "host_after": host(),
        "reference_s": REFERENCE_S,
        "passes": [
            {
                "mode": p.mode,
                "wall_s": p.wall,
                "cpu_s": p.cpu,
                "commands_s": [o.wall for o in p.outcomes],
                "setups_s": [
                    o.report["started"] - o.spawned + o.report["import_s"] if o.report else None for o in p.outcomes
                ],
                "speeds": [o.speed for o in p.outcomes],
            }
            for p in run.passes
        ],
    }
    print("# perfbench " + json.dumps(context))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
