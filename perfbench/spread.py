"""Run the benchmark many times and report how far each metric spreads.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--out FILE]

Runs every workload of BENCHMARK.json.  Run i of every workload uses seed
first-seed + i.  Workloads are interleaved (seed 1 of each, then seed 2 of
each, ...), so a slow spell on the host spreads over all of them instead of
landing on one workload's repeats.  For each end-to-end metric it prints
the median and the interquartile range as a share of the median
(statistics.quantiles, n=4) next to the metric's bound from BENCHMARK.json,
and it exits 1 if any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run as the benchmark's command line describes it."""
    s = spec()
    argv = [*s["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(s["run_seconds"])]
    proc = subprocess.run(
        [*argv, "--trace", str(trace)], cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2].removeprefix("# perfbench ")) if len(lines) > 1 else None
    return result


def relative_iqr(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="also write every run and the summary as JSON")
    args = parser.parse_args()
    s = spec()
    names = [w["name"] for w in s["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            result = invoke(w, args.first_seed + i, 0)
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed={args.first_seed + i} correct={result['correct']} {values}", flush=True)

    summary: dict[str, dict] = {}
    steady = True
    for w in names:
        summary[w] = {}
        for m in s["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            spread = relative_iqr(values)
            summary[w][m["name"]] = {"median": statistics.median(values), "spread": spread, "bound": m["bound"]}
            if spread > m["bound"]:
                steady = False
            flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread > m["bound"] else "within bound")
            print(f"{w:12} {m['name']:12} median={statistics.median(values):.4g} spread={spread:.4f} bound={m['bound']} {flag}")
        if not all(r["correct"] and r["failed"] == 0 for r in runs[w]):
            steady = False
            print(f"{w}: a run was not correct")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
