"""Self-check of the benchmark's traced run.

    python3 perfbench/selfcheck.py [--seed 1]

Runs every workload of BENCHMARK.json traced twice with the same seed.
Each traced run already fails (correct: false) if any traced pass printed
other bytes than the untraced passes, or if its traced passes disagree on a
count.  This script also requires every exact per-layer metric (every unit
but seconds) to repeat exactly across the two runs.
"""

from __future__ import annotations

import argparse
import sys

from spread import invoke, spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    exact = [m["name"] for m in s["per_layer"] if m["unit"] != "s"]

    ok = True
    for w in names:
        first, second = invoke(w, args.seed, 1), invoke(w, args.seed, 1)
        differ = [m for m in exact if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        correct = first["correct"] and second["correct"]
        ok = ok and correct and not differ
        overhead = first["metrics"]["trace.overhead_s"]["value"]
        print(f"{w}: correct={correct} exact counts repeat={not differ} {differ or ''} trace overhead={overhead:.3f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
