"""The benchmark's child runner still drives the CLI in every trace mode.

perfbench/child.py wraps package functions by name (SpanTracer) and counts
calls into enumeration.py (CallCounter); a refactor that renames or reshapes
what they wrap would only show up in a traced benchmark run.  This runs one
small command in each mode and checks that stdout is untouched and the
per-layer counts are reported, and checks that span tracing leaves the
stdout of a triangle and a verify command alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynkin_tilting

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
COMMAND = ["cli", "enumerate", "A", "3", "--statistic", "antichain"]
MARKER = "@perfbench "


def _run(mode, command=COMMAND):
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, *command], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, (mode, proc.stderr)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(MARKER), (mode, last)
    return proc.stdout, json.loads(last[len(MARKER) :])["trace"]


def test_child_runs_in_every_trace_mode():
    plain, trace = _run("plain")
    assert plain.startswith("by-support-rank: ") and trace is None
    spans_out, spans = _run("spans")
    calls_out, calls = _run("calls")
    assert spans_out == plain and calls_out == plain
    assert spans["counts"]["orbits.indecs"] == 6
    assert spans["counts"]["homs.pairs"] == 36
    assert spans["self_s"]["homs.build_matrices"] > 0
    assert calls["counts"]["enumeration.antichain.calls"] > 0
    assert calls["counts"]["enumeration.antichain.sets"] == 14


@pytest.mark.parametrize(
    "command, layer",
    [
        # the CLI streams triangle rows without oeis.triangle_doc, which
        # the tracer wraps, so only the run's own span is recorded
        (["cli", "triangle", "D", "--rows", "4"], "cli.run"),
        (["cli", "verify", "--quick"], "verify"),
    ],
    ids=["triangle", "verify"],
)
def test_spans_leave_stdout_alone(command, layer):
    plain, _ = _run("plain", command)
    traced, spans = _run("spans", command)
    assert traced == plain
    assert layer in spans["self_s"]
