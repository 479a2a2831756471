"""A fixed pure-Python loop that measures how fast the current CPU runs.

On a shared 2-vCPU host each vCPU's speed drifts by a third within a
minute, and the two drift apart.  Every measured process runs this loop on
the CPU it is running on, just before and just after its work; dividing the
work's time by the loop's mean time cancels most of the drift (README.md).
The loop never touches the program under test.
"""

from time import perf_counter, thread_time

# The loop's time on a quiet host (2-core Xeon VM at 2.1 GHz, CPython
# 3.11.7).  Reported times are scaled to this speed.
REFERENCE_S = 0.04


def reference() -> tuple[float, float]:
    """Wall seconds and this thread's CPU seconds for one run of the loop.

    The CPU time is the speed measure: in a multithreaded process the wall
    time would include waiting for the interpreter lock."""
    wall, cpu = perf_counter(), thread_time()
    table = {}
    acc = 0
    for i in range(300_000):
        table[i & 1023] = i
        acc += (i * i) & 0xFFFF
    return perf_counter() - wall, thread_time() - cpu
