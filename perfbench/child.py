"""Run one benchmark command in a fresh interpreter and report on stderr.

    python3 child.py MODE cli ARGS...     dynkin_tilting.cli.main with ARGS
    python3 child.py MODE sweep TYPES...  verify.verify_type over every
                                          orientation of each type label

MODE is ``plain``, ``spans`` (SpanTracer) or ``calls`` (CallCounter).  The
program's stdout passes through untouched.  The last stderr line is
``@perfbench {json}`` with the process start time, the time to import
``dynkin_tilting.cli`` (which every command imports first), the
reference loop's times just before and just after the command, the peak RSS
read from /proc/self/status and the trace summary.  The exit code is the
command's own.

The reference loop is not also sampled during the command from a timer
signal: a SIGALRM arriving during a large write to the stdout pipe changed
the bytes the program printed.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from reference import reference  # noqa: E402

MARKER = "@perfbench "


def _peak_rss_kb() -> int:
    """VmHWM of this process.  ru_maxrss is not used where /proc is readable,
    because it carries the parent's RSS over from fork."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _sweep(labels: list[str]) -> None:
    from dynkin_tilting import verify
    from dynkin_tilting.diagrams import DynkinType, all_orientations, canonical_shape

    for label in labels:
        dtype = DynkinType.parse(label)
        report = verify.verify_type(dtype.series, dtype.rank, all_orientations(canonical_shape(dtype)))
        sys.stdout.write(report.render())


def main() -> int:
    mode, kind, *args = sys.argv[1:]
    refs = [reference()]
    t0 = perf_counter()
    from dynkin_tilting import cli  # every command's set-up: the CLI imports the whole package

    import_s = perf_counter() - t0

    tracer = None
    if mode != "plain":
        import tracer as tracing

        tracer = {"spans": tracing.SpanTracer, "calls": tracing.CallCounter}[mode]()
        tracer.install()

    code = 0
    if kind == "cli":
        sys.argv = ["dynkin-tilting", *args]
        try:
            cli.main()
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    else:
        _sweep(args)
    sys.stdout.flush()
    refs.append(reference())
    report = {
        "started": STARTED,
        "import_s": import_s,
        "reference": refs,
        "peak_rss_kb": _peak_rss_kb(),
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
