"""Command-line interface.

Subcommands: table, triangle, enumerate, verify, reconcile.  Numeric output
is plain decimal on stdout; the effective configuration of each run goes to
stderr so stdout stays byte-stable and machine-readable.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage error, 141
stdout closed by its reader before the output ended.

Each command returns its exit code and its stdout lines, and `run` alone
writes them, joined into blocks of at least 8 KiB (io.DEFAULT_BUFFER_SIZE).
So the bytes and the speed of every command's stdout do not depend on
`python -u` or PYTHONUNBUFFERED, under which every write to stdout is a
write(2).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import Iterable, Sequence, get_args

from . import formulas, oeis, verify
from .diagrams import SERIES, DiagramError, DynkinType, _plain_int, build_cartan
from .enumeration import Statistic, count_row, count_tables, listing_lines
from .homs import build_category

def _bounded_int(minimum: int, maximum: int | None = None):
    """An argparse type for ASCII digits whose value lies in the bounds."""
    bounds = f">= {minimum}" if maximum is None else f"within {minimum}..{maximum}"

    def parse(text: str) -> int:
        value = _plain_int(text)
        if value is None or value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkin-tilting",
        description="Exact antichain/support-tilting counts for Dynkin diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print one row of closed-form counts")
    p.add_argument("series", choices=SERIES)
    p.add_argument("n", type=_bounded_int(0))

    p = sub.add_parser("triangle", help="emit a triangle (pretty, csv, or b-file)")
    p.add_argument("name", choices=list(oeis.TRIANGLE_NAMES))
    p.add_argument("--rows", type=_bounded_int(0), default=10)
    p.add_argument("--format", dest="fmt", choices=oeis.FORMATS, default="pretty")

    p = sub.add_parser("enumerate", help="enumerate one algebra and print count tables")
    p.add_argument("series", choices=SERIES)
    p.add_argument("n", type=_bounded_int(0))
    p.add_argument("--orientation", default="default", help="'default', 'none' (no edges) or arrows like '2>1,3>2'")
    p.add_argument("--statistic", choices=get_args(Statistic), default="tilting")
    p.add_argument("--list", action="store_true", dest="listing", help="list every set")
    p.add_argument(
        "--max-results",
        type=_bounded_int(1),
        default=verify.MAX_RESULTS,
        help=f"refuse types with more result sets than this (default {verify.MAX_RESULTS})",
    )

    p = sub.add_parser("verify", help="run a verification suite and print the report")
    g = p.add_mutually_exclusive_group()
    for level in verify.SUITES:
        g.add_argument(f"--{level}", action="store_const", const=level, dest="level")
    p.set_defaults(level="full")
    p.add_argument(
        "--max-n",
        type=_bounded_int(verify.IDENTITY_MIN_N, verify.IDENTITY_MAX_N),
        default=None,
        help=f"identity-suite bound, {verify.IDENTITY_MIN_N}..{verify.IDENTITY_MAX_N}",
    )
    p.add_argument("--threads", type=_bounded_int(1), default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", default=None, help="also write the report to this path")

    p = sub.add_parser("reconcile", help="compare a generated sequence against its b-file")
    p.add_argument("sequence_id", choices=list(oeis.SEQUENCE_IDS))
    p.add_argument("--terms", type=_bounded_int(0), help="compare this many terms (default: every term of the b-file)")
    p.add_argument("--online", action="store_true", help="fetch from oeis.org before falling back")
    return parser


def _cmd_table(args) -> tuple[int, Iterable[str]]:
    return 0, [count_row(formulas.a_row(args.series, args.n), f"total {formulas.a_total(args.series, args.n)}") + "\n"]


def _cmd_triangle(args) -> tuple[int, Iterable[str]]:
    return 0, oeis.triangle_lines(args.name, args.rows, args.fmt)


def _write_in_blocks(lines: Iterable[str]) -> None:
    """Write the lines to stdout joined into blocks of at least
    io.DEFAULT_BUFFER_SIZE characters, then the shorter rest, one write each."""
    block: list[str] = []
    size = 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= io.DEFAULT_BUFFER_SIZE:
            sys.stdout.write("".join(block))
            block, size = [], 0
    sys.stdout.write("".join(block))  # the rest, shorter than a block


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    dtype = DynkinType(args.series, args.n)
    try:
        verify.check_result_budget(dtype, args.max_results)
    except ValueError as exc:
        raise ValueError(f"{exc}; raise it with --max-results") from None
    cat = build_category(build_cartan(dtype, args.orientation))
    if args.listing:
        return 0, listing_lines(cat, args.statistic)
    table = count_tables(cat, args.statistic)
    lines = ["by-support-rank: " + count_row(table.by_support_rank, f"total {table.total}") + "\n"]
    if args.statistic == "antichain":
        lines.append("by-size:         " + count_row(table.by_size, f"total {table.total}") + "\n")
    return 0, lines


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    max_n = args.max_n if args.max_n is not None else verify.SUITES[args.level].max_n
    # open --out before the suite runs, so a bad path fails before any output
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        report = verify.run_suite(args.level, max_n=max_n)
        header = (
            f"# verify suite={args.level} max-n={max_n} "
            f"orientation-sample-seed={verify.ORIENTATION_SAMPLE_SEED}\n"
        )
        text = header + report.render()
        if out is not None:
            out.write(text)
    # --out is written and closed before run writes stdout: a reader that
    # closes stdout early must not leave the file truncated
    return (0 if report.passed else 1), [text]


def _cmd_reconcile(args) -> tuple[int, Iterable[str]]:
    res = oeis.reconcile(args.sequence_id, args.terms, online=args.online)
    status = "PASS" if res.passed else "FAIL"
    return (0 if res.passed else 1), [f"{res.sequence_id}\tterms={res.terms}\t{res.detail}\t{status}\n"]


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    # repr shows an unprintable argument, so a newline cannot start a line of its own
    shown = (arg if arg.isprintable() else repr(arg) for arg in (sys.argv[1:] if argv is None else argv))
    print(f"# config: {' '.join(shown)}", file=sys.stderr)
    handler = {
        "table": _cmd_table,
        "triangle": _cmd_triangle,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "reconcile": _cmd_reconcile,
    }[args.command]
    try:
        code, lines = handler(args)
        _write_in_blocks(lines)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away.  Point fd 1 at devnull so the final
        # flush cannot fail, and exit as a shell reports a SIGPIPE death.
        # SIGPIPE itself stays ignored: a socket write in `reconcile --online`
        # must raise and fall back to the fixture, not kill the process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DiagramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
