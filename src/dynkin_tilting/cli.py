"""Command-line interface.

Subcommands: table, triangle, enumerate, verify, reconcile.  Numeric output
is plain decimal on stdout; the effective configuration of each run goes to
stderr so stdout stays byte-stable and machine-readable.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import formulas, oeis, verify
from .diagrams import DiagramError, DynkinType, build_cartan
from .enumeration import count_tables, enumerate_antichains, enumerate_support_tilting, format_set
from .homs import build_category


def _parse_orientation(spec: str):
    if spec == "default":
        return "default"
    arrows = []
    for part in spec.split(","):
        if ">" not in part:
            raise DiagramError(f"bad orientation fragment {part!r}; expected 'src>dst'")
        src, dst = part.split(">", 1)
        arrows.append((int(src), int(dst)))
    return arrows


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkin-tilting",
        description="Exact antichain/support-tilting counts for Dynkin diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print one row of closed-form counts")
    p.add_argument("series", choices=list("ABCDEFG"))
    p.add_argument("n", type=int)

    p = sub.add_parser("triangle", help="emit a triangle (pretty, csv, or b-file)")
    p.add_argument("name", choices=list(oeis.TRIANGLE_NAMES))
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--format", dest="fmt", choices=("pretty", "csv", "bfile"), default="pretty")

    p = sub.add_parser("enumerate", help="enumerate one algebra and print count tables")
    p.add_argument("series", choices=list("ABCDEFG"))
    p.add_argument("n", type=int)
    p.add_argument("--orientation", default="default", help="'default' or arrows like '2>1,3>2'")
    p.add_argument("--statistic", choices=("antichain", "tilting"), default="tilting")
    p.add_argument("--list", action="store_true", dest="listing", help="list every set")

    p = sub.add_parser("verify", help="run a verification suite and print the report")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--quick", action="store_const", const="quick", dest="level")
    g.add_argument("--full", action="store_const", const="full", dest="level")
    g.add_argument("--slow", action="store_const", const="slow", dest="level")
    p.set_defaults(level="full")
    p.add_argument("--max-n", type=int, default=None, help="identity-suite bound")
    p.add_argument("--threads", type=_positive_int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", default=None, help="also write the report to this path")

    p = sub.add_parser("reconcile", help="compare a generated sequence against its b-file")
    p.add_argument("sequence_id", choices=list(oeis.SEQUENCE_IDS))
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--online", action="store_true", help="fetch from oeis.org before falling back")
    return parser


def _cmd_table(args) -> int:
    row = formulas.a_row(args.series, args.n)
    total = formulas.a_total(args.series, args.n)
    print(" ".join(str(v) for v in row) + f" | total {total}")
    return 0


def _cmd_triangle(args) -> int:
    sys.stdout.write(oeis.render_triangle(args.name, args.rows, args.fmt).decode())
    return 0


def _cmd_enumerate(args) -> int:
    dtype = DynkinType(args.series, args.n)
    orientation = _parse_orientation(args.orientation)
    cat = build_category(build_cartan(dtype, orientation))
    if args.listing:
        stream = (
            enumerate_antichains(cat)
            if args.statistic == "antichain"
            else enumerate_support_tilting(cat)
        )
        for s in stream:
            print(format_set(cat, s))
        return 0
    table = count_tables(cat, args.statistic)
    print("by-support-rank: " + " ".join(str(c) for c in table.by_support_rank) + f" | total {table.total}")
    if args.statistic == "antichain":
        print("by-size:         " + " ".join(str(c) for c in table.by_size) + f" | total {table.total}")
    return 0


def _cmd_verify(args) -> int:
    max_n = args.max_n if args.max_n is not None else verify.SUITE_MAX_N[args.level]
    report = verify.run_suite(args.level, max_n=max_n)
    header = (
        f"# verify suite={args.level} max-n={max_n} "
        f"orientation-sample-seed={verify.ORIENTATION_SAMPLE_SEED}\n"
    )
    text = header + report.render()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.passed else 1


def _cmd_reconcile(args) -> int:
    res = oeis.reconcile(args.sequence_id, args.terms, online=args.online)
    status = "PASS" if res.passed else "FAIL"
    print(f"{res.sequence_id}\tterms={res.terms}\t{res.detail}\t{status}")
    return 0 if res.passed else 1


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    print(f"# config: {' '.join(argv if argv is not None else sys.argv[1:])}", file=sys.stderr)
    handler = {
        "table": _cmd_table,
        "triangle": _cmd_triangle,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "reconcile": _cmd_reconcile,
    }[args.command]
    try:
        return handler(args)
    except (DiagramError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
