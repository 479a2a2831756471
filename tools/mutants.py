"""Run a list of one-line mutants of the package; each must fail its tests.

Every mutant replaces one line of a file under src/dynkin_tilting/ (matched
with its indentation stripped, and required to occur exactly once) in a
copy of the repository made in a temporary directory, then runs the named
tests there.  A mutant is killed when pytest reports failing tests (exit
code 1); an exit for any other reason, such as a collection error or no
test selected, counts as surviving, so a broken mutant cannot pass as
killed.  Each set of tests first runs once on the unchanged copy and must
pass there, so a test that fails anyway kills nothing.  Standard library
and pytest only.

    python tools/mutants.py          # each mutant against its own tests
    python tools/mutants.py --tier1  # each mutant against the whole suite

Exits 0 when every mutant run is killed, 1 when one survives, 2 when a
mutant's line is not found exactly once or its tests fail unchanged.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")
# the mutant-list test reads the unchanged tree, so it would kill every mutant
TIER1 = ("--continue-on-collection-errors", "--ignore=tests/test_mutant_list.py")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/dynkin_tilting
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments that must fail


_FAULTS = "tests/test_verify_faults.py"
_COUNTS = "tests/test_enumeration.py"
_TRIANGLES = "tests/test_oeis.py"

MUTANTS = (
    # --- report checks that once printed PASS whatever their actual side read
    Mutant(
        "check-passes",
        "verify.py",
        "return self.expected == self.actual",
        "return True",
        (_FAULTS,),
    ),
    Mutant(
        "check-ignores-actual",
        "verify.py",
        "return Check(check_id, subject, str(expected), str(actual))",
        "return Check(check_id, subject, str(expected), str(expected))",
        (_FAULTS,),
    ),
    Mutant(
        "tilting-rank-self",
        "verify.py",
        'checks.append(_check("enum.tilting.rank", subject, expected_row, _row(tilt)))',
        'checks.append(_check("enum.tilting.rank", subject, expected_row, expected_row))',
        (_FAULTS,),
    ),
    Mutant(
        "antichain-rank-self",
        "verify.py",
        'checks.append(_check("enum.antichain.rank", subject, _row(tilt), _row(anti)))',
        'checks.append(_check("enum.antichain.rank", subject, _row(tilt), _row(tilt)))',
        (_FAULTS,),
    ),
    Mutant(
        "orientations-agree",
        "verify.py",
        "agree = all(t.by_support_rank == base.by_support_rank for t in tables)",
        "agree = True",
        (_FAULTS,),
    ),
    Mutant(
        "bc-equal",
        "verify.py",
        'checks.append(_check("enum.bc.equal", f"B{n} vs C{n}", _row(b), _row(c)))',
        'checks.append(_check("enum.bc.equal", f"B{n} vs C{n}", _row(b), _row(b)))',
        (_FAULTS,),
    ),
    Mutant(
        "sincere-u-self",
        "verify.py",
        'checks.append(_check("sincere.u", f"B{n}", u_expected, split.u_count))',
        'checks.append(_check("sincere.u", f"B{n}", u_expected, u_expected))',
        (_FAULTS,),
    ),
    Mutant(
        "eta-bijective",
        "verify.py",
        "bijective = ok and sorted(images) == sorted(no_injective)",
        "bijective = True",
        (_FAULTS,),
    ),
    Mutant(
        "hook-true",
        "formulas.py",
        "return a_s(series, n, s) == _a_or_zero(series, n - 1, s) + a_s(series, n, s - 1)",
        "return True",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    Mutant(
        "shear-ab-true",
        "formulas.py",
        "return a_s(series, n, s) == z_value(series, n + s - 1, s)",
        "return True",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    # --- identity regions
    Mutant(
        "hockey-stick-a-to-t",
        "formulas.py",
        '"hockey_stick_check": {"A": (1, 1, 0, 2, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 2, 1, 0)},',
        '"hockey_stick_check": {"A": (1, 1, 0, 1, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 2, 1, 0)},',
        ("tests/test_verify_cli.py", "-k", "identity"),
    ),
    Mutant(
        "region-drops-corner",
        "formulas.py",
        "if n >= least and lo <= s and d * s <= n - c and n + s >= corner:",
        "if n >= least and lo <= s and d * s <= n - c:",
        ("tests/test_formulas.py", "-k", "refusal_text"),
    ),
    Mutant(
        "region-least-exclusive",
        "formulas.py",
        "if n >= least and lo <= s and d * s <= n - c and n + s >= corner:",
        "if n > least and lo <= s and d * s <= n - c and n + s >= corner:",
        ("tests/test_formulas.py", "-k", "identity_check_regions"),
    ),
    Mutant(
        "region-ignores-last-rank",
        "formulas.py",
        "if row is not None and n <= _last(series, n):",
        "if row is not None:",
        ("tests/test_formulas.py", "-k", "identity_check_regions or refusal_text"),
    ),
    # --- exceptional totals, summed from their rows
    Mutant(
        "exceptional-total-short",
        "formulas.py",
        'return sum(EXCEPTIONAL_ROWS[f"{series}{n}"])',
        'return sum(EXCEPTIONAL_ROWS[f"{series}{n}"][:-1])',
        ("tests/test_formulas.py", "-k", "coxeter_catalan"),
    ),
    # --- report checks that tier-1 already failed on
    Mutant(
        "report-passes",
        "verify.py",
        "return all(c.passed for c in self.checks)",
        "return True",
        (_FAULTS, "tests/test_verify_cli.py"),
    ),
    Mutant(
        "family-ignores-failures",
        "verify.py",
        "failures = [args for args in instances if not check(*args)]",
        "failures = []",
        ("tests/test_verify_cli.py", "-k", "failing_identity or stale_partial_sums"),
    ),
    Mutant(
        "summation-true",
        "formulas.py",
        "return _row_sums(series, n)[s] == a_s(series, n + 1, s)",
        "return True",
        ("tests/test_verify_cli.py", "-k", "stale_partial_sums"),
    ),
    Mutant(
        "reconcile-passes",
        "verify.py",
        'actual = "prefix agrees" if res.passed else res.detail',
        'actual = "prefix agrees"',
        (_FAULTS, "tests/test_verify_cli.py", "-k", "fixture or failing_check"),
    ),
    Mutant(
        "eta-top-missing-vertex",
        "enumeration.py",
        "i = (missing & -missing).bit_length()  # the smallest missing vertex",
        "i = missing.bit_length()",
        (_COUNTS, "-k", "eta"),
    ),
    Mutant(
        "budget-at-limit",
        "verify.py",
        "if forecast > limit:",
        "if forecast >= limit:",
        ("tests/test_verify_cli.py", "-k", "max_results"),
    ),
    Mutant(
        "sweep-samples-nine",
        "verify.py",
        "return rng.sample(orientations, 10)",
        "return rng.sample(orientations, 9)",
        ("tests/test_verify_cli.py", "-k", "sweep_sample"),
    ),
    # --- the listing walk
    Mutant(
        "walk-stop-one-early",
        "enumeration.py",
        "if need > 1 and rest.bit_count() < need:",
        "if need > 1 and rest.bit_count() <= need:",
        (_COUNTS, "-k", "walker or listing"),
    ),
    # --- every command's stdout, written in blocks by run alone
    Mutant(
        "listing-writes-per-line",
        "cli.py",
        "_write_in_blocks(lines)",
        "sys.stdout.writelines(lines)",
        ("tests/test_verify_cli.py", "-k", "writes_blocks"),
    ),
    Mutant(
        "listing-drops-last-block",
        "cli.py",
        'sys.stdout.write("".join(block))  # the rest, shorter than a block',
        "pass",
        ("tests/test_verify_cli.py", "-k", "buffered_or_not"),
    ),
    # --- triangle output, streamed row by row
    Mutant(
        "bfile-index-stuck",
        "oeis.py",
        "idx += len(row)",
        "pass",
        (_TRIANGLES, "-k", "pinned"),
    ),
    Mutant(
        "pretty-widths-skip-dots",
        "oeis.py",
        "biggest, biggest_sum = reduce(lambda a, b: tuple(map(max, a, b)), ((max(row), sum(row)) for row in rows()))",
        "biggest, biggest_sum = reduce(lambda a, b: tuple(map(max, a, b)), ((max(row), sum(row)) for row in islice(rows(), skip, None)))",
        (_TRIANGLES, "-k", "edge_rows_pinned"),
    ),
    # --- the count side
    Mutant(
        "ext-one-direction",
        "enumeration.py",
        "rows, cols = cat.ext, ext_columns(cat)",
        "rows, cols = cat.ext, cat.ext",
        (_COUNTS,),
    ),
    Mutant(
        "moebius-cut",
        "enumeration.py",
        "weight = got - sum(smaller)",
        "weight = got",
        (_COUNTS,),
    ),
    Mutant(
        "ext-columns-keep-injectives",
        "homs.py",
        "return [(row << 1) & lifted for row in cat.hom]",
        "return [row << 1 for row in cat.hom]",
        ("tests/test_homs.py",),
    ),
    Mutant(
        "support-from-injective",
        "enumeration.py",
        "touching = [cat.hom[end - qi] for end, qi in zip(cat.injective_slice(), cat.q)]",
        "touching = [cat.hom[end] for end, qi in zip(cat.injective_slice(), cat.q)]",
        (_COUNTS,),
    ),
    Mutant(
        "tilting-diagonal-low",
        "enumeration.py",
        "by_rank = by_size = [(packed[s] >> (s * width)) & field for s in range(n + 1)]",
        "by_rank = by_size = [(packed[s] >> ((s - 1) * width)) & field for s in range(n + 1)]",
        (_COUNTS,),
    ),
    Mutant(
        "width-two-bits-short",
        "enumeration.py",
        "width = sum(comb(m, k) for k in range(n + 1)).bit_length()",
        "width = sum(comb(m, k) for k in range(n + 1)).bit_length() - 2",
        (_COUNTS,),
    ),
    Mutant(
        "count-overflow-unchecked",
        "enumeration.py",
        "if sum(by_rank) != sum(by_size):",
        "if False:",
        (_COUNTS, "-k", "python_O"),
    ),
    Mutant(
        "count-overflow-antichains-only",
        "enumeration.py",
        "if sum(by_rank) != sum(by_size):",
        'if kind == "antichain" and sum(by_rank) != sum(by_size):',
        (_COUNTS, "-k", "overflow_check_sees_tilting"),
    ),
    Mutant(
        "loop-cut-drops-rest",
        "enumeration.py",
        "acc += got + ((got - 1) >> width)",
        "acc += got",
        (_COUNTS,),
    ),
    Mutant(
        "loop-cut-inverted",
        "enumeration.py",
        "if below == allowed:",
        "if below != allowed:",
        (_COUNTS,),
    ),
    Mutant(
        "matrices-need-both",
        "enumeration.py",
        "if cat.hom is None or cat.ext is None:",
        "if cat.hom is None and cat.ext is None:",
        (_COUNTS, "-k", "requires_matrices"),
    ),
    # --- the category layer's guards: a cyclic orientation, a grid that misses a root
    Mutant(
        "knit-skips-root-check",
        "orbits.py",
        "if len(dims) != len(set(dims)) or set(dims) != roots:",
        "if False:",
        ("tests/test_orbits.py", "-k", "grid_against_the_roots"),
    ),
    Mutant(
        "sink-order-accepts-cycle",
        "diagrams.py",
        'raise DiagramError("orientation is cyclic: no sink ordering exists")',
        "pass",
        ("tests/test_diagrams.py", "-k", "sink_order"),
    ),
    Mutant(
        "sink-order-takes-largest",
        "diagrams.py",
        "v = heapq.heappop(ready)",
        "v = ready.pop(ready.index(max(ready)))",
        ("tests/test_diagrams.py", "-k", "sink_order"),
    ),
    # --- root data memoized per Cartan matrix, not per rank
    Mutant(
        "roots-memo-keyed-on-rank",
        "diagrams.py",
        "return _root_closure(datum.shape, datum.cartan)",
        "return _root_closure(*vars(positive_roots).setdefault(datum.n, (datum.shape, datum.cartan)))",
        ("tests/test_diagrams.py", "-k", "warm_memo"),
    ),
    # --- b-files are read from the fixtures unless a live fetch is asked for
    Mutant(
        "fetch-online-by-default",
        "oeis.py",
        "def fetch_bfile(sequence_id: str, online: bool = False) -> BFile:",
        "def fetch_bfile(sequence_id: str, online: bool = True) -> BFile:",
        (_TRIANGLES, "-k", "offline"),
    ),
    Mutant(
        "reconcile-online-by-default",
        "oeis.py",
        "def reconcile(sequence_id: str, terms: int, online: bool = False) -> ReconcileResult:",
        "def reconcile(sequence_id: str, terms: int, online: bool = True) -> ReconcileResult:",
        (_TRIANGLES, "-k", "offline"),
    ),
)


def _hits(lines: list[str], old: str) -> list[int]:
    return [i for i, line in enumerate(lines) if line.strip() == old]


def _mutate(path: Path, old: str, new: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    (i,) = _hits(lines, old)
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + new + "\n"
    path.write_text("".join(lines))


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """The pytest exit code of `tests` on a copy, with the mutant applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=ignore)
            else:
                shutil.copy2(source, work / name)
        if mutant is not None:
            _mutate(work / "src" / "dynkin_tilting" / mutant.path, mutant.old, mutant.new)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check that every listed mutant fails its tests.")
    parser.add_argument("--tier1", action="store_true", help="run the whole test suite on each mutant")
    args = parser.parse_args(argv)
    for mutant in MUTANTS:
        hits = len(_hits((ROOT / "src" / "dynkin_tilting" / mutant.path).read_text().splitlines(), mutant.old))
        if hits != 1:
            print(f"stale mutant {mutant.name}: {hits} lines of {mutant.path} read {mutant.old!r}")
            return 2
    for tests in dict.fromkeys(TIER1 if args.tier1 else m.tests for m in MUTANTS):
        code = run_tests(tests)
        if code != 0:
            print(f"unchanged copy fails (pytest exit {code}): {' '.join(tests)}")
            return 2
    survivors = []
    for mutant in MUTANTS:
        code = run_tests(TIER1 if args.tier1 else mutant.tests, mutant)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{verdict}  {mutant.name}", flush=True)
        if code != 1:
            survivors.append(mutant.name)
    print(f"# {len(survivors)} of {len(MUTANTS)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
