"""Run a list of one-line mutants of the package; each must fail its tests.

Every mutant replaces one line of a file under src/dynkin_tilting/ (matched
with its indentation stripped) in a copy of the repository made in a
temporary directory, then runs the named tests there.  The line must occur
exactly once, unless the mutant names its occurrence: the k-th of a line
that occurs more than once, such as a guard two functions share.  A mutant is killed when pytest reports failing tests (exit
code 1); an exit for any other reason, such as a collection error or no
test selected, counts as surviving, so a broken mutant cannot pass as
killed.  Each set of tests first runs once on the unchanged copy and must
pass there, so a test that fails anyway kills nothing.  Standard library
and pytest only.

    python tools/mutants.py          # each mutant against its own tests
    python tools/mutants.py --tier1  # each mutant against the whole suite

Exits 0 when every mutant run is killed, 1 when one survives, 2 when a
mutant's line is not found as it says or its tests fail unchanged.
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
    occurrence: int | None = None  # k: the k-th of several copies of the line; None: its only copy


_FAULTS = "tests/test_verify_faults.py"
_COUNTS = "tests/test_enumeration.py"
_TRIANGLES = "tests/test_oeis.py"
_CONJUNCTS = ("tests/test_formulas.py", "-k", "one_wrong_cell")

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
        "bijective = sorted(images) == free and [eta_inverse(cat, down) for down in images] == sincere",
        "bijective = True",
        (_FAULTS,),
    ),
    Mutant(
        "eta-skips-round-trip",
        "verify.py",
        "bijective = sorted(images) == free and [eta_inverse(cat, down) for down in images] == sincere",
        "bijective = sorted(images) == free",
        (_FAULTS, "-k", "eta_inverse"),
    ),
    Mutant(
        "hook-true",
        "formulas.py",
        "return row[s] == (lower[s] if s < n else 0) + row[s - 1]",
        "return True",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    # --- the cached rows that the identity checks read
    Mutant(
        "hook-lower-row-is-row-n",
        "formulas.py",
        "lower, row = _a_cells(a_s, series, n - 1), _a_cells(a_s, series, n)",
        "lower, row = _a_cells(a_s, series, n), _a_cells(a_s, series, n)",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    Mutant(
        "diagonal-sums-next-row",
        "formulas.py",
        "row = _z_cells(cell, series, r)",
        "row = _z_cells(cell, series, r + 1)",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    Mutant(
        "diagonal-sums-key-without-cell",
        "formulas.py",
        "sums = _DIAGONAL_SUMS.get((cell, series, t))",
        "sums = next((v for key, v in _DIAGONAL_SUMS.items() if key[1:] == (series, t)), None)",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    Mutant(
        "shear-ab-true",
        "formulas.py",
        "return a_s(series, n, s) == z_value(series, n + s - 1, s)",
        "return True",
        ("tests/test_formulas.py", "-k", "one_wrong_cell"),
    ),
    # --- identity checks whose verdict is a conjunction: each conjunct counts
    Mutant(
        "modified-hook-or",
        "formulas.py",
        'return ok and a_s("D", n, n - 1) == bailey(2 * n - 3, n - 1)',
        'return ok or a_s("D", n, n - 1) == bailey(2 * n - 3, n - 1)',
        _CONJUNCTS,
    ),
    Mutant(
        "comparison-first-or",
        "formulas.py",
        "return gap == catalan and num % n == 0 and catalan == num // n",
        "return gap == catalan or num % n == 0 and catalan == num // n",
        _CONJUNCTS,
    ),
    Mutant(
        "comparison-second-or",
        "formulas.py",
        "return gap == catalan and num % n == 0 and catalan == num // n",
        "return gap == catalan and num % n == 0 or catalan == num // n",
        _CONJUNCTS,
    ),
    Mutant(
        "diagonal-a-or",
        "formulas.py",
        'return a_total("A", n) == a_s("A", n + 1, n + 1) and a_s("A", n, n) == a_s("A", n, n - 1)',
        'return a_total("A", n) == a_s("A", n + 1, n + 1) or a_s("A", n, n) == a_s("A", n, n - 1)',
        _CONJUNCTS,
    ),
    Mutant(
        "diagonal-b-or",
        "formulas.py",
        'return a_total("B", n) == a_s("B", n + 1, n) and a_s("B", n, n) == a_s("B", n + 1, n - 1)',
        'return a_total("B", n) == a_s("B", n + 1, n) or a_s("B", n, n) == a_s("B", n + 1, n - 1)',
        _CONJUNCTS,
    ),
    Mutant(
        "diagonal-d-or",
        "formulas.py",
        'return a_total("D", n) == a_s("D", n + 2, n - 1) and a_s("D", n, n) == a_s("D", n + 2, n - 2)',
        'return a_total("D", n) == a_s("D", n + 2, n - 1) or a_s("D", n, n) == a_s("D", n + 2, n - 2)',
        _CONJUNCTS,
    ),
    Mutant(
        "b-decomposition-v-or",
        "formulas.py",
        "and v == binom(2 * n - 2, n - 2)",
        "or v == binom(2 * n - 2, n - 2)",
        _CONJUNCTS,
    ),
    Mutant(
        "b-decomposition-sum-or",
        "formulas.py",
        'and u + v == binom(2 * n - 1, n - 1) == a_s("B", n, n)',
        'or u + v == binom(2 * n - 1, n - 1) == a_s("B", n, n)',
        _CONJUNCTS,
    ),
    Mutant(
        "b-decomposition-shift-or",
        "formulas.py",
        "return ok and shifted",
        "return ok or shifted",
        _CONJUNCTS,
    ),
    Mutant(
        "lucas-deviation-or",
        "formulas.py",
        "return binom(2 * n - 2, n - 2) == binom(2 * n - 2, n) and bailey(",
        "return binom(2 * n - 2, n - 2) == binom(2 * n - 2, n) or bailey(",
        _CONJUNCTS,
    ),
    Mutant(
        "z-boundary-b-or",
        "formulas.py",
        'return z_value("B", t, 0) == 1 and z_value("B", t, t) == 1',
        'return z_value("B", t, 0) == 1 or z_value("B", t, t) == 1',
        _CONJUNCTS,
    ),
    Mutant(
        "z-boundary-d-or",
        "formulas.py",
        'return z_value("D", t, 0) == 1 and z_value("D", t, t) == 2',
        'return z_value("D", t, 0) == 1 or z_value("D", t, t) == 2',
        _CONJUNCTS,
    ),
    Mutant(
        "z-boundary-a-or",
        "formulas.py",
        'return z_value("A", t, 0) == 1 and z_value("A", 2 * t, t + 1) == 0',
        'return z_value("A", t, 0) == 1 or z_value("A", 2 * t, t + 1) == 0',
        _CONJUNCTS,
    ),
    # --- refusal guards and their boundaries
    Mutant(
        "edge-endpoint-from-zero",
        "diagrams.py",
        "if not (1 <= i < j <= vertex_count):",
        "if not (0 <= i < j <= vertex_count):",
        ("tests/test_diagrams.py", "-k", "shape_validation"),
    ),
    Mutant(
        "bailey-exterior-below-zero",
        "formulas.py",
        "if s < 0 or s > t:",
        "if s < 0 and s > t:",
        ("tests/test_formulas.py", "-k", "bailey_examples"),
    ),
    Mutant(
        "z-value-any-series",
        "formulas.py",
        'raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")',
        "return 0",
        ("tests/test_formulas.py", "-k", "inadmissible"),
    ),
    Mutant(
        "bfile-takes-three-fields",
        "oeis.py",
        "if len(parts) != 2:",
        "if len(parts) < 2:",
        (_TRIANGLES, "-k", "parse_bfile"),
    ),
    Mutant(
        "bfile-refuses-zero",
        "oeis.py",
        'if parts[1].startswith("-"):',
        'if parts[1].startswith("-") or val == 0:',
        (_TRIANGLES, "-k", "parse_bfile"),
    ),
    Mutant(
        "triangle-thousand-rows-refused",
        "oeis.py",
        "if rows < 1 or rows > MAX_ROWS:",
        "if rows < 1 or rows >= MAX_ROWS:",
        (_TRIANGLES, "-k", "bad_inputs"),
    ),
    Mutant(
        "sequence-one-term-refused",
        "oeis.py",
        "if terms is not None and terms < 1:",
        "if terms is not None and terms <= 1:",
        (_TRIANGLES, "-k", "bad_inputs"),
    ),
    Mutant(
        "sincere-bound-six-refused",
        "verify.py",
        '_require_bound("sincere-structure", n_max, 2, "there would be no check", 6)',
        '_require_bound("sincere-structure", n_max, 2, "there would be no check", 5)',
        ("tests/test_verify_cli.py", "-k", "edges"),
    ),
    Mutant(
        "bc-bound-two-refused",
        "verify.py",
        '_require_bound("B/C comparison", n_max, 2, "there would be no check")',
        '_require_bound("B/C comparison", n_max, 3, "there would be no check")',
        ("tests/test_verify_cli.py", "-k", "edges"),
    ),
    Mutant(
        "sincere-bound-two-refused",
        "verify.py",
        '_require_bound("sincere-structure", n_max, 2, "there would be no check", 6)',
        '_require_bound("sincere-structure", n_max, 3, "there would be no check", 6)',
        ("tests/test_verify_cli.py", "-k", "edges"),
    ),
    Mutant(
        "bound-without-upper-limit",
        "verify.py",
        "if most is not None and bound > most:",
        "if False:",
        ("tests/test_verify_cli.py", "-k", "edges or below_minimum"),
    ),
    # guards whose line occurs twice in its file, named by occurrence
    Mutant(
        "catalan-bracket-takes-negative-t",
        "formulas.py",
        "if t < 0 or s < 0:",
        "if s < 0:",
        ("tests/test_formulas.py", "-k", "catalan_bracket_examples"),
        occurrence=2,
    ),
    # --- integers and orientations read from text: ASCII digits only
    Mutant(
        "plain-int-takes-any-int",
        "diagrams.py",
        "if not (text.isascii() and text.isdecimal() and len(text) <= 4300):",
        "if False:",
        ("tests/test_diagrams.py", "-k", "plain_ascii_digits"),
    ),
    Mutant(
        "plain-int-past-4300-digits",
        "diagrams.py",
        "if not (text.isascii() and text.isdecimal() and len(text) <= 4300):",
        "if not (text.isascii() and text.isdecimal()):",
        ("tests/test_input_contract.py", "-k", "past_4300"),
    ),
    Mutant(
        "plain-int-lets-int-raise",
        "diagrams.py",
        "except ValueError:  # past a digit limit set below 4,300",
        "except TypeError:",
        ("tests/test_input_contract.py", "-k", "lowered_int_limit"),
    ),
    Mutant(
        "orientation-reads-with-int",
        "diagrams.py",
        "arrow = _plain_int(src), _plain_int(dst)",
        "arrow = int(src), int(dst)",
        ("tests/test_diagrams.py", "-k", "plain_ascii_digits"),
    ),
    # --- one orientation form, the text reports print; one series-letter rule
    Mutant(
        "none-orientation-refused",
        "diagrams.py",
        'parts = [] if orientation_spec == "none" else orientation_spec.split(",")',
        'parts = orientation_spec.split(",")',
        ("tests/test_input_contract.py", "-k", "orientation_text"),
    ),
    Mutant(
        "orientations-sorted-as-text",
        "diagrams.py",
        "return [orientation_text(o) for o in sorted(tuple(sorted(choice)) for choice in itertools.product(*pairs))]",
        "return sorted(orientation_text(sorted(choice)) for choice in itertools.product(*pairs))",
        ("tests/test_diagrams.py", "-k", "all_orientations_count"),
    ),
    Mutant(
        "series-letter-folded",
        "diagrams.py",
        "rank = _plain_int(label[1:])",
        "label, rank = label[:1].upper() + label[1:], _plain_int(label[1:])",
        ("tests/test_input_contract.py", "-k", "type_labels"),
    ),
    # --- one admission rule for a type's series and rank, and text read or shown
    Mutant(
        "rank-may-be-bool",
        "diagrams.py",
        "if type(rank) is not int:",
        "if type(rank) not in (int, bool):",
        ("tests/test_input_contract.py", "-k", "no_int"),
    ),
    Mutant(
        "rank-limit-inclusive",
        "diagrams.py",
        "if rank > MAX_RANK:",
        "if rank >= MAX_RANK:",
        ("tests/test_input_contract.py", "-k", "rank_limit"),
    ),
    # a_s only: a_total without admission would compute the total of A_(10**20)
    Mutant(
        "formulas-skips-admission",
        "formulas.py",
        "_admit(series, n)",
        "pass",
        ("tests/test_input_contract.py", "-k", "closed_forms"),
        occurrence=1,
    ),
    Mutant(
        "bfile-splits-any-whitespace",
        "oeis.py",
        'parts = [part for part in line.replace("\\t", " ").split(" ") if part]',
        "parts = line.split()",
        (_TRIANGLES, "-k", "parse_bfile"),
    ),
    Mutant(
        "config-echoes-raw",
        "cli.py",
        "shown = (arg if arg.isprintable() else repr(arg) for arg in (sys.argv[1:] if argv is None else argv))",
        "shown = sys.argv[1:] if argv is None else argv",
        ("tests/test_input_contract.py", "-k", "config_line"),
    ),
    Mutant(
        "refusal-on-stdout",
        "cli.py",
        'print(f"error: {exc}", file=sys.stderr)',
        'print(f"error: {exc}")',
        ("tests/test_input_contract.py", "-k", "argv"),
    ),
    # --- identity regions
    Mutant(
        "hockey-stick-a-to-t",
        "formulas.py",
        '("id.hockey-stick", "t", "hockey_stick_check", {"A": (1, 1, 0, 2, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 2, 1, 0)}),',
        '("id.hockey-stick", "t", "hockey_stick_check", {"A": (1, 1, 0, 1, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 2, 1, 0)}),',
        ("tests/test_verify_cli.py", "-k", "identity"),
    ),
    Mutant(
        "summation-family-drops-d",
        "formulas.py",
        '("id.summation", "n", "summation_check", {"A": (1, 1, 1, 1, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 1, 1, 0)}),',
        '("id.summation", "n", "summation_check", {"A": (1, 1, 1, 1, 0), "B": (1, 1, 1, 1, 0)}),',
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
        "return _row_sums(a_s, series, n)[s] == _a_cells(a_s, series, n + 1)[s]",
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
        "low = missing & -missing  # the smallest missing vertex",
        "low = 1 << missing.bit_length() >> 1",
        (_COUNTS, "-k", "eta"),
    ),
    Mutant(
        "eta-any-orientation",
        "enumeration.py",
        "if cat.datum.orientation != tuple((i + 1, i) for i in range(1, cat.n)):",
        "if False:",
        (_COUNTS, "-k", "eta"),
    ),
    Mutant(
        "sincere-split-any-category",
        "enumeration.py",
        "if any(comp[k] & sincere for k in sincere_vertex):",
        "if False:",
        (_COUNTS, "-k", "classify_sincere"),
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
    Mutant(
        "dead-key-drops-size",
        "enumeration.py",
        "key = (allowed << n | supp) << width | size",
        "key = (allowed << n | supp) << width",
        (_COUNTS, "-k", "walker or listing"),
    ),
    Mutant(
        "dead-level-despite-yield",
        "enumeration.py",
        "if last is mark:",
        "if True:",
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
        "homs.py",
        "tilting.append(others & ~(ext_row | ext_col))",
        "tilting.append(others & ~ext_row)",
        (_COUNTS,),
    ),
    Mutant(
        "statistic-reads-wrong-masks",
        "enumeration.py",
        'return cat.antichain_masks if statistic == "antichain" else cat.tilting_masks',
        'return cat.tilting_masks if statistic == "antichain" else cat.antichain_masks',
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
        "tilting-mask-keeps-injectives",
        "homs.py",
        "ext_col = (row << 1) & at_least[1]",
        "ext_col = row << 1",
        ("tests/test_homs.py",),
    ),
    Mutant(
        "support-from-injective",
        "homs.py",
        "starts = [end - qi for end, qi in zip(cat.injective_slice(), cat.q)]  # P(i) at i - 1",
        "starts = [end for end, qi in zip(cat.injective_slice(), cat.q)]",
        (_COUNTS,),
    ),
    Mutant(
        "supports-unsorted",
        "homs.py",
        "for c in sorted({ind.support for ind in cat.indecs}, key=int.bit_count):",
        "for c in sorted({ind.support for ind in cat.indecs}, key=int.bit_count, reverse=True):",
        (_COUNTS,),
    ),
    Mutant(
        "inside-skips-a-vertex",
        "homs.py",
        "rest = ((1 << n) - 1) & ~c",
        "rest = ((1 << n - 1) - 1) & ~c",
        ("tests/test_homs.py", "-k", "supports"),
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
        "if sum(by_rank) != sum(by_size) or by_size[:2] != [1, m]:",
        "if False:",
        (_COUNTS, "-k", "python_O"),
    ),
    Mutant(
        "count-overflow-antichains-only",
        "enumeration.py",
        "if sum(by_rank) != sum(by_size) or by_size[:2] != [1, m]:",
        'if kind == "antichain" and (sum(by_rank) != sum(by_size) or by_size[:2] != [1, m]):',
        (_COUNTS, "-k", "overflow_check_sees_tilting"),
    ),
    Mutant(
        "count-fields-unread",
        "enumeration.py",
        "if sum(by_rank) != sum(by_size) or by_size[:2] != [1, m]:",
        "if sum(by_rank) != sum(by_size):",
        (_COUNTS, "-k", "field_check_sees_g2"),
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
        "if cat.hom is None or cat.antichain_masks is None or cat.tilting_masks is None or cat.supports is None:",
        "if cat.hom is None and cat.antichain_masks is None and cat.tilting_masks is None and cat.supports is None:",
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
        "def reconcile(sequence_id: str, terms: int | None = None, online: bool = False) -> ReconcileResult:",
        "def reconcile(sequence_id: str, terms: int | None = None, online: bool = True) -> ReconcileResult:",
        (_TRIANGLES, "-k", "offline"),
    ),
    Mutant(
        "reconcile-fixed-default",
        "oeis.py",
        "terms = len(bfile.entries) if terms is None else terms",
        "terms = 40 if terms is None else terms",
        ("tests/test_verify_cli.py", "-k", "every_fixture_term"),
    ),
)


def _hits(lines: list[str], old: str) -> list[int]:
    return [i for i, line in enumerate(lines) if line.strip() == old]


def target_line(lines: list[str], mutant: Mutant) -> int | None:
    """The index of the line the mutant replaces, or None if the line is not
    there as the mutant names it: once, or at least k times for occurrence k > 0."""
    hits = _hits(lines, mutant.old)
    if mutant.occurrence is None:
        return hits[0] if len(hits) == 1 else None
    k = mutant.occurrence
    return hits[k - 1] if 1 <= k <= len(hits) and len(hits) > 1 else None


def _mutate(path: Path, mutant: Mutant) -> None:
    lines = path.read_text().splitlines(keepends=True)
    i = target_line(lines, mutant)
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + mutant.new + "\n"
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
            _mutate(work / "src" / "dynkin_tilting" / mutant.path, mutant)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check that every listed mutant fails its tests.")
    parser.add_argument("--tier1", action="store_true", help="run the whole test suite on each mutant")
    args = parser.parse_args(argv)
    for mutant in MUTANTS:
        lines = (ROOT / "src" / "dynkin_tilting" / mutant.path).read_text().splitlines()
        if target_line(lines, mutant) is None:
            hits = len(_hits(lines, mutant.old))
            where = "" if mutant.occurrence is None else f" (occurrence {mutant.occurrence} named)"
            print(f"stale mutant {mutant.name}: {hits} lines of {mutant.path} read {mutant.old!r}{where}")
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
