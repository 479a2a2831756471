"""Cross-checks between enumeration, closed forms, and OEIS fixtures.

A report is an ordered list of checks, each carrying expected vs actual
strings and a pass flag; failures never abort a run.  Reports render as one
line per check:

    <id>\t<subject>\t<expected>\t<actual>\t<PASS|FAIL>

Suites run their checks serially, in a fixed order, so a report is
byte-identical from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import formulas, oeis
from .diagrams import DynkinType, all_orientations, build_cartan, canonical_shape
from .enumeration import CountTable, classify_sincere, count_tables, enumerate_antichains, eta_inverse, eta_map
from .homs import build_category

ORIENTATION_SAMPLE_SEED = 271828
_MAX_ENUM_RANK = 8


@dataclass(frozen=True)
class Check:
    check_id: str
    subject: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            "\t".join(
                (c.check_id, c.subject, c.expected, c.actual, "PASS" if c.passed else "FAIL")
            )
            for c in self.checks
        ]

    def render(self) -> str:
        lines = self.lines()
        n_fail = sum(1 for c in self.checks if not c.passed)
        if n_fail:
            lines.append(f"# {n_fail} of {len(self.checks)} checks FAILED")
        else:
            lines.append(f"# all {len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _fmt_counts(counts: Sequence[int], total: int) -> str:
    return " ".join(str(c) for c in counts) + f" | {total}"


def _check(check_id: str, subject: str, expected: object, actual: object) -> Check:
    return Check(check_id, subject, str(expected), str(actual), str(expected) == str(actual))


def _orientation_label(orientation) -> str:
    return ",".join(f"{a}>{b}" for a, b in orientation) or "none"


def _reject_infeasible(dtype: DynkinType) -> None:
    shape = canonical_shape(dtype)
    big = [c for c in shape.components() if len(c) > _MAX_ENUM_RANK]
    if big:
        try:
            estimate = str(formulas.a_total(dtype.series, dtype.rank))
        except ValueError:
            estimate = "unknown"
        raise ValueError(
            f"enumeration for {dtype.label} rejected: component of rank {len(big[0])} "
            f"exceeds {_MAX_ENUM_RANK} (estimated result count {estimate})"
        )


def verify_type(series: str, n: int, orientations: Sequence | None = None) -> VerificationReport:
    """Enumerate one type under one or more orientations and compare counts.

    Per orientation: support-tilting counts by support-rank against the
    closed-form row, totals against the closed-form total, and the
    antichain-by-support-rank table against the tilting table.  With several
    orientations the tables must also agree across all of them.
    """
    dtype = DynkinType(series, n)
    _reject_infeasible(dtype)
    if orientations is None:
        orientations = ["default"]
    checks: list[Check] = []
    expected_row = _fmt_counts(formulas.a_row(series, n), formulas.a_total(series, n))
    tables: list[tuple[str, CountTable]] = []
    for spec in orientations:
        cat = build_category(build_cartan(dtype, spec))
        label = spec if isinstance(spec, str) else _orientation_label(spec)
        tilt = count_tables(cat, "tilting")
        anti = count_tables(cat, "antichain")
        subject = f"{dtype.label} orientation={label}"
        checks.append(
            _check("enum.tilting.rank", subject, expected_row, _fmt_counts(tilt.by_support_rank, tilt.total))
        )
        checks.append(
            _check(
                "enum.antichain.rank",
                subject,
                _fmt_counts(tilt.by_support_rank, tilt.total),
                _fmt_counts(anti.by_support_rank, anti.total),
            )
        )
        tables.append((label, tilt))
    if len(tables) > 1:
        base_label, base = tables[0]
        agree = all(t.by_support_rank == base.by_support_rank for _, t in tables)
        checks.append(
            _check(
                "enum.orientation.invariance",
                f"{dtype.label} over {len(tables)} orientations",
                f"all equal to {base.rank_row()}",
                f"all equal to {base.rank_row()}" if agree else "orientation tables differ",
            )
        )
    return VerificationReport(tuple(checks))


def orientation_sweep(series: str, n: int) -> list:
    """Deterministic orientation list: exhaustive for rank <= 4, else a
    fixed-seed sample of 10."""
    shape = canonical_shape(DynkinType(series, n))
    orientations = all_orientations(shape)
    if n <= 4 or len(orientations) <= 10:
        return orientations
    rng = random.Random(ORIENTATION_SAMPLE_SEED)
    return rng.sample(orientations, 10)


def verify_bc_equality(n_max: int) -> VerificationReport:
    """CountTables of B_n and C_n agree entrywise for 2 <= n <= n_max."""
    checks = []
    for n in range(2, n_max + 1):
        b = count_tables(build_category(build_cartan(DynkinType("B", n))), "tilting")
        c = count_tables(build_category(build_cartan(DynkinType("C", n))), "tilting")
        checks.append(
            _check(
                "enum.bc.equal",
                f"B{n} vs C{n}",
                _fmt_counts(b.by_support_rank, b.total),
                _fmt_counts(c.by_support_rank, c.total),
            )
        )
    return VerificationReport(tuple(checks))


def _family(check_id: str, subject: str, instances) -> Check:
    """Aggregate a family of boolean identity instances into one check."""
    failures = [args for args, ok in instances if not ok]
    expected = "all instances hold"
    actual = expected if not failures else f"failed at {failures[:5]}"
    return Check(check_id, subject, expected, actual, not failures)


def verify_identities(max_n: int) -> VerificationReport:
    """Run every closed-form identity over all admissible arguments <= max_n.

    One row per family: (check id, subject, check function, argument tuples).
    The table is built per call, so the check functions are looked up on
    ``formulas`` at call time and wrappers installed there see every call;
    the argument generators are lazy, so each family is evaluated in turn.
    """
    abd = ("A", "B", "D")
    ranks = [(series, n) for series in abd for n in range((2 if series == "D" else 1), max_n + 1)]
    by_n, by_t = f"n<={max_n}", f"t<={max_n}"
    table = (
        ("id.hook.A", by_n, formulas.hook_check, (("A", n, s) for n in range(1, max_n + 1) for s in range(1, n + 1))),
        ("id.hook.B", by_n, formulas.hook_check, (("B", n, s) for n in range(2, max_n + 1) for s in range(1, n))),
        ("id.hook.D", by_n, formulas.hook_check, (("D", n, s) for n in range(3, max_n + 1) for s in range(1, n - 1))),
        ("id.hook.E", "n<=8", formulas.hook_check, (("E", n, s) for n in range(4, 9) for s in range(1, n - 2))),
        ("id.modified-hook.D", by_n, formulas.modified_hook_check, (("D", n) for n in range(3, max_n + 1))),
        ("id.modified-hook.E", "n<=8", formulas.modified_hook_check, (("E", n) for n in range(4, 9))),
        ("id.summation", by_n, formulas.summation_check, ((series, n, s) for series, n in ranks for s in range(1, n))),
        ("id.total-split", by_n, formulas.total_split_check, iter(ranks)),
        ("id.comparison", by_n, formulas.comparison_check, ((n,) for n in range(2, max_n + 1))),
        ("id.diagonals", by_n, formulas.diagonal_checks, iter(ranks)),
        ("id.b-decomposition", by_n, formulas.b_decomposition_check, ((n,) for n in range(2, max_n + 1))),
        ("id.lucas-deviation", by_n, formulas.lucas_vs_d_deviation_check, ((n,) for n in range(2, max_n + 1))),
        (
            "id.z-recursion",
            by_t,
            formulas.z_recursion_check,
            ((series, t, s) for series, t in ranks for s in range(1, ((t + 1) // 2 if series == "A" else t) + 1)),
        ),
        (
            "id.hockey-stick",
            by_t,
            formulas.hockey_stick_check,
            (
                (series, t, s)
                for series in abd
                for t in range(2, max_n + 1)
                for s in range(1, {"A": t // 2, "B": t - 1, "D": t - 2}[series] + 1)
            ),
        ),
        (
            "id.z-boundary",
            by_t,
            formulas.z_boundary_check,
            ((series, t) for series in abd for t in range((1 if series == "D" else 0), max_n + 1)),
        ),
        (
            "id.shear",
            by_n,
            formulas.shear_check,
            (
                (series, n, s)
                for series, n in ranks
                for s in range(n if series == "D" else n + 1)
                if (series, n, s) != ("D", 2, 0)
            ),
        ),
    )
    return VerificationReport(
        tuple(
            _family(check_id, subject, ((args, check(*args)) for args in domain))
            for check_id, subject, check, domain in table
        )
    )


def verify_sincere_structure(n_max: int) -> VerificationReport:
    """Exhaustive classification of sincere antichains for B_n, n <= n_max,
    plus the strip-the-injective bijection for B_n and for linear A_n."""
    if n_max > 6:
        raise ValueError("sincere-structure enumeration is desk-scale: n_max <= 6")
    checks = []
    for n in range(2, n_max + 1):
        cat = build_category(build_cartan(DynkinType("B", n)))
        split = classify_sincere(cat)
        u_expected = formulas.binom(2 * n - 2, n - 1)
        v_expected = formulas.binom(2 * n - 2, n - 2)
        checks.append(_check("sincere.u", f"B{n}", u_expected, split.u_count))
        checks.append(_check("sincere.v", f"B{n}", v_expected, split.v_count))
        per_expected = tuple(
            formulas.a_s("A", i - 1, i - 1) * formulas.a_s("B", n - i, n - i)
            for i in range(1, n + 1)
        )
        checks.append(_check("sincere.per-vertex", f"B{n}", per_expected, split.per_vertex))
        checks.append(
            _check(
                "sincere.total",
                f"B{n}",
                formulas.a_s("B", n, n),
                split.total,
            )
        )
        checks.append(_eta_check("B", n, cat))
    for n in range(2, n_max + 2):
        cat = build_category(build_cartan(DynkinType("A", n)))
        checks.append(_eta_check("A", n, cat))
    return VerificationReport(tuple(checks))


def _eta_check(series: str, n: int, cat) -> Check:
    """Round-trip the injective-stripping bijection over all sincere antichains."""
    full = frozenset(range(1, n + 1))
    injectives = set(cat.injective_slice())
    sincere = []
    no_injective = []
    for ac in enumerate_antichains(cat):
        if ac.support == full:
            sincere.append(ac)
        if not any(k in injectives for k in ac.members):
            no_injective.append(ac)
    images = []
    ok = True
    for ac in sincere:
        down = eta_map(cat, ac)
        if any(k in injectives for k in down.members):
            ok = False
            break
        if eta_inverse(cat, down).members != ac.members:
            ok = False
            break
        images.append(down.members)
    bijective = ok and sorted(images) == sorted(s.members for s in no_injective)
    count_ok = len(sincere) == len(no_injective) == formulas.a_s(series, n, n)
    return _check(
        "sincere.eta",
        f"{series}{n}",
        f"bijection on {formulas.a_s(series, n, n)} antichains",
        f"bijection on {len(sincere)} antichains"
        if bijective and count_ok
        else "round-trip failed",
    )


def verify_reconcile(terms: dict[str, int] | None = None, online: bool = False) -> VerificationReport:
    """Compare generated sequence prefixes against the shipped b-files."""
    if terms is None:
        terms = {
            "A009766": 55,
            "A059481": 55,
            "A241188": 54,
            "A008315": 40,
            "A007318": 55,
            "A029635": 40,
            "A129869": 8,
        }
    checks = []
    for sid in sorted(terms):
        res = oeis.reconcile(sid, terms[sid], online=online)
        checks.append(
            Check(
                "oeis.reconcile",
                f"{sid} terms={res.terms}",
                "prefix agrees",
                res.detail if not res.passed else "prefix agrees",
                res.passed,
            )
        )
    return VerificationReport(tuple(checks))


# --- suites ------------------------------------------------------------------

# identity-suite bound of each suite when no max_n is given
SUITE_MAX_N = {"quick": 30, "full": 50, "slow": 50}
SUITE_NAMES = tuple(SUITE_MAX_N)


def _suite_types(level: str) -> list[tuple[str, int]]:
    quick = (
        [("A", n) for n in range(1, 6)]
        + [("B", n) for n in range(2, 5)]
        + [("C", n) for n in range(2, 5)]
        + [("D", n) for n in (4, 5)]
        + [("F", 4), ("G", 2)]
    )
    if level == "quick":
        return quick
    full = (
        [("A", n) for n in range(1, 8)]
        + [("B", n) for n in range(2, 6)]
        + [("C", n) for n in range(2, 6)]
        + [("D", n) for n in (4, 5, 6)]
        + [("E", 6), ("F", 4), ("G", 2)]
    )
    if level == "full":
        return full
    return full + [("E", 7), ("E", 8)]


def run_suite(level: str = "full", max_n: int | None = None) -> VerificationReport:
    """Assemble and run one verification suite, one check after another."""
    if level not in SUITE_NAMES:
        raise ValueError(f"unknown suite {level!r}; choose from {', '.join(SUITE_NAMES)}")
    if max_n is None:
        max_n = SUITE_MAX_N[level]
    sincere_max = bc_max = 4 if level == "quick" else 5
    parts = [verify_type(series, n) for series, n in _suite_types(level)]
    parts.append(verify_type("A", 4, orientation_sweep("A", 4)))
    parts.append(verify_type("D", 4, orientation_sweep("D", 4)))
    parts.append(verify_bc_equality(bc_max))
    parts.append(verify_sincere_structure(sincere_max))
    parts.append(verify_identities(max_n))
    parts.append(verify_reconcile())
    return VerificationReport(tuple(c for part in parts for c in part.checks))
