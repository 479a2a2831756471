"""Cross-checks between enumeration, closed forms, and OEIS fixtures.

A report is an ordered list of checks, each carrying expected vs actual
strings; a check passes exactly when the two are equal, and failures never
abort a run.  Reports render as one line per check:

    <id>\t<subject>\t<expected>\t<actual>\t<PASS|FAIL>

Suites run their checks serially, in a fixed order, so a report is
byte-identical from run to run.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from . import formulas, oeis
from .diagrams import DynkinType, all_orientations, build_cartan, canonical_shape
from .enumeration import (
    CountTable,
    _walk,
    classify_sincere,
    count_row,
    count_tables,
    eta_inverse,
    eta_map,
)
from .homs import build_category

ORIENTATION_SAMPLE_SEED = 271828
# largest forecast result count a search runs to: the default of `enumerate
# --max-results`, and the limit of verify_type and verify_bc_equality
MAX_RESULTS = 10_000_000


class Check(NamedTuple):
    check_id: str
    subject: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class VerificationReport(NamedTuple):
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


def _check(check_id: str, subject: str, expected: object, actual: object) -> Check:
    return Check(check_id, subject, str(expected), str(actual))


def _row(table: CountTable) -> str:
    return count_row(table.by_support_rank, table.total)


def check_result_budget(dtype: DynkinType, limit: int = MAX_RESULTS) -> None:
    """Refuse a type with more than ``limit`` result sets before anything is built.

    Both statistics have ``formulas.a_total`` results, so the closed form
    forecasts the size of every search of the type, at once: a DynkinType
    has rank at most 1000.
    """
    forecast = formulas.a_total(dtype.series, dtype.rank)
    if forecast > limit:
        raise ValueError(f"{dtype.label} has {forecast} result sets, above the limit of {limit}")


def verify_type(series: str, n: int, orientations: Sequence[str] | None = None) -> VerificationReport:
    """Enumerate one type under one or more orientations and compare counts.

    Per orientation, given as build_cartan's text and named so in the
    report: support-tilting counts by support-rank against the
    closed-form row, totals against the closed-form total, and the
    antichain-by-support-rank table against the tilting table.  With several
    orientations the tables must also agree across all of them.

    A type with more than MAX_RESULTS result sets is refused before any
    category is built: A14, B12, C12 and D13 verify, A15, B13, C13 and D14
    do not.  An empty list of orientations raises ValueError: it would
    leave no check to fail.
    """
    orientations = ["default"] if orientations is None else list(orientations)
    if not orientations:
        raise ValueError("verify_type needs at least one orientation")
    dtype = DynkinType(series, n)
    check_result_budget(dtype)
    checks: list[Check] = []
    expected_row = count_row(formulas.a_row(series, n), formulas.a_total(series, n))
    tables: list[CountTable] = []
    for spec in orientations:
        cat = build_category(build_cartan(dtype, spec))
        tilt = count_tables(cat, "tilting")
        anti = count_tables(cat, "antichain")
        subject = f"{dtype.label} orientation={spec}"
        checks.append(_check("enum.tilting.rank", subject, expected_row, _row(tilt)))
        checks.append(_check("enum.antichain.rank", subject, _row(tilt), _row(anti)))
        tables.append(tilt)
    if len(tables) > 1:
        base = tables[0]
        agree = all(t.by_support_rank == base.by_support_rank for t in tables)
        expected = f"all equal to {count_row(base.by_support_rank)}"
        checks.append(
            _check(
                "enum.orientation.invariance",
                f"{dtype.label} over {len(tables)} orientations",
                expected,
                expected if agree else "orientation tables differ",
            )
        )
    return VerificationReport(tuple(checks))


def orientation_sweep(series: str, n: int) -> list[str]:
    """Deterministic list of orientation texts: exhaustive for rank <= 4,
    else a fixed-seed sample of 10."""
    shape = canonical_shape(DynkinType(series, n))
    orientations = all_orientations(shape)
    if n <= 4 or len(orientations) <= 10:
        return orientations
    rng = random.Random(ORIENTATION_SAMPLE_SEED)
    return rng.sample(orientations, 10)


def verify_bc_equality(n_max: int) -> VerificationReport:
    """CountTables of B_n and C_n agree entrywise for 2 <= n <= n_max.

    Refused before B2 is built if n_max < 2, which leaves no check, or if
    B_{n_max} (and so C_{n_max}, which has the same counts) has more than
    MAX_RESULTS result sets.
    """
    if n_max < 2:
        raise ValueError(f"B/C comparison bound {n_max} is below 2; there would be no check")
    check_result_budget(DynkinType("B", n_max))
    checks = []
    for n in range(2, n_max + 1):
        b = count_tables(build_category(build_cartan(DynkinType("B", n))), "tilting")
        c = count_tables(build_category(build_cartan(DynkinType("C", n))), "tilting")
        checks.append(_check("enum.bc.equal", f"B{n} vs C{n}", _row(b), _row(c)))
    return VerificationReport(tuple(checks))


# one report line per family: check id, the variable its subject bounds, the
# check on formulas and the series it runs (None: every series of its region)
_IDENTITY_FAMILIES = (
    ("id.hook.A", "n", "hook_check", "A"),
    ("id.hook.B", "n", "hook_check", "B"),
    ("id.hook.D", "n", "hook_check", "D"),
    ("id.hook.E", "n", "hook_check", "E"),
    ("id.modified-hook.D", "n", "modified_hook_check", "D"),
    ("id.modified-hook.E", "n", "modified_hook_check", "E"),
    ("id.summation", "n", "summation_check", None),
    ("id.total-split", "n", "total_split_check", None),
    ("id.comparison", "n", "comparison_check", None),
    ("id.diagonals", "n", "diagonal_checks", None),
    ("id.b-decomposition", "n", "b_decomposition_check", None),
    ("id.lucas-deviation", "n", "lucas_vs_d_deviation_check", None),
    ("id.z-recursion", "t", "z_recursion_check", None),
    ("id.hockey-stick", "t", "hockey_stick_check", None),
    ("id.z-boundary", "t", "z_boundary_check", None),
    ("id.shear", "n", "shear_check", None),
)

# largest identity-suite bound: the suite takes about 0.07 s at 80 and 0.23 s
# at 120 (CPython 3.11, 2 vCPUs), and its time grows about as max_n cubed
IDENTITY_MAX_N = 120
# smallest identity-suite bound at which every family has an instance
IDENTITY_MIN_N = next(
    m
    for m in range(IDENTITY_MAX_N + 1)
    if all(next(formulas._instances(name, series, m), None) for _, _, name, series in _IDENTITY_FAMILIES)
)


def _require_identity_bound(max_n: int) -> None:
    if max_n < IDENTITY_MIN_N:
        raise ValueError(
            f"identity-suite bound {max_n} is below {IDENTITY_MIN_N}; some identity families would have no instance"
        )
    if max_n > IDENTITY_MAX_N:
        raise ValueError(f"identity-suite bound {max_n} is above the limit of {IDENTITY_MAX_N}")


def _family(check_id: str, subject: str, check, instances) -> Check:
    """Aggregate a family of identity instances, each an argument tuple of check, into one check."""
    failures = [args for args in instances if not check(*args)]
    expected = "all instances hold"
    return _check(check_id, subject, expected, f"failed at {failures[:5]}" if failures else expected)


def verify_identities(max_n: int) -> VerificationReport:
    """Run every closed-form identity over its argument region up to max_n.

    max_n must be at least IDENTITY_MIN_N, so that no family is empty, and
    at most IDENTITY_MAX_N, so that the suite ends within seconds.

    The regions are those that the ``formulas`` module docstring lists.
    A family runs series by series, then by n, then by s.  Each check is
    looked up on ``formulas`` when its family runs, so wrappers see every call.
    """
    _require_identity_bound(max_n)
    # sums cached by an earlier call may come from other a_s or z_value
    formulas._reset_partial_sums()
    checks = []
    for check_id, var, name, series in _IDENTITY_FAMILIES:
        instances = formulas._instances(name, series, max_n)
        checks.append(_family(check_id, f"{var}<={formulas._last(series, max_n)}", getattr(formulas, name), instances))
    return VerificationReport(tuple(checks))


def verify_sincere_structure(n_max: int) -> VerificationReport:
    """Exhaustive classification of sincere antichains for B_n, n <= n_max,
    plus the strip-the-injective bijection for B_n and for linear A_n."""
    if n_max < 2:
        raise ValueError(f"sincere-structure bound {n_max} is below 2; there would be no check")
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
        checks.append(_check("sincere.total", f"B{n}", formulas.a_s("B", n, n), split.total))
        checks.append(_eta_check("B", n, cat))
    for n in range(2, n_max + 2):
        cat = build_category(build_cartan(DynkinType("A", n)))
        checks.append(_eta_check("A", n, cat))
    return VerificationReport(tuple(checks))


def _eta_check(series: str, n: int, cat) -> Check:
    """Round-trip the injective-stripping bijection over all sincere antichains.

    eta must send the sincere antichains onto the antichains with no
    injective, which the walk yields in sorted order, and eta_inverse must
    send each image back.  The images are compared first: eta_inverse
    refuses an injective member.
    """
    full = (1 << n) - 1
    injectives = set(cat.injective_slice())
    antichains = list(_walk(cat, "antichain"))
    sincere = [ac for ac in antichains if ac[1] == full]
    free = [ac for ac in antichains if injectives.isdisjoint(ac[0])]
    images = [eta_map(cat, ac) for ac in sincere]
    bijective = sorted(images) == free and [eta_inverse(cat, down) for down in images] == sincere
    return _check(
        "sincere.eta",
        f"{series}{n}",
        f"bijection on {formulas.a_s(series, n, n)} antichains",
        f"bijection on {len(sincere)} antichains" if bijective else "round-trip failed",
    )


# prefix length verify_reconcile checks per sequence by default
RECONCILE_TERMS = {
    "A009766": 55,
    "A059481": 55,
    "A241188": 54,
    "A008315": 40,
    "A007318": 55,
    "A029635": 40,
    "A129869": 8,
}


def verify_reconcile(terms: dict[str, int] | None = None) -> VerificationReport:
    """Compare generated sequence prefixes against the shipped b-files."""
    terms = RECONCILE_TERMS if terms is None else terms
    if not terms:
        raise ValueError("verify_reconcile needs at least one sequence")
    checks = []
    for sid in sorted(terms):
        res = oeis.reconcile(sid, terms[sid])
        actual = "prefix agrees" if res.passed else res.detail
        checks.append(_check("oeis.reconcile", f"{sid} terms={res.terms}", "prefix agrees", actual))
    return VerificationReport(tuple(checks))


# --- suites ------------------------------------------------------------------


class Suite(NamedTuple):
    max_n: int  # identity-suite bound when no max_n is given
    types: str  # labels of the types verified at their default orientation, in report order
    bc_max: int  # rank bound of the B/C-equality and sincere-structure checks


_FULL_TYPES = "A1 A2 A3 A4 A5 A6 A7 B2 B3 B4 B5 C2 C3 C4 C5 D4 D5 D6 E6 F4 G2"
SUITES = {
    "quick": Suite(30, "A1 A2 A3 A4 A5 B2 B3 B4 C2 C3 C4 D4 D5 F4 G2", 4),
    "full": Suite(50, _FULL_TYPES, 5),
    "slow": Suite(50, _FULL_TYPES + " E7 E8", 5),
}


def run_suite(level: str = "full", max_n: int | None = None) -> VerificationReport:
    """Assemble and run one verification suite, one check after another."""
    if level not in SUITES:
        raise ValueError(f"unknown suite {level!r}; choose from {', '.join(SUITES)}")
    suite = SUITES[level]
    max_n = suite.max_n if max_n is None else max_n
    _require_identity_bound(max_n)
    parts = [verify_type(*DynkinType.parse(label)) for label in suite.types.split()]
    parts.append(verify_type("A", 4, orientation_sweep("A", 4)))
    parts.append(verify_type("D", 4, orientation_sweep("D", 4)))
    parts.append(verify_bc_equality(suite.bc_max))
    parts.append(verify_sincere_structure(suite.bc_max))
    parts.append(verify_identities(max_n))
    parts.append(verify_reconcile())
    return VerificationReport(tuple(c for part in parts for c in part.checks))
