"""Acceptance suite: one test per criterion, exact tolerances, pinned budgets.

Criterion 4 note: antichains carry two gradings.  By support-rank they are
equidistributed with support-tilting sets and match the closed-form tables.
By cardinality they follow the rank grading of the non-crossing partition
lattice (an antichain of bricks is the set of simples of a wide subcategory,
Ingalls-Thomas), counted by the Narayana numbers of type Delta (Armstrong,
Mem. AMS 2009).  The two gradings cannot coincide for rank >= 2: every single
brick is an antichain, so the size-1 count is the number of positive roots,
while the support-rank-1 count is n.  The by-size leg therefore checks the
Narayana rows, computed here from closed forms and published exceptional
rows, independently of `formulas`.
"""

import time
from math import comb

import pytest

from dynkin_tilting import formulas, oeis, verify
from dynkin_tilting.cli import run
from dynkin_tilting.diagrams import DynkinType, build_cartan
from dynkin_tilting.enumeration import classify_sincere, count_tables, enumerate_antichains
from dynkin_tilting.homs import build_category
from tests.test_formulas import TRIANGLE_A, TRIANGLE_B, TRIANGLE_D
from tests.test_oeis import RECONCILE_TERMS, generate_terms

CRITERION_3_TYPES = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(1, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in (4, 5, 6)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


def _tables(series, n, orientation="default"):
    cat = build_category(build_cartan(DynkinType(series, n), orientation))
    return count_tables(cat, "antichain"), count_tables(cat, "tilting")


def test_criterion_01_triangle_fidelity():
    start = time.monotonic()
    for triangle, series in ((TRIANGLE_A, "A"), (TRIANGLE_B, "B"), (TRIANGLE_D, "D")):
        for n, (row, total) in triangle.items():
            assert list(formulas.a_row(series, n)) == row, (series, n)
            assert formulas.a_total(series, n) == total, (series, n)
    assert time.monotonic() - start < 1.0
    print("criterion 1 (triangle fidelity rows<=9): PASS")


def test_criterion_02_exceptional_fidelity():
    for label, row in formulas.EXCEPTIONAL_ROWS.items():
        series, n = label[0], int(label[1:])
        assert formulas.a_row(series, n) == row, label
    assert [formulas.a_total("E", 6), formulas.a_total("E", 7), formulas.a_total("E", 8)] == [833, 4160, 25080]
    assert formulas.a_total("F", 4) == 105
    assert formulas.a_total("G", 2) == 8
    assert [formulas.a_s("E", n, n) for n in (6, 7, 8)] == [418, 2431, 17342]
    assert formulas.a_s("F", 4, 4) == 66
    assert formulas.a_s("G", 2, 2) == 5
    print("criterion 2 (exceptional fidelity): PASS")


def test_criterion_03_enumeration_vs_formula():
    start = time.monotonic()
    for series, n in CRITERION_3_TYPES:
        _, tilt = _tables(series, n)
        assert tilt.by_support_rank == formulas.a_row(series, n), (series, n)
        assert tilt.total == formulas.a_total(series, n), (series, n)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"default enumeration took {elapsed:.1f}s"
    print(f"criterion 3 (enumeration vs formula, default scope): PASS ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_03_slow_e7_e8():
    start = time.monotonic()
    for n, total in ((7, 4160), (8, 25080)):
        _, tilt = _tables("E", n)
        assert tilt.by_support_rank == formulas.a_row("E", n)
        assert tilt.total == total
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"E7/E8 enumeration took {elapsed:.1f}s"
    print(f"criterion 3 (E7/E8 under --runslow): PASS ({elapsed:.2f}s)")


def test_criterion_04_support_rank_equidistribution():
    # the attainable legs: antichains and support-tilting sets agree by
    # support-rank, and match the closed forms
    for series, n in CRITERION_3_TYPES:
        anti, tilt = _tables(series, n)
        assert anti.by_support_rank == tilt.by_support_rank, (series, n)
        assert anti.total == tilt.total
    print("criterion 4 (support-rank equidistribution): PASS")


# Narayana numbers of type Delta, published rows for the exceptional types
NARAYANA_EXCEPTIONAL = {
    "E6": (1, 36, 204, 351, 204, 36, 1),
    "F4": (1, 24, 55, 24, 1),
    "G2": (1, 6, 1),
}


def _narayana_row(series, n):
    """Narayana numbers N(k) of type series_n, k = 0..n, in exact integers."""
    if series == "A":
        return tuple(comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(n + 1))
    if series in ("B", "C"):
        return tuple(comb(n, k) ** 2 for k in range(n + 1))
    if series == "D":
        row = [1]
        for k in range(1, n + 1):
            q, r = divmod(n * comb(n - 1, k) * comb(n - 1, k - 1), n - 1)
            assert r == 0, (n, k)
            row.append(comb(n, k) ** 2 - q)
        return tuple(row)
    return NARAYANA_EXCEPTIONAL[f"{series}{n}"]


def test_criterion_04_size_equidistribution_as_stated():
    # criterion 4 in full: antichains by support-rank = support-tilting sets
    # by support-rank = the closed-form table; antichains by cardinality are
    # the Narayana numbers of type Delta (the non-crossing rank grading).
    # Equality of the by-size tally with the support-rank table, as the
    # criterion was first written, is false for every rank >= 2: the size-1
    # count is the number of positive roots, the rank-1 table entry is n.
    for series, n in CRITERION_3_TYPES:
        cat = build_category(build_cartan(DynkinType(series, n)))
        anti, tilt = count_tables(cat, "antichain"), count_tables(cat, "tilting")
        label = f"{series}{n}"
        assert anti.by_support_rank == tilt.by_support_rank == formulas.a_row(series, n), label
        assert anti.by_size == _narayana_row(series, n), (label, anti.by_size)
        assert sum(anti.by_size) == anti.total == formulas.a_total(series, n), label
        assert anti.by_size[1] == len(cat.indecs), label
    print("criterion 4 (by support-rank: tables; by size: Narayana of type Delta): PASS")


def test_criterion_05_orientation_invariance():
    for series in ("A", "D"):
        sweep = verify.orientation_sweep(series, 4)
        assert len(sweep) == 8
        tables = [_tables(series, 4, o) for o in sweep]
        base_anti, base_tilt = tables[0]
        for anti, tilt in tables[1:]:
            assert tilt.by_support_rank == base_tilt.by_support_rank
            assert anti.by_support_rank == base_anti.by_support_rank
            assert anti.by_size == base_anti.by_size
    assert base_tilt.by_support_rank == formulas.a_row("D", 4)
    print("criterion 5 (orientation invariance A4/D4): PASS")


def test_criterion_06_b_equals_c():
    for n in range(2, 6):
        _, b = _tables("B", n)
        _, c = _tables("C", n)
        assert b.by_support_rank == c.by_support_rank, n
        assert b.total == c.total
    print("criterion 6 (B = C up to n = 5): PASS")


def test_criterion_07_identity_suite():
    start = time.monotonic()
    rep = verify.verify_identities(50)
    elapsed = time.monotonic() - start
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"
    print(f"criterion 7 (identities n<=50): PASS ({elapsed:.2f}s)")


def test_criterion_08_sincere_structure():
    for n in range(2, 6):
        cat = build_category(build_cartan(DynkinType("B", n)))
        split = classify_sincere(cat)
        assert split.u_count == formulas.binom(2 * n - 2, n - 1), n
        assert split.v_count == formulas.binom(2 * n - 2, n - 2), n
        expected = tuple(
            formulas.a_s("A", i - 1, i - 1) * formulas.a_s("B", n - i, n - i)
            for i in range(1, n + 1)
        )
        assert split.per_vertex == expected, n
    rep = verify.verify_sincere_structure(5)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the linear-A analogue: sincere antichains of A_n biject with
    # injective-free antichains, and both are counted by a(A_{n-1})
    for n in range(2, 7):
        cat = build_category(build_cartan(DynkinType("A", n)))
        full = (1 << n) - 1
        injectives = set(cat.injective_slice())
        sincere = sum(1 for _, support in enumerate_antichains(cat) if support == full)
        no_inj = sum(
            1 for members, _ in enumerate_antichains(cat) if not any(k in injectives for k in members)
        )
        assert sincere == no_inj == formulas.a_s("A", n, n) == formulas.a_total("A", n - 1), n
    print("criterion 8 (sincere split, eta bijection, linear-A analogue): PASS")


def test_criterion_09_integrality_to_2000():
    start = time.monotonic()
    # Exhaustive over every admissible (t, s) with t <= 2000 via running
    # Pascal rows.  Each rational form num/den is certified integral (and
    # equal to the division-free implementation) through one whole-row
    # multiplication identity: num == den * implementation_value.
    prev = [1]
    for t in range(1, 2001):
        row = [1] + [a + b for a, b in zip(prev, prev[1:])] + [1]
        # bailey: (s+t) C(t,s) == t * (C(t,s) + C(t-1,s-1)) for all 0 <= s <= t
        nums = [c * w for c, w in zip(row, range(t, 2 * t + 1))]
        implementation = [c + p for c, p in zip(row, [0] + prev)]
        assert nums == [t * v for v in implementation], f"bailey broke at t={t}"
        # catalan bracket on the ballot region s <= (t+1)//2:
        # (t-2s+1) C(t,s) == (t-s+1) * (C(t,s) - C(t,s-1))
        m = (t + 1) // 2
        lhs = [c * w for c, w in zip(row[: m + 1], range(t + 1, t - 2 * m, -2))]
        diffs = [1] + [a - b for a, b in zip(row[1 : m + 1], row[:m])]
        rhs = [d * w for d, w in zip(diffs, range(t + 1, t - m, -1))]
        assert lhs == rhs, f"catalan bracket broke at t={t}"
        prev = row
    # A and D diagonals/totals: exhaustive divisibility for n <= 2000 via
    # running binomials C(2n,n), C(2n-2,n-2), C(2n-1,n-1)
    central = 2  # C(2,1) at n = 1
    sub = 1  # C(2n-2, n-2) at n = 2
    edge = 1  # C(2n-1, n-1) at n = 1
    for n in range(1, 2001):
        assert central % (n + 1) == 0  # A diagonal
        nxt = central * ((2 * n + 1) * (2 * n + 2)) // ((n + 1) * (n + 1))
        assert nxt % (n + 2) == 0  # A total: (n+2) | C(2n+2, n+1)
        if n >= 2:
            assert ((3 * n - 4) * sub) % (2 * n - 2) == 0  # D diagonal
            assert ((3 * n - 2) * edge) % (2 * n - 1) == 0  # D total
            sub = sub * ((2 * n - 1) * 2 * n) // ((n - 1) * (n + 1))
        central = nxt
        edge = edge * (2 * n * (2 * n + 1)) // (n * (n + 1))
    # implementation agreement with the rational forms, densely sampled: on
    # the brackets a_s and a_total read, and on a_s and a_total themselves up
    # to the rank limit of 1000
    for n in list(range(1, 301)) + [500, 1000, 1500, 2000]:
        a_diagonal, a_total = formulas.catalan_bracket(2 * n, n), formulas.catalan_bracket(2 * n + 2, n + 1)
        assert a_diagonal * (n + 1) == formulas.binom(2 * n, n)
        assert a_total * (n + 2) == formulas.binom(2 * n + 2, n + 1)
        if n <= 1000:
            assert (formulas.a_s("A", n, n), formulas.a_total("A", n)) == (a_diagonal, a_total)
        if n >= 2:
            d_diagonal, d_total = formulas.bailey(2 * n - 2, n - 2), formulas.bailey(2 * n - 1, n - 1)
            assert d_diagonal * (2 * n - 2) == (3 * n - 4) * formulas.binom(2 * n - 2, n - 2)
            assert d_total * (2 * n - 1) == (3 * n - 2) * formulas.binom(2 * n - 1, n - 1)
            if n <= 1000:
                assert (formulas.a_s("D", n, n), formulas.a_total("D", n)) == (d_diagonal, d_total)
    elapsed = time.monotonic() - start
    print(f"criterion 9 (integrality t<=2000): PASS ({elapsed:.2f}s)")


def test_criterion_10_oeis_reconciliation():
    # A241188's full shipped prefix is checked below
    for sid, terms in RECONCILE_TERMS.items():
        res = oeis.reconcile(sid, terms)
        assert res.passed, (sid, res.detail)
    # A241188: the available prefix means every shipped term
    fixture = oeis.fetch_bfile("A241188")
    res = oeis.reconcile("A241188", len(fixture.entries))
    assert res.passed, res.detail
    assert [v for _, v in generate_terms("A129869", 8)] == [1, 5, 20, 77, 294, 1122, 4290, 16445]
    print("criterion 10 (OEIS reconciliation): PASS")


def test_criterion_11_determinism(capsys):
    assert run(["verify", "--quick"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--quick"]) == 0
    second = capsys.readouterr().out
    assert run(["verify", "--quick", "--threads", "1"]) == 0
    one_thread = capsys.readouterr().out
    assert run(["verify", "--quick", "--threads", "8"]) == 0
    eight_threads = capsys.readouterr().out
    assert first == second == one_thread == eight_threads
    print("criterion 11 (byte-identical verify --quick, threads 1 and 8): PASS")
