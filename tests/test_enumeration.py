"""Antichain and support-tilting enumeration against hand and formula oracles."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import dynkin_tilting
from dynkin_tilting.diagrams import DynkinType, all_orientations, build_cartan, canonical_shape
from dynkin_tilting.enumeration import (
    _walk,
    classify_sincere,
    count_tables,
    enumerate_antichains,
    enumerate_support_tilting,
    eta_inverse,
    eta_map,
    format_set,
)
from dynkin_tilting.formulas import a_row, a_total, binom
from dynkin_tilting.homs import build_category, ext_nonzero, hom_nonzero


def _cat(label, orientation="default"):
    return build_category(build_cartan(DynkinType.parse(label), orientation))


def _brute_antichains(cat):
    """Independent oracle: filter all subsets by pairwise Hom-orthogonality."""
    keys = [m.key for m in cat.indecs]
    out = []
    for r in range(len(keys) + 1):
        for combo in itertools.combinations(range(len(keys)), r):
            ok = all(
                not hom_nonzero(cat, keys[a], keys[b]) and not hom_nonzero(cat, keys[b], keys[a])
                for a, b in itertools.combinations(combo, 2)
            )
            if ok:
                out.append(combo)
    return out


def _brute_tilting(cat):
    """Independent oracle: Ext-rigid subsets whose size equals support-rank."""
    keys = [m.key for m in cat.indecs]
    out = []
    for r in range(len(keys) + 1):
        for combo in itertools.combinations(range(len(keys)), r):
            rigid = all(
                not ext_nonzero(cat, keys[a], keys[b]) and not ext_nonzero(cat, keys[b], keys[a])
                for a, b in itertools.combinations(combo, 2)
            )
            if rigid:
                supp = set().union(*(cat.indecs[k].support for k in combo)) if combo else set()
                if len(combo) == len(supp):
                    out.append(combo)
    return out


def _recursive_walk(cat, statistic):
    """Reference oracle: the unpruned recursive walker that preceded the
    explicit-stack one.  It visits every compatible set in lex order and keeps,
    for tilting, those whose size equals their support-rank; returns the
    (members, support) pairs in visiting order."""
    rel = cat.hom if statistic == "antichain" else cat.ext
    m = len(cat.indecs)
    comp = [
        sum(1 << y for y in range(m) if y != x and not (rel[x] >> y) & 1 and not (rel[y] >> x) & 1) for x in range(m)
    ]
    out = []

    def rec(members, allowed, support):
        if statistic == "antichain" or len(members) == len(support):
            out.append((members, support))
        rest = allowed
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            rec(members + (y,), allowed & comp[y] & -(low << 1), support | cat.indecs[y].support)

    rec((), (1 << m) - 1, frozenset())
    return out


_ORACLE_TYPES = (
    [f"A{n}" for n in range(1, 6)]
    + [f"{s}{n}" for s in "BCD" for n in range(2, 6)]
    + ["E3", "E4", "E5", "F4", "G2"]
)


def _oracle_cases():
    for label in _ORACLE_TYPES:
        for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
            yield label, orientation
    yield "D6", "default"
    yield "E6", "default"


@pytest.mark.parametrize("statistic, stream", [("antichain", enumerate_antichains), ("tilting", enumerate_support_tilting)])
def test_walker_matches_recursive_oracle(statistic, stream):
    for label, orientation in _oracle_cases():
        cat = _cat(label, orientation)
        want = _recursive_walk(cat, statistic)
        assert [(s.members, s.support) for s in stream(cat)] == want, (label, orientation)
        by_rank = Counter(len(support) for _, support in want)
        by_size = Counter(len(members) for members, _ in want)
        table = count_tables(cat, statistic)
        assert table.by_support_rank == tuple(by_rank[r] for r in range(cat.n + 1)), (label, orientation)
        assert table.by_size == tuple(by_size[k] for k in range(cat.n + 1)), (label, orientation)
        assert table.total == len(want)


def _walk_tally(cat):
    by_rank = Counter()
    by_size = Counter()
    for members, supp in _walk(cat, "tilting"):
        by_rank[supp.bit_count()] += 1
        by_size[len(members)] += 1
    return tuple(by_rank[r] for r in range(cat.n + 1)), tuple(by_size[k] for k in range(cat.n + 1))


# E8 is of rank 8, so the tier-1 list already covers it
@pytest.mark.parametrize(
    "label",
    [f"{s}{n}" for s in "ABCD" for n in (6, 7, 8)]
    + ["E6", "E7", "E8"]
    + [pytest.param(label, marks=pytest.mark.slow) for label in ("A10", "B10", "D10")],
)
def test_memoized_tilting_counts_match_walk(label):
    orientations = all_orientations(canonical_shape(DynkinType.parse(label)))
    for orientation in ("default", random.Random(label).choice(orientations)):
        cat = _cat(label, orientation)
        table = count_tables(cat, "tilting")
        assert (table.by_support_rank, table.by_size) == _walk_tally(cat), (label, orientation)


def _lucas(t, s):
    return (s + t) * comb(t, s) // t


# rows by support-rank, from the closed forms written out here with math.comb
_ROWS = {
    "A": lambda n, s: comb(n + s, s) * (n - s + 1) // (n + 1),
    "B": lambda n, s: comb(n + s - 1, s),
    "D": lambda n, s: _lucas(n + s - 2, s) if s < n else _lucas(2 * n - 2, n - 2),
}


# the walk takes 10-12 s on A12; the memo about 1 s
@pytest.mark.parametrize(
    "label", ["A12", pytest.param("B12", marks=pytest.mark.slow), pytest.param("D12", marks=pytest.mark.slow)]
)
def test_tilting_counts_above_walk_reach(label):
    series, n = label[0], int(label[1:])
    assert count_tables(_cat(label), "tilting").by_support_rank == tuple(_ROWS[series](n, s) for s in range(n + 1))


_VMHWM_CHILD = """
import os, sys
import dynkin_tilting.cli as cli

def vmhwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

sys.stdout = open(os.devnull, "w")
assert cli.run(["table", "A", "1"]) == 0
before = vmhwm_kb()
assert cli.run(["enumerate", "B", "10", "--statistic", "tilting"]) == 0
sys.stdout.close()
print(vmhwm_kb() - before, file=sys.__stdout__)
"""


def test_tilting_memo_stays_small():
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("/proc/self/status is unreadable")
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _VMHWM_CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # the plain walk grows VmHWM by about 0.13 MB here and the memo by 0.47 MB.
    # perfbench's enum-count allows 5% (0.8 MB) more peak RSS, so a memo that
    # reads above 1 MB breaks it: every level memoized reads 1.56 MB, levels
    # with at least 3 candidates 1.04 MB
    assert int(proc.stdout) < 1024


def test_a2_antichains_by_hand():
    cat = _cat("A2")
    got = [s.members for s in enumerate_antichains(cat)]
    # indices: 0 = S1, 1 = S2, 2 = P2; the five antichains, lexicographic
    assert got == [(), (0,), (0, 1), (1,), (2,)]
    table = count_tables(cat, "antichain")
    assert table.by_support_rank == (1, 2, 2)
    assert table.by_size == (1, 3, 1)
    assert table.total == 5


def test_a2_support_tilting_by_hand():
    cat = _cat("A2")
    got = [s.members for s in enumerate_support_tilting(cat)]
    # {}, {S1}, {P1,P2}, {S2}, {S2,P2}
    assert got == [(), (0,), (0, 2), (1,), (1, 2)]
    table = count_tables(cat, "tilting")
    assert table.by_support_rank == (1, 2, 2)
    assert table.total == 5


def test_streams_match_brute_force():
    for label in ["A1", "A3", "B2", "B3", "C3", "D4", "G2", "D2", "E3"]:
        cat = _cat(label)
        assert sorted(s.members for s in enumerate_antichains(cat)) == sorted(
            _brute_antichains(cat)
        ), label
        assert sorted(s.members for s in enumerate_support_tilting(cat)) == sorted(
            _brute_tilting(cat)
        ), label


def test_counts_match_formulas_small():
    for label in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "D4", "D5", "F4", "G2", "E6"]:
        dtype = DynkinType.parse(label)
        table = count_tables(_cat(label), "tilting")
        assert table.by_support_rank == a_row(dtype.series, dtype.rank), label
        assert table.total == a_total(dtype.series, dtype.rank), label


def test_counts_match_formulas_every_orientation_rank_le_5():
    from dynkin_tilting.diagrams import all_orientations, canonical_shape

    labels = ["A3", "A5", "B3", "B4", "C4", "D2", "D3", "D4", "D5", "E3", "E5", "F4", "G2"]
    for label in labels:
        dtype = DynkinType.parse(label)
        expected = a_row(dtype.series, dtype.rank)
        for orientation in all_orientations(canonical_shape(dtype)):
            cat = _cat(label, orientation)
            assert count_tables(cat, "tilting").by_support_rank == expected, (label, orientation)
            assert count_tables(cat, "antichain").by_support_rank == expected, (label, orientation)


def test_g2_antichain_counts():
    table = count_tables(_cat("G2"), "antichain")
    assert table.by_support_rank == (1, 2, 5)
    assert table.total == 8


def test_disjoint_union_counts_by_convolution():
    # D2 = A1 + A1 and E3 = A2 + A1 enumerate directly as forests
    assert count_tables(_cat("D2"), "tilting").by_support_rank == (1, 2, 1)
    assert count_tables(_cat("E3"), "tilting").by_support_rank == (1, 3, 4, 2)


def test_antichain_size_one_counts_bricks():
    # every indecomposable is a brick, so singletons are exactly the indecs
    for label in ["A3", "B3", "D4"]:
        cat = _cat(label)
        assert count_tables(cat, "antichain").by_size[1] == len(cat.indecs)


def test_count_tables_requires_matrices():
    from dynkin_tilting.orbits import knit_category

    bare = knit_category(build_cartan(DynkinType("A", 2)))
    with pytest.raises(ValueError, match="matrices not built"):
        count_tables(bare, "antichain")


def test_eta_rejects_non_antichain():
    from dynkin_tilting.enumeration import IndecSet

    cat = _cat("A2")
    # {S1, P2} is sincere but Hom(S1, P2) != 0
    bogus = IndecSet((0, 2), frozenset({1, 2}))
    with pytest.raises(ValueError, match="not an antichain"):
        eta_map(cat, bogus)


def test_maximality_inside_support():
    # a support-tilting set cannot be extended within its own support
    for label in ["A3", "A4", "A5", "B3", "B4", "C3", "D4", "D5", "G2"]:
        cat = _cat(label)
        for s in enumerate_support_tilting(cat):
            inside = [
                k
                for k, m in enumerate(cat.indecs)
                if k not in s.members and m.support <= s.support
            ]
            for k in inside:
                extended = s.members + (k,)
                rigid = all(
                    not ext_nonzero(cat, cat.indecs[a].key, cat.indecs[b].key)
                    and not ext_nonzero(cat, cat.indecs[b].key, cat.indecs[a].key)
                    for a, b in itertools.combinations(extended, 2)
                )
                assert not rigid, (label, s.members, k)


def test_counts_empty_set_once():
    for label in ["A1", "B2", "D4"]:
        for kind in ("antichain", "tilting"):
            assert count_tables(_cat(label), kind).by_support_rank[0] == 1


def test_classify_sincere_b_series():
    for n in range(2, 6):
        split = classify_sincere(_cat(f"B{n}"))
        assert split.u_count == binom(2 * n - 2, n - 1)
        assert split.v_count == binom(2 * n - 2, n - 2)
        assert split.total == binom(2 * n - 1, n - 1)


def test_classify_sincere_b4_per_vertex():
    split = classify_sincere(_cat("B4"))
    assert split.per_vertex == (10, 3, 2, 5)
    assert sum(split.per_vertex) == 20


def test_eta_roundtrip_b2():
    cat = _cat("B2")
    full = frozenset({1, 2})
    sincere = [s for s in enumerate_antichains(cat) if s.support == full]
    assert len(sincere) == 3
    injectives = set(cat.injective_slice())
    images = []
    for s in sincere:
        down = eta_map(cat, s)
        assert not any(k in injectives for k in down.members)
        assert eta_inverse(cat, down).members == s.members
        images.append(down.members)
    no_inj = [s.members for s in enumerate_antichains(cat) if not any(k in injectives for k in s.members)]
    assert sorted(images) == sorted(no_inj)


def test_eta_requires_sincere_antichain():
    cat = _cat("B2")
    empty = next(iter(enumerate_antichains(cat)))
    with pytest.raises(ValueError):
        eta_map(cat, empty)


def test_eta_drops_support_when_stripping():
    cat = _cat("B2")
    full = frozenset({1, 2})
    injectives = set(cat.injective_slice())
    for s in enumerate_antichains(cat):
        if s.support == full and any(k in injectives for k in s.members):
            assert eta_map(cat, s).support != full


def test_format_set():
    cat = _cat("A2")
    sets = list(enumerate_antichains(cat))
    assert format_set(cat, sets[0]) == "-"
    assert format_set(cat, sets[2]) == "1,0 1,1"


def test_listing_deterministic():
    cat1 = _cat("D4")
    cat2 = _cat("D4")
    assert [s.members for s in enumerate_antichains(cat1)] == [
        s.members for s in enumerate_antichains(cat2)
    ]
