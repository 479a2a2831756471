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
from dynkin_tilting import enumeration, verify
from dynkin_tilting.diagrams import RANK_RANGE, DynkinType, all_orientations, build_cartan, canonical_shape
from dynkin_tilting.enumeration import (
    _compat_masks,
    _component_product,
    _walk,
    classify_sincere,
    count_tables,
    enumerate_antichains,
    enumerate_support_tilting,
    eta_inverse,
    eta_map,
    format_set,
    listing_lines,
)
from dynkin_tilting.formulas import a_row, a_total, binom
from dynkin_tilting.homs import build_category
from tests.oracles import ext_nonzero, hom_nonzero, nonnesting_tables


def _cat(label, orientation="default"):
    return build_category(build_cartan(DynkinType.parse(label), orientation))


def _dim_support(m):
    """The support mask of an indecomposable, read from its dimension vector."""
    return sum(1 << j for j, c in enumerate(m.dim) if c)


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
                supp = 0
                for k in combo:
                    supp |= _dim_support(cat.indecs[k])
                if len(combo) == supp.bit_count():
                    out.append(combo)
    return out


def _recursive_walk(cat, statistic):
    """Reference oracle: the unpruned recursive walker that preceded the
    explicit-stack one.  It visits every compatible set in lex order and keeps,
    for tilting, those whose size equals their support-rank; returns the
    (members, support mask) pairs in visiting order, with supports read from
    the dimension vectors."""
    rel = cat.hom if statistic == "antichain" else cat.ext
    m = len(cat.indecs)
    vmask = [_dim_support(ind) for ind in cat.indecs]
    comp = [
        sum(1 << y for y in range(m) if y != x and not (rel[x] >> y) & 1 and not (rel[y] >> x) & 1) for x in range(m)
    ]
    out = []

    def rec(members, allowed, support):
        if statistic == "antichain" or len(members) == support.bit_count():
            out.append((members, support))
        rest = allowed
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            rec(members + (y,), allowed & comp[y] & -(low << 1), support | vmask[y])

    rec((), (1 << m) - 1, 0)
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
    # default orientations of larger types, where a level's deficit often
    # reaches 2 or more and the walk stops its loop early; the unpruned
    # oracle takes about 0.02 s on D7, 0.04 s on E7 and 0.4 s on E8
    for label in ("D6", "E6", "D7", "E7", "E8", "D8", "B7"):
        yield label, "default"


@pytest.mark.parametrize("statistic, stream", [("antichain", enumerate_antichains), ("tilting", enumerate_support_tilting)])
def test_walker_matches_recursive_oracle(statistic, stream):
    for label, orientation in _oracle_cases():
        cat = _cat(label, orientation)
        want = _recursive_walk(cat, statistic)
        assert list(stream(cat)) == want, (label, orientation)
        by_rank = Counter(support.bit_count() for _, support in want)
        by_size = Counter(len(members) for members, _ in want)
        table = count_tables(cat, statistic)
        assert table.by_support_rank == tuple(by_rank[r] for r in range(cat.n + 1)), (label, orientation)
        assert table.by_size == tuple(by_size[k] for k in range(cat.n + 1)), (label, orientation)
        assert table.total == len(want)


@pytest.mark.parametrize("stream", [enumerate_antichains, enumerate_support_tilting])
def test_pair_support_is_union_of_member_supports(stream):
    for label, orientation in _oracle_cases():
        cat = _cat(label, orientation)
        for members, support in stream(cat):
            union = 0
            for k in members:
                union |= cat.indecs[k].support
            assert support == union, (label, orientation, members)


def test_listing_lines_match_format_set():
    streams = {"antichain": enumerate_antichains, "tilting": enumerate_support_tilting}
    for label in _ORACLE_TYPES:
        for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
            cat = _cat(label, orientation)
            for statistic, stream in streams.items():
                lines = list(listing_lines(cat, statistic))
                assert lines == [format_set(cat, members) + "\n" for members, _ in stream(cat)], (
                    label,
                    orientation,
                    statistic,
                )
                assert lines[0] == "-\n"
                assert len(lines) == count_tables(cat, statistic).total


def _walk_tally(cat, statistic="tilting"):
    by_rank = Counter()
    by_size = Counter()
    for members, supp in _walk(cat, statistic):
        by_rank[supp.bit_count()] += 1
        by_size[len(members)] += 1
    return tuple(by_rank[r] for r in range(cat.n + 1)), tuple(by_size[k] for k in range(cat.n + 1))


def _labels(ranks):
    return [f"{s}{r}" for s, (lo, hi) in RANK_RANGE.items() for r in ranks if lo <= r and (hi is None or r <= hi)]


# every type of rank <= 5 (B1, D2 and E3 among them) in tier-1, rank 6 and 7
# (E7 among them) under --runslow; default E6 is checked below
@pytest.mark.parametrize(
    "label", _labels(range(1, 6)) + [pytest.param(label, marks=pytest.mark.slow) for label in _labels(range(6, 8))]
)
def test_tilting_counts_match_walk_every_orientation(label):
    for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
        cat = _cat(label, orientation)
        table = count_tables(cat, "tilting")
        assert (table.by_support_rank, table.by_size) == _walk_tally(cat), (label, orientation)


def test_no_ext_between_separated_supports():
    # the product over support components rests on this: Ext vanishes both
    # ways between modules whose supports are disjoint and not adjacent
    for label in _labels(range(1, 6)):
        for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
            cat = _cat(label, orientation)
            near = [1 << i for i in range(cat.n)]  # vertex i + 1 and its neighbours
            for i, j, _, _ in cat.datum.shape.edges:
                near[i - 1] |= 1 << (j - 1)
                near[j - 1] |= 1 << (i - 1)
            for x, y in itertools.permutations(cat.indecs, 2):
                reach = 0
                for i in range(cat.n):
                    if (x.support >> i) & 1:
                        reach |= near[i]
                if not reach & y.support:
                    assert not ext_nonzero(cat, x.key, y.key), (label, orientation, x.key, y.key)


# every type of rank <= 5 in tier-1, rank 6 and 7 under --runslow; default
# E6 and larger types are checked below
@pytest.mark.parametrize(
    "label", _labels(range(1, 6)) + [pytest.param(label, marks=pytest.mark.slow) for label in _labels(range(6, 8))]
)
def test_antichain_counts_match_walk_every_orientation(label):
    for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
        cat = _cat(label, orientation)
        table = count_tables(cat, "antichain")
        assert (table.by_support_rank, table.by_size) == _walk_tally(cat, "antichain"), (label, orientation)


# the antichain walk visits one node per result, so it reaches A10, B10, D10
# and E8 in tier-1 (at most about 0.6 s per type for both orientations)
@pytest.mark.parametrize("label", ["E6", "E7", "E8", "A10", "B10", "D10"])
def test_antichain_counts_match_walk_on_larger_types(label):
    orientations = all_orientations(canonical_shape(DynkinType.parse(label)))
    for orientation in ("default", random.Random(label).choice(orientations)):
        cat = _cat(label, orientation)
        table = count_tables(cat, "antichain")
        assert (table.by_support_rank, table.by_size) == _walk_tally(cat, "antichain"), (label, orientation)


def test_no_hom_between_disjoint_supports():
    # the antichain product over support components rests on this: Hom
    # vanishes both ways between modules whose supports are disjoint
    for label in _labels(range(1, 6)):
        for orientation in all_orientations(canonical_shape(DynkinType.parse(label))):
            cat = _cat(label, orientation)
            for x, y in itertools.combinations(cat.indecs, 2):
                if not x.support & y.support:
                    assert not hom_nonzero(cat, x.key, y.key), (label, orientation, x.key, y.key)
                    assert not hom_nonzero(cat, y.key, x.key), (label, orientation, y.key, x.key)


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


# the walk takes 10-12 s on A12; the count over support components about
# 0.05-0.08 s on A12, 0.08 s on B12, 0.13-0.15 s on D12 and 0.35-0.5 s on A14
@pytest.mark.parametrize("label", ["A12", "B12", "D12", pytest.param("A14", marks=pytest.mark.slow)])
def test_tilting_counts_above_walk_reach(label):
    series, n = label[0], int(label[1:])
    assert count_tables(_cat(label), "tilting").by_support_rank == tuple(_ROWS[series](n, s) for s in range(n + 1))


def _face_numbers(cat):
    """f_m = sum over (s, k) of r(s, k) C(n - s, m - k), with r(s, k) the
    Ext-rigid sets of support-rank s and size k: a rigid set of support-rank
    s together with any m - k of the n - s vertices outside its support (the
    shifted projectives of a support tau-rigid pair) is a face of size m."""
    n = cat.n
    width = sum(comb(len(cat.indecs), k) for k in range(n + 1)).bit_length()
    packed = _component_product(cat, _compat_masks(cat, "tilting"), width)
    r = [[(packed[s] >> (k * width)) & ((1 << width) - 1) for k in range(n + 1)] for s in range(n + 1)]
    f = [sum(r[s][k] * comb(n - s, j - k) for s in range(n + 1) for k in range(j + 1)) for j in range(n + 1)]
    return r, f


def _h_vector(f, n):
    """Coefficients of sum over m of f_m x^m (1 - x)^(n - m)."""
    h = [0] * (n + 1)
    for m, fm in enumerate(f):
        for i in range(n - m + 1):
            h[m + i] += fm * comb(n - m, i) * (-1) ** i
    return h


_FACES = {
    "A": lambda n, m: comb(n, m) * comb(n + m + 2, m) // (m + 1),
    "B": lambda n, m: comb(n, m) * comb(n + m, m),
    "C": lambda n, m: comb(n, m) * comb(n + m, m),
}


def _assert_face_numbers(label, orientations):
    dtype = DynkinType.parse(label)
    for orientation in orientations:
        cat = _cat(label, orientation)
        n = cat.n
        r, f = _face_numbers(cat)
        if dtype.series in _FACES:
            assert f == [_FACES[dtype.series](n, j) for j in range(n + 1)], (label, orientation)
        assert f[1] == len(cat.indecs) + n, (label, orientation)
        assert tuple(_h_vector(f, n)) == count_tables(cat, "antichain").by_size, (label, orientation)
        assert tuple(r[s][s] for s in range(n + 1)) == count_tables(cat, "tilting").by_support_rank, (label, orientation)


# every orientation of every type of rank <= 5 and of E6 and E7, and default
# E8 (all 128 orientations under --runslow): the face numbers of the cluster
# complex check the entries of the rigid table off its diagonal, which the
# tilting row never reads
@pytest.mark.parametrize("label", _labels(range(1, 6)) + ["E6", "E7", "E8"])
def test_rigid_table_gives_face_numbers(label):
    shape = canonical_shape(DynkinType.parse(label))
    _assert_face_numbers(label, ["default"] if label == "E8" else all_orientations(shape))


@pytest.mark.slow
def test_rigid_table_gives_face_numbers_on_every_e8_orientation():
    _assert_face_numbers("E8", all_orientations(canonical_shape(DynkinType("E", 8))))


def _narayana(n, k):
    return comb(n, k) * comb(n, k - 1) // n


def test_antichain_counts_above_walk_reach():
    # A12 has 742,900 antichains; the count over support components takes
    # about 0.05 s, the walk about 0.5 s.  By support-rank they follow the
    # tilting row, by size the Narayana numbers
    table = count_tables(_cat("A12"), "antichain")
    assert table.by_support_rank == tuple(_ROWS["A"](12, s) for s in range(13))
    assert table.by_size == tuple(_narayana(13, k + 1) for k in range(13))


_VMHWM_CHILD = """
import os, sys
import dynkin_tilting.cli as cli

def vmhwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

sys.stdout = open(os.devnull, "w")
assert cli.run(["table", "A", "1"]) == 0
before = vmhwm_kb()
assert cli.run(sys.argv[1:]) == 0
sys.stdout.close()
print(vmhwm_kb() - before, file=sys.__stdout__)
"""


def _vmhwm_growth_kb(*args):
    """VmHWM growth of a fresh CLI process running `args` after `table A 1`,
    with stdout to /dev/null."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("/proc/self/status is unreadable")
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _VMHWM_CHILD, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


# the recursion calls per count, on default orientations: one memo shared
# by every support of a count.  With a fresh memo per support they were
# 4,806 (tilting) and 3,801 (antichain) on A10, 5,535 and 2,290 on E8
@pytest.mark.parametrize(
    "statistic, label, bound",
    [("tilting", "A10", 1476), ("antichain", "A10", 1592), ("tilting", "E8", 4216), ("antichain", "E8", 1326)],
)
def test_count_work_is_bounded(monkeypatch, statistic, label, bound):
    inner = enumeration._compatible_inside
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    cat = _cat(label)
    monkeypatch.setattr(enumeration, "_compatible_inside", counted)
    table = count_tables(cat, statistic)
    assert table.total == {"A10": 58786, "E8": 25080}[label]
    assert 0 < calls <= bound


# candidates the tilting walk examines on default orientations, each of
# which reads its mask once: 265,132 on E8 and 81,214 on D8 before a level
# stopped once fewer candidates than its deficit were left, 162,783 and
# 51,969 since
@pytest.mark.parametrize("label, bound", [("E8", 165_000), ("D8", 53_000)])
def test_walk_work_is_bounded(monkeypatch, label, bound):
    class CountedReads(list):
        reads = 0

        def __getitem__(self, index):
            CountedReads.reads += 1
            return list.__getitem__(self, index)

    inner = enumeration._compat_masks
    monkeypatch.setattr(enumeration, "_compat_masks", lambda cat, statistic: CountedReads(inner(cat, statistic)))
    sets = sum(1 for _ in enumerate_support_tilting(_cat(label)))
    assert sets == {"E8": 25080, "D8": 9438}[label]
    assert 0 < CountedReads.reads <= bound


# a module that conflicts with none of the modules left below it ends the
# loop of _compatible_inside: on default D12 tilting the loop reads comp
# 55,591 times against 202,537 before, and the recursion keeps its 17,086
# calls, since the memo meets the same masks
def test_count_loop_ends_at_a_conflict_free_module(monkeypatch):
    class CountedReads(list):
        reads = 0

        def __getitem__(self, index):
            CountedReads.reads += 1
            return list.__getitem__(self, index)

    inner_masks = enumeration._compat_masks
    monkeypatch.setattr(enumeration, "_compat_masks", lambda cat, statistic: CountedReads(inner_masks(cat, statistic)))
    inner = enumeration._compatible_inside
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(enumeration, "_compatible_inside", counted)
    table = count_tables(_cat("D12"), "tilting")
    assert table.by_support_rank == tuple(a_row("D", 12))
    assert calls == 17_086
    assert 0 < CountedReads.reads <= 56_000


# a count keeps one memo, shared by its supports and dropped when it
# returns; perfbench's enum-count allows 5% (0.8 MB) more peak RSS, so a
# count that grows VmHWM by more than 1 MB breaks it.  Measured growth
# (CPython 3.11.7, 2 vCPUs, five runs each): tilting 136-140 KB on A10,
# 312-316 KB on B10, 432-436 KB on D10 and 412-416 KB on E8; antichain
# 168-172 KB on A10, 240 KB on B10, 140-144 KB on D10 and 144 KB on E8
@pytest.mark.parametrize(
    "statistic, series, rank",
    [
        ("tilting", "A", "10"),
        ("tilting", "B", "10"),
        ("tilting", "D", "10"),
        ("tilting", "E", "8"),
        ("antichain", "A", "10"),
        ("antichain", "B", "10"),
        ("antichain", "D", "10"),
        ("antichain", "E", "8"),
    ],
)
def test_memo_stays_small(statistic, series, rank):
    assert _vmhwm_growth_kb("enumerate", series, rank, "--statistic", statistic) < 1024


def test_listing_is_written_line_by_line():
    # the listing is 1.18 MB of text; streaming it grows VmHWM by about
    # 0.15 MB, joining all lines before the write by about 6 MB
    assert _vmhwm_growth_kb("enumerate", "A", "10", "--statistic", "antichain", "--list") < 1024


def test_a2_antichains_by_hand():
    cat = _cat("A2")
    got = list(enumerate_antichains(cat))
    # indices: 0 = S1, 1 = S2, 2 = P2; the five antichains, lexicographic
    assert got == [((), 0), ((0,), 0b01), ((0, 1), 0b11), ((1,), 0b10), ((2,), 0b11)]
    table = count_tables(cat, "antichain")
    assert table.by_support_rank == (1, 2, 2)
    assert table.by_size == (1, 3, 1)
    assert table.total == 5


def test_a2_support_tilting_by_hand():
    cat = _cat("A2")
    got = list(enumerate_support_tilting(cat))
    # {}, {S1}, {P1,P2}, {S2}, {S2,P2}
    assert got == [((), 0), ((0,), 0b01), ((0, 2), 0b11), ((1,), 0b10), ((1, 2), 0b11)]
    table = count_tables(cat, "tilting")
    assert table.by_support_rank == (1, 2, 2)
    assert table.total == 5


@pytest.mark.parametrize("statistic", ["antichains", "Tilting", ""])
def test_unknown_statistic_is_refused(statistic):
    # any other string used to read the Ext masks without the tilting read-out
    cat = _cat("A3")
    with pytest.raises(ValueError, match="unknown statistic"):
        count_tables(cat, statistic)
    with pytest.raises(ValueError, match="unknown statistic"):
        next(listing_lines(cat, statistic))


def test_streams_match_brute_force():
    for label in ["A1", "A3", "B2", "B3", "C3", "D4", "G2", "D2", "E3"]:
        cat = _cat(label)
        assert sorted(members for members, _ in enumerate_antichains(cat)) == sorted(_brute_antichains(cat)), label
        assert sorted(members for members, _ in enumerate_support_tilting(cat)) == sorted(_brute_tilting(cat)), label


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
    # one matrix without the other is refused too, whichever one the statistic reads
    cat = _cat("A2")
    for half in (cat._replace(hom=None), cat._replace(ext=None)):
        for statistic in ("antichain", "tilting"):
            with pytest.raises(ValueError, match="matrices not built"):
                count_tables(half, statistic)


_NARROW_FIELDS_CHILD = """
from dynkin_tilting import enumeration
from dynkin_tilting.diagrams import DynkinType, build_cartan
from dynkin_tilting.homs import build_category

enumeration.comb = lambda *_: 1  # every field a few bits wide
enumeration.count_tables(build_category(build_cartan(DynkinType("A", 4))), "antichain")
"""


# with every field 3 bits wide, the tally by support-rank and the tally by
# size disagree; tilting counts used to come back wrong without an error
@pytest.mark.parametrize("label", ["A3", "A4", "B3", "D4", "E6"])
def test_count_overflow_check_sees_tilting(monkeypatch, label):
    cat = _cat(label)
    monkeypatch.setattr(enumeration, "comb", lambda *_: 1)
    with pytest.raises(AssertionError, match=f"{label} tilting counts overflow their 3-bit fields"):
        count_tables(cat, "tilting")


def test_count_overflow_check_survives_python_O():
    # -O strips assert statements; the overflow check must not be one
    env = {**os.environ, "PYTHONPATH": str(Path(dynkin_tilting.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", _NARROW_FIELDS_CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "AssertionError: A4 antichain counts overflow their 3-bit fields" in proc.stderr


@pytest.mark.parametrize("eta", [eta_map, eta_inverse])
def test_eta_requires_matrices(eta):
    # the same refusal as count_tables, also under python -O, which strips asserts
    from dynkin_tilting.orbits import knit_category

    bare = knit_category(build_cartan(DynkinType("A", 2)))
    with pytest.raises(ValueError, match="matrices not built; call homs.build_matrices first"):
        eta(bare, ((0,), 0b01))


def test_eta_rejects_non_antichain():
    cat = _cat("A2")
    # {S1, P2} is sincere but Hom(S1, P2) != 0
    with pytest.raises(ValueError, match="not an antichain"):
        eta_map(cat, ((0, 2), 0b11))


def test_eta_inverse_rejects_non_antichain():
    cat = _cat("A3")
    injectives = set(cat.injective_slice())
    x, y = next(
        (x, y)
        for x, y in itertools.combinations(range(len(cat.indecs)), 2)
        if x not in injectives and y not in injectives and (cat.hom[x] >> y) & 1
    )
    with pytest.raises(ValueError, match="not an antichain"):
        eta_inverse(cat, ((x, y), cat.indecs[x].support | cat.indecs[y].support))


@pytest.mark.parametrize("eta", [eta_map, eta_inverse])
def test_eta_rejects_support_contradicting_members(eta):
    cat = _cat("A2")
    # S1 is supported on vertex 1 alone; claiming {1, 2} would pass it off
    # as sincere, claiming nothing as missing both vertices
    for wrong in (0b11, 0):
        with pytest.raises(ValueError, match="is not the members' support"):
            eta(cat, ((0,), wrong))


@pytest.mark.parametrize("members", [(1, 0), (0, 0), (3,), (-1,)])
def test_eta_rejects_members_that_are_not_sorted_indices(members):
    cat = _cat("A2")
    for eta in (eta_map, eta_inverse):
        with pytest.raises(ValueError, match="strictly increasing indices"):
            eta(cat, (members, 0b11))


def test_maximality_inside_support():
    # a support-tilting set cannot be extended within its own support
    for label in ["A3", "A4", "A5", "B3", "B4", "C3", "D4", "D5", "G2"]:
        cat = _cat(label)
        for members, support in enumerate_support_tilting(cat):
            inside = [k for k, m in enumerate(cat.indecs) if k not in members and not m.support & ~support]
            for k in inside:
                extended = members + (k,)
                rigid = all(
                    not ext_nonzero(cat, cat.indecs[a].key, cat.indecs[b].key)
                    and not ext_nonzero(cat, cat.indecs[b].key, cat.indecs[a].key)
                    for a, b in itertools.combinations(extended, 2)
                )
                assert not rigid, (label, members, k)


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
    sincere = [s for s in enumerate_antichains(cat) if s[1] == 0b11]
    assert len(sincere) == 3
    injectives = set(cat.injective_slice())
    images = []
    for s in sincere:
        down = eta_map(cat, s)
        assert not any(k in injectives for k in down[0])
        assert eta_inverse(cat, down) == s
        images.append(down)
    no_inj = [s for s in enumerate_antichains(cat) if not any(k in injectives for k in s[0])]
    assert sorted(images) == sorted(no_inj)


def test_eta_requires_sincere_antichain():
    cat = _cat("B2")
    empty = next(iter(enumerate_antichains(cat)))
    with pytest.raises(ValueError):
        eta_map(cat, empty)


def test_eta_drops_support_when_stripping():
    cat = _cat("B2")
    injectives = set(cat.injective_slice())
    for members, support in enumerate_antichains(cat):
        if support == 0b11 and any(k in injectives for k in members):
            assert eta_map(cat, (members, support))[1] != 0b11


def test_format_set():
    cat = _cat("A2")
    sets = [members for members, _ in enumerate_antichains(cat)]
    assert format_set(cat, sets[0]) == "-"
    assert format_set(cat, sets[2]) == "1,0 1,1"


def test_listing_deterministic():
    cat1 = _cat("D4")
    cat2 = _cat("D4")
    assert list(enumerate_antichains(cat1)) == list(enumerate_antichains(cat2))


@pytest.mark.parametrize("label", verify.SUITES["slow"].types.split())
def test_nonnesting_partitions_grade_like_the_antichains(label):
    """The antichains of the positive-root poset (the nonnesting partitions)
    against the module category's antichains, which they never read.

    By size they give the Narayana numbers of type Delta (Armstrong,
    Mem. AMS 202, 2009), the antichains' by-size row.  By the size of the
    union of their roots' supports they give the by-support-rank row and
    formulas.a_row: that grading is an observed fact, checked here, not a
    cited theorem.
    """
    dtype = DynkinType.parse(label)
    datum = build_cartan(dtype)
    by_size, by_support = nonnesting_tables(datum)
    table = count_tables(build_category(datum), "antichain")
    assert by_size == table.by_size
    assert by_support == table.by_support_rank == a_row(*dtype)
