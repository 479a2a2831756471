"""Hom/Ext non-vanishing predicates and the dense bit-matrices."""

import re

import pytest

from dynkin_tilting.diagrams import RANK_RANGE, DynkinType, all_orientations, build_cartan, canonical_shape
from dynkin_tilting.enumeration import _compat_masks
from dynkin_tilting.homs import build_category, build_matrices, ext_nonzero, hom_nonzero, injective_by_socle
from dynkin_tilting.orbits import knit_category

TYPES = ["A1", "A2", "A4", "B2", "B3", "C3", "D4", "D5", "E6", "F4", "G2"]


def _cat(label):
    return build_category(build_cartan(DynkinType.parse(label)))


def test_a2_hom_values():
    cat = _cat("A2")
    # S1 -> S2 vanishes, P1 -> P2 and P2 -> I2 do not
    assert not hom_nonzero(cat, (1, 0), (1, 1))
    assert hom_nonzero(cat, (1, 0), (2, 0))
    assert hom_nonzero(cat, (2, 0), (1, 1))
    assert all(hom_nonzero(cat, m.key, m.key) for m in cat.indecs)


def test_a2_hom_matrix_has_five_entries():
    cat = _cat("A2")
    assert sum(row.bit_count() for row in cat.hom) == 5


def test_a2_ext_example():
    cat = _cat("A2")
    # the extension 0 -> S1 -> P2 -> S2 -> 0
    assert ext_nonzero(cat, (1, 1), (1, 0))
    assert not ext_nonzero(cat, (1, 0), (1, 1))


def test_projectives_never_extend():
    for label in TYPES:
        cat = _cat(label)
        for m in cat.indecs:
            if m.power == 0:
                assert not any(ext_nonzero(cat, m.key, y.key) for y in cat.indecs)


def test_ext_diagonal_vanishes():
    for label in TYPES:
        cat = _cat(label)
        for k, row in enumerate(cat.ext):
            assert not (row >> k) & 1


def test_no_hom_to_earlier_slice():
    for label in TYPES:
        cat = _cat(label)
        for x in cat.indecs:
            for y in cat.indecs:
                if x.power > y.power:
                    assert not hom_nonzero(cat, x.key, y.key)


def test_tau_shift_invariance():
    for label in TYPES:
        cat = _cat(label)
        for x in cat.indecs:
            for y in cat.indecs:
                if x.power < cat.q[x.vertex - 1] and y.power < cat.q[y.vertex - 1]:
                    assert hom_nonzero(cat, x.key, y.key) == hom_nonzero(
                        cat, (x.vertex, x.power + 1), (y.vertex, y.power + 1)
                    )


def test_projective_hom_triangular_in_sink_order():
    for label in TYPES:
        cat = _cat(label)
        n = cat.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if hom_nonzero(cat, (i, 0), (j, 0)):
                    assert i in cat.indec(j, 0).support
                    assert i <= j  # default orientation: sink order = 1..n


def test_nonprojectives_extend_something():
    for label in TYPES:
        cat = _cat(label)
        for m in cat.indecs:
            if m.power > 0:
                assert any(ext_nonzero(cat, m.key, y.key) for y in cat.indecs), (label, m.key)


def test_matrices_deterministic():
    a = build_matrices(knit_category(build_cartan(DynkinType("E", 6))))
    b = build_matrices(knit_category(build_cartan(DynkinType("E", 6))))
    assert a.hom == b.hom and a.ext == b.ext


def _pairwise(cat, predicate):
    keys = [m.key for m in cat.indecs]
    return tuple(sum(1 << b for b, y in enumerate(keys) if predicate(cat, x, y)) for x in keys)


def test_rows_match_pairwise_oracle():
    # every orientation of every type up to rank 5, plus default E6: the
    # whole-row build equals the pairwise definitions, and each compat mask
    # equals the complement of Hom (resp. Ext) in either direction, decided
    # pair by pair
    cats = [_cat("E6")]
    for series, (lo, hi) in RANK_RANGE.items():
        for n in range(lo, min(5, hi or 5) + 1):
            dtype = DynkinType(series, n)
            for orientation in all_orientations(canonical_shape(dtype)):
                cats.append(build_category(build_cartan(dtype, orientation)))
    assert len(cats) == 158
    for cat in cats:
        where = (cat.datum.label, cat.datum.orientation)
        hom = _pairwise(cat, hom_nonzero)
        ext = _pairwise(cat, ext_nonzero)
        assert cat.hom == hom and cat.ext == ext, where
        m = len(cat.indecs)
        for statistic, rel in (("antichain", hom), ("tilting", ext)):
            compatible = [
                sum(1 << y for y in range(m) if y != x and not (rel[x] >> y) & 1 and not (rel[y] >> x) & 1)
                for x in range(m)
            ]
            assert _compat_masks(cat, statistic) == compatible, (where, statistic)


def test_unknown_key_raises():
    cat = _cat("A2")
    with pytest.raises(KeyError):
        hom_nonzero(cat, (1, 5), (1, 0))
    with pytest.raises(KeyError):
        ext_nonzero(cat, (1, 0), (3, 0))
    # keys just outside the grid, which positions computed from q would
    # otherwise misread as other modules: vertex 0, power -1, vertex n + 1
    for bad in [(0, 0), (1, -1), (cat.n + 1, 0)]:
        for pair in [(bad, (1, 0)), ((1, 0), bad), (bad, (2, 0)), ((1, 1), bad)]:
            for predicate in (hom_nonzero, ext_nonzero):
                with pytest.raises(KeyError, match=re.escape(f"no such indecomposable: {bad}")):
                    predicate(cat, *pair)


def test_injective_socle_labels():
    # linear A_n: I(i) is the interval [i..n]
    for n in range(2, 6):
        cat = _cat(f"A{n}")
        labels = injective_by_socle(cat)
        for i in range(1, n + 1):
            assert cat.indecs[labels[i]].support == frozenset(range(i, n + 1))
    # every type: socle labeling is a bijection onto the injective slice
    for label in TYPES:
        cat = _cat(label)
        labels = injective_by_socle(cat)
        assert sorted(labels.values()) == sorted(cat.injective_slice())


def test_injectives_pairwise_hom_comparable_b_series():
    for n in range(2, 6):
        cat = _cat(f"B{n}")
        inj = cat.injective_slice()
        for a in inj:
            for b in inj:
                if a != b:
                    x, y = cat.indecs[a].key, cat.indecs[b].key
                    assert hom_nonzero(cat, x, y) or hom_nonzero(cat, y, x)


def test_linear_a_matches_interval_module_oracle():
    # Independent model for the linear chain: indecomposables are interval
    # modules [a, b].  A nonzero map [a,b] -> [c,d] exists iff
    # a <= c <= b <= d (image = the interval [c, b]); a nonsplit extension
    # of [a,b] by [c,d] exists iff c <= a-1 <= d <= b-1 (splice when
    # d = a-1, staircase overlap otherwise).
    for n in range(2, 7):
        cat = _cat(f"A{n}")
        intervals = {}
        for m in cat.indecs:
            supp = sorted(m.support)
            assert supp == list(range(supp[0], supp[-1] + 1))  # supports are intervals
            intervals[m.key] = (supp[0], supp[-1])
        for x in cat.indecs:
            a, b = intervals[x.key]
            for y in cat.indecs:
                c, d = intervals[y.key]
                assert hom_nonzero(cat, x.key, y.key) == (a <= c <= b <= d), (n, x.key, y.key)
                assert ext_nonzero(cat, x.key, y.key) == (c <= a - 1 <= d <= b - 1), (n, x.key, y.key)
