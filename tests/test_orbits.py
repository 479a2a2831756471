"""Orbit knitting: projectives, tau-minus orbits, and support grids."""

import pytest

from dynkin_tilting.diagrams import (
    DiagramError,
    DynkinType,
    all_orientations,
    build_cartan,
    canonical_shape,
    is_positive,
    positive_roots,
    sink_order,
)
from dynkin_tilting.orbits import knit_category, tau_minus

SMALL_TYPES = ["A1", "A2", "A3", "A5", "B2", "B3", "B4", "C2", "C4", "D2", "D4", "D5", "E6", "F4", "G2"]


def _cat(label, orientation="default"):
    return knit_category(build_cartan(DynkinType.parse(label), orientation))


def sincere_indecomposables(cat):
    """All indecomposables with full support (connected diagrams only)."""
    if not cat.datum.is_connected():
        raise DiagramError("sincere indecomposables are defined for connected diagrams")
    return [m for m in cat.indecs if len(m.support) == cat.n]


def dump_category(cat):
    """Plain-text dump, one line per indecomposable:

        i u | d_1 ... d_n | s_1 ... s_k

    with the dimension vector and the sorted support.  Used by golden tests.
    """
    lines = []
    for m in cat.indecs:
        dims = " ".join(str(c) for c in m.dim)
        supp = " ".join(str(v) for v in sorted(m.support))
        lines.append(f"{m.vertex} {m.power} | {dims} | {supp}")
    return "\n".join(lines) + "\n"


def endpoint_is_tight(cat):
    """tau-minus of every injective leaves the positive cone."""
    order = sink_order(cat.datum)
    for i in range(1, cat.n + 1):
        last = cat.indec(i, cat.q[i - 1]).dim
        if is_positive(tau_minus(cat.datum, order, last)):
            return False
    return True


def test_a2_knitting_by_hand():
    cat = _cat("A2")
    got = {(m.vertex, m.power): m.dim for m in cat.indecs}
    assert got == {(1, 0): (1, 0), (1, 1): (0, 1), (2, 0): (1, 1)}
    assert cat.q == (1, 0)


def test_support_examples():
    cat = _cat("A2")
    assert cat.indec(2, 0).support == {1, 2}
    assert cat.indec(1, 0).support == {1}
    b2 = _cat("B2")
    assert any(b2.indec(2, u).support == {1, 2} for u in range(b2.q[1] + 1))


def test_bn_orbits_are_square():
    for n in range(2, 6):
        cat = _cat(f"B{n}")
        assert cat.q == tuple([n - 1] * n)
        assert len(cat.indecs) == n * n


def test_bijection_with_positive_roots_all_orientations():
    for label in SMALL_TYPES:
        dtype = DynkinType.parse(label)
        shape = canonical_shape(dtype)
        for orientation in all_orientations(shape):
            datum = build_cartan(dtype, orientation)
            cat = knit_category(datum)
            dims = {m.dim for m in cat.indecs}
            assert dims == positive_roots(datum), (label, orientation)
            assert len(cat.indecs) == sum(q + 1 for q in cat.q)


def test_orbit_endpoints_are_tight():
    for label in SMALL_TYPES:
        assert endpoint_is_tight(_cat(label)), label


def test_sincere_indecomposables_b_series():
    # the sincere indecomposables of B_n are M(i, n-i), and P(n) is thin
    for n in range(2, 6):
        cat = _cat(f"B{n}")
        sinc = sincere_indecomposables(cat)
        assert {(m.vertex, m.power) for m in sinc} == {(i, n - i) for i in range(1, n + 1)}
        assert cat.indec(n, 0).dim == tuple([1] * n)


def test_sincere_indecomposables_small():
    assert len(sincere_indecomposables(_cat("B2"))) == 2
    a2 = sincere_indecomposables(_cat("A2"))
    assert [(m.vertex, m.power) for m in a2] == [(2, 0)]
    with pytest.raises(DiagramError):
        sincere_indecomposables(_cat("D2"))


def test_bc_support_grids_agree():
    # the whole orbit grid of B_n and C_n carries identical supports
    for n in range(2, 6):
        b = _cat(f"B{n}")
        c = _cat(f"C{n}")
        assert b.q == c.q
        for i in range(1, n + 1):
            for u in range(b.q[i - 1] + 1):
                assert b.indec(i, u).support == c.indec(i, u).support, (n, i, u)


def test_disconnected_knitting():
    cat = _cat("D2")
    assert {m.dim for m in cat.indecs} == {(1, 0), (0, 1)}
    e3 = _cat("E3")
    assert len(e3.indecs) == 4  # A2 + A1


def test_dump_format_golden():
    assert dump_category(_cat("A2")) == (
        "1 0 | 1 0 | 1\n"
        "1 1 | 0 1 | 2\n"
        "2 0 | 1 1 | 1 2\n"
    )


def test_e8_has_120_indecomposables():
    cat = _cat("E8")
    assert len(cat.indecs) == 120
    assert sum(q + 1 for q in cat.q) == 120
