"""Diagram shapes, Cartan matrices, reflections, and positive-root closures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin_tilting.diagrams import (
    DiagramError,
    DynkinType,
    all_orientations,
    build_cartan,
    canonical_shape,
    default_orientation,
    is_positive,
    positive_roots,
    simple_reflection,
    sink_order,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(1, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(2, 8)]
    + [("E", n) for n in range(3, 9)]
    + [("F", 4), ("G", 2)]
)


def known_positive_root_count(dtype: DynkinType) -> int:
    """Standard positive-root counts (degenerate ranks included)."""
    s, n = dtype.series, dtype.rank
    if s == "A":
        return n * (n + 1) // 2
    if s in ("B", "C"):
        return n * n
    if s == "D":
        return n * (n - 1)
    if s == "E":
        return {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}[n]
    if s == "F":
        return 24
    return 6  # G2


def test_admissible_ranks():
    for series, n in ALL_TYPES:
        DynkinType(series, n)
    for series, n in [("A", 0), ("C", 1), ("E", 2), ("E", 9), ("F", 3), ("G", 3), ("B", 0)]:
        with pytest.raises(DiagramError):
            DynkinType(series, n)


def test_rank_must_be_an_int():
    for rank in (True, False, 3.0, "3", None):
        with pytest.raises(DiagramError, match="rank must be an integer"):
            DynkinType("A", rank)


def test_parse_labels():
    assert DynkinType.parse("D4") == DynkinType("D", 4)
    assert DynkinType.parse("e8") == DynkinType("E", 8)
    with pytest.raises(DiagramError):
        DynkinType.parse("X2")
    with pytest.raises(DiagramError):
        DynkinType.parse("D")


def test_degenerate_shapes_resolve():
    assert canonical_shape(DynkinType("B", 1)) == canonical_shape(DynkinType("A", 1))
    d2 = canonical_shape(DynkinType("D", 2))
    assert d2.edges == () and d2.vertex_count == 2
    assert len(d2.components()) == 2
    assert canonical_shape(DynkinType("D", 3)) == canonical_shape(DynkinType("A", 3))
    e3 = canonical_shape(DynkinType("E", 3))
    assert e3.vertex_count == 3 and e3.edges == ((1, 2, 1, 1),)
    assert canonical_shape(DynkinType("E", 4)) == canonical_shape(DynkinType("A", 4))
    assert canonical_shape(DynkinType("E", 5)) == canonical_shape(DynkinType("D", 5))


def test_a2_cartan_is_forced():
    datum = build_cartan(DynkinType("A", 2))
    assert datum.cartan == ((2, -1), (-1, 2))
    assert datum.orientation == ((2, 1),)


def test_d2_cartan_is_block_diagonal():
    datum = build_cartan(DynkinType("D", 2))
    assert datum.cartan == ((2, 0), (0, 2))
    assert datum.orientation == ()


def test_b2_valuation_product_and_transpose():
    b2 = build_cartan(DynkinType("B", 2))
    c2 = build_cartan(DynkinType("C", 2))
    assert b2.cartan[0][1] * b2.cartan[1][0] == 2
    for n in range(2, 7):
        b = build_cartan(DynkinType("B", n)).cartan
        c = build_cartan(DynkinType("C", n)).cartan
        assert all(b[i][j] == c[j][i] for i in range(n) for j in range(n))
    assert c2.cartan == tuple(zip(*b2.cartan))


def test_symmetrized_matrix_symmetric():
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        d = datum.symmetrizer
        A = datum.cartan
        for i in range(n):
            for j in range(n):
                assert d[i] * A[i][j] == d[j] * A[j][i]
        assert all(x >= 1 for x in d)
        assert math.gcd(*d) == 1, (series, n, d)
    # rows pinned from the Fraction-based computation; a scaled vector fails here
    for label, d in (("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("F4", (2, 2, 1, 1)), ("G2", (3, 1))):
        assert build_cartan(DynkinType.parse(label)).symmetrizer == d, label


def test_sink_order_default_is_identity():
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        assert sink_order(datum) == tuple(range(1, n + 1))
        assert datum.orientation == default_orientation(datum.shape)
        assert all(src > dst for src, dst in datum.orientation)


def test_sink_order_tie_break():
    datum = build_cartan(DynkinType("A", 3), [(1, 2), (3, 2)])
    assert sink_order(datum) == (2, 1, 3)


def test_orientation_validation():
    with pytest.raises(DiagramError):
        build_cartan(DynkinType("A", 3), [(1, 2)])  # missing an edge
    with pytest.raises(DiagramError):
        build_cartan(DynkinType("A", 3), [(1, 2), (2, 3), (1, 3)])  # not a diagram edge
    with pytest.raises(DiagramError):
        build_cartan(DynkinType("A", 2), "linear")
    # a repeated arrow, and two arrows on one edge, are refused by name
    with pytest.raises(DiagramError, match=r"repeats the edge \(1, 2\): arrows \(1, 2\) and \(1, 2\)"):
        build_cartan(DynkinType("A", 3), [(1, 2), (2, 3), (1, 2)])
    with pytest.raises(DiagramError, match=r"repeats the edge \(1, 2\): arrows \(1, 2\) and \(2, 1\)"):
        build_cartan(DynkinType("A", 3), [(1, 2), (3, 2), (2, 1)])
    # arrows may come from a one-shot iterator
    assert build_cartan(DynkinType("A", 3), iter([(3, 2), (1, 2)])).orientation == ((1, 2), (3, 2))


def test_all_orientations_count():
    assert len(all_orientations(canonical_shape(DynkinType("A", 4)))) == 8
    assert len(all_orientations(canonical_shape(DynkinType("D", 4)))) == 8
    assert all_orientations(canonical_shape(DynkinType("A", 1))) == [()]


def test_simple_reflection_examples():
    a2 = build_cartan(DynkinType("A", 2))
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 0)
    assert simple_reflection(a2, 1, (0, 1)) == (1, 1)
    # with A12 = -2 the reflection sends alpha_2 to (2, 1)
    c2 = build_cartan(DynkinType("C", 2))
    assert c2.cartan[0][1] == -2
    assert simple_reflection(c2, 1, (0, 1)) == (2, 1)


@given(
    st.sampled_from(ALL_TYPES),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_reflection_involution(type_pair, data):
    series, n = type_pair
    datum = build_cartan(DynkinType(series, n))
    coords = tuple(data.draw(st.integers(-10, 10)) for _ in range(n))
    i = data.draw(st.integers(1, n))
    assert simple_reflection(datum, i, simple_reflection(datum, i, coords)) == coords


def test_positive_root_counts():
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        roots = positive_roots(datum)
        assert len(roots) == known_positive_root_count(DynkinType(series, n)), (series, n)
        assert all(is_positive(r) for r in roots)


@pytest.mark.parametrize("label", ["A45", "B32", "C32", "D33"])
def test_positive_root_counts_past_a_thousand(label):
    # more than 1000 positive roots: the closure guard follows the rank
    dtype = DynkinType.parse(label)
    assert len(positive_roots(build_cartan(dtype))) == known_positive_root_count(dtype)


def _naive_closure(datum):
    # independent oracle: repeatedly sweep every reflection over the whole set
    n = datum.n
    current = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    while True:
        nxt = set(current)
        for x in current:
            for i in range(1, n + 1):
                nxt.add(simple_reflection(datum, i, x))
        if nxt == current:
            return {x for x in current if is_positive(x)}
        current = nxt


def test_closure_against_naive_oracle():
    for label in ("A4", "B3", "C3", "D4", "G2", "F4", "E6"):
        datum = build_cartan(DynkinType.parse(label))
        assert positive_roots(datum) == frozenset(_naive_closure(datum))


def test_root_coordinates_stay_small():
    # machine integers are safe: no coordinate exceeds 6 in any finite type
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        assert max(max(r) for r in positive_roots(datum)) <= 6


def test_shape_validation_rejects_non_dynkin_data():
    from dynkin_tilting.diagrams import DiagramShape

    with pytest.raises(DiagramError):
        DiagramShape(2, ((1, 2, 2, 2),))  # valuation product 4: affine, not finite
    with pytest.raises(DiagramError):
        DiagramShape(3, ((1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1)))  # cycle
    with pytest.raises(DiagramError):
        DiagramShape(2, ((1, 2, 1, 1), (1, 2, 1, 1)))  # duplicate edge
