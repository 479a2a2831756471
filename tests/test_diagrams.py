"""Diagram shapes, Cartan matrices, reflections, and positive-root closures."""

import argparse
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin_tilting import cli, diagrams
from dynkin_tilting.diagrams import (
    RANK_RANGE,
    CartanDatum,
    DiagramError,
    DiagramShape,
    DynkinType,
    _cartan_matrix,
    all_orientations,
    build_cartan,
    canonical_shape,
    default_orientation,
    orientation_text,
    positive_roots,
    sink_order,
)
from dynkin_tilting.oeis import BFileError, parse_bfile
from dynkin_tilting.orbits import knit_category
from tests.oracles import is_positive, simple_reflection, symmetrizer

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
    with pytest.raises(DiagramError, match=r"^unknown series 'X'$"):
        DynkinType("X", 3)


def test_rank_must_be_an_int():
    for rank in (True, False, 3.0, "3", None):
        with pytest.raises(DiagramError, match="rank must be an integer"):
            DynkinType("A", rank)


def test_parse_labels():
    assert DynkinType.parse("D4") == DynkinType("D", 4)
    # the series letter is read as written, as the CLI's choices=SERIES reads it
    with pytest.raises(DiagramError, match="cannot parse type label 'e8'"):
        DynkinType.parse("e8")
    with pytest.raises(DiagramError):
        DynkinType.parse("X2")
    with pytest.raises(DiagramError):
        DynkinType.parse("D")


# int() takes each of these ranks; a label takes only ASCII digits
@pytest.mark.parametrize("label", ["A+3", "A 3", "A3 ", "A1_0", "A-1", "A\u0663", "A3.0", "A"])
def test_parse_refuses_malformed_ranks(label):
    with pytest.raises(DiagramError, match="cannot parse type label"):
        DynkinType.parse(label)


def _plain(text):
    """The digits rule, stated apart from the package: one or more of 0-9."""
    return int(text) if text and set(text) <= set("0123456789") else None


# fields of digits, and fields with what int() or str.isdigit() also takes:
# signs, spaces, underscores, Arabic-Indic, fullwidth and superscript digits
_FIELDS = st.one_of(
    st.text("0123456789", min_size=1, max_size=3),
    st.text("0123456789 +-_.\t\n#x\u0661\u0663\uff13\u00b2", max_size=4),
)


@given(_FIELDS, _FIELDS)
@example(" 1", "2")  # the orientation ' 1>2,2>3'
@example("+1", "2")
@example("1 ", " 2")  # '1 > 2,2>3'
@example("\u0661", "2")
@example("1_0", "2")
@example("0", "1_0")  # the b-file line '0 1_0'
@example("0", "+3")
@example("0", "\u0663")
@example("01", "2")  # a leading zero is plain digits
@settings(max_examples=400, deadline=None, derandomize=True)
def test_readers_take_plain_ascii_digits_only(first, second):
    value = _plain(first)
    parse = cli._bounded_int(0)
    if value is None:
        with pytest.raises(argparse.ArgumentTypeError):
            parse(first)
    else:
        assert parse(first) == value
    if value is None or not 1 <= value <= 1000:  # A's ranks, up to the rank limit
        with pytest.raises(DiagramError):
            DynkinType.parse("A" + first)
    else:
        assert DynkinType.parse("A" + first) == DynkinType("A", value)
    # an orientation fragment src>dst, next to the arrow 2>3 of A3
    spec = f"{first}>{second},2>3"
    arrow = (value, _plain(second))
    if None not in arrow and sorted(arrow) == [1, 2]:
        assert build_cartan(DynkinType("A", 3), spec).orientation == tuple(sorted([arrow, (2, 3)]))
    else:
        with pytest.raises(DiagramError) as refused:
            build_cartan(DynkinType("A", 3), spec)
        fragment_error = f"bad orientation fragment {f'{first}>{second}'!r}; expected 'src>dst'"
        assert (str(refused.value) == fragment_error) == (None in arrow)
    # a b-file line, when whitespace splits it into these two fields
    line = f"{first} {second}"
    if line.split() == [first, second]:
        if None in arrow:
            with pytest.raises(BFileError):
                parse_bfile("X", line)
        else:
            assert parse_bfile("X", line).entries == (arrow,)


def test_orientation_text_round_trip():
    # every orientation of every type up to rank 6, and of E7 and E8; the
    # edgeless A1, B1 and D2 have one orientation each, written 'none'
    types = [DynkinType(series, n) for series, n in ALL_TYPES if n <= 6] + [DynkinType("E", 7), DynkinType("E", 8)]
    for dtype in types:
        shape = canonical_shape(dtype)
        choices = itertools.product(*[((j, i), (i, j)) for i, j, _, _ in shape.edges])
        expected = sorted(tuple(sorted(choice)) for choice in choices)
        texts = all_orientations(shape)
        assert texts == [orientation_text(orientation) for orientation in expected], dtype
        for text, orientation in zip(texts, expected):
            assert build_cartan(dtype, text).orientation == orientation
    assert all_orientations(canonical_shape(DynkinType("D", 2))) == ["none"]


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


def test_cartan_datum_fields():
    # the symmetrizer is not part of a datum: nothing in the package reads it
    assert CartanDatum._fields == ("label", "shape", "orientation", "cartan")


def test_symmetrized_matrix_symmetric():
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        d = symmetrizer(datum.shape, datum.cartan)
        A = datum.cartan
        for i in range(n):
            for j in range(n):
                assert d[i] * A[i][j] == d[j] * A[j][i]
        assert all(x >= 1 for x in d)
        assert math.gcd(*d) == 1, (series, n, d)
    # rows pinned from the Fraction-based computation; a scaled vector fails here
    for label, d in (("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("F4", (2, 2, 1, 1)), ("G2", (3, 1))):
        datum = build_cartan(DynkinType.parse(label))
        assert symmetrizer(datum.shape, datum.cartan) == d, label


def test_sink_order_default_is_identity():
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        assert sink_order(datum) == tuple(range(1, n + 1))
        assert datum.orientation == default_orientation(datum.shape)
        assert all(src > dst for src, dst in datum.orientation)


def test_sink_order_tie_break():
    datum = build_cartan(DynkinType("A", 3), "1>2,3>2")
    assert sink_order(datum) == (2, 1, 3)


def _sinks_first(datum):
    """The sink order by its definition: repeatedly the smallest remaining
    vertex with no arrow from it into the remaining vertices."""
    remaining = set(range(1, datum.n + 1))
    order = []
    while remaining:
        v = min(v for v in remaining if not any(src == v and dst in remaining for src, dst in datum.orientation))
        order.append(v)
        remaining.remove(v)
    return tuple(order)


# every orientation of every type up to rank 6, and E7's
_SINK_ORDER_DATA = [
    build_cartan(dtype, orientation)
    for dtype in [DynkinType(series, n) for series, n in ALL_TYPES if n <= 6] + [DynkinType("E", 7)]
    for orientation in all_orientations(canonical_shape(dtype))
]


def test_sink_order_matches_its_definition():
    assert len(_SINK_ORDER_DATA) == 381
    for datum in _SINK_ORDER_DATA:
        assert sink_order(datum) == _sinks_first(datum), (datum.label, datum.orientation)


def test_sink_order_refuses_a_cycle():
    # build_cartan cannot make a cyclic orientation of a forest; a datum
    # assembled by hand can
    shape = canonical_shape(DynkinType("A", 2))
    datum = CartanDatum("hand-built", shape, ((1, 2), (2, 1)), _cartan_matrix(shape))
    with pytest.raises(DiagramError, match="cyclic"):
        sink_order(datum)


def test_orientation_validation():
    with pytest.raises(DiagramError):
        build_cartan(DynkinType("A", 3), "1>2")  # missing an edge
    with pytest.raises(DiagramError):
        build_cartan(DynkinType("A", 3), "1>2,2>3,1>3")  # not a diagram edge
    with pytest.raises(DiagramError, match=r"^bad orientation fragment 'linear'; expected 'src>dst'$"):
        build_cartan(DynkinType("A", 2), "linear")
    with pytest.raises(DiagramError, match=r"^bad orientation fragment ''; expected 'src>dst'$"):
        build_cartan(DynkinType("A", 2), "")
    # a repeated arrow, and two arrows on one edge, are refused by name
    with pytest.raises(DiagramError, match=r"repeats the edge \(1, 2\): arrows \(1, 2\) and \(1, 2\)"):
        build_cartan(DynkinType("A", 3), "1>2,2>3,1>2")
    with pytest.raises(DiagramError, match=r"repeats the edge \(1, 2\): arrows \(1, 2\) and \(2, 1\)"):
        build_cartan(DynkinType("A", 3), "1>2,3>2,2>1")
    # arrows may come in any order; the datum keeps them sorted
    assert build_cartan(DynkinType("A", 3), "3>2,1>2").orientation == ((1, 2), (3, 2))
    # 'none' is the empty arrow set: right for an edgeless diagram only
    for label in ("A1", "B1", "D2"):
        dtype = DynkinType.parse(label)
        assert build_cartan(dtype, "none") == build_cartan(dtype)
        assert build_cartan(dtype, "none").orientation == ()
    with pytest.raises(DiagramError, match=r"^arrow set does not match the A2 diagram edges: .* got \[\]$"):
        build_cartan(DynkinType("A", 2), "none")
    with pytest.raises(DiagramError, match="bad orientation fragment 'none'"):
        build_cartan(DynkinType("A", 2), "1>2,none")


def test_all_orientations_count():
    assert len(all_orientations(canonical_shape(DynkinType("A", 4)))) == 8
    assert len(all_orientations(canonical_shape(DynkinType("D", 4)))) == 8
    assert all_orientations(canonical_shape(DynkinType("A", 1))) == ["none"]
    assert all_orientations(canonical_shape(DynkinType("A", 3))) == ["1>2,2>3", "1>2,3>2", "2>1,2>3", "2>1,3>2"]
    # ordered by the arrows, not by their text, which puts '10>9' before '2>1'
    a10 = DynkinType("A", 10)
    texts = all_orientations(canonical_shape(a10))
    orientations = [build_cartan(a10, text).orientation for text in texts]
    assert len(set(orientations)) == 512 and orientations == sorted(orientations)
    assert texts != sorted(texts)


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
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        assert positive_roots(datum) == frozenset(_naive_closure(datum)), (series, n)


def test_root_closure_runs_once_per_cartan_matrix(monkeypatch):
    # the closure depends on the Cartan matrix, not on the orientation: the
    # 16 orientations of D5 and the 32 of E6 build one kernel each
    kernels = 0
    inner = diagrams.reflection_kernel

    def counted(*args):
        nonlocal kernels
        kernels += 1
        return inner(*args)

    monkeypatch.setattr(diagrams, "reflection_kernel", counted)
    diagrams._root_closure.cache_clear()
    for series, n in (("D", 5), ("E", 6)):
        dtype = DynkinType(series, n)
        data = [build_cartan(dtype, o) for o in all_orientations(canonical_shape(dtype))]
        for datum in data:
            knit_category(datum)
        assert len({id(positive_roots(datum)) for datum in data}) == 1
    assert kernels == 2


def test_b_and_c_roots_from_a_warm_memo():
    # B_n and C_n share a rank and have transposed matrices: a memo keyed on
    # less than the whole datum would hand one of them the other's roots
    for n in range(2, 7):
        b, c = build_cartan(DynkinType("B", n)), build_cartan(DynkinType("C", n))
        hand = CartanDatum("hand-built", b.shape, b.orientation, c.cartan)  # B's shape, C's matrix
        for _ in range(2):
            for datum in (b, c, hand):
                assert positive_roots(datum) == frozenset(_naive_closure(datum)), (n, datum.label)
        assert positive_roots(b) != positive_roots(c)


def test_root_coordinates_stay_small():
    # machine integers are safe: no coordinate exceeds 6 in any finite type
    for series, n in ALL_TYPES:
        datum = build_cartan(DynkinType(series, n))
        assert max(max(r) for r in positive_roots(datum)) <= 6


def test_shape_validation_rejects_non_dynkin_data():
    with pytest.raises(DiagramError):
        DiagramShape(2, ((1, 2, 2, 2),))  # valuation product 4: affine, not finite
    with pytest.raises(DiagramError):
        DiagramShape(3, ((1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1)))  # cycle
    with pytest.raises(DiagramError):
        DiagramShape(2, ((1, 2, 1, 1), (1, 2, 1, 1)))  # duplicate edge
    # vertices are numbered from 1
    with pytest.raises(DiagramError, match=r"^bad edge endpoints \(0,1\)$"):
        DiagramShape(2, ((0, 1, 1, 1),))


def _check_finite_type(cartan: tuple[tuple[int, ...], ...], d: tuple[int, ...]) -> None:
    """The tests' oracle for finite type: raise unless the symmetrized matrix
    is symmetric positive definite.

    Sylvester's criterion: every leading principal minor is positive.  In one
    fraction-free (Bareiss) elimination pass without row swaps the k-th pivot
    is the k-th leading minor, so the pass stops at the first pivot <= 0.
    """
    n = len(cartan)
    m = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise DiagramError("symmetrizer failed: d_i*A_ij != d_j*A_ji")
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            raise DiagramError("Cartan matrix is not of finite type")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot


def _finite_type_check(shape: DiagramShape) -> None:
    cartan = _cartan_matrix(shape)
    _check_finite_type(cartan, symmetrizer(shape, cartan))


def test_finite_type_check_accepts_canonical_types():
    for series, (lo, hi) in RANK_RANGE.items():
        for n in range(lo, min(hi or 12, 12) + 1):
            _finite_type_check(canonical_shape(DynkinType(series, n)))


# every shape here passes DiagramShape's own checks (a forest with valuation
# products 1, 2 or 3); only the root closure, or the oracle above, refuses it
NON_FINITE_SHAPES = pytest.mark.parametrize(
    "shape",
    [
        DiagramShape(3, ((1, 2, 1, 2), (2, 3, 2, 1))),  # affine C2: determinant 0
        DiagramShape(5, tuple((1, j, 1, 1) for j in range(2, 6))),  # affine D4 star: determinant 0
        DiagramShape(3, ((1, 2, 1, 3), (2, 3, 1, 1))),  # affine G2: determinant 0
        DiagramShape(6, tuple((1, j, 1, 1) for j in range(2, 7))),  # five-leaf star: indefinite
    ],
    ids=["affine-C2", "affine-D4", "affine-G2", "star-5"],
)


def hand_built_datum(shape: DiagramShape) -> CartanDatum:
    """A Cartan datum assembled from any shape, not only a canonical one."""
    return CartanDatum("hand-built", shape, default_orientation(shape), _cartan_matrix(shape))


@NON_FINITE_SHAPES
def test_finite_type_check_rejects_affine_and_indefinite_forests(shape):
    with pytest.raises(DiagramError, match="not of finite type"):
        _finite_type_check(shape)


@NON_FINITE_SHAPES
def test_root_closure_refuses_affine_and_indefinite_data(shape):
    # the only finite-type test in the package: infinitely many positive
    # roots outgrow the closure's bound
    with pytest.raises(DiagramError, match="not finite type"):
        positive_roots(hand_built_datum(shape))


@NON_FINITE_SHAPES
def test_root_closure_refuses_again_on_a_second_call(shape):
    # a raised call stores nothing in the memo, so the refusal repeats
    datum = hand_built_datum(shape)
    for _ in range(2):
        with pytest.raises(DiagramError, match="not finite type"):
            positive_roots(datum)
        with pytest.raises(DiagramError, match="not finite type"):
            knit_category(datum)


def test_finite_type_check_rejects_bad_matrices():
    with pytest.raises(DiagramError, match="not of finite type"):
        _check_finite_type(((2, -3), (-3, 2)), (1, 1))  # determinant -5
    with pytest.raises(DiagramError, match="not of finite type"):
        _check_finite_type(((2, -2, 0), (-2, 2, 0), (0, 0, 2)), (1, 1, 1))  # zero pivot before the last
    with pytest.raises(DiagramError, match="symmetrizer failed"):
        _check_finite_type(((2, -1), (-2, 2)), (1, 1))
