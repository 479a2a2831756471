"""Closed forms against the published tables, plus integrality properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin_tilting import formulas as f
from dynkin_tilting.diagrams import DynkinType

# the three series tables, rows 0..9 (D starts at 2), with row sums
TRIANGLE_A = {
    0: ([1], 1),
    1: ([1, 1], 2),
    2: ([1, 2, 2], 5),
    3: ([1, 3, 5, 5], 14),
    4: ([1, 4, 9, 14, 14], 42),
    5: ([1, 5, 14, 28, 42, 42], 132),
    6: ([1, 6, 20, 48, 90, 132, 132], 429),
    7: ([1, 7, 27, 75, 165, 297, 429, 429], 1430),
    8: ([1, 8, 35, 110, 275, 572, 1001, 1430, 1430], 4862),
    9: ([1, 9, 44, 154, 429, 1001, 2002, 3432, 4862, 4862], 16796),
}

TRIANGLE_B = {
    0: ([1], 1),
    1: ([1, 1], 2),
    2: ([1, 2, 3], 6),
    3: ([1, 3, 6, 10], 20),
    4: ([1, 4, 10, 20, 35], 70),
    5: ([1, 5, 15, 35, 70, 126], 252),
    6: ([1, 6, 21, 56, 126, 252, 462], 924),
    7: ([1, 7, 28, 84, 210, 462, 924, 1716], 3432),
    8: ([1, 8, 36, 120, 330, 792, 1716, 3432, 6435], 12870),
    9: ([1, 9, 45, 165, 495, 1287, 3003, 6435, 12870, 24310], 48620),
}

TRIANGLE_D = {
    2: ([1, 2, 1], 4),
    3: ([1, 3, 5, 5], 14),
    4: ([1, 4, 9, 16, 20], 50),
    5: ([1, 5, 14, 30, 55, 77], 182),
    6: ([1, 6, 20, 50, 105, 196, 294], 672),
    7: ([1, 7, 27, 77, 182, 378, 714, 1122], 2508),
    8: ([1, 8, 35, 112, 294, 672, 1386, 2640, 4290], 9438),
    9: ([1, 9, 44, 156, 450, 1122, 2508, 5148, 9867, 16445], 35750),
}

SHEARED_BALLOT = [
    [1],
    [1, 1],
    [1, 2],
    [1, 3, 2],
    [1, 4, 5],
    [1, 5, 9, 5],
    [1, 6, 14, 14],
    [1, 7, 20, 28, 14],
    [1, 8, 27, 48, 42],
    [1, 9, 35, 75, 90, 42],
]

LUCAS_ROWS = {
    1: [1, 2],
    2: [1, 3, 2],
    3: [1, 4, 5, 2],
    4: [1, 5, 9, 7, 2],
    5: [1, 6, 14, 16, 9, 2],
    6: [1, 7, 20, 30, 25, 11, 2],
    7: [1, 8, 27, 50, 55, 36, 13, 2],
    8: [1, 9, 35, 77, 105, 91, 49, 15, 2],
    9: [1, 10, 44, 112, 182, 196, 140, 64, 17, 2],
}


def test_binom_basics():
    assert f.binom(4, 2) == 6
    assert f.binom(0, 0) == 1
    assert f.binom(3, 5) == 0
    assert f.binom(18, 9) == 48620  # = total of the B row at n = 9
    with pytest.raises(ValueError):
        f.binom(-1, 0)


def test_bailey_examples():
    assert f.bailey(3, 1) == 4
    assert f.bailey(9, 4) == 182
    for t in range(1, 30):
        assert f.bailey(t, 0) == 1
        assert f.bailey(t, t) == 2
    with pytest.raises(ValueError):
        f.bailey(0, 0)


def test_catalan_bracket_examples():
    assert f.catalan_bracket(8, 4) == 14  # ]2n over n[ at n = 4
    assert f.catalan_bracket(8, 3) == 28
    for t in range(0, 30):
        assert f.catalan_bracket(t, 0) == 1
    assert f.catalan_bracket(3, 2) == 0  # numerator boundary
    with pytest.raises(ValueError):
        f.catalan_bracket(2, 2)


def test_triangle_a_regeneration():
    for n, (row, total) in TRIANGLE_A.items():
        assert list(f.a_row("A", n)) == row
        assert f.a_total("A", n) == total


def test_triangle_b_regeneration():
    for n, (row, total) in TRIANGLE_B.items():
        assert list(f.a_row("B", n)) == row
        assert f.a_total("B", n) == total
        assert list(f.a_row("C", n)) == row if n >= 2 else True


def test_triangle_d_regeneration():
    for n, (row, total) in TRIANGLE_D.items():
        assert list(f.a_row("D", n)) == row
        assert f.a_total("D", n) == total


def test_a_s_spot_values():
    # row n = 9 of the A table reads ... 429 at s = 4, 1001 at s = 5
    assert f.a_s("A", 9, 4) == 429
    assert f.a_s("A", 9, 5) == 1001
    assert f.a_s("D", 9, 9) == 16445
    assert f.a_s("E", 8, 8) == 17342
    assert f.a_total("A", 9) == 16796
    assert f.a_total("D", 9) == 35750
    assert f.a_total("F", 4) == 105


def test_exceptional_rows():
    assert f.a_row("E", 6) == (1, 6, 20, 50, 110, 228, 418)
    assert f.a_row("E", 7) == (1, 7, 27, 77, 187, 429, 1001, 2431)
    assert f.a_row("E", 8) == (1, 8, 35, 112, 299, 728, 1771, 4784, 17342)
    assert f.a_row("G", 2) == (1, 2, 5)
    assert f.a_row("F", 4) == (1, 4, 10, 24, 66)
    assert f.EXCEPTIONAL_ROWS["B3"] == (1, 3, 6, 10) == f.a_row("B", 3)


def convolve(row1: tuple[int, ...], row2: tuple[int, ...]) -> tuple[int, ...]:
    """Row of a disjoint union: supports split over the two components."""
    out = [0] * (len(row1) + len(row2) - 1)
    for i, x in enumerate(row1):
        for j, y in enumerate(row2):
            out[i + j] += x * y
    return tuple(out)


def test_degenerate_rows_are_convolutions():
    a1 = f.a_row("A", 1)
    assert convolve(a1, a1) == f.a_row("D", 2)
    assert convolve(f.a_row("A", 2), a1) == f.EXCEPTIONAL_ROWS["E3"]
    assert f.EXCEPTIONAL_ROWS["E4"] == f.a_row("A", 4)
    assert f.EXCEPTIONAL_ROWS["E5"] == f.a_row("D", 5)


def test_inadmissible_arguments():
    for series, n in [("C", 1), ("D", 1), ("E", 9), ("F", 3), ("G", 4)]:
        with pytest.raises(ValueError):
            f.a_s(series, n, 0)
    with pytest.raises(ValueError):
        f.a_s("A", 3, 4)
    with pytest.raises(ValueError):
        f.a_s("A", 3, -1)


def _admitted(build, *args):
    try:
        build(*args)
    except ValueError:
        return False
    return True


def test_rank_domain_matches_diagrams_plus_empty_types():
    for series in "ABCDEFG":
        for n in range(13):
            diagram_ok = _admitted(DynkinType, series, n)
            assert _admitted(f.a_total, series, n) == (diagram_ok or (series, n) in {("A", 0), ("B", 0)}), (series, n)
    assert f.a_row("A", 0) == f.a_row("B", 0) == (1,)


def test_hook_examples():
    assert f.hook_check("A", 5, 3)  # 28 = 14 + 14
    assert f.hook_check("B", 4, 2)  # 10 = 6 + 4
    assert f.hook_check("D", 6, 4)  # 105 = 55 + 50
    assert f.hook_check("E", 6, 3)
    with pytest.raises(ValueError):
        f.hook_check("B", 4, 4)


def test_modified_hook_examples():
    assert f.modified_hook_check("D", 5)  # 55 = 20 + 30 + 5
    assert f.modified_hook_check("E", 6)  # 228 = 77 + 110 + 41? evaluated, not assumed
    assert f.bailey(7, 4) == 55  # subdiagonal closed form at n = 5
    with pytest.raises(ValueError):
        f.modified_hook_check("E", 9)


def test_summation_examples():
    assert f.summation_check("A", 4, 3)  # 1+4+9+14 = 28
    assert f.summation_check("B", 3, 2)  # 1+3+6 = 10
    assert f.summation_check("D", 4, 3)  # 1+4+9+16 = 30


def test_comparison_examples():
    assert f.comparison_check(2)  # 2 - 1 = 1
    assert f.comparison_check(5)  # 91 - 77 = 14
    assert f.comparison_check(9)  # 17875 - 16445 = 1430
    assert f.bailey(8, 5) - f.a_s("D", 5, 5) == 14


def test_comparison_table_row_values():
    lucas_col = {2: 2, 3: 7, 4: 25, 5: 91, 6: 336, 7: 1254, 8: 4719, 9: 17875}
    for n, v in lucas_col.items():
        assert f.bailey(2 * n - 2, n) == v


def test_diagonal_examples():
    assert f.diagonal_checks("A", 5)  # a(A5) = 132 = a_6(A6)
    assert f.diagonal_checks("B", 4)  # a(B4) = 70 = a_4(B5)
    assert f.diagonal_checks("D", 4)  # a(D4) = 50 = a_3(D6)
    assert f.a_s("D", 6, 3) == 50


def test_b_decomposition_examples():
    assert f.b_decomposition_check(3)  # 6 + 4 = 10
    assert f.b_decomposition_check(4)  # 20 + 15 = 35
    # n = 3 convolution: 1*3 + 1*1 + 2*1 = 6
    u3 = sum(f.a_s("A", i - 1, i - 1) * f.a_s("B", 3 - i, 3 - i) for i in range(1, 4))
    assert u3 == 6


def test_sheared_ballot_rows():
    for t, row in enumerate(SHEARED_BALLOT):
        assert [f.z_value("A", t, s) for s in range(len(row))] == row


def test_lucas_rows():
    for t, row in LUCAS_ROWS.items():
        assert [f.z_value("D", t, s) for s in range(t + 1)] == row


def test_z_boundaries():
    for t in range(0, 40):
        assert f.z_boundary_check("A", t)
        assert f.z_boundary_check("B", t)
        if t >= 1:
            assert f.z_boundary_check("D", t)


def test_shear_relations():
    for n in range(1, 30):
        for s in range(n + 1):
            assert f.shear_check("A", n, s)
            assert f.shear_check("B", n, s)
    for n in range(2, 30):
        for s in range(n):
            if (n, s) != (2, 0):
                assert f.shear_check("D", n, s)


def test_lucas_vs_d_deviation():
    for n in range(2, 40):
        assert f.lucas_vs_d_deviation_check(n)


@given(st.integers(1, 2000), st.data())
@settings(max_examples=300, deadline=None)
def test_bailey_matches_rational_definition(t, data):
    s = data.draw(st.integers(0, t))
    assert f.bailey(t, s) == Fraction(s + t, t) * f.binom(t, s)


@given(st.integers(0, 2000), st.data())
@settings(max_examples=300, deadline=None)
def test_catalan_bracket_matches_rational_definition(t, data):
    s = data.draw(st.integers(0, (t + 1) // 2))
    assert f.catalan_bracket(t, s) == Fraction(t - 2 * s + 1, t - s + 1) * f.binom(t, s)


@given(st.integers(0, 2000), st.data())
@settings(max_examples=200, deadline=None)
def test_a_series_formula_is_integral(n, data):
    s = data.draw(st.integers(0, n))
    num = (n - s + 1) * f.binom(n + s, s)
    assert num % (n + 1) == 0
    assert f.a_s("A", n, s) == num // (n + 1)


@given(st.integers(2, 2000))
@settings(max_examples=200, deadline=None)
def test_d_series_diagonal_is_integral(n):
    num = (3 * n - 4) * f.binom(2 * n - 2, n - 2)
    assert num % (2 * n - 2) == 0
    assert f.a_s("D", n, n) == num // (2 * n - 2)


@given(st.integers(1, 300), st.data())
@settings(max_examples=300, deadline=None)
def test_z_recursion_property(t, data):
    series = data.draw(st.sampled_from(["A", "B", "D"]))
    if series == "D" and t < 2:
        t = 2
    hi = (t + 1) // 2 if series == "A" else t
    s = data.draw(st.integers(1, hi))
    assert f.z_recursion_check(series, t, s)
