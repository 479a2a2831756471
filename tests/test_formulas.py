"""Closed forms against the published tables, plus integrality properties."""

import hashlib
import math
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin_tilting import formulas as f
from dynkin_tilting.diagrams import MAX_RANK, RANK_RANGE, DynkinType
from tests.oracles import partial_diagonal_sum, partial_row_sum

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
    assert f.bailey(3, -1) == f.bailey(3, 4) == 0  # the zero exterior, on both sides
    with pytest.raises(ValueError, match=r"^\[0 over 0\] is the ambiguous 0/0 corner; t must be >= 1$"):
        f.bailey(0, 0)


def test_catalan_bracket_examples():
    assert f.catalan_bracket(8, 4) == 14  # ]2n over n[ at n = 4
    assert f.catalan_bracket(8, 3) == 28
    for t in range(0, 30):
        assert f.catalan_bracket(t, 0) == 1
    assert f.catalan_bracket(3, 2) == 0  # numerator boundary
    with pytest.raises(ValueError):
        f.catalan_bracket(2, 2)
    with pytest.raises(ValueError, match=r"^\(3,3\) lies outside the ballot region t-2s\+1 >= 0$"):
        f.catalan_bracket(3, 3)
    # t - 2s + 1 = 0 here, so only the sign guard refuses it
    with pytest.raises(ValueError, match=r"^catalan_bracket needs nonnegative arguments, got \(-1,0\)$"):
        f.catalan_bracket(-1, 0)


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
    # a_s and a_total read the table for series E, F and G only
    labels = {
        f"{series}{n}" for series in "EFG" for n in range(RANK_RANGE[series][0], RANK_RANGE[series][1] + 1)
    }
    assert set(f.EXCEPTIONAL_ROWS) == labels


# degrees of the Weyl group, one tuple per component: E3..E5 are the
# conventions A2 + A1, A4 and D5
WEYL_DEGREES = {
    "E3": ((2, 3), (2,)),
    "E4": ((2, 3, 4, 5),),
    "E5": ((2, 4, 5, 6, 8),),
    "E6": ((2, 5, 6, 8, 9, 12),),
    "E7": ((2, 6, 8, 10, 12, 14, 18),),
    "E8": ((2, 8, 12, 14, 18, 20, 24, 30),),
    "F4": ((2, 6, 8, 12),),
    "G2": ((2, 6),),
}


def test_exceptional_totals_are_coxeter_catalan_numbers():
    # the total is prod (h + d_i) / d_i over each component's degrees d_i,
    # h the component's Coxeter number, its largest degree
    assert set(WEYL_DEGREES) == set(f.EXCEPTIONAL_ROWS)
    for label, components in WEYL_DEGREES.items():
        total = math.prod(Fraction(max(degrees) + d, d) for degrees in components for d in degrees)
        assert f.a_total(label[0], int(label[1:])) == total, label


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
    with pytest.raises(ValueError, match=r"^unknown series 'X'$"):
        f.a_s("X", 3, 1)
    with pytest.raises(ValueError, match=r"^z triangles exist for series A, B, D, not 'E'$"):
        f.z_value("E", 3, 1)
    # the sheared ballot triangle starts at row 0; at t = -1 the bound
    # s <= (t + 2) // 2 alone would admit s = 0
    for t, s in ((-1, 0), (-2, 0)):
        with pytest.raises(ValueError, match="out of region"):
            f.z_value("A", t, s)


def _admitted(build, *args, refusal=""):
    """False when build(*args) raises a ValueError whose text holds `refusal`;
    any other ValueError propagates."""
    try:
        build(*args)
    except ValueError as exc:
        if refusal not in str(exc):
            raise
        return False
    return True


def test_rank_domain_matches_diagrams_plus_empty_types():
    for series in "ABCDEFG":
        for n in range(13):
            diagram_ok = _admitted(DynkinType, series, n)
            assert _admitted(f.a_total, series, n) == (diagram_ok or (series, n) in {("A", 0), ("B", 0)}), (series, n)
    assert f.a_row("A", 0) == f.a_row("B", 0) == (1,)


def _region_grid(arity):
    """Arguments around every identity region: series A..G (none for the
    checks of n alone), -2 <= n <= 40 and -2 <= s <= n + 2."""
    for series in "ABCDEFG" if arity > 1 else [None]:
        for n in range(-2, 41):
            head = (n,) if series is None else (series, n)
            if arity == 3:
                yield from (head + (s,) for s in range(-2, n + 3))
            else:
                yield head


_OUTSIDE = "lies outside the check's argument region"

# check name, arity, then the count and the sha256 of repr(list) of the
# grid arguments the check admits, in grid order
_REGION_PINS = [
    ("hook_check", 3, 2356, "32e32746ca09391e08b0d1cdaac6c927c4f743d4613e949851f50259f2e8d386"),
    ("modified_hook_check", 2, 43, "31c20e58acd69464b6d5541d7a8c3984428b6bbc0fe132e3320c0b05987ead2e"),
    ("summation_check", 3, 2340, "805555c634a8731e9e1581a5fdd732a034c060b04a6e9e3606029876b01767c9"),
    ("total_split_check", 2, 119, "fa04abdfd380e989ceb2c5a3d3e115976ed1b20c804f39db8abfbfb31b1c9618"),
    ("diagonal_checks", 2, 119, "fa04abdfd380e989ceb2c5a3d3e115976ed1b20c804f39db8abfbfb31b1c9618"),
    ("comparison_check", 1, 39, "e1787251a672769618aa12b41191060d106efb818ee92e0556dc5c87f5644565"),
    ("b_decomposition_check", 1, 39, "e1787251a672769618aa12b41191060d106efb818ee92e0556dc5c87f5644565"),
    ("lucas_vs_d_deviation_check", 1, 39, "e1787251a672769618aa12b41191060d106efb818ee92e0556dc5c87f5644565"),
    ("z_recursion_check", 3, 2059, "85eb110c2bbf11fe248bdb3f4dbe933e1a22785c6e7dce089dc529c4735f6633"),
    ("hockey_stick_check", 3, 1921, "4c8df1cb84a6435b8c833f85674b78f120e184484a915395da81492ca536ad83"),
    ("z_boundary_check", 2, 122, "9c5867cd3db9852c2c67fe5aa77bf35ec6f6f31ffeb4e65095fe3466128ce9c2"),
    ("shear_check", 3, 2538, "12a8b3237adeb13876a767aa518d1c58cddab34bdfa1e4ddc92c34c162ce2b4e"),
]


@pytest.mark.parametrize("name, arity, count, digest", _REGION_PINS, ids=[pin[0] for pin in _REGION_PINS])
def test_identity_check_regions(name, arity, count, digest):
    # each check's guard refuses exactly outside its argument region: only
    # its text counts as a refusal, so a check body that raises fails here
    check = getattr(f, name)
    try:
        admitted = [args for args in _region_grid(arity) if _admitted(check, *args, refusal=_OUTSIDE)]
    finally:
        f._reset_partial_sums()
    assert len(admitted) == count
    assert hashlib.sha256(repr(admitted).encode()).hexdigest() == digest


# one refusal per arity, one for a series outside the check's table, one
# below the corner n + s >= 3, which the guard refuses before the Lucas
# triangle, and one past series E's last rank, which it refuses before a_s
_REFUSAL_PINS = [
    ("comparison_check", (1,), "comparison_check(1,) lies outside the check's argument region"),
    ("total_split_check", ("E", 8), "total_split_check('E', 8) lies outside the check's argument region"),
    ("hook_check", ("B", 4, 4), "hook_check('B', 4, 4) lies outside the check's argument region"),
    ("shear_check", ("E", 6, 1), "shear_check('E', 6, 1) lies outside the check's argument region"),
    ("shear_check", ("D", 2, 0), "shear_check('D', 2, 0) lies outside the check's argument region"),
    ("hook_check", ("E", 9, 1), "hook_check('E', 9, 1) lies outside the check's argument region"),
]


@pytest.mark.parametrize(
    "name, args, text", _REFUSAL_PINS, ids=["-".join(map(str, (name, *args))) for name, args, _ in _REFUSAL_PINS]
)
def test_identity_check_refusal_text(name, args, text):
    with pytest.raises(ValueError) as refused:
        getattr(f, name)(*args)
    assert str(refused.value) == text


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


# every admissible instance up to 60, in the identity suite's order
SUMMATION_INSTANCES = [
    (series, n, s) for series in "ABD" for n in range(2 if series == "D" else 1, 61) for s in range(1, n)
]
HOCKEY_STICK_INSTANCES = [
    (series, t, s)
    for series in "ABD"
    for t in range(2, 61)
    for s in range(1, {"A": t // 2, "B": t - 1, "D": t - 2}[series] + 1)
]


@pytest.mark.parametrize("order", [1, -1], ids=["suite-order", "reversed"])
def test_shared_partial_sums_match_literal_sums(order):
    # reversed, every row and t starts cold; A's last instances per t read the
    # diagonals next to those its truncated region leaves out
    f._reset_partial_sums()
    for series, n, s in SUMMATION_INSTANCES[::order]:
        literal = partial_row_sum(series, n, s)
        assert f._row_sums(series, n)[s] == literal, (series, n, s)
        assert f.summation_check(series, n, s) == (literal == f.a_s(series, n + 1, s))
    for series, t, s in HOCKEY_STICK_INSTANCES[::order]:
        literal = partial_diagonal_sum(series, t, s)
        assert f._diagonal_sums(series, t)[t - s - 1] == literal, (series, t, s)
        assert f.hockey_stick_check(series, t, s) == (f.z_value(series, t, s) == literal)


def test_cold_hockey_stick_does_not_recurse():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    f._reset_partial_sums()
    sys.setrecursionlimit(depth + 50)
    try:
        t = depth + 150
        assert f.hockey_stick_check("B", t, 1)  # t = 1 + (t - 1)
    finally:
        sys.setrecursionlimit(limit)
        f._reset_partial_sums()


def test_public_formulas_are_plain_functions():
    # perfbench's tracer wraps only plain functions; a cached public function
    # would silently leave its traced set
    own = {name: v for name, v in vars(f).items() if callable(v) and getattr(v, "__module__", None) == f.__name__}
    assert {"a_s", "summation_check", "hockey_stick_check"} <= set(own)
    for name, value in own.items():
        if not name.startswith("_"):
            assert isinstance(value, types.FunctionType), name


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


@pytest.mark.parametrize(
    "name, cell, check, args",
    [
        ("a_s", ("A", 5, 3), f.hook_check, ("A", 5, 3)),  # a_s(n)
        ("a_s", ("B", 3, 2), f.hook_check, ("B", 4, 2)),  # a_s(n-1)
        ("a_s", ("D", 6, 3), f.hook_check, ("D", 6, 4)),  # a_{s-1}(n)
        ("a_s", ("A", 4, 2), f.shear_check, ("A", 4, 2)),
        ("z_value", ("B", 5, 2), f.shear_check, ("B", 4, 2)),
        # each cell below falsifies one conjunct of a check and leaves the others true
        ("a_s", ("D", 4, 4), f.modified_hook_check, ("D", 5)),  # the recursion, not [2n-3 over n-1]
        ("bailey", (8, 5), f.comparison_check, (5,)),  # the gap, not the Catalan number
        ("a_total", ("A", 4), f.diagonal_checks, ("A", 4)),  # the sum column, not the main diagonal
        ("a_total", ("B", 4), f.diagonal_checks, ("B", 4)),
        ("a_total", ("D", 4), f.diagonal_checks, ("D", 4)),
        ("a_s", ("B", 5, 5), f.b_decomposition_check, (5,)),  # u + v, not u, v or the shift
        ("a_s", ("B", 6, 3), f.b_decomposition_check, (5,)),  # the shift, not u, v or u + v
        ("binom", (8, 5), f.lucas_vs_d_deviation_check, (5,)),  # the Pascal equality, not the Lucas gap
        ("z_value", ("B", 4, 4), f.z_boundary_check, ("B", 4)),  # the last entry, not the first
        ("z_value", ("D", 4, 4), f.z_boundary_check, ("D", 4)),
        ("z_value", ("A", 8, 5), f.z_boundary_check, ("A", 4)),  # the zero, not the first entry
        # the checks that read cached rows: the first call fills the cache
        ("a_s", ("A", 5, 2), f.summation_check, ("A", 4, 2)),  # row n + 1
        ("z_value", ("B", 5, 2), f.z_recursion_check, ("B", 6, 3)),  # z_{s-1}(t-1)
        ("z_value", ("B", 5, 3), f.z_recursion_check, ("B", 6, 3)),  # z_s(t-1)
        ("z_value", ("B", 6, 2), f.hockey_stick_check, ("B", 6, 2)),  # z_s(t)
    ],
)
def test_identity_checks_see_one_wrong_cell(monkeypatch, name, cell, check, args):
    # the checks look their terms up on the module, so one wrong cell shows,
    # also when the check's verdict is a conjunction and the cell is in one
    # part, and also when the check's rows are cached from the call before
    assert check(*args)
    original = getattr(f, name)
    monkeypatch.setattr(f, name, lambda *a: original(*a) + (a == cell))
    assert not check(*args)


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


# a_s refuses ranks above the rank limit; past it the bracket a_s reads is checked
@given(st.integers(0, 2000), st.data())
@settings(max_examples=200, deadline=None)
def test_a_series_formula_is_integral(n, data):
    s = data.draw(st.integers(0, n))
    num = (n - s + 1) * f.binom(n + s, s)
    assert num % (n + 1) == 0
    if n <= MAX_RANK:
        assert f.a_s("A", n, s) == num // (n + 1)
    else:
        assert f.catalan_bracket(n + s, s) == num // (n + 1)
        with pytest.raises(ValueError, match="above the rank limit"):
            f.a_s("A", n, s)


@given(st.integers(2, 2000))
@settings(max_examples=200, deadline=None)
def test_d_series_diagonal_is_integral(n):
    num = (3 * n - 4) * f.binom(2 * n - 2, n - 2)
    assert num % (2 * n - 2) == 0
    if n <= MAX_RANK:
        assert f.a_s("D", n, n) == num // (2 * n - 2)
    else:
        assert f.bailey(2 * n - 2, n - 2) == num // (2 * n - 2)
        with pytest.raises(ValueError, match="above the rank limit"):
            f.a_s("D", n, n)


@given(st.integers(1, 300), st.data())
@settings(max_examples=300, deadline=None)
def test_z_recursion_property(t, data):
    series = data.draw(st.sampled_from(["A", "B", "D"]))
    if series == "D" and t < 2:
        t = 2
    hi = (t + 1) // 2 if series == "A" else t
    s = data.draw(st.integers(1, hi))
    assert f.z_recursion_check(series, t, s)
