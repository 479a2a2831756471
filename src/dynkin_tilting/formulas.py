"""Closed-form counts: binomials, Lucas/ballot brackets, per-series tables.

Everything is exact integer arithmetic.  Rational definitions such as
((s+t)/t)*C(t,s) are computed through equivalent binomial sums so no
division ever happens; the equivalences are property-tested against the
rational forms rather than assumed.

Notation used throughout:

  binom(t, s)            C(t, s)
  bailey(t, s)           [t over s]  = ((s+t)/t) C(t,s)        (Lucas triangle)
  catalan_bracket(t, s)  ]t over s[  = ((t-2s+1)/(t-s+1)) C(t,s)  (ballot)

Series tables (a_s = count at support-rank s, a = row total):

  A_n:  a_s = ]n+s over s[              a = ]2n+2 over n+1[ = Catalan(n+1)
  B_n:  a_s = C(n+s-1, s)  (also s=n)   a = C(2n, n)
  C_n:  equal to B_n
  D_n:  a_s = [n+s-2 over s] for s<n,   a_n = [2n-2 over n-2],  a = [2n-1 over n-1]
  E/F/G: fixed exceptional rows below.

Identity regions, as least n (t for the z triangles) per series and the
range of s; series E ends at its last rank, 8:

  hook_check                   A1 B2 D3 E4   1 <= s <= n - 0/1/2/3
  modified_hook_check          D3 E4
  summation_check              A1 B1 D2      1 <= s <= n - 1
  total_split_check, diagonal_checks          A1 B1 D2
  comparison_check, b_decomposition_check, lucas_vs_d_deviation_check   n >= 2
  z_recursion_check            A1 B1 D2      1 <= s <= (t+1)//2, t, t
  hockey_stick_check           A1 B1 D2      1 <= s <= t//2, t-1, t-2
  z_boundary_check             A0 B0 D1
  shear_check                  A1 B1 D2      0 <= s <= n, n, n-1; n+s >= 3

Admissible types are those that ``diagrams.DynkinType`` admits by its one
rule, which refuses ``A1001 has rank 1001, above the rank limit of 1000``,
plus the empty types A_0 and B_0, whose row is (1,); the enumeration side
has no rank-0 diagram.
Degenerate-rank conventions shared with the enumeration side: B_1 = A_1;
D_2 = A_1 + A_1; D_3 = A_3; E_3 = A_2 + A_1; E_4 = A_4; E_5 = D_5.  The A/B/D
formulas already produce the convention rows, so only the E table stores them
explicitly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterator

from .diagrams import RANK_RANGE, _admit

# the series of the empty types A_0 and B_0, admitted here alone (see the module docstring)
_EMPTY_SERIES = ("A", "B")


def binom(t: int, s: int) -> int:
    """C(t, s); zero when s > t, defined for t, s >= 0."""
    if t < 0 or s < 0:
        raise ValueError(f"binom needs nonnegative arguments, got ({t},{s})")
    if s > t:
        return 0
    return comb(t, s)


def bailey(t: int, s: int) -> int:
    """[t over s] = ((s+t)/t) C(t,s), computed as C(t,s) + C(t-1,s-1).

    The corner t = 0 is rejected: the defining fraction degenerates to 0/0.
    Arguments s outside 0..t give 0 (the triangle's zero exterior).
    """
    if t < 1:
        raise ValueError("[0 over 0] is the ambiguous 0/0 corner; t must be >= 1")
    if s < 0 or s > t:
        return 0
    return comb(t, s) + (comb(t - 1, s - 1) if s >= 1 else 0)


def catalan_bracket(t: int, s: int) -> int:
    """]t over s[ = ((t-2s+1)/(t-s+1)) C(t,s), computed as C(t,s) - C(t,s-1).

    Defined on the ballot region t - 2s + 1 >= 0 (value 0 on its boundary).
    """
    if t < 0 or s < 0:
        raise ValueError(f"catalan_bracket needs nonnegative arguments, got ({t},{s})")
    if t - 2 * s + 1 < 0:
        raise ValueError(f"({t},{s}) lies outside the ballot region t-2s+1 >= 0")
    if s == 0:
        return 1
    return comb(t, s) - comb(t, s - 1)


# --- exceptional rows -------------------------------------------------------

# rows a_0..a_n per label; E3..E5 are the degenerate-rank conventions,
# included to drive the E-series hook recursion from its base.
EXCEPTIONAL_ROWS: dict[str, tuple[int, ...]] = {
    "E3": (1, 3, 4, 2),
    "E4": (1, 4, 9, 14, 14),
    "E5": (1, 5, 14, 30, 55, 77),
    "E6": (1, 6, 20, 50, 110, 228, 418),
    "E7": (1, 7, 27, 77, 187, 429, 1001, 2431),
    "E8": (1, 8, 35, 112, 299, 728, 1771, 4784, 17342),
    "F4": (1, 4, 10, 24, 66),
    "G2": (1, 2, 5),
}


def a_s(series: str, n: int, s: int) -> int:
    """Count at support-rank s for the rank-n algebra of the given series."""
    if n or type(n) is not int or series not in _EMPTY_SERIES:
        _admit(series, n)
    if not 0 <= s <= n:
        raise ValueError(f"support-rank {s} out of range 0..{n}")
    if s == 0:
        return 1
    if series == "A":
        return catalan_bracket(n + s, s)
    if series in ("B", "C"):
        # the s < n formula C(n+s-1, s) extends to s = n since
        # C(2n-1, n) = C(2n-1, n-1)
        return binom(n + s - 1, s)
    if series == "D":
        if s < n:
            return bailey(n + s - 2, s)
        return bailey(2 * n - 2, n - 2)
    return EXCEPTIONAL_ROWS[f"{series}{n}"][s]


def a_total(series: str, n: int) -> int:
    """Total count over all support-ranks."""
    if n or type(n) is not int or series not in _EMPTY_SERIES:
        _admit(series, n)
    if series == "A":
        return catalan_bracket(2 * n + 2, n + 1)
    if series in ("B", "C"):
        return binom(2 * n, n)
    if series == "D":
        return bailey(2 * n - 1, n - 1)
    return sum(EXCEPTIONAL_ROWS[f"{series}{n}"])


def a_row(series: str, n: int) -> tuple[int, ...]:
    """The full row (a_0, ..., a_n)."""
    # a_0 first: a_s admits the type before range() reads n
    return (a_s(series, n, 0), *(a_s(series, n, s) for s in range(1, n + 1)))


# --- identities -------------------------------------------------------------

# The identity regions of the module docstring, admitted by _require_region
# and run by verify.verify_identities: per series (None for a check of n alone)
# the least n, or (least n, least s, c, d, corner) for a check that takes s,
# admitting least s <= s <= (n - c) // d and n + s >= corner.
_REGIONS = {
    "hook_check": {"A": (1, 1, 0, 1, 0), "B": (2, 1, 1, 1, 0), "D": (3, 1, 2, 1, 0), "E": (4, 1, 3, 1, 0)},
    "modified_hook_check": {"D": 3, "E": 4},
    "summation_check": {"A": (1, 1, 1, 1, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 1, 1, 0)},
    "total_split_check": {"A": 1, "B": 1, "D": 2},
    "comparison_check": {None: 2},
    "diagonal_checks": {"A": 1, "B": 1, "D": 2},
    "b_decomposition_check": {None: 2},
    "lucas_vs_d_deviation_check": {None: 2},
    "z_recursion_check": {"A": (1, 1, -1, 2, 0), "B": (1, 1, 0, 1, 0), "D": (2, 1, 0, 1, 0)},
    "hockey_stick_check": {"A": (1, 1, 0, 2, 0), "B": (1, 1, 1, 1, 0), "D": (2, 1, 2, 1, 0)},
    "z_boundary_check": {"A": 0, "B": 0, "D": 1},
    # n + s >= 3 drops (D, 2, 0): the Lucas triangle has no row t = 0
    "shear_check": {"A": (1, 0, 0, 1, 0), "B": (1, 0, 0, 1, 0), "D": (2, 0, 1, 1, 3)},
}


def _require_region(name: str, series: str | None, n: int, s: int | None = None) -> None:
    """Raise ValueError unless the arguments lie in check `name`'s row of _REGIONS and their series' ranks."""
    region = _REGIONS[name]
    row = region.get(series)
    if row is not None and n <= _last(series, n):
        if s is None:
            if n >= row:
                return
        else:
            least, lo, c, d, corner = row
            if n >= least and lo <= s and d * s <= n - c and n + s >= corner:
                return
    args = (n,) if None in region else (series, n) if s is None else (series, n, s)
    raise ValueError(f"{name}{args} lies outside the check's argument region")


def _last(series: str | None, max_n: int) -> int:
    """The largest n of a suite run to max_n: the last rank of a series with one."""
    return (series and RANK_RANGE[series][1]) or max_n


def _instances(name: str, series: str | None, max_n: int) -> Iterator[tuple]:
    """The region of check `name` up to max_n, of one series if given, in series, n, s order."""
    for key, row in _REGIONS[name].items():
        if series in (None, key):
            if isinstance(row, int):
                yield from ((n,) if key is None else (key, n) for n in range(row, _last(key, max_n) + 1))
            else:
                least, lo, c, d, corner = row
                for n in range(least, _last(key, max_n) + 1):
                    for s in range(max(lo, corner - n), (n - c) // d + 1):
                        yield key, n, s


def hook_check(series: str, n: int, s: int) -> bool:
    """a_s(n) = a_s(n-1) + a_{s-1}(n) on the staircase 1 <= s <= n - c, c = 0, 1, 2, 3 for A, B, D, E."""
    _require_region("hook_check", series, n, s)
    lower, row = _a_cells(a_s, series, n - 1), _a_cells(a_s, series, n)
    # the triangle's empty exterior: cell s of row n - 1 is 0 at s = n
    return row[s] == (lower[s] if s < n else 0) + row[s - 1]


def modified_hook_check(series: str, n: int) -> bool:
    """Subdiagonal recursion with the extra A-series double-cover term.

    D: a_{n-1}(D_n) = a_{n-1}(D_{n-1}) + a_{n-2}(D_n) + a_{n-2}(A_{n-2});
    E: a_{n-2}(E_n) = a_{n-2}(E_{n-1}) + a_{n-3}(E_n) + a_{n-3}(A_{n-3});
    and the closed consequence a_{n-1}(D_n) = [2n-3 over n-1].
    """
    _require_region("modified_hook_check", series, n)
    if series == "D":
        ok = a_s("D", n, n - 1) == (
            a_s("D", n - 1, n - 1) + a_s("D", n, n - 2) + a_s("A", n - 2, n - 2)
        )
        return ok and a_s("D", n, n - 1) == bailey(2 * n - 3, n - 1)
    return a_s("E", n, n - 2) == (
        a_s("E", n - 1, n - 2) + a_s("E", n, n - 3) + a_s("A", n - 3, n - 3)
    )


# Rows and partial sums shared by consecutive identity instances, in four
# caches of at most two entries each, so together they cost O(n) memory:
#   _a_cells(cell, series, n)   the a-row of rank n, read through cell;
#   _z_cells(cell, series, t)   row t of a z triangle, read through cell;
#   _row_sums(series, n)        prefix sums of the a-row of rank n;
#   _DIAGONAL_SUMS[series, t]   diagonal sums of the z triangle above row t.
# A check passes the a_s or z_value it looks up on this module as cell, so a
# replaced function is a new key and shows at the very next call.  The sums
# are keyed by series and rank alone: _reset_partial_sums empties all four,
# so that the next call reads a_s and z_value afresh.


@lru_cache(maxsize=2)
def _a_cells(cell: Callable[[str, int, int], int], series: str, n: int) -> tuple[int, ...]:
    """The row (a_0, ..., a_n) of rank n, each entry cell(series, n, s)."""
    return tuple(cell(series, n, s) for s in range(n + 1))


@lru_cache(maxsize=2)
def _row_sums(series: str, n: int) -> tuple[int, ...]:
    """Prefix sums (a_0, a_0 + a_1, ..., a(n)) of the row of rank n."""
    return tuple(accumulate(_a_cells(a_s, series, n)))


def summation_check(series: str, n: int, s: int) -> bool:
    """sum_{i<=s} a_i(n) = a_s(n+1) for series A, B, D and 1 <= s <= n-1."""
    _require_region("summation_check", series, n, s)
    return _row_sums(series, n)[s] == _a_cells(a_s, series, n + 1)[s]


def total_split_check(series: str, n: int) -> bool:
    """a(n) = a_n(n) + a_{n-1}(n+1) for series A, B (n >= 1) and D (n >= 2)."""
    _require_region("total_split_check", series, n)
    return a_total(series, n) == a_s(series, n, n) + a_s(series, n + 1, n - 1)


def comparison_check(n: int) -> bool:
    """[2n-2 over n] - a_n(D_n) = a_{n-1}(A_{n-1}) = C(2n-2, n-1)/n."""
    _require_region("comparison_check", None, n)
    gap = bailey(2 * n - 2, n) - a_s("D", n, n)
    catalan = a_s("A", n - 1, n - 1)
    num = binom(2 * n - 2, n - 1)
    return gap == catalan and num % n == 0 and catalan == num // n


def diagonal_checks(series: str, n: int) -> bool:
    """Sum column and main diagonal reappear as inner diagonals.

    A: a(A_n) = a_{n+1}(A_{n+1}) and a_n(A_n) = a_{n-1}(A_n);
    B: a(B_n) = a_n(B_{n+1})     and a_n(B_n) = a_{n-1}(B_{n+1});
    D: a(D_n) = a_{n-1}(D_{n+2}) and a_n(D_n) = a_{n-2}(D_{n+2}).
    """
    _require_region("diagonal_checks", series, n)
    if series == "A":
        return a_total("A", n) == a_s("A", n + 1, n + 1) and a_s("A", n, n) == a_s("A", n, n - 1)
    if series == "B":
        return a_total("B", n) == a_s("B", n + 1, n) and a_s("B", n, n) == a_s("B", n + 1, n - 1)
    return a_total("D", n) == a_s("D", n + 2, n - 1) and a_s("D", n, n) == a_s("D", n + 2, n - 2)


def b_decomposition_check(n: int) -> bool:
    """The sincere-antichain split of the B-series tilting count.

    u = sum_i a_{i-1}(A_{i-1}) a_{n-i}(B_{n-i}) = C(2n-2, n-1) = a_{n-1}(B_n),
    v = u - a_{n-1}(A_{n-1}) = C(2n-2, n-2),  u + v = C(2n-1, n-1) = a_n(B_n),
    and  a_{n-1}(B_n) = a_{n-2}(B_{n+1}) + a_{n-1}(A_{n-1}).
    """
    _require_region("b_decomposition_check", None, n)
    u = sum(a_s("A", i - 1, i - 1) * a_s("B", n - i, n - i) for i in range(1, n + 1))
    v = u - a_s("A", n - 1, n - 1)
    ok = (
        u == binom(2 * n - 2, n - 1) == a_s("B", n, n - 1)
        and v == binom(2 * n - 2, n - 2)
        and u + v == binom(2 * n - 1, n - 1) == a_s("B", n, n)
    )
    shifted = a_s("B", n, n - 1) == a_s("B", n + 1, n - 2) + a_s("A", n - 1, n - 1)
    return ok and shifted


def lucas_vs_d_deviation_check(n: int) -> bool:
    """C(2n-2, n-2) = C(2n-2, n) yet [2n-2 over n-2] != [2n-2 over n]."""
    _require_region("lucas_vs_d_deviation_check", None, n)
    return binom(2 * n - 2, n - 2) == binom(2 * n - 2, n) and bailey(
        2 * n - 2, n - 2
    ) != bailey(2 * n - 2, n)


# --- sheared triangles ------------------------------------------------------


def z_value(series: str, t: int, s: int) -> int:
    """Entry of the triangle that shears onto the series table.

    A: sheared ballot  z_s(t) = ]t+1 over s[ (region t >= 0, s <= (t+2)//2);
    B: Pascal          z_s(t) = C(t, s);
    D: Lucas           z_s(t) = [t over s]  (t >= 1).
    """
    if series == "A":
        if not (t >= 0 and 0 <= s <= (t + 2) // 2):
            raise ValueError(f"sheared ballot entry out of region: t={t}, s={s}")
        return catalan_bracket(t + 1, s)
    if series == "B":
        return binom(t, s)
    if series == "D":
        return bailey(t, s)
    raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")


@lru_cache(maxsize=2)
def _z_cells(cell: Callable[[str, int, int], int], series: str, t: int) -> tuple[int, ...]:
    """Row t of the z triangle over its region, each entry cell(series, t, s).

    The region is s <= (t+2)//2 for the sheared ballot and s <= t for the
    Pascal and Lucas triangles, whose cells right of it are 0.
    """
    top = (t + 2) // 2 if series == "A" else t
    return tuple(cell(series, t, s) for s in range(top + 1))


def z_recursion_check(series: str, t: int, s: int) -> bool:
    """z_s(t) = z_{s-1}(t-1) + z_s(t-1) inside each triangle."""
    _require_region("z_recursion_check", series, t, s)
    lower, row = _z_cells(z_value, series, t - 1), _z_cells(z_value, series, t)
    # B and D reach s = t, one cell right of row t - 1's region
    return row[s] == lower[s - 1] + (lower[s] if s < len(lower) else 0)


_DIAGONAL_SUMS: dict[tuple[str, int], tuple[int, ...]] = {}


def _diagonal_sums(series: str, t: int) -> tuple[int, ...]:
    """Entry d is sum_i z_i(d+i) over the rows d+i < t of the z triangle.

    hockey_stick_check(series, t, s) reads entry d = t-s-1.  The entry for t
    extends the one for t-1 by row t-1, or is built row by row from the
    first row (D has no row 0), so no call recurses.  A sheared-ballot row
    adds only its region s <= (r+2)//2: the diagonals that leave it are never
    read by an instance inside the hockey-stick region.
    """
    sums = _DIAGONAL_SUMS.get((series, t))
    if sums is not None:
        return sums
    first = t - 1
    sums = _DIAGONAL_SUMS.get((series, first))
    if sums is None:
        first = 1 if series == "D" else 0
        sums = (0,) * first
    for r in range(first, t):
        row = _z_cells(z_value, series, r)
        sums = tuple(acc + row[r - d] if r - d < len(row) else acc for d, acc in enumerate(sums))
        sums += (row[0],)
    # keep the newest entry next to this one
    for key in list(_DIAGONAL_SUMS)[:-1]:
        del _DIAGONAL_SUMS[key]
    _DIAGONAL_SUMS[(series, t)] = sums
    return sums


def _reset_partial_sums() -> None:
    _a_cells.cache_clear()
    _z_cells.cache_clear()
    _row_sums.cache_clear()
    _DIAGONAL_SUMS.clear()


def hockey_stick_check(series: str, t: int, s: int) -> bool:
    """z_s(t) = sum_{i=0..s} z_i(t-s+i-1), the telescoped recursion."""
    _require_region("hockey_stick_check", series, t, s)
    return _z_cells(z_value, series, t)[s] == _diagonal_sums(series, t)[t - s - 1]


def z_boundary_check(series: str, t: int) -> bool:
    """Initial conditions: Pascal 1/1, Lucas 1/2, sheared ballot 1 and a zero."""
    _require_region("z_boundary_check", series, t)
    if series == "B":
        return z_value("B", t, 0) == 1 and z_value("B", t, t) == 1
    if series == "D":
        return z_value("D", t, 0) == 1 and z_value("D", t, t) == 2
    return z_value("A", t, 0) == 1 and z_value("A", 2 * t, t + 1) == 0


def shear_check(series: str, n: int, s: int) -> bool:
    """The series table is the sheared triangle: a_s(n) sits at a fixed offset.

    A and B shear with t = n+s-1; the sub-diagonal part of D shears from the
    Lucas triangle with t = n+s-2 (its main diagonal deviates and is excluded).
    """
    _require_region("shear_check", series, n, s)
    if series == "D":
        return a_s("D", n, s) == z_value("D", n + s - 2, s)
    return a_s(series, n, s) == z_value(series, n + s - 1, s)
