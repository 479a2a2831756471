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

Admissible ranks are those of ``diagrams.RANK_RANGE`` plus the empty types
A_0 and B_0, whose row is (1,); the enumeration side has no rank-0 diagram.
Degenerate-rank conventions shared with the enumeration side: B_1 = A_1;
D_2 = A_1 + A_1; D_3 = A_3; E_3 = A_2 + A_1; E_4 = A_4; E_5 = D_5.  The A/B/D
formulas already produce the convention rows, so only the E table stores them
explicitly.
"""

from __future__ import annotations

from math import comb

from .diagrams import RANK_RANGE

# rank-0 types admitted below RANK_RANGE (see the module docstring)
_EMPTY_TYPES = frozenset({("A", 0), ("B", 0)})


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
    return comb(t, s) - (comb(t, s - 1) if s - 1 <= t else 0)


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
    "B3": (1, 3, 6, 10),
    "F4": (1, 4, 10, 24, 66),
    "G2": (1, 2, 5),
}

EXCEPTIONAL_TOTALS: dict[str, int] = {
    "E3": 10,
    "E4": 42,
    "E5": 182,
    "E6": 833,
    "E7": 4160,
    "E8": 25080,
    "B3": 20,
    "F4": 105,
    "G2": 8,
}

for _label, _row in EXCEPTIONAL_ROWS.items():
    if sum(_row) != EXCEPTIONAL_TOTALS[_label]:
        raise AssertionError(f"exceptional row {_label} does not sum to its stored total")


def _check_args(series: str, n: int, s: int | None = None) -> None:
    if series not in RANK_RANGE:
        raise ValueError(f"unknown series {series!r}")
    lo, hi = RANK_RANGE[series]
    if (n < lo and (series, n) not in _EMPTY_TYPES) or (hi is not None and n > hi):
        raise ValueError(f"inadmissible rank {n} for series {series}")
    if s is not None and not 0 <= s <= n:
        raise ValueError(f"support-rank {s} out of range 0..{n}")


def a_s(series: str, n: int, s: int) -> int:
    """Count at support-rank s for the rank-n algebra of the given series."""
    _check_args(series, n, s)
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
    _check_args(series, n)
    if series == "A":
        return catalan_bracket(2 * n + 2, n + 1)
    if series in ("B", "C"):
        return binom(2 * n, n)
    if series == "D":
        return bailey(2 * n - 1, n - 1)
    return EXCEPTIONAL_TOTALS[f"{series}{n}"]


def a_row(series: str, n: int) -> tuple[int, ...]:
    """The full row (a_0, ..., a_n)."""
    return tuple(a_s(series, n, s) for s in range(n + 1))


# --- identities -------------------------------------------------------------

HOOK_BOUNDS = {"A": (1, 0), "B": (2, 1), "D": (3, 2), "E": (4, 3)}  # (min n, c)


def _a_or_zero(series: str, n: int, s: int) -> int:
    # the triangle's empty exterior: cells right of the diagonal are 0
    return 0 if s > n else a_s(series, n, s)


def hook_check(series: str, n: int, s: int) -> bool:
    """a_s(n) = a_s(n-1) + a_{s-1}(n) on the staircase region s <= n - c."""
    if series not in HOOK_BOUNDS:
        raise ValueError(f"hook recursion covers series A, B, D, E, not {series!r}")
    m, c = HOOK_BOUNDS[series]
    if n < m or not 1 <= s <= n - c:
        raise ValueError(f"hook arguments out of range: series {series}, n={n}, s={s}")
    return a_s(series, n, s) == _a_or_zero(series, n - 1, s) + a_s(series, n, s - 1)


def modified_hook_check(series: str, n: int) -> bool:
    """Subdiagonal recursion with the extra A-series double-cover term.

    D: a_{n-1}(D_n) = a_{n-1}(D_{n-1}) + a_{n-2}(D_n) + a_{n-2}(A_{n-2});
    E: a_{n-2}(E_n) = a_{n-2}(E_{n-1}) + a_{n-3}(E_n) + a_{n-3}(A_{n-3});
    and the closed consequence a_{n-1}(D_n) = [2n-3 over n-1].
    """
    if series == "D":
        if n < 3:
            raise ValueError("D-series modified hook needs n >= 3")
        ok = a_s("D", n, n - 1) == (
            a_s("D", n - 1, n - 1) + a_s("D", n, n - 2) + a_s("A", n - 2, n - 2)
        )
        return ok and a_s("D", n, n - 1) == bailey(2 * n - 3, n - 1)
    if series == "E":
        if not 4 <= n <= 8:
            raise ValueError("E-series modified hook needs 4 <= n <= 8")
        return a_s("E", n, n - 2) == (
            a_s("E", n - 1, n - 2) + a_s("E", n, n - 3) + a_s("A", n - 3, n - 3)
        )
    raise ValueError(f"modified hook covers series D and E, not {series!r}")


def summation_check(series: str, n: int, s: int) -> bool:
    """sum_{i<=s} a_i(n) = a_s(n+1) for series A, B, D and 1 <= s <= n-1."""
    if series not in ("A", "B", "D"):
        raise ValueError(f"summation covers series A, B, D, not {series!r}")
    if series == "D" and n < 2:
        raise ValueError("D-series summation needs n >= 2")
    if not 1 <= s <= n - 1:
        raise ValueError(f"summation needs 1 <= s <= n-1, got s={s}, n={n}")
    return sum(a_s(series, n, i) for i in range(s + 1)) == a_s(series, n + 1, s)


def total_split_check(series: str, n: int) -> bool:
    """a(n) = a_n(n) + a_{n-1}(n+1) for series A, B (n >= 1) and D (n >= 2)."""
    if series not in ("A", "B", "D"):
        raise ValueError(f"total split covers series A, B, D, not {series!r}")
    if n < (2 if series == "D" else 1):
        raise ValueError(f"total split out of range: series {series}, n={n}")
    return a_total(series, n) == a_s(series, n, n) + a_s(series, n + 1, n - 1)


def comparison_check(n: int) -> bool:
    """[2n-2 over n] - a_n(D_n) = a_{n-1}(A_{n-1}) = C(2n-2, n-1)/n."""
    if n < 2:
        raise ValueError("comparison needs n >= 2")
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
    if series == "A":
        if n < 1:
            raise ValueError("A-series diagonals need n >= 1")
        return a_total("A", n) == a_s("A", n + 1, n + 1) and a_s("A", n, n) == a_s("A", n, n - 1)
    if series == "B":
        if n < 1:
            raise ValueError("B-series diagonals need n >= 1")
        return a_total("B", n) == a_s("B", n + 1, n) and a_s("B", n, n) == a_s("B", n + 1, n - 1)
    if series == "D":
        if n < 2:
            raise ValueError("D-series diagonals need n >= 2")
        return a_total("D", n) == a_s("D", n + 2, n - 1) and a_s("D", n, n) == a_s("D", n + 2, n - 2)
    raise ValueError(f"diagonal identities cover series A, B, D, not {series!r}")


def b_decomposition_check(n: int) -> bool:
    """The sincere-antichain split of the B-series tilting count.

    u = sum_i a_{i-1}(A_{i-1}) a_{n-i}(B_{n-i}) = C(2n-2, n-1) = a_{n-1}(B_n),
    v = u - a_{n-1}(A_{n-1}) = C(2n-2, n-2),  u + v = C(2n-1, n-1) = a_n(B_n),
    and  a_{n-1}(B_n) = a_{n-2}(B_{n+1}) + a_{n-1}(A_{n-1}).
    """
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
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
    if n < 2:
        raise ValueError("deviation check needs n >= 2")
    return binom(2 * n - 2, n - 2) == binom(2 * n - 2, n) and bailey(
        2 * n - 2, n - 2
    ) != bailey(2 * n - 2, n)


# --- sheared triangles ------------------------------------------------------


def z_value(series: str, t: int, s: int) -> int:
    """Entry of the triangle that shears onto the series table.

    A: sheared ballot  z_s(t) = ]t+1 over s[ (region s <= (t+2)//2);
    B: Pascal          z_s(t) = C(t, s);
    D: Lucas           z_s(t) = [t over s]  (t >= 1).
    """
    if series == "A":
        if not 0 <= s <= (t + 2) // 2:
            raise ValueError(f"sheared ballot entry out of region: t={t}, s={s}")
        return catalan_bracket(t + 1, s)
    if series == "B":
        return binom(t, s)
    if series == "D":
        return bailey(t, s)
    raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")


def z_recursion_check(series: str, t: int, s: int) -> bool:
    """z_s(t) = z_{s-1}(t-1) + z_s(t-1) inside each triangle."""
    if series == "A":
        if not (t >= 1 and 1 <= s <= (t + 1) // 2):
            raise ValueError(f"recursion region violated: t={t}, s={s}")
    elif series == "B":
        if not (t >= 1 and 1 <= s <= t):
            raise ValueError(f"recursion region violated: t={t}, s={s}")
    elif series == "D":
        if not (t >= 2 and 1 <= s <= t):
            raise ValueError(f"recursion region violated: t={t}, s={s}")
    else:
        raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")
    return z_value(series, t, s) == z_value(series, t - 1, s - 1) + z_value(series, t - 1, s)


def hockey_stick_check(series: str, t: int, s: int) -> bool:
    """z_s(t) = sum_{i=0..s} z_i(t-s+i-1), the telescoped recursion."""
    if series == "A":
        if not (1 <= s and 2 * s <= t):
            raise ValueError(f"hockey stick region violated: t={t}, s={s}")
    elif series == "B":
        if not (1 <= s <= t - 1):
            raise ValueError(f"hockey stick region violated: t={t}, s={s}")
    elif series == "D":
        if not (1 <= s <= t - 2):
            raise ValueError(f"hockey stick region violated: t={t}, s={s}")
    else:
        raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")
    return z_value(series, t, s) == sum(z_value(series, t - s + i - 1, i) for i in range(s + 1))


def z_boundary_check(series: str, t: int) -> bool:
    """Initial conditions: Pascal 1/1, Lucas 1/2, sheared ballot 1 and a zero."""
    if series == "B":
        return z_value("B", t, 0) == 1 and z_value("B", t, t) == 1
    if series == "D":
        if t < 1:
            raise ValueError("Lucas rows start at t = 1")
        return z_value("D", t, 0) == 1 and z_value("D", t, t) == 2
    if series == "A":
        return z_value("A", t, 0) == 1 and z_value("A", 2 * t, t + 1) == 0
    raise ValueError(f"z triangles exist for series A, B, D, not {series!r}")


def shear_check(series: str, n: int, s: int) -> bool:
    """The series table is the sheared triangle: a_s(n) sits at a fixed offset.

    A and B shear with t = n+s-1; the sub-diagonal part of D shears from the
    Lucas triangle with t = n+s-2 (its main diagonal deviates and is excluded).
    """
    if series == "A":
        if not (n >= 1 and 0 <= s <= n):
            raise ValueError(f"shear region violated: n={n}, s={s}")
        return a_s("A", n, s) == z_value("A", n + s - 1, s)
    if series == "B":
        if not (n >= 1 and 0 <= s <= n):
            raise ValueError(f"shear region violated: n={n}, s={s}")
        return a_s("B", n, s) == z_value("B", n + s - 1, s)
    if series == "D":
        if not (n >= 2 and 0 <= s <= n - 1 and (n, s) != (2, 0)):
            raise ValueError(f"shear region violated: n={n}, s={s}")
        return a_s("D", n, s) == z_value("D", n + s - 2, s)
    raise ValueError(f"shearing covers series A, B, D, not {series!r}")
