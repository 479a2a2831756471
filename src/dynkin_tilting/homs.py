"""Hom- and Ext-non-vanishing between indecomposables, from supports alone.

For u <= v the translation gives Hom(M(i,u), M(j,v)) = Hom(P(i), M(j,v-u)),
which is nonzero exactly when vertex i supports M(j, v-u); for u > v every
map vanishes because M(j,0) is projective and M(i,u-v) is not.  Ext is the
Auslander-Reiten dual: Ext^1(X, Y) = D Hom(Y, tau X), so a projective X
never extends and otherwise Ext(M(i,u), Y) matches Hom(Y, M(i,u-1)).
"""

from __future__ import annotations

from typing import Sequence

from .orbits import ModCategory, knit_category

Key = tuple[int, int]


def hom_nonzero(cat: ModCategory, x: Key, y: Key) -> bool:
    """Hom(M(x), M(y)) != 0, decided pairwise (build_matrices' test oracle)."""
    i, u = x
    j, v = y
    cat.indec(i, u), cat.indec(j, v)  # KeyError for an unknown key
    return u <= v and i in cat.indec(j, v - u).support


def ext_nonzero(cat: ModCategory, x: Key, y: Key) -> bool:
    """Ext^1(M(x), M(y)) != 0, decided pairwise (build_matrices' test oracle)."""
    i, u = x
    cat.indec(i, u), cat.indec(*y)  # KeyError for an unknown key
    return u > 0 and hom_nonzero(cat, y, (i, u - 1))


def transpose(rows: Sequence[int]) -> list[int]:
    """Columns of a square bit-matrix (row x, bit y), one pass over its set bits."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            row ^= low
            cols[low.bit_length() - 1] |= bit
    return cols


def build_matrices(cat: ModCategory) -> ModCategory:
    """Fill the dense Hom/Ext bit-matrices (row x, bit y) with whole-row operations.

    Each orbit is a contiguous block of ``indecs``, so shifting a mask left by
    u carries M(j, w) to M(j, w + u).  With S_i the modules whose support
    holds i and V_u those of power >= u, the Hom row of M(i, u) is
    (S_i << u) & V_u: a bit shifted past the end of its orbit lands at a
    power below u, where V_u clears it.  The Ext row of M(i, u >= 1) is the
    Hom column of M(i, u - 1), the position just before it.
    """
    holds = [0] * (cat.n + 1)  # S_i
    at_least = [0] * (max(cat.q) + 1)  # V_u
    for k, ind in enumerate(cat.indecs):
        bit = 1 << k
        for i in ind.support:
            holds[i] |= bit
        for u in range(ind.power + 1):
            at_least[u] |= bit
    hom = tuple((holds[ind.vertex] << ind.power) & at_least[ind.power] for ind in cat.indecs)
    cols = transpose(hom)
    ext = tuple(cols[k - 1] if ind.power else 0 for k, ind in enumerate(cat.indecs))
    return cat._replace(hom=hom, ext=ext)


def build_category(datum) -> ModCategory:
    """Convenience: knit and fill matrices in one step."""
    return build_matrices(knit_category(datum))


def injective_by_socle(cat: ModCategory) -> dict[int, int]:
    """Map each vertex i to the index of the injective with socle S(i).

    The orbit endpoint M(i, q(i)) is injective but carries the orbit label,
    not the socle label; the socle labeling is recovered from
    Hom(S(i), J) != 0 for exactly one injective J.
    """
    n = cat.n
    simple_of = {}
    for k, ind in enumerate(cat.indecs):
        if sum(ind.dim) == 1:
            simple_of[ind.dim.index(1) + 1] = k
    out = {}
    slice_ = cat.injective_slice()
    for i in range(1, n + 1):
        row = cat.hom[simple_of[i]]
        hits = [j for j in slice_ if (row >> j) & 1]
        if len(hits) != 1:
            raise AssertionError(f"socle labeling of injectives failed at vertex {i}")
        out[i] = hits[0]
    return out
