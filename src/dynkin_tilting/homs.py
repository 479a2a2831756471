"""Hom- and Ext-non-vanishing between indecomposables, from supports alone.

For u <= v the translation gives Hom(M(i,u), M(j,v)) = Hom(P(i), M(j,v-u)),
which is nonzero exactly when vertex i supports M(j, v-u); for u > v every
map vanishes because M(j,0) is projective and M(i,u-v) is not.  Ext is the
Auslander-Reiten dual: Ext^1(X, Y) = D Hom(Y, tau X), so a projective X
never extends and otherwise Ext(M(i,u), Y) matches Hom(Y, M(i,u-1)).
"""

from __future__ import annotations

from .orbits import ModCategory, knit_category, with_matrices

Key = tuple[int, int]


def hom_nonzero(cat: ModCategory, x: Key, y: Key) -> bool:
    """Hom(M(x), M(y)) != 0."""
    i, u = x
    j, v = y
    if x not in cat.index or y not in cat.index:
        raise KeyError(f"no such indecomposable: {x if x not in cat.index else y}")
    if u > v:
        return False
    return i in cat.indec(j, v - u).support


def ext_nonzero(cat: ModCategory, x: Key, y: Key) -> bool:
    """Ext^1(M(x), M(y)) != 0."""
    i, u = x
    if x not in cat.index or y not in cat.index:
        raise KeyError(f"no such indecomposable: {x if x not in cat.index else y}")
    if u == 0:
        return False
    return hom_nonzero(cat, y, (i, u - 1))


def build_matrices(cat: ModCategory) -> ModCategory:
    """Fill the dense Hom/Ext bit-matrices (row x, bit y)."""
    keys = [m.key for m in cat.indecs]
    hom_rows = []
    ext_rows = []
    for x in keys:
        h = 0
        e = 0
        for b, y in enumerate(keys):
            if hom_nonzero(cat, x, y):
                h |= 1 << b
            if ext_nonzero(cat, x, y):
                e |= 1 << b
        hom_rows.append(h)
        ext_rows.append(e)
    return with_matrices(cat, tuple(hom_rows), tuple(ext_rows))


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
        s_key = cat.indecs[simple_of[i]].key
        hits = [j for j in slice_ if hom_nonzero(cat, s_key, cat.indecs[j].key)]
        if len(hits) != 1:
            raise AssertionError(f"socle labeling of injectives failed at vertex {i}")
        out[i] = hits[0]
    return out
