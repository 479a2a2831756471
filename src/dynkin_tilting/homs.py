"""Hom- and Ext-non-vanishing between indecomposables, from supports alone.

For u <= v the translation gives Hom(M(i,u), M(j,v)) = Hom(P(i), M(j,v-u)),
which is nonzero exactly when vertex i supports M(j, v-u); for u > v every
map vanishes because M(j,0) is projective and M(i,u-v) is not.  Ext is the
Auslander-Reiten dual: Ext^1(X, Y) = D Hom(Y, tau X), so a projective X
never extends and otherwise Ext(M(i,u), Y) matches Hom(Y, M(i,u-1)).
"""

from __future__ import annotations

from .orbits import ModCategory, knit_category


def build_matrices(cat: ModCategory) -> ModCategory:
    """Fill the Hom bit-matrix (row x, bit y), both statistics' compat masks
    and the supports with the modules inside each.

    Each orbit is a contiguous block of ``indecs``, so shifting a mask left by
    u carries M(j, w) to M(j, w + u).  With S_i the modules whose support
    holds i and V_u those of power >= u, the Hom row of M(i, u) is
    (S_i << u) & V_u: a bit shifted past the end of its orbit lands at a
    power below u, where V_u clears it.  V_u takes, from each orbit of more
    than u modules, the run of its positions u and up.

    Column y of the Hom matrix (bit x: Hom(M_x, M_y) != 0) follows by
    recurrence along each orbit.  Hom(M(i, u), M(j, v)) != 0 means u <= v
    and i supports M(j, v - u).  For u = 0 these are P(supp M(j, v)), the
    projectives at the vertices of the support; for u >= 1 they are the
    members M(i, u - 1) of the column of M(j, v - 1), each shifted one
    position along its orbit.  So the column of M(j, v) is
    P(supp M(j, v)) | (column of M(j, v - 1)) << 1.  No bit is shifted past
    the end of its orbit: that bit would be an injective with a nonzero map
    to M(j, v - 1).  Over a hereditary algebra the image of that map is
    injective, so it would split off the indecomposable M(j, v - 1), which
    is not injective.  One walk over the set bits of each support fills S_i
    and P(supp M).

    Compat mask x is the complement of x and of the relation's row and
    column x: Hom for antichains, Ext for tilting.  The Ext row of
    M(i, u >= 1) is the Hom column of M(i, u - 1), the position just before
    it; the Ext column of y is (hom[y] << 1) & V_1, where V_1 clears each
    injective of the row, which the shift carries onto the next orbit's
    projective or past the last orbit.  No bit-matrix is transposed, and no
    Ext row is kept.

    The modules inside a vertex set C are those whose support misses every
    vertex outside C: all modules but the S_i with i not in C.  Each
    distinct module support is paired with them, in nondecreasing popcount,
    so that enumeration weighs each support after every smaller one.
    """
    n = cat.n
    starts = [end - qi for end, qi in zip(cat.injective_slice(), cat.q)]  # P(i) at i - 1
    holds = [0] * n  # S_i at i - 1
    cols = []  # Hom column of each module
    col = 0
    for k, ind in enumerate(cat.indecs):
        bit = 1 << k
        top = 0  # P(supp M)
        rest = ind.support
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            holds[i] |= bit
            top |= 1 << starts[i]
        col = top | (col << 1) if ind.power else top
        cols.append(col)
    at_least = [0] * (max(cat.q) + 2)  # V_u, with V_1 = 0 when every module is projective
    for start, qi in zip(starts, cat.q):
        for u in range(qi + 1):
            at_least[u] |= ((1 << (qi + 1 - u)) - 1) << (start + u)
    hom = tuple((holds[ind.vertex - 1] << ind.power) & at_least[ind.power] for ind in cat.indecs)
    full = at_least[0]
    antichain, tilting = [], []
    for x, (ind, row, col) in enumerate(zip(cat.indecs, hom, cols)):
        others = full ^ 1 << x
        ext_row = cols[x - 1] if ind.power else 0
        ext_col = (row << 1) & at_least[1]
        antichain.append(others & ~(row | col))
        tilting.append(others & ~(ext_row | ext_col))
    supports = []
    for c in sorted({ind.support for ind in cat.indecs}, key=int.bit_count):
        inside = full
        rest = ((1 << n) - 1) & ~c
        while rest:
            low = rest & -rest
            rest ^= low
            inside &= ~holds[low.bit_length() - 1]
        supports.append((c, inside))
    return cat._replace(
        hom=hom, antichain_masks=tuple(antichain), tilting_masks=tuple(tilting), supports=tuple(supports)
    )


def build_category(datum) -> ModCategory:
    """Convenience: knit and fill matrices in one step."""
    return build_matrices(knit_category(datum))

