"""The combinatorial module category: tau-minus orbits of the projectives.

For a sink ordering v1..vn the projective at v_k has dimension vector
s_{v1} s_{v2} ... s_{v_{k-1}} (alpha_{v_k}), and the inverse Coxeter
transformation (reflections applied in reversed sink order) tracks the
inverse Auslander-Reiten translation on dimension vectors.  Iterating it
from each projective until the vector leaves the positive cone yields the
full list of indecomposables M(i, u), 0 <= u <= q(i), keyed by orbit
coordinates.  Everything is verified against the positive-root closure.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .diagrams import (
    CartanDatum,
    Coords,
    is_positive,
    positive_roots,
    simple_reflection,
    sink_order,
)


class Indec(NamedTuple):
    """One indecomposable module M(vertex, power) with its dimension vector."""

    vertex: int
    power: int
    dim: Coords
    support: frozenset[int]

    @property
    def key(self) -> tuple[int, int]:
        return (self.vertex, self.power)


class ModCategory(NamedTuple):
    """All indecomposables of one (type, orientation), plus Hom/Ext bitmasks.

    ``indecs`` is sorted by (vertex, power), so orbit i is the contiguous
    block of q(i) + 1 positions after the orbits of the smaller vertices.
    ``hom``/``ext`` are filled by homs.build_matrices: row x is an int whose
    bit y says Hom(M_x, M_y) != 0 (resp. Ext^1(M_x, M_y) != 0).
    """

    datum: CartanDatum
    indecs: tuple[Indec, ...]
    q: tuple[int, ...]
    hom: Optional[tuple[int, ...]] = None
    ext: Optional[tuple[int, ...]] = None

    @property
    def n(self) -> int:
        return self.datum.n

    def indec(self, i: int, u: int) -> Indec:
        """M(i, u); KeyError unless 1 <= i <= n and 0 <= u <= q(i)."""
        if not (1 <= i <= self.n and 0 <= u <= self.q[i - 1]):
            raise KeyError(f"no such indecomposable: {(i, u)}")
        return self.indecs[sum(self.q[: i - 1]) + i - 1 + u]

    def injective_slice(self) -> tuple[int, ...]:
        """Indices of the injectives M(i, q(i)): the last position of each orbit."""
        return tuple(end - 1 for end in accumulate(qi + 1 for qi in self.q))


def tau_minus(datum: CartanDatum, order: tuple[int, ...], coords: Coords) -> Coords:
    """Inverse Coxeter transformation on the root lattice."""
    x = coords
    for v in reversed(order):
        x = simple_reflection(datum, v, x)
    return x


def knit_category(datum: CartanDatum) -> ModCategory:
    """Build the orbit grid M(i, u) and check it enumerates the positive roots."""
    n = datum.n
    order = sink_order(datum)
    projective: dict[int, Coords] = {}
    for k, v in enumerate(order):
        vec: Coords = tuple(1 if j == v - 1 else 0 for j in range(n))
        for w in reversed(order[:k]):
            vec = simple_reflection(datum, w, vec)
        projective[v] = vec

    indecs: list[Indec] = []
    q = [0] * n
    for i in range(1, n + 1):
        x = projective[i]
        if not is_positive(x):
            raise AssertionError(f"projective at vertex {i} knitted outside the positive cone")
        u = 0
        while is_positive(x):
            supp = frozenset(j + 1 for j, c in enumerate(x) if c != 0)
            indecs.append(Indec(i, u, x, supp))
            x = tau_minus(datum, order, x)
            u += 1
        q[i - 1] = u - 1

    indecs.sort(key=lambda m: m.key)
    roots = positive_roots(datum)
    dims = [m.dim for m in indecs]
    if len(dims) != len(set(dims)) or set(dims) != roots:
        raise AssertionError(
            f"orbit grid of {datum.label} does not enumerate the positive roots "
            f"({len(dims)} orbit vectors vs {len(roots)} roots)"
        )
    return ModCategory(datum, tuple(indecs), tuple(q))
