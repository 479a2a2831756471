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

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from .diagrams import (
    CartanDatum,
    Coords,
    DiagramError,
    is_positive,
    positive_roots,
    simple_reflection,
    sink_order,
)


@dataclass(frozen=True)
class Indec:
    """One indecomposable module M(vertex, power) with its dimension vector."""

    vertex: int
    power: int
    dim: Coords
    support: frozenset[int]

    @property
    def key(self) -> tuple[int, int]:
        return (self.vertex, self.power)


@dataclass(frozen=True)
class ModCategory:
    """All indecomposables of one (type, orientation), plus Hom/Ext bitmasks.

    ``hom``/``ext`` are filled by homs.build_matrices: row x is an int whose
    bit y says Hom(M_x, M_y) != 0 (resp. Ext^1(M_x, M_y) != 0).
    """

    datum: CartanDatum
    indecs: tuple[Indec, ...]
    q: tuple[int, ...]
    index: dict[tuple[int, int], int] = field(compare=False, repr=False)
    hom: Optional[tuple[int, ...]] = None
    ext: Optional[tuple[int, ...]] = None

    @property
    def n(self) -> int:
        return self.datum.n

    def indec(self, i: int, u: int) -> Indec:
        return self.indecs[self.index[(i, u)]]

    def injective_slice(self) -> tuple[int, ...]:
        """Indices of the injectives M(i, q(i))."""
        return tuple(self.index[(i, self.q[i - 1])] for i in range(1, self.n + 1))


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
    index = {m.key: k for k, m in enumerate(indecs)}
    return ModCategory(datum, tuple(indecs), tuple(q), index)


def sincere_indecomposables(cat: ModCategory) -> list[Indec]:
    """All indecomposables with full support (connected diagrams only)."""
    if not cat.datum.is_connected():
        raise DiagramError("sincere indecomposables are defined for connected diagrams")
    return [m for m in cat.indecs if len(m.support) == cat.n]


def dump_category(cat: ModCategory) -> str:
    """Plain-text dump, one line per indecomposable:

        i u | d_1 ... d_n | s_1 ... s_k

    with the dimension vector and the sorted support.  Used by golden tests.
    """
    lines = []
    for m in cat.indecs:
        dims = " ".join(str(c) for c in m.dim)
        supp = " ".join(str(v) for v in sorted(m.support))
        lines.append(f"{m.vertex} {m.power} | {dims} | {supp}")
    return "\n".join(lines) + "\n"


def with_matrices(cat: ModCategory, hom: tuple[int, ...], ext: tuple[int, ...]) -> ModCategory:
    return dataclasses.replace(cat, hom=hom, ext=ext)


def endpoint_is_tight(cat: ModCategory) -> bool:
    """tau-minus of every injective leaves the positive cone."""
    order = sink_order(cat.datum)
    for i in range(1, cat.n + 1):
        last = cat.indec(i, cat.q[i - 1]).dim
        if is_positive(tau_minus(cat.datum, order, last)):
            return False
    return True
