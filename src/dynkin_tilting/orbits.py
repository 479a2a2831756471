"""The combinatorial module category: tau-minus orbits of the projectives.

For a sink ordering v1..vn the projective at v_k has dimension vector
s_{v1} s_{v2} ... s_{v_{k-1}} (alpha_{v_k}), and the inverse Coxeter
transformation (reflections applied in reversed sink order) tracks the
inverse Auslander-Reiten translation on dimension vectors.  Iterating it
from each projective until the vector leaves the positive cone yields the
full list of indecomposables M(i, u), 0 <= u <= q(i), keyed by orbit
coordinates.  Projectives and orbits are computed in place on one list of
coordinates with the sparse reflection kernel of ``diagrams``, each step
touching only the reflected vertex and its neighbours.  The positive roots
come first, from the closure that ``diagrams`` runs once per Cartan matrix
and shares among the orientations of a type: they refuse a datum not of
finite type, bound every orbit, and the finished grid is verified against
them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .diagrams import (
    CartanDatum,
    Coords,
    positive_roots,
    reflect_in_place,
    reflection_kernel,
    sink_order,
)


class Indec(NamedTuple):
    """One indecomposable M(vertex, power): its dimension vector and support mask (bit i - 1 for vertex i)."""

    vertex: int
    power: int
    dim: Coords
    support: int

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

    def injective_slice(self) -> tuple[int, ...]:
        """Indices of the injectives M(i, q(i)): the last position of each orbit."""
        return tuple(end - 1 for end in accumulate(qi + 1 for qi in self.q))


def knit_category(datum: CartanDatum) -> ModCategory:
    """Build the orbit grid M(i, u) and check it enumerates the positive roots.

    The positive roots are read first, so a datum not of finite type
    raises DiagramError before any orbit is followed, on every call.
    """
    roots = positive_roots(datum)
    n = datum.n
    kernel = reflection_kernel(datum.cartan)
    order = [v - 1 for v in sink_order(datum)]
    coxeter = order[::-1]
    indecs: list[Indec] = []
    q = [0] * n
    for k, v in enumerate(order):
        x = [0] * n
        x[v] = 1
        reflect_in_place(kernel, coxeter[n - k :], x)
        # reflections are invertible, so x is never zero and min(x) >= 0 means positive
        if min(x) < 0:
            raise AssertionError(f"projective at vertex {v + 1} knitted outside the positive cone")
        u = 0
        while min(x) >= 0:
            if u == len(roots):
                raise AssertionError(f"tau-minus orbit of vertex {v + 1} outgrows the {len(roots)} positive roots")
            dim = tuple(x)
            indecs.append(Indec(v + 1, u, dim, sum(1 << j for j, c in enumerate(dim) if c)))
            reflect_in_place(kernel, coxeter, x)
            u += 1
        q[v] = u - 1

    indecs.sort(key=lambda m: m.key)
    dims = [m.dim for m in indecs]
    if len(dims) != len(set(dims)) or set(dims) != roots:
        raise AssertionError(
            f"orbit grid of {datum.label} does not enumerate the positive roots "
            f"({len(dims)} orbit vectors vs {len(roots)} roots)"
        )
    return ModCategory(datum, tuple(indecs), tuple(q))
