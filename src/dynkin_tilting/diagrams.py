"""Valued Dynkin diagrams, Cartan matrices, and root-lattice reflections.

Vertices are numbered 1..n.  A diagram shape is a forest of valued edges
``(i, j, a, b)`` with ``i < j``, encoding the Cartan entries
``A[i][j] = -a`` and ``A[j][i] = -b``.  Degenerate ranks resolve to their
conventional shapes (B1 = A1, D2 = A1 + A1, D3 = A3, E3 = A2 + A1,
E4 = A4, E5 = D5) before any computation, so downstream code never
special-cases them.

Root-lattice work runs on one sparse kernel built from the Cartan matrix's
neighbour lists: a simple reflection s_i changes only coordinate i, from
the coordinates of i's neighbours.  ``positive_roots`` closes the simple
roots under the reflections that raise a coordinate, so it never holds a
negative root; it is the only finite-type test, and ``knit_category`` runs
it first on every datum.

Nothing of this depends on the orientation.  The canonical shape of a type,
the Cartan matrix of a shape and the root closure of a Cartan matrix are
each computed once and memoized, so the orientations of one type share
them; the closure is keyed on the shape and the matrix together, so data
built by hand never share an entry with a different matrix.  A datum not of
finite type raises on every call, since a raised call stores nothing.

The B/C distinction: in type B the double-valued edge sits at the branch
end with ``A[n][n-1] = -2`` (so the indecomposable projective at vertex n
knits to dimension vector (1,...,1)); type C is the transposed matrix.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

Coords = tuple[int, ...]
Arrow = tuple[int, int]
Edge = tuple[int, int, int, int]

# admissible rank ranges per series (inclusive)
RANK_RANGE = {
    "A": (1, None),
    "B": (1, None),
    "C": (2, None),
    "D": (2, None),
    "E": (3, 8),
    "F": (4, 4),
    "G": (2, 2),
}
SERIES = tuple(RANK_RANGE)


class DiagramError(ValueError):
    """Raised for inadmissible types, bad orientations, or non-finite data."""


class _DynkinTypeFields(NamedTuple):
    series: str
    rank: int


class DynkinType(_DynkinTypeFields):
    """A series letter together with a rank, e.g. DynkinType('B', 3)."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int) -> "DynkinType":
        if series not in SERIES:
            raise DiagramError(f"unknown series {series!r}")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise DiagramError(f"rank must be an integer, got {rank!r}")
        lo, hi = RANK_RANGE[series]
        if rank < lo or (hi is not None and rank > hi):
            raise DiagramError(f"inadmissible rank {rank} for series {series}")
        return super().__new__(cls, series, rank)

    @classmethod
    def _make(cls, iterable: Iterable) -> "DynkinType":
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @classmethod
    def parse(cls, label: str) -> "DynkinType":
        """Parse a label like 'D4' or 'E8'."""
        label = label.strip()
        digits = label[1:]
        # int() would also take '+3', ' 3', '1_0' and non-ASCII digits
        if label[:1].upper() not in SERIES or not (digits.isascii() and digits.isdecimal()):
            raise DiagramError(f"cannot parse type label {label!r}")
        return cls(label[0].upper(), int(digits))

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"


class _DiagramShapeFields(NamedTuple):
    vertex_count: int
    edges: tuple[Edge, ...]


class DiagramShape(_DiagramShapeFields):
    """Underlying valued forest of a Dynkin type (orientation-free)."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "DiagramShape":
        self = super().__new__(cls, vertex_count, edges)
        seen: set[tuple[int, int]] = set()
        for i, j, a, b in edges:
            if not (1 <= i < j <= vertex_count):
                raise DiagramError(f"bad edge endpoints ({i},{j})")
            if a < 1 or b < 1 or a * b not in (1, 2, 3):
                raise DiagramError(f"bad valuation on edge ({i},{j}): {a}*{b}")
            if (i, j) in seen:
                raise DiagramError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        # a forest has one edge fewer than vertices in each component
        if len(edges) != vertex_count - len(self.components()):
            raise DiagramError("diagram has a cycle")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "DiagramShape":
        # _replace builds through _make: validate there too
        return cls(*iterable)

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, each a frozen vertex set, ordered by minimum."""
        parent = list(range(self.vertex_count + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _, _ in self.edges:
            parent[find(i)] = find(j)
        groups: dict[int, set[int]] = {}
        for v in range(1, self.vertex_count + 1):
            groups.setdefault(find(v), set()).add(v)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


# Each memo below holds one entry per Dynkin type (or Cartan matrix) that a
# run builds.  `verify --slow` builds 23 distinct types and a sweep over
# every type of rank <= 6 builds 22, so a size of 64 keeps every entry of
# such a run; a root-closure entry takes under 20 KB up to rank 8 (E8's 120
# roots: 16 KB) and about 0.5 MB at rank 45.
_MEMO_SIZE = 64


def _path_edges(n: int) -> list[Edge]:
    return [(i, i + 1, 1, 1) for i in range(1, n)]


@lru_cache(maxsize=_MEMO_SIZE)
def canonical_shape(dtype: DynkinType) -> DiagramShape:
    """Resolve a type (including degenerate ranks) to its canonical shape.

    Layout convention: the simply-laced chain occupies vertices 1..n-c and
    any branch/valued vertices sit at the high end, attached into the chain.
    """
    s, n = dtype.series, dtype.rank
    if s == "A":
        return DiagramShape(n, tuple(_path_edges(n)))
    if s == "B":
        if n == 1:
            return DiagramShape(1, ())
        edges = _path_edges(n - 1) + [(n - 1, n, 1, 2)]
        return DiagramShape(n, tuple(edges))
    if s == "C":
        edges = _path_edges(n - 1) + [(n - 1, n, 2, 1)]
        return DiagramShape(n, tuple(edges))
    if s == "D":
        if n == 2:
            return DiagramShape(2, ())
        if n == 3:
            return DiagramShape(3, tuple(_path_edges(3)))
        edges = _path_edges(n - 2) + [(n - 2, n - 1, 1, 1), (n - 2, n, 1, 1)]
        return DiagramShape(n, tuple(edges))
    if s == "E":
        if n == 3:
            return DiagramShape(3, ((1, 2, 1, 1),))
        if n == 4:
            return DiagramShape(4, tuple(_path_edges(4)))
        if n == 5:
            return canonical_shape(DynkinType("D", 5))
        edges = _path_edges(n - 3) + [
            (n - 3, n - 2, 1, 1),
            (n - 3, n - 1, 1, 1),
            (n - 1, n, 1, 1),
        ]
        return DiagramShape(n, tuple(edges))
    if s == "F":
        return DiagramShape(4, ((1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)))
    if s == "G":
        return DiagramShape(2, ((1, 2, 1, 3),))
    raise DiagramError(f"unknown series {s!r}")


class CartanDatum(NamedTuple):
    """A valued diagram with an acyclic orientation and its Cartan matrix."""

    label: str
    shape: DiagramShape
    orientation: tuple[Arrow, ...]
    cartan: tuple[Coords, ...]

    @property
    def n(self) -> int:
        return self.shape.vertex_count

    def is_connected(self) -> bool:
        return len(self.shape.components()) == 1


def default_orientation(shape: DiagramShape) -> tuple[Arrow, ...]:
    """Linear sink orientation: every edge points towards the smaller vertex."""
    return tuple(sorted((j, i) for i, j, _, _ in shape.edges))


def all_orientations(shape: DiagramShape) -> list[tuple[Arrow, ...]]:
    """All 2^e orientations of the forest, in a deterministic order."""
    pairs = [((j, i), (i, j)) for i, j, _, _ in shape.edges]
    return sorted(tuple(sorted(choice)) for choice in itertools.product(*pairs))


@lru_cache(maxsize=_MEMO_SIZE)
def _cartan_matrix(shape: DiagramShape) -> tuple[Coords, ...]:
    n = shape.vertex_count
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in shape.edges:
        mat[i - 1][j - 1] = -a
        mat[j - 1][i - 1] = -b
    return tuple(tuple(row) for row in mat)


OrientationSpec = Union[str, Iterable[Arrow]]


def build_cartan(dtype: DynkinType, orientation_spec: OrientationSpec = "default") -> CartanDatum:
    """Construct the Cartan datum for a type with a chosen acyclic orientation.

    ``orientation_spec`` is either the string ``"default"`` (all arrows point
    towards vertex 1, branches into the chain) or an explicit set of arrows
    ``(src, dst)`` covering each diagram edge exactly once.  The shape is a
    forest, so every such orientation is acyclic.
    """
    shape = canonical_shape(dtype)
    if isinstance(orientation_spec, str):
        if orientation_spec != "default":
            raise DiagramError(f"unknown orientation spec {orientation_spec!r}")
        orientation = default_orientation(shape)
    else:
        first: dict[tuple, tuple] = {}  # undirected edge -> the arrow given for it
        for arrow in map(tuple, orientation_spec):
            edge = tuple(sorted(arrow))
            if edge in first:
                raise DiagramError(f"orientation repeats the edge {edge}: arrows {first[edge]} and {arrow}")
            first[edge] = arrow
        want = {tuple(sorted((i, j))) for i, j, _, _ in shape.edges}
        if first.keys() != want:
            raise DiagramError(
                f"arrow set does not match the {dtype.label} diagram edges: "
                f"expected undirected {sorted(want)}, got {sorted(first)}"
            )
        orientation = tuple(sorted(first.values()))
    return CartanDatum(dtype.label, shape, orientation, _cartan_matrix(shape))


def sink_order(datum: CartanDatum) -> tuple[int, ...]:
    """Vertex order v1..vn with every arrow pointing from later to earlier.

    Among available sinks the smallest index is taken first, so the result
    is deterministic; for the default orientation it is the identity.
    """
    n = datum.n
    outdeg = {v: 0 for v in range(1, n + 1)}
    preds: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for src, dst in datum.orientation:
        outdeg[src] += 1
        preds[dst].append(src)
    order: list[int] = []
    ready = [v for v in outdeg if outdeg[v] == 0]  # ascending, so already a heap
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in preds[v]:
            outdeg[w] -= 1
            if outdeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != n:
        raise DiagramError("orientation is cyclic: no sink ordering exists")
    return tuple(order)


Kernel = tuple[tuple[tuple[int, int], ...], ...]


def reflection_kernel(cartan: tuple[Coords, ...]) -> Kernel:
    """Every simple reflection in sparse form: the Cartan matrix's neighbour lists.

    Entry i holds the pairs (j, -A[i][j]) over the neighbours j of vertex
    i + 1, all indices 0-based.  The reflection at vertex i + 1 changes only
    coordinate i, to -x_i + sum(c * x_j for j, c in entry i).
    """
    return tuple(tuple((j, -a) for j, a in enumerate(row) if a and j != i) for i, row in enumerate(cartan))


def reflect_in_place(kernel: Kernel, word: Iterable[int], x: list[int]) -> None:
    """Apply the reflections at the 0-based vertices of ``word`` to x, first to last."""
    for i in word:
        s = -x[i]
        for j, c in kernel[i]:
            s += c * x[j]
        x[i] = s


def positive_roots(datum: CartanDatum) -> frozenset[Coords]:
    """Positive roots: closure of the simple roots under height-raising reflections.

    Every positive root other than a simple root alpha_i is s_i of a
    positive root of smaller height, for some i.  So the closure follows only
    the reflections that raise their coordinate and never leaves the
    positive cone.  A connected finite type of rank k has at most
    max(k², 120) positive roots (k² for B and C, 120 for E8), so a closure
    that outgrows the sum of that bound over the components means the
    matrix is not of finite type.  This is the only finite-type test.  The
    closure runs once per (shape, Cartan matrix): every orientation of a
    type gets the same frozenset.
    """
    return _root_closure(datum.shape, datum.cartan)


@lru_cache(maxsize=_MEMO_SIZE)
def _root_closure(shape: DiagramShape, cartan: tuple[Coords, ...]) -> frozenset[Coords]:
    n = shape.vertex_count
    kernel = reflection_kernel(cartan)
    max_roots = sum(max(len(c) ** 2, 120) for c in shape.components())
    seen: set[Coords] = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    work = list(seen)
    while work:
        x = work.pop()
        for i, neighbours in enumerate(kernel):
            # s_i raises coordinate i exactly when sum(c * x_j) > 2 x_i
            s = -2 * x[i]
            for j, c in neighbours:
                s += c * x[j]
            if s > 0:
                y = x[:i] + (x[i] + s,) + x[i + 1 :]
                if y not in seen:
                    seen.add(y)
                    work.append(y)
        if len(seen) > max_roots:
            raise DiagramError("root closure does not terminate: not finite type")
    return frozenset(seen)
