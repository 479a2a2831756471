"""Valued Dynkin diagrams, Cartan matrices, and root-lattice reflections.

Vertices are numbered 1..n.  A diagram shape is a forest of valued edges
``(i, j, a, b)`` with ``i < j``, encoding the Cartan entries
``A[i][j] = -a`` and ``A[j][i] = -b``.  Degenerate ranks resolve to their
conventional shapes (B1 = A1, D2 = A1 + A1, D3 = A3, E3 = A2 + A1,
E4 = A4, E5 = D5) before any computation, so downstream code never
special-cases them.

The B/C distinction: in type B the double-valued edge sits at the branch
end with ``A[n][n-1] = -2`` (so the indecomposable projective at vertex n
knits to dimension vector (1,...,1)); type C is the transposed matrix.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

Coords = tuple[int, ...]
Arrow = tuple[int, int]
Edge = tuple[int, int, int, int]

SERIES = ("A", "B", "C", "D", "E", "F", "G")

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
        if len(label) < 2 or label[0].upper() not in SERIES:
            raise DiagramError(f"cannot parse type label {label!r}")
        try:
            rank = int(label[1:])
        except ValueError as exc:
            raise DiagramError(f"cannot parse type label {label!r}") from exc
        return cls(label[0].upper(), rank)

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


def _path_edges(n: int) -> list[Edge]:
    return [(i, i + 1, 1, 1) for i in range(1, n)]


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
    symmetrizer: tuple[int, ...]

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
    out = []
    pairs = [((j, i), (i, j)) for i, j, _, _ in shape.edges]
    for choice in itertools.product(*pairs) if pairs else [()]:
        out.append(tuple(sorted(choice)))
    return sorted(out)


def _cartan_matrix(shape: DiagramShape) -> tuple[Coords, ...]:
    n = shape.vertex_count
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in shape.edges:
        mat[i - 1][j - 1] = -a
        mat[j - 1][i - 1] = -b
    return tuple(tuple(row) for row in mat)


def _symmetrizer(shape: DiagramShape, cartan: tuple[Coords, ...]) -> tuple[int, ...]:
    # propagate d_j = d_i * A_ij / A_ji along edges of each component, each
    # d_j an exact fraction kept as a reduced (numerator, denominator) pair
    n = shape.vertex_count
    d: list[tuple[int, int] | None] = [None] * (n + 1)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j, _, _ in shape.edges:
        adj[i].append(j)
        adj[j].append(i)
    for comp in shape.components():
        root = min(comp)
        d[root] = (1, 1)
        stack = [root]
        while stack:
            v = stack.pop()
            num, den = d[v]  # type: ignore[misc]
            for w in adj[v]:
                if d[w] is None:
                    # both entries are negative on an edge, so the ratio is positive
                    p = num * -cartan[v - 1][w - 1]
                    q = den * -cartan[w - 1][v - 1]
                    g = gcd(p, q)
                    d[w] = (p // g, q // g)
                    stack.append(w)
    pairs: list[tuple[int, int]] = d[1:]  # type: ignore[assignment]
    denoms = lcm(*(q for _, q in pairs))
    ints = [p * (denoms // q) for p, q in pairs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _check_finite_type(cartan: tuple[Coords, ...], symmetrizer: tuple[int, ...]) -> None:
    # symmetrized matrix must be symmetric positive definite
    n = len(cartan)
    sym = [[symmetrizer[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sym[i][j] != sym[j][i]:
                raise DiagramError("symmetrizer failed: d_i*A_ij != d_j*A_ji")
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if _det_bareiss(minor) <= 0:
            raise DiagramError("Cartan matrix is not of finite type")


OrientationSpec = Union[str, Iterable[Arrow]]


def build_cartan(dtype: DynkinType, orientation_spec: OrientationSpec = "default") -> CartanDatum:
    """Construct the Cartan datum for a type with a chosen acyclic orientation.

    ``orientation_spec`` is either the string ``"default"`` (all arrows point
    towards vertex 1, branches into the chain) or an explicit set of arrows
    ``(src, dst)`` covering each diagram edge exactly once.
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
    cartan = _cartan_matrix(shape)
    symmetrizer = _symmetrizer(shape, cartan)
    _check_finite_type(cartan, symmetrizer)
    datum = CartanDatum(dtype.label, shape, orientation, cartan, symmetrizer)
    sink_order(datum)  # raises if cyclic; forests always pass
    return datum


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
    ready = sorted(v for v in outdeg if outdeg[v] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for w in preds[v]:
            outdeg[w] -= 1
            if outdeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort()
    if len(order) != n:
        raise DiagramError("orientation is cyclic: no sink ordering exists")
    return tuple(order)


def simple_reflection(datum: CartanDatum, i: int, coords: Sequence[int]) -> Coords:
    """Reflect a root-lattice vector at vertex i (an involution)."""
    row = datum.cartan[i - 1]
    s = 0
    for j, x in enumerate(coords):
        s += row[j] * x
    out = list(coords)
    out[i - 1] -= s
    return tuple(out)


def is_positive(coords: Sequence[int]) -> bool:
    """True for nonzero vectors with all coordinates >= 0."""
    return all(c >= 0 for c in coords) and any(c > 0 for c in coords)


def positive_roots(datum: CartanDatum) -> frozenset[Coords]:
    """Positive roots: closure of the simple roots under all reflections.

    A connected finite type of rank k has at most max(k², 120) positive
    roots (k² for B and C, 120 for E8), so a closure that outgrows twice the
    sum of that bound over the components means the matrix was not of
    finite type, which build_cartan already excludes.
    """
    n = datum.n
    max_roots = 2 * sum(max(len(c) ** 2, 120) for c in datum.shape.components())
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen: set[Coords] = set(simples)
    work = list(simples)
    while work:
        x = work.pop()
        for i in range(1, n + 1):
            y = simple_reflection(datum, i, x)
            if y not in seen:
                seen.add(y)
                work.append(y)
        if len(seen) > max_roots:
            raise DiagramError("root closure does not terminate: not finite type")
    return frozenset(x for x in seen if is_positive(x))
