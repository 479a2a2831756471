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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

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


@dataclass(frozen=True)
class DynkinType:
    """A series letter together with a rank, e.g. DynkinType('B', 3)."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        if self.series not in SERIES:
            raise DiagramError(f"unknown series {self.series!r}")
        lo, hi = RANK_RANGE[self.series]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise DiagramError(f"inadmissible rank {self.rank} for series {self.series}")

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


@dataclass(frozen=True)
class DiagramShape:
    """Underlying valued forest of a Dynkin type (orientation-free)."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        parent = list(range(self.vertex_count + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, a, b in self.edges:
            if not (1 <= i < j <= self.vertex_count):
                raise DiagramError(f"bad edge endpoints ({i},{j})")
            if a < 1 or b < 1 or a * b not in (1, 2, 3):
                raise DiagramError(f"bad valuation on edge ({i},{j}): {a}*{b}")
            if (i, j) in seen:
                raise DiagramError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            ri, rj = find(i), find(j)
            if ri == rj:
                raise DiagramError(f"diagram has a cycle through edge ({i},{j})")
            parent[ri] = rj

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


@dataclass(frozen=True)
class CartanDatum:
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
    # propagate d_j = d_i * A_ij / A_ji along edges of each component
    n = shape.vertex_count
    d: list[Fraction | None] = [None] * (n + 1)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j, _, _ in shape.edges:
        adj[i].append(j)
        adj[j].append(i)
    for comp in shape.components():
        root = min(comp)
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if d[w] is None:
                    d[w] = d[v] * Fraction(cartan[v - 1][w - 1], cartan[w - 1][v - 1])
                    stack.append(w)
    denoms = lcm(*(f.denominator for f in d[1:]))  # type: ignore[union-attr]
    ints = [int(f * denoms) for f in d[1:]]  # type: ignore[operator]
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
        arrows = sorted(set(tuple(a) for a in orientation_spec))
        want = {tuple(sorted((i, j))) for i, j, _, _ in shape.edges}
        got = {tuple(sorted(a)) for a in arrows}
        if got != want or len(arrows) != len(shape.edges):
            raise DiagramError(
                f"arrow set does not match the {dtype.label} diagram edges: "
                f"expected undirected {sorted(want)}, got {sorted(got)}"
            )
        orientation = tuple(arrows)
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


_MAX_ROOTS = 1000  # closure guard: the largest rank-9 system (E8 + A1) stays far below


def positive_roots(datum: CartanDatum) -> frozenset[Coords]:
    """Positive roots: closure of the simple roots under all reflections.

    Non-termination of the closure (more than _MAX_ROOTS vectors) means the
    matrix was not of finite type, which build_cartan already excludes.
    """
    n = datum.n
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
        if len(seen) > 2 * _MAX_ROOTS:
            raise DiagramError("root closure does not terminate: not finite type")
    return frozenset(x for x in seen if is_positive(x))


def known_positive_root_count(dtype: DynkinType) -> int:
    """Standard positive-root counts (degenerate ranks included)."""
    s, n = dtype.series, dtype.rank
    if s == "A":
        return n * (n + 1) // 2
    if s in ("B", "C"):
        return n * n
    if s == "D":
        return n * (n - 1)
    if s == "E":
        return {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}[n]
    if s == "F":
        return 24
    return 6  # G2
