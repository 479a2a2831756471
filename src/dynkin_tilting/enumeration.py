"""Enumeration of antichains and support-tilting sets over a module category.

Both searches are lexicographic backtracking over the indecomposables in
(vertex, power) order, pruned by a per-element compatibility bitmask:

  * antichain: X, Y coexist iff Hom(X,Y) = 0 = Hom(Y,X);
  * support-tilting: X, Y coexist iff Ext(X,Y) = 0 = Ext(Y,X), and a set
    counts only when its cardinality equals its support-rank (tilting over
    the support algebra).

Every node of the search tree is itself a valid set, so enumeration cost is
proportional to the number of results.  Counting never materializes sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from .diagrams import DiagramError
from .homs import injective_by_socle
from .orbits import ModCategory

Statistic = Literal["antichain", "tilting"]


@dataclass(frozen=True)
class IndecSet:
    """A set of indecomposables, stored as sorted indices into cat.indecs."""

    members: tuple[int, ...]
    support: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def support_rank(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class CountTable:
    """Exact counts indexed by support-rank and by set size."""

    label: str
    n: int
    by_support_rank: tuple[int, ...]
    by_size: tuple[int, ...]
    total: int

    def rank_row(self) -> str:
        return " ".join(str(c) for c in self.by_support_rank)


def _require_matrices(cat: ModCategory) -> None:
    if cat.hom is None or cat.ext is None:
        raise ValueError("category matrices not built; call homs.build_matrices first")


def _compat_masks(cat: ModCategory, statistic: Statistic) -> list[int]:
    _require_matrices(cat)
    m = len(cat.indecs)
    rel = cat.hom if statistic == "antichain" else cat.ext
    assert rel is not None
    masks = []
    for x in range(m):
        ok = 0
        for y in range(m):
            if y == x:
                continue
            if not (rel[x] >> y) & 1 and not (rel[y] >> x) & 1:
                ok |= 1 << y
        masks.append(ok)
    return masks


def _vertex_masks(cat: ModCategory) -> list[int]:
    out = []
    for ind in cat.indecs:
        v = 0
        for j in ind.support:
            v |= 1 << (j - 1)
        out.append(v)
    return out


def _iter_compatible(cat: ModCategory, statistic: Statistic) -> Iterator[IndecSet]:
    comp = _compat_masks(cat, statistic)
    vmask = _vertex_masks(cat)
    m = len(cat.indecs)
    members: list[int] = []

    def emit(supp: int) -> IndecSet:
        vs = frozenset(j + 1 for j in range(cat.n) if (supp >> j) & 1)
        return IndecSet(tuple(members), vs)

    def rec(allowed: int, supp: int) -> Iterator[IndecSet]:
        yield emit(supp)
        rest = allowed
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            members.append(y)
            yield from rec(allowed & comp[y] & -(low << 1), supp | vmask[y])
            members.pop()

    yield from rec((1 << m) - 1, 0)


def enumerate_antichains(cat: ModCategory) -> Iterator[IndecSet]:
    """All pairwise Hom-orthogonal sets, empty set included, in lex order."""
    return _iter_compatible(cat, "antichain")


def enumerate_support_tilting(cat: ModCategory) -> Iterator[IndecSet]:
    """All Ext-rigid sets whose cardinality equals their support-rank."""
    for s in _iter_compatible(cat, "tilting"):
        if s.size == s.support_rank:
            yield s


def count_tables(cat: ModCategory, kind: Statistic) -> CountTable:
    """Tally one statistic by support-rank and by size in a single pass."""
    comp = _compat_masks(cat, kind)
    vmask = _vertex_masks(cat)
    m = len(cat.indecs)
    n = cat.n
    by_rank = [0] * (n + 1)
    by_size = [0] * (n + 1)
    tilting = kind == "tilting"

    def rec(allowed: int, size: int, supp: int) -> None:
        r = supp.bit_count()
        if not tilting or size == r:
            by_rank[r] += 1
            by_size[size] += 1
        rest = allowed
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            rec(allowed & comp[y] & -(low << 1), size + 1, supp | vmask[y])

    rec((1 << m) - 1, 0, 0)
    total = sum(by_rank)
    assert total == sum(by_size)
    return CountTable(cat.datum.label, n, tuple(by_rank), tuple(by_size), total)


@dataclass(frozen=True)
class SincereSplit:
    """Sincere antichains split by whether they contain a sincere element."""

    u_count: int
    v_count: int
    per_vertex: tuple[int, ...]  # u-antichains keyed by the vertex of their sincere element

    @property
    def total(self) -> int:
        return self.u_count + self.v_count


def classify_sincere(cat: ModCategory) -> SincereSplit:
    """Classify the sincere antichains of a connected category.

    Any antichain here contains at most one sincere element (they are
    pairwise Hom-comparable); a violation raises, since it would mean the
    category was knitted with the wrong conventions.
    """
    if not cat.datum.is_connected():
        raise DiagramError("sincere classification needs a connected diagram")
    n = cat.n
    full = frozenset(range(1, n + 1))
    u_count = 0
    v_count = 0
    per_vertex = [0] * (n + 1)
    for ac in enumerate_antichains(cat):
        if ac.support != full:
            continue
        sincere_members = [k for k in ac.members if len(cat.indecs[k].support) == n]
        if len(sincere_members) > 1:
            raise AssertionError("antichain with two sincere elements; conventions broken")
        if sincere_members:
            u_count += 1
            per_vertex[cat.indecs[sincere_members[0]].vertex] += 1
        else:
            v_count += 1
    return SincereSplit(u_count, v_count, tuple(per_vertex[1:]))


def _is_antichain(cat: ModCategory, members: tuple[int, ...]) -> bool:
    assert cat.hom is not None
    for a, x in enumerate(members):
        for y in members[a + 1 :]:
            if (cat.hom[x] >> y) & 1 or (cat.hom[y] >> x) & 1:
                return False
    return True


def eta_map(cat: ModCategory, ac: IndecSet) -> IndecSet:
    """Strip the (unique) injective member from a sincere antichain.

    Returns the antichain unchanged when it has no injective member; the
    result never contains an injective.  Inverse: eta_inverse.
    """
    n = cat.n
    if ac.support != frozenset(range(1, n + 1)):
        raise ValueError("eta is defined on sincere antichains only")
    if not _is_antichain(cat, ac.members):
        raise ValueError("input is not an antichain")
    injectives = set(cat.injective_slice())
    inj_members = [k for k in ac.members if k in injectives]
    if len(inj_members) > 1:
        raise AssertionError("sincere antichain with two injectives; conventions broken")
    if not inj_members:
        return ac
    members = tuple(k for k in ac.members if k != inj_members[0])
    supp = frozenset().union(*(cat.indecs[k].support for k in members)) if members else frozenset()
    return IndecSet(members, supp)


def eta_inverse(cat: ModCategory, ac: IndecSet) -> IndecSet:
    """Re-insert the injective whose socle sits at the smallest missing vertex."""
    injectives = set(cat.injective_slice())
    if any(k in injectives for k in ac.members):
        raise ValueError("input already contains an injective")
    n = cat.n
    full = frozenset(range(1, n + 1))
    if ac.support == full:
        return ac
    i = min(full - ac.support)
    extra = injective_by_socle(cat)[i]
    members = tuple(sorted(ac.members + (extra,)))
    if not _is_antichain(cat, members):
        raise AssertionError(f"adding the injective at vertex {i} broke the antichain")
    supp = frozenset().union(*(cat.indecs[k].support for k in members))
    return IndecSet(members, supp)


def format_set(cat: ModCategory, s: IndecSet) -> str:
    """One set per line: '-' for the empty set, else space-joined 'i,u' pairs."""
    if not s.members:
        return "-"
    return " ".join(f"{cat.indecs[k].vertex},{cat.indecs[k].power}" for k in s.members)
