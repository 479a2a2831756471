"""Enumeration of antichains and support-tilting sets over a module category.

Both searches are one lexicographic backtracking walk over the indecomposables
in (vertex, power) order, pruned by a per-element compatibility bitmask:

  * antichain: X, Y coexist iff Hom(X,Y) = 0 = Hom(Y,X);
  * support-tilting: X, Y coexist iff Ext(X,Y) = 0 = Ext(Y,X), and a set
    counts only when its cardinality equals its support-rank (tilting over
    the support algebra).

Every antichain node is a result, so that search visits 1 node per result.
The tilting search visits Ext-rigid sets that are not results; cutting
branches whose rank deficit exceeds their remaining candidates, it visits
6.9 nodes per result on A8, 10.6 on E8, 14.7 on D10, 18.4 on B10 and 23.0
on A12 (default orientations).  Listing and antichain counts pay that walk.
Tilting counts do not: the subtree below a walker level depends only on
(untried candidates, support, size), so they add up memoized subtree counts
and cost memo states, not results (B10: 5,409 states for 184,756 sets).
Counting builds no IndecSet, and neither does listing_lines: it joins
labels made once per indecomposable, so a listing costs the walk plus one
join per result (E8: about 0.07 s of 0.08 s in the walk).
"""

from __future__ import annotations

import math
from typing import Iterator, Literal, NamedTuple

from .diagrams import DiagramError
from .homs import injective_by_socle, transpose
from .orbits import Indec, ModCategory

Statistic = Literal["antichain", "tilting"]


class IndecSet(NamedTuple):
    """A set of indecomposables, stored as sorted indices into cat.indecs."""

    members: tuple[int, ...]
    support: frozenset[int]


class CountTable(NamedTuple):
    """Exact counts indexed by support-rank and by set size."""

    label: str
    n: int
    by_support_rank: tuple[int, ...]
    by_size: tuple[int, ...]
    total: int

    def rank_row(self) -> str:
        return " ".join(str(c) for c in self.by_support_rank)


def _compat_masks(cat: ModCategory, statistic: Statistic) -> list[int]:
    """Bit y of mask x: x != y and neither Hom (antichain) nor Ext (tilting)
    runs between them in either direction, i.e. the complement of row x,
    column x and x itself."""
    if cat.hom is None or cat.ext is None:
        raise ValueError("category matrices not built; call homs.build_matrices first")
    rel = cat.hom if statistic == "antichain" else cat.ext
    full = (1 << len(rel)) - 1
    masks = []  # a loop, not a comprehension: that would add a call to perfbench's per-layer call counts
    for x, (row, col) in enumerate(zip(rel, transpose(rel))):
        masks.append(full & ~(row | col | 1 << x))
    return masks


def _vertex_masks(cat: ModCategory) -> list[int]:
    out = []
    for ind in cat.indecs:
        v = 0
        for j in ind.support:
            v |= 1 << (j - 1)
        out.append(v)
    return out


def _walk(cat: ModCategory, statistic: Statistic) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every set the statistic counts, as (members, support bitmask), in lex order.

    Depth-first without recursion.  The walk holds the open level it is
    extending (untried candidates, support, members) and a stack of the open
    levels above it; descending pushes the current level only if it still
    has candidates.  A set is support-tilting when its rank deficit
    |supp T| - |T| is 0; each added member raises |T| by one and |supp T| by
    at least zero, so a branch with fewer candidates than its deficit holds
    no tilting set and is cut.
    """
    comp = _compat_masks(cat, statistic)
    vmask = _vertex_masks(cat)
    tilting = statistic == "tilting"
    yield (), 0
    stack = [((1 << len(cat.indecs)) - 1, 0, ())]
    while stack:
        rest, base, path = stack.pop()
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            members = path + (y,)
            supp = base | vmask[y]
            deficit = supp.bit_count() - len(members) if tilting else 0
            if not deficit:
                yield members, supp
            allowed = rest & comp[y]
            if allowed and allowed.bit_count() >= deficit:
                if rest:
                    stack.append((rest, base, path))
                rest, base, path = allowed, supp, members


def _indec_sets(cat: ModCategory, statistic: Statistic) -> Iterator[IndecSet]:
    for members, supp in _walk(cat, statistic):
        yield IndecSet(members, frozenset(j + 1 for j in range(cat.n) if (supp >> j) & 1))


def enumerate_antichains(cat: ModCategory) -> Iterator[IndecSet]:
    """All pairwise Hom-orthogonal sets, empty set included, in lex order."""
    return _indec_sets(cat, "antichain")


def enumerate_support_tilting(cat: ModCategory) -> Iterator[IndecSet]:
    """All Ext-rigid sets whose cardinality equals their support-rank, in lex order."""
    return _indec_sets(cat, "tilting")


# Tilting counts memoize only the levels with at least this many untried
# candidates; smaller subtrees are walked again.  Measured on B10, the largest
# memo among A10, B10, D10 and E8 (CPython 3.11): at 10 it holds 5,409 states
# and `enumerate B 10` peaks 0.32 MB above the plain walk; at 8 counting takes
# about a third less time but peaks 0.70 MB above, close to the 5% (0.8 MB)
# peak-RSS bound of perfbench's enum-count; storing every state adds 1.4 MB.
_MEMO_MIN_CANDIDATES = 10


def _tilting_counts(cat: ModCategory) -> list[int]:
    """Support-tilting sets by support-rank, from memoized subtree counts.

    A level's count vector is one int of n fields `width` bits wide; field j
    holds the results at rank size + 1 + j below it.  A field never exceeds
    the number of subsets of at most n indecomposables, because an Ext-rigid
    set has at most n members; the same bound keeps the recursion n + 1 deep.
    """
    comp = _compat_masks(cat, "tilting")
    vmask = _vertex_masks(cat)
    n = cat.n
    m = len(cat.indecs)
    width = sum(math.comb(m, k) for k in range(n + 1)).bit_length()
    size_bits = n.bit_length()
    memo: dict[int, int] = {}

    def subtree(rest: int, base: int, size: int) -> int:
        acc = 0
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            supp = base | vmask[y]
            deficit = supp.bit_count() - size - 1
            if not deficit:
                acc += 1
            allowed = rest & comp[y]
            if not allowed:
                continue
            candidates = allowed.bit_count()
            if candidates < deficit:
                continue
            if candidates < _MEMO_MIN_CANDIDATES:
                acc += subtree(allowed, supp, size + 1) << width
                continue
            key = (((allowed << n) | supp) << size_bits) | size
            below = memo.get(key)
            if below is None:
                below = memo[key] = subtree(allowed, supp, size + 1)
            acc += below << width
        return acc

    packed = subtree((1 << m) - 1, 0, 0)
    field = (1 << width) - 1
    return [1] + [(packed >> (j * width)) & field for j in range(n)]


def count_tables(cat: ModCategory, kind: Statistic) -> CountTable:
    """Tally one statistic by support-rank and by size.

    Antichains are tallied from the walk; support-tilting sets come from the
    memoized subtree counts, and their size equals their support-rank.
    """
    n = cat.n
    if kind == "tilting":
        by_rank = by_size = _tilting_counts(cat)
    else:
        by_rank = [0] * (n + 1)
        by_size = [0] * (n + 1)
        for members, supp in _walk(cat, kind):
            by_rank[supp.bit_count()] += 1
            by_size[len(members)] += 1
    total = sum(by_rank)
    assert total == sum(by_size)
    return CountTable(cat.datum.label, n, tuple(by_rank), tuple(by_size), total)


class SincereSplit(NamedTuple):
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
    full = (1 << n) - 1
    sincere_vertex = {k: ind.vertex for k, ind in enumerate(cat.indecs) if len(ind.support) == n}
    u_count = 0
    v_count = 0
    per_vertex = [0] * (n + 1)
    for members, supp in _walk(cat, "antichain"):
        if supp != full:
            continue
        vertices = [sincere_vertex[k] for k in members if k in sincere_vertex]
        if len(vertices) > 1:
            raise AssertionError("antichain with two sincere elements; conventions broken")
        if vertices:
            u_count += 1
            per_vertex[vertices[0]] += 1
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


def _label(ind: Indec) -> str:
    return f"{ind.vertex},{ind.power}"


def format_set(cat: ModCategory, s: IndecSet) -> str:
    """One set per line: '-' for the empty set, else space-joined 'i,u' pairs."""
    if not s.members:
        return "-"
    return " ".join(_label(cat.indecs[k]) for k in s.members)


def listing_lines(cat: ModCategory, statistic: Statistic) -> Iterator[str]:
    """Every set the statistic counts as a newline-terminated format_set line,
    in lex order, one string per set, straight from the walk."""
    labels = [_label(ind) for ind in cat.indecs]
    for members, _ in _walk(cat, statistic):
        yield " ".join([labels[k] for k in members]) + "\n" if members else "-\n"
