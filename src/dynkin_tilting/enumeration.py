"""Enumeration of antichains and support-tilting sets over a module category.

Both searches are one lexicographic backtracking walk over the indecomposables
in (vertex, power) order, pruned by a per-element compatibility bitmask:

  * antichain: X, Y coexist iff Hom(X,Y) = 0 = Hom(Y,X);
  * support-tilting: X, Y coexist iff Ext(X,Y) = 0 = Ext(Y,X), and a set
    counts only when its cardinality equals its support-rank (tilting over
    the support algebra).

The antichain search visits 1 node per result.  The tilting search visits
Ext-rigid sets that are not results; cutting branches whose rank deficit
exceeds their remaining candidates, it visits 6.9 nodes per result on A8,
10.6 on E8, 14.7 on D10, 18.4 on B10 and 23.0 on A12 (default
orientations).  Listings pay that walk; counts walk no result.  A set of
either statistic is one set per connected component of its support, so
count_tables weighs each connected support once and combines the weights
over vertex sets.  A tilting weight counts the tilting sets over the
support, memoized on (candidates, members still needed) (B10: 55
supports, about 17,000 calls and at most 5,056 memo states for 184,756
sets).  An antichain weight counts the antichains inside the support,
memoized on the candidate mask, less those on its proper subsets; its
memo states per support top out at 1,044 on A10, 1,599 on B10, 754 on
D10, 1,149 on E8 and 4,710 on A12, and in process (CPython 3.11, 2 vCPUs)
the counts take about 0.009, 0.015, 0.008, 0.008 and 0.05 s, where the
walk takes about 0.04, 0.11, 0.08, 0.02 and 0.54 s.
Counting builds no IndecSet, and neither does listing_lines: it joins
labels made once per indecomposable, so a listing costs the walk plus one
join per result (E8: about 0.07 s of 0.08 s in the walk).
"""

from __future__ import annotations

from typing import Callable, Iterator, Literal, NamedTuple

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


# The rigid-subset count memoizes only the levels with at least this many
# candidates; smaller subtrees are walked again.  Measured over A10, B10, D10
# and E8 (CPython 3.11): at 4 counting takes about a third less time than at
# 8, and the largest memos (B10: 5,056 states, E8: 4,980) grow VmHWM by about
# 0.4 MB; memoizing every level doubles E8's growth.
_MEMO_MIN_CANDIDATES = 4

# count(inside, size, smaller) -> the statistic's sets with support exactly C,
# for a connected support C of size vertices whose modules are the bits of
# inside; smaller() is the row of the sets on proper subsets of C
SupportCount = Callable[[int, int, Callable[[], list[int]]], int]

# The recursions below are module-level functions that get their memo as an
# argument, a fresh one per support.  A nested function that calls itself
# sits in a reference cycle, so its memo outlives the count until the cycle
# collector runs.


def _row(u: int, rows: dict[int, list[int]], by_lowest: list[list[tuple[int, int, int, int]]], n: int) -> list[int]:
    """F(U) of _component_product, memoized in rows."""
    got = rows.get(u)
    if got is None:
        low = u & -u
        got = _row(u ^ low, rows, by_lowest, n).copy()
        for c, closure, weight, size in by_lowest[low.bit_length() - 1]:
            if not c & ~u:
                rest = _row(u & ~closure, rows, by_lowest, n)
                for j in range(n + 1 - size):
                    got[j + size] += rest[j] * weight
        rows[u] = got
    return got


def _component_product(cat: ModCategory, count: SupportCount) -> list[int]:
    """Sets by support-rank, as a product over support components.

    The statistic's sets with support S split into one set per connected
    component C of S, each with support exactly C, and any such choice
    recombines: Hom needs intersecting supports, and Ext supports that are
    disjoint and not adjacent.  The connected supports are the distinct root
    supports; count weighs each.  The rank row of a vertex set U, with v its
    lowest vertex and N(C) the neighbours of C, is F(U) = F(U - v) + sum
    over C with v in C inside U of count(C) x^|C| F(U - C - N(C)).  Supports
    are weighed in increasing size, so F(C) found while weighing C lacks
    only C's own term, which is then added in place.
    """
    vmask = _vertex_masks(cat)
    n = cat.n
    # vertex i and its neighbours: the non-zero entries of Cartan row i
    near = [sum(1 << j for j, a in enumerate(row) if a) for row in cat.datum.cartan]
    # the modules whose support holds vertex i
    touching = [0] * n
    for y, v in enumerate(vmask):
        for i in range(n):
            if (v >> i) & 1:
                touching[i] |= 1 << y
    everything = (1 << len(vmask)) - 1
    by_lowest: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    rows = {0: [1] + [0] * n}
    for c in sorted(set(vmask), key=int.bit_count):
        inside = everything
        closure = 0
        for i in range(n):
            if (c >> i) & 1:
                closure |= near[i]
            else:
                inside &= ~touching[i]
        size = c.bit_count()
        weight = count(inside, size, lambda: _row(c, rows, by_lowest, n))
        if c in rows:
            rows[c][size] += weight
        by_lowest[(c & -c).bit_length() - 1].append((c, closure, weight, size))
    return _row((1 << n) - 1, rows, by_lowest, n)


def _rigid(allowed: int, need: int, comp: list[int], memo: dict[int, int], need_bits: int) -> int:
    """Pairwise compatible need-subsets of allowed, for need >= 2; memo is
    keyed on (candidates, need) of the levels with enough candidates."""
    acc = 0
    left = allowed.bit_count()
    while left >= need:
        low = allowed & -allowed
        allowed ^= low
        left -= 1
        below = allowed & comp[low.bit_length() - 1]
        if need == 2:
            acc += below.bit_count()
            continue
        candidates = below.bit_count()
        if candidates < need - 1:
            continue
        if candidates < _MEMO_MIN_CANDIDATES:
            acc += _rigid(below, need - 1, comp, memo, need_bits)
            continue
        key = (below << need_bits) | (need - 1)
        count = memo.get(key)
        if count is None:
            count = memo[key] = _rigid(below, need - 1, comp, memo, need_bits)
        acc += count
    return acc


def _tilting_count(cat: ModCategory) -> SupportCount:
    """t(C): the tilting sets over a connected support C, i.e. the pairwise
    compatible |C|-subsets of the modules supported in C (a rigid set of |C|
    modules supported in C has support exactly C, by Bongartz's bound)."""
    comp = _compat_masks(cat, "tilting")
    need_bits = cat.n.bit_length()

    def tilting(inside: int, size: int, smaller: Callable[[], list[int]]) -> int:
        return _rigid(inside, size, comp, {}, need_bits) if size > 1 else inside.bit_count()

    return tilting


def _antichains_inside(allowed: int, comp: list[int], width: int, memo: dict[int, int]) -> int:
    """The antichains inside allowed, empty one included, as a packed size
    polynomial; memo holds the count for each mask the recursion meets.

    Each module y of allowed, highest first, adds the antichains whose
    highest member is y.  Highest first meets about half the masks that
    lowest first does in (vertex, power) order (A12: 16,586 calls against
    34,016), and its masks shrink from the top, so they stay short.
    """
    x = 1 << width  # one antichain of size 1
    acc = 1
    while allowed:
        y = allowed.bit_length() - 1
        allowed ^= 1 << y
        below = allowed & comp[y]
        if not below:
            acc += x
        elif not below & (below - 1):
            acc += x + (x << width)  # {y} and {y, z}
        else:
            got = memo.get(below)
            if got is None:
                got = memo[below] = _antichains_inside(below, comp, width, memo)
            acc += got << width
    return acc


def _antichain_count(cat: ModCategory, width: int) -> SupportCount:
    """The antichains with support exactly C, as a size polynomial packed in
    one int, coefficient k in bits [k * width, (k + 1) * width).

    Every coefficient of a polynomial here, and of any sum or product the
    combine forms, counts distinct sets of modules, so width = (number of
    modules) + 1 bits never overflows and packed arithmetic is polynomial
    arithmetic.  The antichains inside C less those whose support is a
    proper subset of C leave those on C (Moebius inversion over supports,
    one term).
    """
    comp = _compat_masks(cat, "antichain")
    x = 1 << width  # a single vertex supports one module, its simple

    def antichains(inside: int, size: int, smaller: Callable[[], list[int]]) -> int:
        return _antichains_inside(inside, comp, width, {}) - sum(smaller()) if size > 1 else x

    return antichains


def count_tables(cat: ModCategory, kind: Statistic) -> CountTable:
    """Tally one statistic by support-rank and by size, as a product over
    support components.  A support-tilting set's size equals its
    support-rank; antichains carry a size polynomial per support-rank."""
    n = cat.n
    if kind == "tilting":
        by_rank = by_size = _component_product(cat, _tilting_count(cat))
    else:
        width = len(cat.indecs) + 1
        field = (1 << width) - 1
        packed = _component_product(cat, _antichain_count(cat, width))
        by_rank = []
        for poly in packed:
            by_rank.append(sum((poly >> (k * width)) & field for k in range(n + 1)))
        every = sum(packed)
        by_size = []
        for k in range(n + 1):
            by_size.append((every >> (k * width)) & field)
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
