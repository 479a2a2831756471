"""Enumeration of antichains and support-tilting sets over a module category.

The two statistics differ only in a per-element compatibility bitmask;
homs.build_matrices puts both statistics' masks on the category, which
keeps no Ext rows:

  * antichain: X, Y coexist iff Hom(X,Y) = 0 = Hom(Y,X);
  * support-tilting: X, Y coexist iff Ext(X,Y) = 0 = Ext(Y,X), and a set
    counts only when its cardinality equals its support-rank (tilting over
    the support algebra).

Listings walk: one lexicographic backtracking walk over the indecomposables
in (vertex, power) order.  For tilting it also visits Ext-rigid sets that
are not results; it cuts a branch, and ends a level's loop, once too few
candidates are left to close the rank deficit |supp T| - |T|, and it skips
a level whose candidates, support and size it has already found to hold no
result (see _walk).
Counts walk no set: a set of either statistic is one set per connected
component of its support, so count_tables weighs each connected support
once, as homs.build_matrices lists them on the category, with one
recursion for both statistics and one memo shared by every support of a
count, and combines the per-support weights over vertex sets.
A set is a (members, support) pair: sorted indices into cat.indecs and the
union of their supports as a vertex bitmask, the format of Indec.support.
listing_lines grows each line label by label along the walk's path, so a
listing costs the walk plus one string concatenation per node that yields or
descends.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import comb
from operator import itemgetter, or_
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

from .diagrams import DiagramError
from .homs import injective_by_socle
from .orbits import Indec, ModCategory

Statistic = Literal["antichain", "tilting"]
Pair = tuple[tuple[int, ...], int]  # (members, support mask): see the module docstring


class CountTable(NamedTuple):
    """Exact counts indexed by support-rank and by set size."""

    label: str
    n: int
    by_support_rank: tuple[int, ...]
    by_size: tuple[int, ...]
    total: int


def count_row(counts: Iterable[int], total: object = None) -> str:
    """The counts space-joined, then " | " and the total if one is given:
    `table` and `enumerate` print 'c0 ... cn | total N', a verify report
    'c0 ... cn | N', and the orientation check the counts alone."""
    row = " ".join(map(str, counts))
    return row if total is None else f"{row} | {total}"


def _require_matrices(cat: ModCategory) -> None:
    if cat.hom is None or cat.antichain_masks is None or cat.tilting_masks is None or cat.supports is None:
        raise ValueError("category matrices not built; call homs.build_matrices first")


def _compat_masks(cat: ModCategory, statistic: Statistic) -> tuple[int, ...]:
    """The statistic's compat masks, which homs.build_matrices fills: bit y
    of mask x says x != y and neither Hom (antichain) nor Ext (tilting) runs
    between them in either direction."""
    if statistic not in ("antichain", "tilting"):
        raise ValueError(f"unknown statistic {statistic!r}; expected 'antichain' or 'tilting'")
    _require_matrices(cat)
    return cat.antichain_masks if statistic == "antichain" else cat.tilting_masks


def _walk(
    cat: ModCategory, statistic: Statistic, root: Sequence = (), steps: list | None = None, ends: list | None = None
) -> Iterator[tuple[Sequence, int]]:
    """Every set the statistic counts, as (path, support bitmask), in lex order.

    Depth-first without recursion.  The walk holds the open level it is
    extending (untried candidates, support, path, size of its children,
    deficit) and a stack of the open levels above it; descending pushes the
    current level if it still has candidates or a positive deficit.  A set
    T is support-tilting when its rank deficit d = |supp T| - |T| is 0; each
    added member raises |T| by one and |supp T| by at least zero, so a
    child of T has deficit at least d - 1, and a branch with fewer
    candidates than its deficit holds no tilting set and is cut.  A level
    of deficit d >= 2 also stops once fewer than d of its candidates
    remain: each later child has deficit at least d - 1 >= 1, so it is no
    result, and its candidates are those left after it, at most d - 2, so
    it is cut.  (At d = 1 the stop would need an empty candidate set, which
    already ends the loop.)

    Levels of positive deficit that held no result are remembered, each as
    one int packing its candidates, support and size, and a later level with
    the same key is skipped.  The skip is exact: the sets below a level of T
    are T u T' for the compatible nonempty T' inside its candidates, and
    whether such a set is a result depends only on supp T, |T| and T',
    never on the path to T.  Such a level closes where its loop ends, after
    its last child.  `opened` holds its key and a mark, the path of the
    last level that yielded before it opened, and `last` is the path of the
    last level that yielded: the level held a result iff `last` is no
    longer the mark.  Each level at or below it has a path made after it
    opened (at depth 1, its own entry of steps), and the mark stays alive,
    so none of them is the mark.  An antichain walk computes no deficit:
    it stays 0, so no level takes a key, and the memo costs it one store
    per result and the `need` tests.

    The path of the empty set is root; a node that descends extends its
    parent's path by steps[y], and a result closes it with ends[y].  Both
    default to the 1-tuple (y,), so the path is the sorted member indices.
    Paths are built only for nodes that yield or descend.
    """
    comp = _compat_masks(cat, statistic)
    vmask = [ind.support for ind in cat.indecs]
    tilting = statistic == "tilting"
    if steps is None:
        steps = ends = [(y,) for y in range(len(vmask))]
    n = cat.n
    width = n.bit_length()  # a set's size, at most n by Bongartz's bound
    dead: set[int] = set()
    opened: list[tuple[int, Sequence]] = []
    last = root
    deficit = 0  # an antichain walk never sets it
    yield root, 0
    stack = [((1 << len(vmask)) - 1, 0, root, 1, 0)]
    while stack:
        rest, base, path, size, need = stack.pop()
        while rest:
            if need > 1 and rest.bit_count() < need:
                break
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            allowed = rest & comp[y]
            supp = base | vmask[y]
            if not (tilting and (deficit := supp.bit_count() - size)):
                last = path
                yield path + ends[y], supp
                if not allowed:
                    continue
            elif allowed.bit_count() < deficit:
                continue
            else:
                key = (allowed << n | supp) << width | size
                if key in dead:
                    continue
                opened.append((key, last))
            if rest or need:
                stack.append((rest, base, path, size, need))
            rest, base, path, size, need = allowed, supp, path + steps[y], size + 1, deficit
        if need:
            key, mark = opened.pop()
            if last is mark:
                dead.add(key)


def enumerate_antichains(cat: ModCategory) -> Iterator[Pair]:
    """All pairwise Hom-orthogonal sets, empty set included, in lex order."""
    return _walk(cat, "antichain")


def enumerate_support_tilting(cat: ModCategory) -> Iterator[Pair]:
    """All Ext-rigid sets whose cardinality equals their support-rank, in lex order."""
    return _walk(cat, "tilting")


# The recursions below are module-level functions that get their memo as an
# argument, one per count, dropped when the count returns.  A nested
# function that calls itself sits in a reference cycle, so its memo outlives
# the count until the cycle collector runs.


def _row(u: int, rows: dict[int, list[int]], by_lowest: list[list[tuple[int, int, int]]], n: int) -> list[int]:
    """F(U) of _component_product, memoized in rows."""
    got = rows.get(u)
    if got is None:
        low = u & -u
        got = _row(u ^ low, rows, by_lowest, n).copy()
        for c, weight, size in by_lowest[low.bit_length() - 1]:
            if not c & ~u:
                rest = _row(u & ~c, rows, by_lowest, n)
                for j in range(n + 1 - size):
                    got[j + size] += rest[j] * weight
        rows[u] = got
    return got


def _compatible_inside(allowed: int, comp: Sequence[int], width: int, memo: dict[int, int]) -> int:
    """The pairwise compatible sets inside allowed, empty one included, as a
    packed size polynomial; memo holds the count for each mask the recursion
    meets.  The count depends on the mask alone (comp and width are fixed
    for a count), so one memo serves every support of a count.

    Each module y of allowed, highest first, adds the sets whose highest
    member is y: the counts below each y are summed, then shifted up one
    size at once.  Its masks shrink from the top, so they stay short, and
    with modules in (vertex, power) order it is faster than lowest first for
    both statistics: A12 antichains take 7,201 calls against 12,610, A12
    tilting counts about 0.03 s against 0.14 s (CPython 3.11, 2 vCPUs).

    Once y conflicts with none of the modules left below it (below is all
    of allowed), the loop ends: its remaining terms, one per module left,
    are exactly the sum that F(below) = 1 + (sum << width) packs, so it
    adds got + ((got - 1) >> width) and stops.  Every mask the rest of the
    loop would meet was met when F(below) was counted, so the memo and the
    calls do not change, and only iterations are saved (default D12
    tilting: 55,591 against 202,537).
    """
    acc = 0
    while allowed:
        y = allowed.bit_length() - 1
        allowed ^= 1 << y
        below = allowed & comp[y]
        got = memo.get(below)
        if got is None:
            got = memo[below] = _compatible_inside(below, comp, width, memo)
        if below == allowed:
            acc += got + ((got - 1) >> width)
            break
        acc += got
    return 1 + (acc << width)


def _component_product(cat: ModCategory, comp: Sequence[int], width: int) -> list[int]:
    """The compatible sets by support-rank, each a size polynomial packed in
    one int (coefficient k in bits [k * width, (k + 1) * width)), as a
    product over support components.

    The connected supports are the distinct root supports, which
    homs.build_matrices lists in cat.supports in nondecreasing popcount,
    each with the mask of the modules inside it, once for both statistics.
    The rank row of a vertex set U, with v its lowest vertex, is
    F(U) = F(U - v) + sum over connected C with v in C inside U of
    weight(C) x^|C| F(U - C), a sum over the tilings of parts of U by
    disjoint connected pieces, adjacent or not.
    The weight of C is whatever makes F(C) equal every compatible set inside
    C, not the sets with support exactly C.  Supports are weighed in
    increasing size, so F(C) found while weighing C lacks only C's own term,
    which is then added in place.  F is then exact on a disconnected U too:
    each piece lies in one component of U, so F(U) is the product over the
    components, and so is the count, since Hom needs intersecting supports
    and Ext supports that are disjoint and not adjacent.  The modules inside
    a support include those inside each smaller one, so masks recur across
    supports; one memo kept for the whole count weighs each mask once (A10
    tilting: 1,476 recursion calls against 4,806 with a memo per support).
    """
    n = cat.n
    by_lowest: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    rows = {0: [1] + [0] * n}
    memo: dict[int, int] = {}
    for c, inside in cat.supports:
        size = c.bit_count()
        smaller = _row(c, rows, by_lowest, n)
        got = memo.get(inside)
        if got is None:
            got = memo[inside] = _compatible_inside(inside, comp, width, memo)
        weight = got - sum(smaller)
        smaller[size] += weight
        by_lowest[(c & -c).bit_length() - 1].append((c, weight, size))
    return _row((1 << n) - 1, rows, by_lowest, n)


def count_tables(cat: ModCategory, kind: Statistic) -> CountTable:
    """Tally one statistic by support-rank and by size, from the compatible
    sets under its masks (Hom for antichains, Ext for tilting).

    An Ext-rigid set supported in a connected C has at most |C| members
    (Bongartz), so the support-tilting sets of support-rank s are
    coefficient s of row s.  Every coefficient k <= n counts distinct
    k-subsets of the m modules, and no compatible set has more than n
    members, so a width that holds sum over k <= n of C(m, k) holds every
    field read.  A field too narrow spills into its neighbour, and the
    closing check sees that for both statistics: it tallies the compatible
    sets twice, by support-rank from the fields of each packed[s] and by
    size from the fields of their sum, and the two totals must agree; and
    the empty set and each single module are compatible, so fields 0 and 1
    of the sum must read 1 and m.  Two tallies that misread alike pass the
    first test (G2 with 2-bit fields reads 1 2 2 either way), and the second
    catches those.  Not every width is caught: of the narrower widths tried
    on up to 4 orientations of 16 types, four F4 antichain counts with 5-bit
    fields (against 14) pass both.
    """
    n = cat.n
    m = len(cat.indecs)
    width = sum(comb(m, k) for k in range(n + 1)).bit_length()
    field = (1 << width) - 1
    packed = _component_product(cat, _compat_masks(cat, kind), width)
    by_rank = []
    for poly in packed:  # loops, not generators: perfbench counts each resumption as a call
        fields = 0
        for k in range(n + 1):
            fields += (poly >> (k * width)) & field
        by_rank.append(fields)
    every = sum(packed)
    by_size = []
    for k in range(n + 1):
        by_size.append((every >> (k * width)) & field)
    if sum(by_rank) != sum(by_size) or by_size[:2] != [1, m]:
        raise AssertionError(f"{cat.datum.label} {kind} counts overflow their {width}-bit fields")
    if kind == "tilting":
        by_rank = by_size = [(packed[s] >> (s * width)) & field for s in range(n + 1)]
    return CountTable(cat.datum.label, n, tuple(by_rank), tuple(by_size), sum(by_rank))


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
    sincere_vertex = {k: ind.vertex for k, ind in enumerate(cat.indecs) if ind.support == full}
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
    # row x holds Hom(x, y) for every y, so the members' own rows cover both directions
    _require_matrices(cat)
    mask = sum(1 << x for x in members)
    return not any(cat.hom[x] & mask & ~(1 << x) for x in members)


def _support_of(cat: ModCategory, members: tuple[int, ...]) -> int:
    return reduce(or_, (cat.indecs[k].support for k in members), 0)


def _check_antichain(cat: ModCategory, ac: Pair) -> None:
    """ValueError unless the members are strictly increasing indices into
    cat.indecs that form an antichain, and the support is their union."""
    members, support = ac
    if tuple(members) != tuple(sorted(set(members) & set(range(len(cat.indecs))))):
        raise ValueError("members must be strictly increasing indices into cat.indecs")
    union = _support_of(cat, members)
    if support != union:
        raise ValueError(f"support {support:#b} is not the members' support {union:#b}")
    if not _is_antichain(cat, members):
        raise ValueError("input is not an antichain")


def eta_map(cat: ModCategory, ac: Pair) -> Pair:
    """Strip the (unique) injective member from a sincere antichain.

    Returns the antichain unchanged when it has no injective member; the
    result never contains an injective.  Inverse: eta_inverse.
    """
    _check_antichain(cat, ac)
    members, support = ac
    if support != (1 << cat.n) - 1:
        raise ValueError("eta is defined on sincere antichains only")
    injectives = set(cat.injective_slice())
    inj_members = [k for k in members if k in injectives]
    if len(inj_members) > 1:
        raise AssertionError("sincere antichain with two injectives; conventions broken")
    if not inj_members:
        return ac
    members = tuple(k for k in members if k != inj_members[0])
    return members, _support_of(cat, members)


def eta_inverse(cat: ModCategory, ac: Pair) -> Pair:
    """Re-insert the injective whose socle sits at the smallest missing vertex."""
    _check_antichain(cat, ac)
    members, support = ac
    injectives = set(cat.injective_slice())
    if any(k in injectives for k in members):
        raise ValueError("input already contains an injective")
    missing = ((1 << cat.n) - 1) & ~support
    if not missing:
        return ac
    i = (missing & -missing).bit_length()  # the smallest missing vertex
    extra = injective_by_socle(cat)[i]
    members = tuple(sorted(members + (extra,)))
    if not _is_antichain(cat, members):
        raise AssertionError(f"adding the injective at vertex {i} broke the antichain")
    return members, support | cat.indecs[extra].support


def _label(ind: Indec) -> str:
    return f"{ind.vertex},{ind.power}"


def format_set(cat: ModCategory, members: tuple[int, ...]) -> str:
    """One set per line: '-' for the empty set, else space-joined 'i,u' pairs."""
    if not members:
        return "-"
    return " ".join(_label(cat.indecs[k]) for k in members)


def listing_lines(cat: ModCategory, statistic: Statistic) -> Iterator[str]:
    """Every set the statistic counts as a newline-terminated format_set line,
    in lex order, one string per set, straight from the walk: a line is
    grown label by label along the walk's path, with no join per set."""
    labels = [_label(ind) for ind in cat.indecs]
    walk = _walk(cat, statistic, "", [f"{label} " for label in labels], [f"{label}\n" for label in labels])
    next(walk)  # the empty set, whose path is ""; raises here on an unknown statistic
    return chain(("-\n",), map(itemgetter(0), walk))
