"""Counting, listing and deciding small-pattern containment.

The host graph is coloured so that any h colour classes induce a subgraph
of tree-depth at most h.  A copy of a connected pattern on h vertices
meets at most h colour classes, connected in the colour quotient graph
(colours adjacent when some host edge joins their classes), and those
classes hold at least h vertices.  So only connected colour sets are
visited, each once, as tuples of at most h class indices from the list
enumerator core.connected_sets, so a set costs time in h, not in the
number of colours.  A set whose length shows its classes too small to
hold h vertices, or, with a restriction S, holding no class of S, is
dropped before any vertex list is built.  The union of a visited set's
classes is read off the class lists and the host adjacency.  An
introduce/forget dynamic program walks the union's elimination forest
and counts the copies, or the induced copies, in it.  A union of exactly
h vertices (every union, when each colour class is one vertex) is a
labelled graph on h local ids, keyed by one bit per pair of them; one
count or containment call keeps a table from those keys to the DP's
result, so each distinct labelled union is counted once, and its rows
are built only on a miss.  The count depends on the labelled graph
alone, not on the forest or the colours, so the table is exact; it lives
only for that call.  Counting turns the per-union counts into
counts per exact colour set by a Moebius pass, so every copy is counted
once; the copies meeting a vertex set S are count(union) - count(union -
S) on each union that meets S.  Deciding containment stops at the first
union holding a copy; homomorphism is decided on the pattern's quotients.
Listing outputs every copy, so colour sets save it no work: it enumerates
each embedding once over the whole host.  Model search runs the same
enumerator with induced checks, over all n host vertices per component.

"Copy" means a distinct subgraph of the host isomorphic to the pattern:
injective homomorphisms divided by the pattern's automorphism count, which
is the number of embeddings the enumerator finds of the pattern in itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .coloring import Coloring, centered_parents, color_classes, low_tdepth_coloring
from .core import Graph, _check_vertex, build_graph, connected_sets, is_connected, local_adjacency
from .errors import DomainError, InputError, NotCenteredError, PatternError
from .forests import TreeDecomposition, _tree_parents, dfs_parents, validate_decomposition

DEFAULT_PATTERN_LIMIT = 5

Copy = tuple[tuple[int, ...], frozenset[frozenset[int]]]


@dataclass(frozen=True)
class Pattern:
    graph: Graph
    aut_count: int


def make_pattern(H: Graph, *, limit: int = DEFAULT_PATTERN_LIMIT) -> Pattern:
    """Wrap a connected pattern graph of order <= limit."""
    if H.n < 1:
        raise PatternError("pattern must have at least one vertex")
    if H.n > limit:
        raise PatternError(f"pattern order {H.n} exceeds the limit {limit}")
    if not is_connected(H):
        raise PatternError("disconnected patterns are not supported")
    return Pattern(graph=H, aut_count=sum(1 for _ in _embeddings(H.adj, H)))


@dataclass
class CountReport:
    """total copies, split by the exact colour set each copy occupies."""

    total: int
    by_color_subset: dict[frozenset[int], int]


def _copies(
    adj: Sequence[Sequence[int]], events: Sequence[int], pat: Pattern, induced: bool = False
) -> int:
    """Count distinct copies of pat in the graph with rows adj (adj[0]
    unused) by the introduce/forget DP over events: v > 0 introduces v and
    -v forgets it; with induced, only induced copies count.

    States are partial injective maps from pattern vertices to introduced
    vertices, extended with a done marker for vertices already embedded in
    forgotten ones; the final tally is divided by |Aut(pat)|.  An edge of
    the pattern is checked when its second end is mapped, so every graph
    edge must join two vertices that are introduced together at some
    point: the events must be a walk of an elimination forest (enter v,
    its subtrees, leave v) or of a tree decomposition of the graph, each
    vertex introduced once.  A state with more unmapped pattern vertices
    than introductions still to come is dropped.  Non-edges (with induced)
    are checked against live images only, so they need the walk of an
    elimination forest: a forgotten vertex lies in a finished subtree, not
    adjacent to the vertex being introduced.
    """
    h = pat.graph.n
    hadj = [[w - 1 for w in pat.graph.adj[x + 1]] for x in range(h)]
    if induced:  # the pattern's non-neighbours; built only when checked
        non = [[y for y in range(h) if y != x and y not in hadj[x]] for x in range(h)]
    UNSEEN, DONE = 0, -1
    states: dict[tuple[int, ...], int] = {(UNSEEN,) * h: 1}
    left = sum(u > 0 for u in events)
    for u in events:
        new: dict[tuple[int, ...], int] = {}
        if u > 0:
            # every extended state holds u once, at its own x: all distinct
            left -= 1
            near = set(adj[u])
            for state, cnt in states.items():
                if state.count(UNSEEN) <= left:
                    new[state] = cnt
                for x in range(h):
                    if state[x] != UNSEEN:
                        continue
                    for y in hadj[x]:
                        img = state[y]
                        if img > 0 and img not in near:
                            break
                    else:
                        if induced and any(state[y] in near for y in non[x]):
                            continue
                        new[state[:x] + (u,) + state[x + 1 :]] = cnt
        else:
            u = -u
            for state, cnt in states.items():
                if u in state:
                    x = state.index(u)
                    for y in hadj[x]:
                        if state[y] == UNSEEN:
                            break  # an edge at x could never be verified: dead branch
                    else:
                        state = state[:x] + (DONE,) + state[x + 1 :]
                        new[state] = new.get(state, 0) + cnt
                else:
                    new[state] = new.get(state, 0) + cnt
        states = new
    embeddings = states.get((DONE,) * h, 0)
    if embeddings % pat.aut_count:
        raise AssertionError("embedding count not divisible by automorphism count")
    return embeddings // pat.aut_count


def _forest_walk(parent: Sequence[int]) -> list[int]:
    """The events of a depth-first walk of the forest with this parent
    list (0 for a root, parent[0] unused), children in ascending order:
    v on entering v, -v on leaving it."""
    children: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    events = []
    stack = children[0][::-1]
    while stack:
        v = stack.pop()
        events.append(v)
        if v > 0:
            stack.append(-v)
            stack += children[v][::-1]
    return events


def count_on_decomposition(G_part: Graph, T: TreeDecomposition, H: Pattern | Graph) -> int:
    """Count distinct copies of H in G_part by DP over the decomposition.

    The traversal starts at node 0; entering a node introduces the
    vertices its bag adds to its parent's, and leaving it forgets them, so
    the DP runs on the union of the bags along the tree path from node 0,
    not on each bag alone.  The count is exact either way; only the number
    of states grows.  For forest_to_decomposition(F) that union is the
    node's own bag: node 0 is empty and carries the roots of F as
    children, so the events are those of walking F itself.  Raises
    DomainError if T is wider than 32 or not a valid decomposition.
    """
    pat = H if isinstance(H, Pattern) else make_pattern(H)
    if T.width > 32:
        raise DomainError(f"decomposition width {T.width} exceeds the limit 32")
    if not validate_decomposition(G_part, T):
        raise DomainError("decomposition is not valid for this graph")
    if G_part.n == 0 or pat.graph.n > G_part.n:
        return 0

    parent_node = _tree_parents(T)
    intro = [
        sorted(bag - T.bags[p] if p >= 0 else bag) for bag, p in zip(T.bags, parent_node)
    ]

    # walk the tree of nodes as a forest on 1..t, node i being i + 1
    events: list[int] = []
    for a in _forest_walk([0] + [p + 1 for p in parent_node]):
        events += intro[a - 1] if a > 0 else [-u for u in reversed(intro[-a - 1])]
    return _copies(G_part.adj, events, pat)


def _count_in_union(
    G: Graph,
    verts: list[int],
    colors: Sequence[int],
    pat: Pattern,
    table: dict[int, int],
    induced: bool = False,
) -> int:
    """Count copies of pat (induced ones, with induced) in G[verts], for
    distinct vertices verts in any order; 0 when verts has fewer than h.

    The union's rows over local ids come from local_adjacency, its
    elimination forest from centered_parents on the colours, and the DP
    walks that forest; no subgraph object is built.  A colouring centered
    on a union stays centered on every induced subgraph of it, a union
    minus S included: a connected set holds the lowest common ancestor of
    its vertices in the union's forest, whose colour is unique in its
    subtree.  low_tdepth_coloring(G, h + 1) is centered on every union of
    at most h colours, so only a colouring the caller supplied can fail
    here; the forest is then a DFS forest, always an elimination forest.

    A union of exactly h vertices is looked up in table, the caller's
    dict for one count with one pattern and one induced flag.  Its key
    has one bit per pair a < b of positions in verts, ordered by b and
    then a, set when verts[a] and verts[b] are adjacent: the labelled
    graph on h ids, whose count does not depend on the forest or the
    colours, so a hit is exact.  The table holds at most 2^(h(h-1)/2)
    entries, a key with fewer set bits than pat has edges holds no copy,
    and rows and the DP are built only on a miss.  Larger unions bypass
    the table.
    """
    h = pat.graph.n
    n = len(verts)
    if n < h:
        return 0
    key = None
    if n == h:
        key, bit = 0, 1
        for b in range(1, h):
            row = G.adj[verts[b]]
            for u in verts[:b]:
                if u in row:
                    key |= bit
                bit <<= 1
        if key.bit_count() < pat.graph.m:
            return 0
        if key in table:
            return table[key]
    adj = local_adjacency(G, verts)
    if key is None and sum(map(len, adj)) < 2 * pat.graph.m:
        return 0
    try:
        parent = centered_parents(adj, [0] + [colors[v] for v in verts])
    except NotCenteredError:
        parent = dfs_parents(adj)
    k = _copies(adj, _forest_walk(parent), pat, induced)
    if key is not None:
        table[key] = k
    return k


def _hosting_unions(
    classes: list[list[int]],
    quotient: list[tuple[int, ...]],
    h: int,
    s_classes: set[int] | None = None,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(C, union of the classes of C) for every colour set C of at most h
    colours, connected in the quotient, that can hold a copy of a
    connected h-vertex pattern meeting the classes s_classes (any class by
    default); C is a tuple of class indices of color_classes from
    core.connected_sets, and the union lists its classes in C's order.

    The test reads C alone, before any vertex list is built.  A union of
    fewer than h vertices holds no copy: so C is skipped when its colours
    times the largest class size fall short of h, or when all its classes
    are single vertices and it has fewer than h colours.  A union meets a
    vertex set S exactly when C holds the class of a vertex of S, so with
    s_classes those classes, a C disjoint from them is skipped.
    """
    largest = max(map(len, classes), default=0)
    multi = {i for i, cls in enumerate(classes) if len(cls) > 1}
    for C in connected_sets(quotient, h):
        size = len(C)
        if size * largest < h or (size < h and multi.isdisjoint(C)):
            continue
        if s_classes is not None and s_classes.isdisjoint(C):
            continue
        yield C, [v for i in C for v in classes[i]]


def _contains(G: Graph, pat: Pattern, col: Coloring, induced: bool) -> bool:
    """Does G hold a copy of pat (an induced one, with induced)?  A copy
    lies in the union of its own colour set, one of the unions
    _hosting_unions yields, and is induced in G iff it is induced in that
    union, so the scan stops at the first union whose count is positive."""
    _, classes, quotient = color_classes(G, col)
    table: dict[int, int] = {}
    return any(
        _count_in_union(G, verts, col.colors, pat, table, induced)
        for _, verts in _hosting_unions(classes, quotient, pat.graph.n)
    )


def _exact_counts(
    G: Graph, pat: Pattern, col: Coloring, S: frozenset[int] | None = None
) -> dict[frozenset[int], int]:
    """Nonzero copy counts (of copies meeting S, if given) per exact colour
    set.

    Only the colour sets _hosting_unions yields are visited: the colours
    of a copy of a connected pattern are connected in the quotient, their
    classes hold at least h vertices, and with S they hold a colour of S.
    A union's count is the sum of the exact counts of the colour sets
    inside it, so a Moebius pass in order of size gives exact[C] =
    count(union of C) - sum of exact[C'] over the proper subsets C' of C,
    run on sorted tuples of class indices, the subsets taken with
    itertools.combinations; a skipped colour set holds no copy and has no
    entry.  No set below the least size with an entry has one, so a set
    walks only its subsets of at least that size, and a set of that size
    walks none: under the all-distinct colouring every entry has h
    colours, no walk runs at all, and the tuples are left unsorted.  With
    S, each union contributes count(union) - count(union - S), the copies
    in it that meet S.  A union with no copy has no entry: neither has any
    colour set inside it.
    """
    used, classes, quotient = color_classes(G, col)
    colors = col.colors
    s_classes = None
    if S is not None:
        index = {c: i for i, c in enumerate(used)}
        s_classes = {index[colors[v]] for v in S}
    table: dict[int, int] = {}
    exact: dict[tuple[int, ...], int] = {}  # union counts, made exact in place below
    for C, verts in _hosting_unions(classes, quotient, pat.graph.n, s_classes):
        k = _count_in_union(G, verts, colors, pat, table)
        if S is not None:
            k -= _count_in_union(G, [v for v in verts if v not in S], colors, pat, table)
        if k:
            exact[C] = k
    least = min(map(len, exact), default=0)
    if any(len(C) > least for C in exact):  # some set walks its subsets
        exact = {tuple(sorted(C)): k for C, k in exact.items()}
        for C in sorted(exact, key=len):
            if len(C) > least:
                exact[C] -= sum(
                    exact.get(sub, 0) for r in range(least, len(C)) for sub in combinations(C, r)
                )
    return {frozenset([used[i] for i in C]): k for C, k in exact.items() if k}


def _check_restriction(G: Graph, S: frozenset[int] | None) -> None:
    """Raise InputError if S has a vertex outside 1..n."""
    for v in S or ():
        _check_vertex(v, G.n, "restriction set")


def _prepare(
    G: Graph, H: Pattern | Graph, S: frozenset[int] | None, coloring: Coloring | None
) -> tuple[Pattern, Coloring]:
    """The pattern and the host colouring, after checking S and the length
    of a given colouring."""
    pat = H if isinstance(H, Pattern) else make_pattern(H)
    _check_restriction(G, S)
    if coloring is None:
        return pat, low_tdepth_coloring(G, pat.graph.n + 1)
    if len(coloring.colors) != G.n + 1:
        raise InputError(
            f"coloring has {len(coloring.colors) - 1} vertex entries, the host has {G.n}"
        )
    return pat, coloring


def count_isomorphs(
    G: Graph,
    H: Pattern | Graph,
    S: frozenset[int] | None = None,
    *,
    coloring: Coloring | None = None,
) -> CountReport:
    """Count distinct copies of H in G, optionally only those meeting S.

    The report splits the total by the exact colour set of each copy.
    Vertices of S outside 1..n, and a coloring whose length is not n + 1,
    raise InputError.
    """
    pat, col = _prepare(G, H, S, coloring)
    exact = _exact_counts(G, pat, col, S)
    return CountReport(total=sum(exact.values()), by_color_subset=exact)


def _embeddings(
    adj: Sequence[Sequence[int]], H: Graph, induced: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield every injective embedding of H into the graph with rows adj
    (adj[0] unused) as an image tuple indexed by pattern vertex - 1; with
    induced, only those whose image induces exactly H.

    Pattern vertices are placed in BFS order, one component after another.
    A vertex with an earlier neighbour takes its candidates from the row of
    that neighbour's image and must be adjacent to the images of all its
    earlier neighbours; a component's first vertex takes every vertex of
    the graph.  With induced, a candidate adjacent to the image of an
    earlier non-neighbour is rejected too.
    """
    h = H.n
    order: list[int] = []
    for r in range(1, h + 1):
        if r not in order:
            order.append(r)
            for x in order:  # grows as it is walked: a BFS of r's component
                order += [y for y in H.adj[x] if y not in order]
    nbrs = [[y for y in order[:i] if y in H.adj[x]] for i, x in enumerate(order)]
    non = [[y for y in order[:i] if y not in H.adj[x]] for i, x in enumerate(order)]
    gadj = [set(a) for a in adj]
    img = [0] * (h + 1)
    used: set[int] = set()

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == h:
            yield tuple(img[1:])
            return
        anchors = nbrs[i]
        for u in adj[img[anchors[0]]] if anchors else range(1, len(adj)):
            if u in used or any(u not in gadj[img[y]] for y in anchors):
                continue
            if induced and any(u in gadj[img[y]] for y in non[i]):
                continue
            img[order[i]] = u
            used.add(u)
            yield from rec(i + 1)
            used.discard(u)

    yield from rec(0)


def list_isomorphs(
    G: Graph, H: Pattern | Graph, S: frozenset[int] | None = None
) -> tuple[Copy, ...]:
    """Every copy (meeting S, if given) exactly once, in sorted order.

    A copy is (sorted vertex tuple, edge set).  Listing must output every
    copy, so it needs no colouring: it enumerates each embedding once over
    the whole host and keeps those meeting S, at a cost of |Aut(H)| x
    copies plus the partial embeddings that fail.  Vertices of S outside
    1..n raise InputError.
    """
    pat = H if isinstance(H, Pattern) else make_pattern(H)
    _check_restriction(G, S)
    edges = pat.graph.edges
    found: set[Copy] = set()
    for img in _embeddings(G.adj, pat.graph):
        if S is None or not S.isdisjoint(img):
            found.add(
                (
                    tuple(sorted(img)),
                    frozenset(frozenset((img[a - 1], img[b - 1])) for (a, b) in edges),
                )
            )
    return tuple(sorted(found, key=lambda c: (c[0], sorted(tuple(sorted(e)) for e in c[1]))))


def _set_partitions(items: list[int]):
    """All partitions of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def decide_containment(G: Graph, H: Pattern | Graph, mode: str) -> bool:
    """Decide hom / subgraph / induced-subgraph containment of H in G.

    G is coloured once with low_tdepth_coloring(G, h + 1).  Subgraph and
    induced mode are one scan of the connected colour-set unions that stops
    at the first union holding a copy.  H maps into G iff some quotient of
    H by independent sets is a subgraph of G, so hom mode scans each one.
    """
    pat = H if isinstance(H, Pattern) else make_pattern(H)
    h = pat.graph.n
    if mode not in ("hom", "subgraph", "induced"):
        raise DomainError(f"unknown containment mode {mode!r}")
    col = low_tdepth_coloring(G, h + 1)
    if mode != "hom":
        return _contains(G, pat, col, mode == "induced")
    for part in _set_partitions(list(range(1, h + 1))):
        idx = {u: i for i, b in enumerate(part, start=1) for u in b}
        if any(idx[u] == idx[v] for (u, v) in pat.graph.edges):
            continue
        qedges = {tuple(sorted((idx[u], idx[v]))) for (u, v) in pat.graph.edges}
        Q = build_graph(len(part), sorted(qedges))
        if _contains(G, make_pattern(Q, limit=h), col, False):
            return True
    return False


@lru_cache(maxsize=8)
def _iso_classes(p: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs with <= p
    vertices, sorted by order, size and edges.

    Each graph on 1..q is kept unless a kept one of the same order and
    size takes an embedding of it: with equal order and size, an embedding
    is an isomorphism.
    """
    reps: dict[tuple[int, int], list[Graph]] = {}
    for q in range(1, p + 1):
        pairs = [(u, v) for u in range(1, q + 1) for v in range(u + 1, q + 1)]
        for bits in range(1 << len(pairs)):
            M = build_graph(q, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            same = reps.setdefault((q, M.m), [])
            if all(next(_embeddings(R.adj, M), None) is None for R in same):
                same.append(M)
    return tuple(sorted((M for ms in reps.values() for M in ms), key=lambda M: (M.n, M.m, M.edges)))


def exists_small_model(G: Graph, p: int, pred) -> frozenset[int] | None:
    """Nonempty witness X with |X| <= p and pred(G[X]), or None.

    pred must be isomorphism-invariant: it is evaluated once per
    isomorphism class of graphs with at most p vertices, and each class
    satisfying it is searched for as an induced subgraph by the listing
    enumerator, which backtracks over all n host vertices for the first
    vertex of each component of the class.
    """
    if p < 1:
        raise DomainError(f"size bound must be >= 1, got {p}")
    if p > DEFAULT_PATTERN_LIMIT:
        raise PatternError(f"size bound {p} exceeds the pattern limit {DEFAULT_PATTERN_LIMIT}")
    for M in _iso_classes(p):
        if not pred(M):
            continue
        for img in _embeddings(G.adj, M, induced=True):
            return frozenset(img)
    return None

