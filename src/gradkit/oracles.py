"""Brute-force oracles used to check the fast algorithms.

Everything here is deliberately naive: plain BFS tables, subset
enumeration, connected-set growth one neighbour at a time, permutation
search, candidate lists, a full augmentation step, plain root recursion
for tree-depth (brute_treedepth), exact tree-depth per union of colour
classes.  Beyond the Graph and ArcListDigraph containers, the checkers
share a few helpers with the code they check: is_centered and
is_p_centered walk the connected vertex sets from core.connected_sets,
and they and longest_path read the graph as core.neighbour_masks;
brute_low_tdepth runs treedepth_decide on core.induced_subgraph;
naive_step orients its new fraternity edges with build_graph and orient,
where the step it checks reads the peeling order alone.  Every other
checker uses no core helper.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations, product

from .coloring import Coloring
from .core import (
    ArcListDigraph, Graph, build_graph, connected_sets, induced_subgraph, neighbour_masks
)
from .errors import SizeLimitError
from .orientation import orient
from .treedepth import treedepth_decide

INF = -1  # sentinel for "unreachable" in distance tables
CERTIFY_LIMIT = 20  # order above which the colouring checkers refuse
_TREEDEPTH_LIMIT = 12  # order above which brute_treedepth refuses


def bfs_distances(G: Graph, source: int) -> list[int]:
    """Distances from source; dist[0] unused, INF where unreachable."""
    dist = [INF] * (G.n + 1)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in G.adj[v]:
                if dist[w] == INF:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_all_pairs(G: Graph) -> list[list[int]]:
    """Full distance table; table[x][y] is INF when disconnected."""
    table = [[INF] * (G.n + 1)]
    for x in range(1, G.n + 1):
        table.append(bfs_distances(G, x))
    return table


def _plain_connected(G: Graph) -> bool:
    """Is G connected?  A plain search from vertex 1; the empty graph is."""
    seen = {1} if G.n else set()
    todo = list(seen)
    while todo:
        for w in G.adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == G.n


def _connected_vertex_sets(G: Graph, h: int) -> set[frozenset[int]]:
    """Every set of h vertices of G that induces a connected subgraph,
    grown one neighbour at a time from single vertices, duplicates merged
    in a set."""
    level = {frozenset((v,)) for v in range(1, G.n + 1)}
    for _ in range(h - 1):
        level = {S | {w} for S in level for v in S for w in G.adj[v] if w not in S}
    return level


def brute_copies(G: Graph, H: Graph) -> list[tuple[tuple[int, ...], frozenset[frozenset[int]]]]:
    """All distinct subgraph copies of H in G, by exhaustive enumeration.

    A copy is (sorted vertex tuple, set of image edges).  Tries every
    bijection onto every candidate vertex set: for a connected H, the
    connected h-sets of G, since a copy of H spans a connected set; for a
    disconnected H, every h-subset of V(G).
    """
    h = H.n
    if h > G.n:
        return []
    if h and _plain_connected(H):
        subsets = [tuple(sorted(S)) for S in _connected_vertex_sets(G, h)]
    else:
        subsets = combinations(range(1, G.n + 1), h)
    copies = set()
    gedges = {frozenset(e) for e in G.edges}
    for subset in subsets:
        for perm in permutations(subset):
            imgs = [
                frozenset((perm[u - 1], perm[v - 1])) for (u, v) in H.edges
            ]
            if all(e in gedges for e in imgs):
                copies.add((subset, frozenset(imgs)))
    return sorted(copies, key=lambda c: (c[0], sorted(tuple(sorted(e)) for e in c[1])))


def brute_count(G: Graph, H: Graph) -> int:
    """Number of distinct subgraph copies of H in G."""
    return len(brute_copies(G, H))


def brute_count_hitting(G: Graph, H: Graph, S: frozenset[int]) -> int:
    return sum(1 for (verts, _) in brute_copies(G, H) if any(v in S for v in verts))


def brute_aut_count(H: Graph) -> int:
    """|Aut(H)|: the permutations of V(H) that map every edge to an edge."""
    edges = {frozenset(e) for e in H.edges}
    count = 0
    for perm in permutations(range(1, H.n + 1)):
        if all(frozenset((perm[u - 1], perm[v - 1])) in edges for (u, v) in H.edges):
            count += 1
    return count


def longest_path(G: Graph) -> int:
    """Order of the longest path in G (exponential: n <= ~14)."""
    if G.n == 0:
        return 0
    n = G.n
    adjm = neighbour_masks(G)
    # layer[mask ending at v]: grow paths one vertex at a time
    current = {(1 << v, v) for v in range(n)}
    best = 1
    while current:
        nxt = set()
        for (mask, v) in current:
            ext = adjm[v] & ~mask
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                nxt.add((mask | low, w))
        if nxt:
            best += 1
        current = nxt
    return best


def brute_treedepth(G: Graph) -> int:
    """Tree-depth by plain root recursion: td of a connected set is 1 + the
    least, over its vertices v, of the largest td of a component left by v.

    Memoised on vertex masks (bit v for vertex v); exponential, so orders
    above 12 raise SizeLimitError.
    """
    if G.n > _TREEDEPTH_LIMIT:
        raise SizeLimitError(
            f"graph order {G.n} exceeds the brute tree-depth limit {_TREEDEPTH_LIMIT}"
        )

    def components(mask: int) -> list[int]:
        comps = []
        while mask:
            seed = (mask & -mask).bit_length() - 1
            comp, stack = 1 << seed, [seed]
            while stack:
                for w in G.adj[stack.pop()]:
                    if mask >> w & 1 and not comp >> w & 1:
                        comp |= 1 << w
                        stack.append(w)
            comps.append(comp)
            mask &= ~comp
        return comps

    memo: dict[int, int] = {}

    def td(comp: int) -> int:
        if comp not in memo:
            memo[comp] = 1 + min(
                max((td(c) for c in components(comp & ~(1 << v))), default=0)
                for v in range(1, G.n + 1) if comp >> v & 1
            )
        return memo[comp]

    return max((td(c) for c in components(((1 << G.n) - 1) << 1)), default=0)


def brute_has_hom(G: Graph, H: Graph) -> bool:
    """Does H admit a homomorphism into G?  Tries every vertex map."""
    if H.n == 0:
        return True
    if G.n == 0:
        return False
    for img in product(range(1, G.n + 1), repeat=H.n):
        if all(G.has_edge(img[u - 1], img[v - 1]) for (u, v) in H.edges):
            return True
    return False


def brute_has_subgraph(G: Graph, H: Graph) -> bool:
    if H.n > G.n:
        return False
    for subset in combinations(range(1, G.n + 1), H.n):
        for perm in permutations(subset):
            if all(G.has_edge(perm[u - 1], perm[v - 1]) for (u, v) in H.edges):
                return True
    return False


def brute_has_induced(G: Graph, H: Graph) -> bool:
    if H.n > G.n:
        return False
    hedges = {frozenset(e) for e in H.edges}
    for subset in combinations(range(1, G.n + 1), H.n):
        for perm in permutations(subset):
            ok = True
            for u in range(1, H.n + 1):
                for v in range(u + 1, H.n + 1):
                    want = frozenset((u, v)) in hedges
                    if G.has_edge(perm[u - 1], perm[v - 1]) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def _centered_everywhere(G: Graph, coloring: Coloring, p: int | None) -> bool:
    """Every connected vertex set has a colour occurring once in it, or
    (with p) at least p distinct colours.  A connected subgraph violates
    the condition iff its vertex set does, so the sets are enough."""
    if G.n > CERTIFY_LIMIT:
        raise SizeLimitError(f"graph order {G.n} exceeds the certification limit {CERTIFY_LIMIT}")
    colors = coloring.colors
    for S in connected_sets(neighbour_masks(G), G.n):
        counts = Counter(colors[i + 1] for i in range(G.n) if S >> i & 1)
        if 1 not in counts.values() and (p is None or len(counts) < p):
            return False
    return True


def is_centered(G: Graph, coloring: Coloring) -> bool:
    """Every connected subgraph has a uniquely occurring colour (exhaustive)."""
    return _centered_everywhere(G, coloring, None)


def is_p_centered(G: Graph, coloring: Coloring, p: int) -> bool:
    """Unique colour or at least p distinct colours, in every connected subgraph."""
    if p <= 1:
        return True
    return _centered_everywhere(G, coloring, p)


def brute_low_tdepth(G: Graph, coloring: Coloring, p: int) -> bool:
    """Every union of i <= p - 1 colour classes, connected or not, induces
    a subgraph of tree-depth at most i (exact tree-depth per union)."""
    if G.n > CERTIFY_LIMIT:
        raise SizeLimitError(f"graph order {G.n} exceeds the certification limit {CERTIFY_LIMIT}")
    by_color: dict[int, list[int]] = {}
    for v in range(1, G.n + 1):
        by_color.setdefault(coloring.colors[v], []).append(v)
    for i in range(1, p):
        for chosen in combinations(by_color.values(), i):
            sub, _ = induced_subgraph(G, [v for vs in chosen for v in vs])
            if not treedepth_decide(sub, i):
                return False
    return True


def transitivity_arcs(dg: ArcListDigraph) -> list[tuple[int, int, int]]:
    """Candidate arcs (x, v, w(x,u)+w(u,v)) for arc pairs x -> u -> v, x != v.

    Duplicates are allowed; there are at most md(dg)^2 * n candidates.
    """
    D = dg.D
    return [
        (x, v, w1 + w2)
        for v in range(1, dg.n + 1)
        for (u, w1) in D[v].items()
        for (x, w2) in D[u].items()
        if x != v
    ]


def fraternity_edges(dg: ArcListDigraph) -> list[tuple[int, int, int]]:
    """Candidate edges (x, y, w(x,v)+w(y,v)), x < y, for arc pairs into a common v."""
    return [
        (min(x, y), max(x, y), wx + wy)
        for row in dg.D
        for (x, wx), (y, wy) in combinations(row.items(), 2)
    ]


def naive_step(
    dg: ArcListDigraph, drop_above: int | None
) -> tuple[ArcListDigraph, tuple[int, int, int]]:
    """One full augmentation step, the reference for augmentation._step.

    Regenerates every transitivity candidate and every fraternity pair of
    dg, then orients the new fraternity edges as the step does.  Returns
    the digraph and (transitivity_added, fraternity_added,
    fraternity_delta_max).
    """
    n = dg.n
    old = dg.D
    rows = [dict(row) for row in old]
    cap = math.inf if drop_above is None else drop_above

    trans_added = 0
    for v in range(1, n + 1):
        row = rows[v]
        for u, w1 in old[v].items():
            for x, w2 in old[u].items():
                w = w1 + w2
                if x == v or w > cap:
                    continue
                cur = row.get(x)
                if cur is None:
                    row[x] = w
                    trans_added += 1
                elif w < cur:
                    row[x] = w

    frat: dict[tuple[int, int], int] = {}
    for row in old:
        for (x, wx), (y, wy) in combinations(row.items(), 2):
            w = wx + wy
            key = (min(x, y), max(x, y))
            if w <= cap and frat.get(key, w + 1) > w:
                frat[key] = w

    leftover: list[tuple[int, int]] = []
    for (x, y), w in frat.items():
        if x in rows[y] or y in rows[x]:
            if rows[y].get(x, w) > w:
                rows[y][x] = w
            if rows[x].get(y, w) > w:
                rows[x][y] = w
        else:
            leftover.append((x, y))

    frat_delta_max = 0
    if leftover:
        fdg, forder = orient(build_graph(n, leftover))
        frat_delta_max = forder.delta_max
        for (src, dst, _) in fdg.arcs():
            rows[dst][src] = frat[(min(src, dst), max(src, dst))]

    new = ArcListDigraph(
        n=n,
        m=sum(len(row) for row in rows),
        D=tuple(rows),
        md=max((len(row) for row in rows), default=0),
    )
    return new, (trans_added, len(leftover), frat_delta_max)

