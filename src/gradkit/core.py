"""Canonical graph and digraph containers.

Vertices are the integers 1..n everywhere.  A Graph is a simple undirected
graph stored as a normalized edge list plus symmetric adjacency tuples.  An
ArcListDigraph is the in-arc list representation: D[v] is a dict from the
source of each arc ending at v to its weight, in insertion order, so "is
there an arc x -> y" is x in D[y] and costs O(1).

Both containers are immutable after construction (no code mutates a
digraph row once it is built) and safe to share across threads.  The module also holds the small-graph primitives that the exact
oracles and the counting pipeline share: local_adjacency (the rows of an
induced subgraph over local ids), neighbour_masks, connected_sets (every
connected vertex set of a graph given as neighbour bitmasks), bit_indices
and induced_radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Edge = tuple[int, int]
EdgeList = Sequence[Sequence[int]]  # raw (u, v) pairs, duplicates allowed


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    edges holds each edge once as (u, v) with u < v, sorted ascending;
    adj[v] is the sorted tuple of neighbours of v (adj[0] is unused).
    """

    n: int
    m: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        b = self.adj[v]
        return v in a if len(a) <= len(b) else u in b

    def vertices(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class ArcListDigraph:
    """Weighted simple digraph in in-arc list form.

    D[v] maps the source of each arc pointing at v to its weight; weights
    are nonnegative integers, at most one arc per ordered pair and no
    loops.  The rows are read, never mutated.  md is the maximum indegree.
    """

    n: int
    m: int
    D: tuple[dict[int, int], ...]
    md: int

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (source, target, weight), row by row in target order."""
        for v in range(1, self.n + 1):
            for u, w in self.D[v].items():
                yield (u, v, w)


def _check_vertex(x: int, n: int, what: str) -> None:
    if not isinstance(x, int) or not 1 <= x <= n:
        raise InputError(f"{what}: vertex {x!r} out of range 1..{n}")


def build_graph(n: int, raw_edges: EdgeList) -> Graph:
    """Build a simple Graph from a raw edge list.

    Loops are dropped and parallel edges are collapsed.  One pass over the
    edges fills the neighbour lists, each list is deduplicated and sorted
    on its own, and the edge list is read off the sorted lists, so the
    cost is linear in n + len(raw_edges) plus the sorting of the lists.
    """
    if n < 0:
        raise InputError(f"vertex count {n} is negative")
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    for pair in raw_edges:
        u, v = pair[0], pair[1]
        if not (isinstance(u, int) and 1 <= u <= n and isinstance(v, int) and 1 <= v <= n):
            _check_vertex(u, n, f"edge ({u}, {v})")
            _check_vertex(v, n, f"edge ({u}, {v})")
        if u != v:
            rows[u].append(v)
            rows[v].append(u)
    adj = tuple(tuple(sorted(set(row))) for row in rows)
    edges = tuple((u, v) for u in range(1, n + 1) for v in adj[u] if v > u)
    return Graph(n=n, m=len(edges), edges=edges, adj=adj)


def build_digraph(n: int, arcs: Iterable[Sequence[int]]) -> ArcListDigraph:
    """Build an ArcListDigraph from (from, to[, weight]) triples.

    Duplicate ordered pairs are merged keeping the minimum weight; each
    row D[v] lists its arcs in order of first appearance.  Loops are
    rejected.  Omitted weights default to 1.
    """
    if n < 0:
        raise InputError(f"vertex count {n} is negative")
    D: list[dict[int, int]] = [{} for _ in range(n + 1)]
    m = 0
    for arc in arcs:
        u, v = arc[0], arc[1]
        w = arc[2] if len(arc) > 2 else 1
        _check_vertex(u, n, f"arc ({u}, {v})")
        _check_vertex(v, n, f"arc ({u}, {v})")
        if u == v:
            raise InputError(f"arc ({u}, {v}): loops are not allowed")
        if w < 0:
            raise InputError(f"arc ({u}, {v}): negative weight {w}")
        row = D[v]
        old = row.get(u)
        if old is None:
            row[u] = w
            m += 1
        elif w < old:
            row[u] = w
    return ArcListDigraph(
        n=n,
        m=m,
        D=tuple(D),
        md=max((len(row) for row in D), default=0),
    )


def underlying_graph(dg: ArcListDigraph) -> Graph:
    """Forget directions and weights; antiparallel arc pairs become one edge."""
    return build_graph(dg.n, [(u, v) for (u, v, _) in dg.arcs()])


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabelled to 1..k.

    Returns (subgraph, ids) where ids[i-1] is the original id of vertex i.
    The subgraph is read off G.adj, so the cost is the degree sum over the
    given vertices (plus sorting them), not the size of G.  Relabelling
    keeps the order, so the adjacency tuples and the edge list come out
    sorted.
    """
    ids = sorted(set(vertices))
    for v in ids:
        _check_vertex(v, G.n, "induced_subgraph")
    adj = local_adjacency(G, ids)
    edges = tuple((i, j) for i in range(1, len(ids) + 1) for j in adj[i] if j > i)
    return Graph(n=len(ids), m=len(edges), edges=edges, adj=tuple(adj)), tuple(ids)


def local_adjacency(G: Graph, ids: Sequence[int]) -> list[tuple[int, ...]]:
    """Adjacency rows of G[ids] over local ids 1..len(ids), where local id i
    stands for ids[i - 1]; row 0 is empty, as in Graph.adj.

    The rows are read off G.adj, so the cost is the degree sum over ids.
    Each row keeps the order of G.adj, so it is ascending when ids is.
    The ids must be distinct vertices of G.
    """
    index = {v: i for i, v in enumerate(ids, 1)}
    get = index.get
    return [()] + [tuple([j for w in G.adj[v] if (j := get(w))]) for v in ids]


def connected_components(G: Graph, within: Iterable[int] | None = None) -> list[list[int]]:
    """Connected components (sorted vertex lists) of G, or of G[within].

    Every vertex of within must lie in 1..n (InputError otherwise)."""
    if within is None:
        alive = [True] * (G.n + 1)
        universe: Iterable[int] = range(1, G.n + 1)
    else:
        alive = [False] * (G.n + 1)
        chosen = set(within)
        for v in chosen:
            _check_vertex(v, G.n, "connected_components")
            alive[v] = True
        universe = sorted(chosen)
    seen = [False] * (G.n + 1)
    comps: list[list[int]] = []
    for s in universe:
        if seen[s] or not alive[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop()
            for w in G.adj[v]:
                if alive[w] and not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(G: Graph) -> bool:
    """True if one search from vertex 1 reaches all n vertices."""
    if G.n <= 1:
        return True
    adj = G.adj
    seen = [False] * (G.n + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
                reached += 1
    return reached == G.n


def neighbour_masks(G: Graph) -> list[int]:
    """0-based neighbour bitmasks: bit j of adjm[i] is set iff vertices
    i + 1 and j + 1 are adjacent."""
    adjm = [0] * G.n
    for (u, v) in G.edges:
        adjm[u - 1] |= 1 << (v - 1)
        adjm[v - 1] |= 1 << (u - 1)
    return adjm


def connected_sets(adjm: Sequence[int], k: int) -> Iterator[int]:
    """Every nonempty mask of at most k bits that is connected under adjm, once.

    adjm[i] is the neighbour mask of bit i.  This is the ESU enumerator of
    Wernicke ("Efficient detection of network motifs", IEEE/ACM TCBB
    2006): the sets whose lowest bit is s grow from s through neighbours
    above s, and a branch never takes a bit that an earlier sibling branch
    took, so no set is reached twice.  Sets come in depth-first pre-order.
    """
    for s in range(len(adjm) if k > 0 else 0):
        above = -1 << (s + 1)
        stack = [(1 << s, adjm[s] & above, 0, 1)]  # (set, frontier, banned, size)
        while stack:
            S, frontier, banned, size = stack.pop()
            yield S
            if size == k:
                continue
            ext = frontier & ~banned
            while ext:  # highest bit first, so the lowest is popped first
                high = 1 << (ext.bit_length() - 1)
                ext ^= high
                grown = S | high
                reach = (frontier | adjm[high.bit_length() - 1] & above) & ~grown
                stack.append((grown, reach, banned | ext, size + 1))


def bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def induced_radius(G: Graph, vertices: Iterable[int]) -> int | None:
    """Radius of G[vertices]: the least eccentricity of a vertex inside it.

    None if the set is empty or induces a disconnected subgraph.
    """
    ball = set(vertices)
    best = None
    for center in ball:
        dist = {center: 0}
        frontier = [center]
        ecc = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in G.adj[v]:
                    if w in ball and w not in dist:
                        dist[w] = ecc = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != len(ball):
            return None
        if best is None or ecc < best:
            best = ecc
    return best
