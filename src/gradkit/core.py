"""Canonical graph and digraph containers.

Vertices are the integers 1..n everywhere.  A Graph is a simple undirected
graph stored as symmetric, sorted adjacency tuples only; its edge list is
derived from them on first read and kept.  An ArcListDigraph is the
in-arc list representation: D[v] is a dict from the source of each arc
ending at v to its weight, in insertion order, so "is there an arc
x -> y" is x in D[y] and costs O(1).

Both containers are immutable after construction (no code mutates a
digraph row once it is built; a Graph's edge tuple is written once, to a
value every reader computes alike) and safe to share across threads.
The module also holds the small-graph primitives that the exact oracles
and the counting pipeline share: local_adjacency (the rows of an induced
subgraph over local ids), neighbour_masks, connected_sets (every
connected set of at most k indices of a graph given as neighbour lists,
as a tuple) and induced_radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Edge = tuple[int, int]
EdgeList = Sequence[Sequence[int]]  # raw (u, v) pairs, duplicates allowed


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    adj[v] is the sorted tuple of neighbours of v (adj[0] is unused), and
    the only stored form of the edges.  Equality and hashing compare n, m
    and adj.
    """

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Each edge once as (u, v) with u < v, sorted ascending.

        Read off adj on first access and kept; the algorithms walk adj,
        so a graph that is only searched never builds it.  Two threads
        that race on the first read compute equal tuples.
        """
        adj = self.adj
        return tuple([(u, v) for u in range(1, self.n + 1) for v in adj[u] if v > u])

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

    Loops are dropped and parallel edges are collapsed, and an edge with
    fewer than two entries raises InputError.  One pass over the edges
    fills the neighbour lists, and each list is deduplicated and
    sorted on its own, so the cost is linear in n + len(raw_edges) plus
    the sorting of the lists.
    """
    if n < 0:
        raise InputError(f"vertex count {n} is negative")
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    pair = None
    try:
        for pair in raw_edges:
            u, v = pair[0], pair[1]
            if not (isinstance(u, int) and 1 <= u <= n and isinstance(v, int) and 1 <= v <= n):
                _check_vertex(u, n, f"edge ({u}, {v})")
                _check_vertex(v, n, f"edge ({u}, {v})")
            if u != v:
                rows[u].append(v)
                rows[v].append(u)
    except IndexError:  # the range test comes first, so only a short edge gets here
        raise InputError(f"edge {pair!r} has fewer than two entries") from None
    adj = tuple([tuple(sorted(set(row))) for row in rows])
    return Graph(n=n, m=sum(map(len, adj)) // 2, adj=adj)


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
    keeps the order, so the adjacency tuples come out sorted.
    """
    chosen = set(vertices)
    for v in chosen:
        _check_vertex(v, G.n, "induced_subgraph")
    ids = sorted(chosen)
    adj = tuple(local_adjacency(G, ids))
    return Graph(n=len(ids), m=sum(map(len, adj)) // 2, adj=adj), tuple(ids)


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


def connected_components(G: Graph) -> list[list[int]]:
    """Connected components (sorted vertex lists) of G."""
    seen = [False] * (G.n + 1)
    comps: list[list[int]] = []
    for s in range(1, G.n + 1):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop()
            for w in G.adj[v]:
                if not seen[w]:
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
    adjm = []
    for row in G.adj[1:]:
        mask = 0
        for w in row:
            mask |= 1 << (w - 1)
        adjm.append(mask)
    return adjm


def connected_sets(nbrs: Sequence[Sequence[int]], k: int) -> Iterator[tuple[int, ...]]:
    """Every connected set of at most k indices under nbrs, once, as a tuple.

    nbrs[i] lists the neighbours of index i (not i itself), for i in
    0..len(nbrs) - 1.  This is the ESU enumerator of Wernicke ("Efficient
    detection of network motifs", IEEE/ACM TCBB 2006): the sets whose
    least index is s grow from s, and a set's extension holds the indices
    above s that its children may add.  A child takes one index w of the
    extension, keeps the indices after w, and adds the neighbours of w
    above s outside the closed neighbourhood of the set, so no set is
    reached twice.  Each stack entry is (set, extension, closed
    neighbourhood); a set of k - 1 yields its children from its extension
    without pushing them.  A tuple lists s first, then the indices in the
    order they were added, not sorted.
    """
    for s in range(len(nbrs) if k > 0 else 0):
        yield (s,)
        if k == 1:
            continue
        ext = [u for u in nbrs[s] if u > s]
        stack = [((s,), ext, frozenset(nbrs[s]).union((s,)))]
        while stack:
            T, ext, closed = stack.pop()
            if len(T) == k - 1:
                for w in ext:
                    yield T + (w,)
                continue
            inner = len(T) + 1 < k - 1  # do the children grow children?
            for i, w in enumerate(ext):
                grown = T + (w,)
                yield grown
                new = [u for u in nbrs[w] if u > s and u not in closed]
                stack.append((grown, ext[i + 1 :] + new, closed.union(new) if inner else closed))


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
