"""Rooted forests, their closures, and the forest -> tree-decomposition map.

A rooted forest of height p whose closure contains G immediately gives a
tree-decomposition of width p - 1: keep the forest as the tree, hang its
roots off one node with an empty bag, and let the bag of each vertex be
its root path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Graph, _check_vertex, build_graph
from .errors import InputError


@dataclass(frozen=True)
class RootedForest:
    """parent[v] is v's parent, 0 for roots; height of a root is 1."""

    n: int
    parent: tuple[int, ...]
    roots: tuple[int, ...]
    height: tuple[int, ...]

    @property
    def max_height(self) -> int:
        return max(self.height[1:], default=0)

    def root_path(self, v: int) -> list[int]:
        """Ancestors of v from v up to its root, inclusive."""
        path = [v]
        while self.parent[path[-1]] != 0:
            path.append(self.parent[path[-1]])
        return path


def make_forest(n: int, parent: Mapping[int, int] | Iterable[int]) -> RootedForest:
    """Validate a parent map over 1..n (0 = root) and compute heights."""
    if isinstance(parent, Mapping):
        par = [0] * (n + 1)
        for v, p in parent.items():
            _check_vertex(v, n, "parent map key")
            par[v] = p
    else:
        par = [0] + list(parent)
        if len(par) != n + 1:
            raise InputError(f"parent list must have {n} entries")
    for v in range(1, n + 1):
        if not 0 <= par[v] <= n or par[v] == v:
            raise InputError(f"bad parent {par[v]} for vertex {v}")
    # 0 = not yet resolved, -1 = on the chain being resolved
    height = [0] * (n + 1)
    for v in range(1, n + 1):
        chain = []
        while v and height[v] == 0:
            height[v] = -1
            chain.append(v)
            v = par[v]
        if v and height[v] == -1:
            raise InputError(f"parent structure has a cycle through {v}")
        for u in reversed(chain):
            height[u] = height[par[u]] + 1
    roots = tuple(v for v in range(1, n + 1) if par[v] == 0)
    return RootedForest(n=n, parent=tuple(par), roots=roots, height=tuple(height))


def closure(F: RootedForest) -> Graph:
    """clos(F): every vertex joined to each of its strict ancestors."""
    edges = []
    for v in range(1, F.n + 1):
        u = F.parent[v]
        while u != 0:
            edges.append((u, v))
            u = F.parent[u]
    return build_graph(F.n, edges)


def dfs_parents(adj: Sequence[Sequence[int]]) -> list[int]:
    """Parent list of the depth-first search forest of the graph with rows
    adj over 1..n (adj[0] unused), lowest ids first; 0 marks a root and
    parent[0] is unused.  Every edge joins a vertex to one of its
    ancestors, so the forest is an elimination forest of the graph."""
    n = len(adj) - 1
    parent = [0] * (n + 1)
    seen = [False] * (n + 1)
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = True
        stack: list[tuple[int, int]] = [(s, 0)]  # (vertex, next-neighbour index)
        while stack:
            v, i = stack[-1]
            row = adj[v]
            while i < len(row) and seen[row[i]]:
                i += 1
            if i == len(row):
                stack.pop()
                continue
            stack[-1] = (v, i + 1)
            w = row[i]
            seen[w] = True
            parent[w] = v
            stack.append((w, 0))
    return parent


def dfs_forest(G: Graph) -> RootedForest:
    """Depth-first search forest, deterministic: lowest ids first.

    Every G-edge connects comparable vertices of the result, so
    G is a subgraph of clos(dfs_forest(G)).
    """
    return make_forest(G.n, dfs_parents(G.adj)[1:])


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree on nodes 0..t-1 with a bag of graph vertices per node."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1


def forest_to_decomposition(F: RootedForest) -> TreeDecomposition:
    """Node 0 has an empty bag and node v the root path of v; the tree
    edges are the parent links (F.parent[v], v), so the roots of F hang
    off node 0 and the result is a single tree.

    Valid for clos(F), hence for any graph contained in the closure;
    width is max_height(F) - 1.  Walking the tree from node 0, a vertex is
    the only one its node adds to its parent's bag, so a DP that forgets
    it on leaving that node, as count_on_decomposition does, holds exactly
    the current root path and drops each tree's root before the next tree:
    the same introduce/forget sequence as walking F itself.
    """
    bags = [frozenset()] + [frozenset(F.root_path(v)) for v in range(1, F.n + 1)]
    edges = tuple((F.parent[v], v) for v in range(1, F.n + 1))
    return TreeDecomposition(bags=tuple(bags), tree_edges=edges)


def _tree_parents(T: TreeDecomposition) -> list[int] | None:
    """The parent of each node of T, -1 at node 0, with the tree rooted at
    node 0; None if T's edges are not a tree on the nodes 0..t-1."""
    t = len(T.bags)
    if t == 0 or len(T.tree_edges) != t - 1:
        return None
    node_adj: list[list[int]] = [[] for _ in range(t)]
    for (a, b) in T.tree_edges:
        if not (0 <= a < t and 0 <= b < t):
            return None
        node_adj[a].append(b)
        node_adj[b].append(a)
    parent = [-1] * t
    order = [0]
    seen = [False] * t
    seen[0] = True
    for a in order:
        for b in node_adj[a]:
            if not seen[b]:
                seen[b] = True
                parent[b] = a
                order.append(b)
    return parent if len(order) == t else None  # t - 1 edges, connected: a tree


def validate_decomposition(G: Graph, T: TreeDecomposition) -> bool:
    """Check the two tree-decomposition conditions against G.

    Every G-edge must sit inside some bag, and for each vertex the nodes
    whose bags contain it must induce a connected subtree.  With the tree
    rooted at node 0, a vertex's nodes form one subtree exactly when a
    single node holding it, its top, is the root or has a parent whose bag
    lacks it.  Then an edge uv lies in some bag exactly when v is in the
    bag of u's top or u in the bag of v's top: the deeper of the two tops
    lies on the tree path between the other and a node holding both.
    """
    if not T.bags:
        return G.n == 0
    parent = _tree_parents(T)
    if parent is None:
        return False
    top = [-1] * (G.n + 1)
    for i, bag in enumerate(T.bags):
        above = T.bags[parent[i]] if parent[i] >= 0 else ()
        for v in bag:
            if not 1 <= v <= G.n:
                return False
            if v not in above:
                if top[v] >= 0:
                    return False  # a second top: v's nodes are not one subtree
                top[v] = i
    if -1 in top[1:]:
        return False  # every vertex must appear somewhere
    # the edges are read off adj, so no edge tuple is built
    bags = T.bags
    return all(
        v in bags[top[u]] or u in bags[top[v]]
        for u, row in enumerate(G.adj)
        for v in row
        if v > u
    )
