"""Low tree-depth colorings: the generating pipeline, its certificate and
the elimination forest of a centered coloring.

A coloring is centered when every connected subgraph has a colour that
appears exactly once in it, and p-centered when every connected subgraph
either has such a colour or sees at least p distinct colours.  Restricting
a p-centered coloring to any i <= p - 1 colour classes leaves a centered
coloring with i colours, so those classes induce a subgraph of tree-depth
at most i; that induced-tree-depth property is the certificate this module
checks, at every input size, since it is exactly what the downstream
consumers rely on.  The exhaustive checkers are test oracles in
gradkit.oracles.

The generator is verify-and-retry: augment the graph, colour the
augmentation greedily in reverse degeneracy order, certify, and double the
number of augmentation steps on failure.  The all-distinct coloring is an
always-valid fallback, so termination is unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Graph, bit_indices, connected_sets, local_adjacency, underlying_graph
from .augmentation import augment
from .errors import DomainError, NotCenteredError
from .forests import RootedForest, make_forest
from .orientation import degeneracy_order


@dataclass(frozen=True)
class Coloring:
    """colors[v] in 1..num_colors for every vertex v (colors[0] unused)."""

    colors: tuple[int, ...]
    num_colors: int


def centered_parents(adj: Sequence[Sequence[int]], colors: Sequence[int]) -> list[int]:
    """Parent list of the elimination forest of a centered colouring.

    adj holds the rows of a graph on 1..n (adj[0] unused) and colors[v]
    the colour of v.  Per component, the root is the vertex of the lowest
    colour occurring exactly once; recursion continues on the component
    minus its root.  parent[v] is 0 for a root (parent[0] is unused).
    Raises NotCenteredError at a component where no colour occurs once.

    Each component is searched once, with a stamp per search instead of a
    fresh visited array, so the cost is the size of the components summed
    over the levels of the forest: linear for a bounded number of colours.
    Height is bounded by the number of distinct colours in a component.
    """
    n = len(adj) - 1
    parent = [0] * (n + 1)
    # mark[v] < stamp: v is not reached yet by the current search.  There
    # is one search per root plus the first, so no stamp reaches placed.
    placed = n + 2
    mark = [0] * (n + 1)
    stamp = 0
    todo: list[tuple[list[int], int]] = []

    def split(verts: Iterable[int], par: int) -> None:
        """Push the components of the unplaced part of verts, which must be
        a union of components of the unplaced vertices; singletons are
        placed at once under par."""
        nonlocal stamp
        stamp += 1
        comps = []
        for s in verts:
            if mark[s] >= stamp:
                continue
            mark[s] = stamp
            comp = [s]
            for v in comp:
                for w in adj[v]:
                    if mark[w] < stamp:
                        mark[w] = stamp
                        comp.append(w)
            if len(comp) == 1:
                parent[s] = par
                mark[s] = placed
            else:
                comps.append((comp, par))
        todo.extend(reversed(comps))

    split(range(1, n + 1), 0)
    while todo:
        comp, par = todo.pop()
        cs = [colors[v] for v in comp]
        seen: set[int] = set()
        again: set[int] = set()
        for c in cs:
            if c in seen:
                again.add(c)
            else:
                seen.add(c)
        root_color = min(seen - again, default=None)
        if root_color is None:
            comp.sort()
            raise NotCenteredError(
                f"no uniquely occurring colour in component {comp[:8]}..."
                if len(comp) > 8
                else f"no uniquely occurring colour in component {comp}"
            )
        root = comp[cs.index(root_color)]
        parent[root] = par
        mark[root] = placed
        split(comp, root)
    return parent


def centered_to_forest(G: Graph, coloring: Coloring) -> RootedForest:
    """Elimination forest from a centered coloring: centered_parents on G."""
    return make_forest(G.n, centered_parents(G.adj, coloring.colors)[1:])


def greedy_coloring(H: Graph) -> Coloring:
    """Greedy colouring in reverse degeneracy order, lowest colour first.

    Uses at most delta_max(H) + 1 colours.
    """
    colors = [0] * (H.n + 1)
    for v in reversed(degeneracy_order(H.n, H.adj).order):
        taken = {colors[w] for w in H.adj[v] if colors[w]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors=tuple(colors), num_colors=max(colors[1:], default=0))


def color_classes(G: Graph, coloring: Coloring) -> tuple[list[int], list[list[int]], list[int]]:
    """The sorted used colours, the sorted vertex list of each, and the
    colour quotient as neighbour masks over their indices: colours c != d
    are adjacent when a host edge joins their classes."""
    colors = coloring.colors
    used = sorted(set(colors[1 : G.n + 1]))
    index = {c: i for i, c in enumerate(used)}
    classes: list[list[int]] = [[] for _ in used]
    for v in range(1, G.n + 1):
        classes[index[colors[v]]].append(v)
    adjm = [0] * len(used)
    for (u, v) in G.edges:
        a, b = index[colors[u]], index[colors[v]]
        if a != b:
            adjm[a] |= 1 << b
            adjm[b] |= 1 << a
    return used, classes, adjm


def connected_unions(
    classes: list[list[int]], adjm: list[int], k: int
) -> Iterator[tuple[int, list[int]]]:
    """(C, union of the classes of C) for every colour set C of at most k
    colours that is connected in the quotient, once each; C is a mask over
    the class indices of color_classes, and the union lists its classes in
    index order, so it is not sorted."""
    for C in connected_sets(adjm, k):
        yield C, [v for i in bit_indices(C) for v in classes[i]]


def certify_low_tdepth(G: Graph, coloring: Coloring, p: int) -> bool:
    """Check that every union of i <= p - 1 colour classes induces a
    subgraph of tree-depth at most i, at any size: each colour set C
    connected in the quotient (a disconnected one induces the disjoint
    union of its parts) must yield a centered_parents forest, of height
    <= |C|.  p-centered colourings pass.  One forest per set, linear in
    the union's order and degree sum.

    A union of at most |C| vertices gets no forest: each of its classes
    is then one vertex, so all its colours are distinct, which makes it
    centered with tree-depth at most |C|, and the forest could not fail.
    When every class is one vertex, no set needs a forest."""
    colors = coloring.colors
    used, classes, adjm = color_classes(G, coloring)
    if len(used) == G.n:
        return True
    for C, verts in connected_unions(classes, adjm, p - 1):
        if len(verts) <= C.bit_count():
            continue
        try:
            centered_parents(local_adjacency(G, verts), [0] + [colors[v] for v in verts])
        except NotCenteredError:
            return False
    return True


def low_tdepth_coloring(G: Graph, p: int) -> Coloring:
    """Colouring whose every i <= p - 1 classes induce tree-depth <= i.

    Augment-colour-certify with doubling step counts; every candidate goes
    through certify_low_tdepth, whatever the size of G.  Falls back to the
    all-distinct (hence centered) colouring, so this always succeeds.
    """
    if p < 1:
        raise DomainError(f"target p must be >= 1, got {p}")
    n = G.n
    steps = p
    cap = max(4 * p, 2 * n)
    while steps <= cap:
        trace = augment(G, steps)
        candidate = greedy_coloring(underlying_graph(trace.final))
        if certify_low_tdepth(G, candidate, p):
            return candidate
        if trace.transitivity_added[-1] == 0 and trace.fraternity_added[-1] == 0:
            break  # augmentation saturated; more steps change nothing
        steps *= 2
    return Coloring(colors=(0,) + tuple(range(1, n + 1)), num_colors=n)
