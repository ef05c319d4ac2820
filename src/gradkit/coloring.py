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

from .core import (
    Graph, bit_indices, connected_components, connected_sets, induced_subgraph, underlying_graph
)
from .augmentation import augment
from .errors import DomainError, NotCenteredError
from .forests import RootedForest, make_forest
from .orientation import orient


@dataclass(frozen=True)
class Coloring:
    """colors[v] in 1..num_colors for every vertex v (colors[0] unused)."""

    colors: tuple[int, ...]
    num_colors: int


def centered_to_forest(G: Graph, coloring: Coloring) -> RootedForest:
    """Elimination forest from a centered coloring.

    Per component, the root is the vertex of the lowest colour occurring
    exactly once; recursion continues on the component minus its root.
    Height is bounded by the number of distinct colours in the component.
    """
    colors = coloring.colors
    parent: dict[int, int] = {}
    stack: list[tuple[list[int], int]] = [
        (comp, 0) for comp in reversed(connected_components(G))
    ]
    while stack:
        comp, par = stack.pop()
        counts: dict[int, int] = {}
        for v in comp:
            counts[colors[v]] = counts.get(colors[v], 0) + 1
        unique = sorted(c for c, k in counts.items() if k == 1)
        if not unique:
            raise NotCenteredError(
                f"no uniquely occurring colour in component {comp[:8]}..."
                if len(comp) > 8
                else f"no uniquely occurring colour in component {comp}"
            )
        root_color = unique[0]
        root = next(v for v in comp if colors[v] == root_color)
        parent[root] = par
        rest = [v for v in comp if v != root]
        if rest:
            for sub in reversed(connected_components(G, within=rest)):
                stack.append((sub, root))
    return make_forest(G.n, {v: parent.get(v, 0) for v in range(1, G.n + 1)})


def greedy_coloring(H: Graph) -> Coloring:
    """Greedy colouring in reverse degeneracy order, lowest colour first.

    Uses at most delta_max(H) + 1 colours.
    """
    _, order = orient(H)
    colors = [0] * (H.n + 1)
    for v in reversed(order.order):
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


def restrict(G: Graph, verts: list[int], coloring: Coloring) -> tuple[Graph, Coloring]:
    """G[verts] and the colouring restricted to it, as centered_to_forest takes them."""
    sub, ids = induced_subgraph(G, verts)
    return sub, Coloring((0,) + tuple(coloring.colors[v] for v in ids), coloring.num_colors)


def certify_low_tdepth(G: Graph, coloring: Coloring, p: int) -> bool:
    """Check that every union of i <= p - 1 colour classes induces a
    subgraph of tree-depth at most i, at any size: each colour set C
    connected in the quotient (a disconnected one induces the disjoint
    union of its parts) must yield a centered_to_forest forest, of height
    <= |C|.  p-centered colourings pass.  One forest per set, quadratic in
    the union's order."""
    _, classes, adjm = color_classes(G, coloring)
    for C in connected_sets(adjm, p - 1):
        verts = [v for i in bit_indices(C) for v in classes[i]]
        try:
            centered_to_forest(*restrict(G, verts, coloring))
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
