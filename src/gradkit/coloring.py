"""Low tree-depth colorings: the generating search, its certificate and
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

The generator searches weak-reachability colourings.  In the reverse of
the degeneracy order, w is weakly r-reachable from v when w comes no
later than v and some path of length <= r joins them through vertices no
earlier than w.  Colouring each vertex, in order, with the least colour
not used on its weakly r-reachable set is p-centered at r = 2^(p-2)
(Pilipczuk and Siebertz, SODA 2019; Zhu, Discrete Math 2009), so the
search tries r = 1, 2, ... up to there and keeps the first candidate the
certificate passes; if none passes, the all-distinct colouring, which is
always centered, stands in.

Counting reads, for every connected set C of at most p - 1 colours whose
classes can hold a copy, the host rows of the union of C's classes.  The
cost of a colouring here is the number of row entries in the unions of
every connected set of at most p - 1 colours, the sum of 1 + deg v over
them, which also takes in the sets counting skips as too small.  The
few-colour colouring competes on it with the all-distinct one, whose
unions are the connected vertex sets of at most p - 1 vertices.  Both
totals are walked lazily, the side behind going next, so the first side
to finish is no dearer than the other and the choice costs about twice
the cheaper walk.  The certificate's walk over the candidates, failed
ones included, is the few-colour side, so a hub host never lists its
all-distinct sets in full.  Either colouring is certified, and any
certified colouring gives the same counts, so the race decides only how
fast counting runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Graph, bit_indices, connected_sets, local_adjacency
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
    of = [0] + [index[c] for c in colors[1 : G.n + 1]]  # vertex -> class index
    bit = [1 << a for a in of]
    classes: list[list[int]] = [[] for _ in used]
    adjm = [0] * len(used)  # a class's own bit is cleared below
    for v in range(1, G.n + 1):
        a = of[v]
        classes[a].append(v)
        mask = adjm[a]
        for w in G.adj[v]:
            mask |= bit[w]
        adjm[a] = mask
    adjm = [mask & ~(1 << a) for a, mask in enumerate(adjm)]
    return used, classes, adjm


def _certified_costs(G: Graph, coloring: Coloring, p: int) -> Iterator[int]:
    """The certificate, one colour set at a time.

    For every colour set C of at most p - 1 colours connected in the
    quotient (a disconnected one induces the disjoint union of its parts),
    the union of its classes must yield a centered_parents forest, which
    has height <= |C|; the first that does not raises NotCenteredError.
    Each set that passes yields the host-row entries its union takes,
    the sum of 1 + deg v over the union: what counting reads to build it.

    Only a set holding a class of more than one vertex gets a union and a
    forest, by one test of C against the mask of those classes.  In any
    other set every class is one vertex, so all its colours are distinct,
    which makes it centered with tree-depth at most |C|, and the forest
    could not fail.
    """
    colors = coloring.colors
    _, classes, adjm = color_classes(G, coloring)
    weight = [sum(len(G.adj[v]) + 1 for v in cls) for cls in classes]
    multi = sum(1 << i for i, cls in enumerate(classes) if len(cls) > 1)
    for C in connected_sets(adjm, p - 1):
        idx = bit_indices(C)
        if C & multi:
            verts = [v for i in idx for v in classes[i]]
            centered_parents(local_adjacency(G, verts), [0] + [colors[v] for v in verts])
        yield sum([weight[i] for i in idx])


def certify_low_tdepth(G: Graph, coloring: Coloring, p: int) -> bool:
    """Check that every union of i <= p - 1 colour classes induces a
    subgraph of tree-depth at most i, at any size, by walking
    _certified_costs to the end.  p-centered colourings pass.  One forest
    per set, linear in the union's order and degree sum.  When every
    class is one vertex, no set needs a forest, and none is visited."""
    if len(set(coloring.colors[1 : G.n + 1])) == G.n:
        return True
    try:
        for _ in _certified_costs(G, coloring, p):
            pass
    except NotCenteredError:
        return False
    return True


def _candidates(G: Graph, p: int) -> Iterator[Coloring]:
    """The greedy colourings against weakly r-reachable sets, for r = 1,
    2, ..., 2^(p-2), in the reverse of the degeneracy order.

    Vertex u reaches, by one BFS to depth r through the vertices later
    than u, exactly the vertices from which it is weakly r-reachable.  So
    in one pass over the order each vertex takes the least colour missing
    from the mask its weak-reachability set has left on it, then leaves
    its own colour on every vertex its BFS reaches.
    """
    order = degeneracy_order(G.n, G.adj).order[::-1]
    pos = [0] * (G.n + 1)
    for i, v in enumerate(order, 1):
        pos[v] = i
    adj = G.adj
    for r in range(1, 2 ** max(p - 2, 0) + 1):
        colors = [0] * (G.n + 1)
        taken = [1] * (G.n + 1)  # bit c: colour c is used; colour 0 never
        for u in order:
            t = taken[u]
            c = (~t & (t + 1)).bit_length() - 1  # the lowest clear bit
            colors[u] = c
            bit = 1 << c
            start = pos[u]
            seen = {u}
            frontier = [u]
            for _ in range(r):
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if pos[w] > start and w not in seen:
                            seen.add(w)
                            taken[w] |= bit
                            nxt.append(w)
                frontier = nxt
        yield Coloring(colors=tuple(colors), num_colors=max(colors[1:], default=0))


def low_tdepth_coloring(G: Graph, p: int) -> Coloring:
    """Colouring whose every i <= p - 1 classes induce tree-depth <= i.

    The few-colour side is the first of _candidates that the certificate
    passes, or the all-distinct colouring if none does; the other side is
    the all-distinct colouring.  Whichever is cheaper to count with, by
    the summed host-row entries of _certified_costs, is returned.  The
    side whose running total is lower takes its next colour set, the
    few-colour side on a tie, and the certificates of failed candidates
    count towards it.  A side finishes only when it is the one to move,
    so its final total is at most the other's running total: the first
    side to finish wins, and the other side's walk is never finished.
    """
    if p < 1:
        raise DomainError(f"target p must be >= 1, got {p}")
    n = G.n
    distinct = Coloring(colors=(0,) + tuple(range(1, n + 1)), num_colors=n)
    passed: list[Coloring] = []

    def few_colour_side() -> Iterator[int]:
        for candidate in _candidates(G, p):
            try:
                yield from _certified_costs(G, candidate, p)
            except NotCenteredError:
                continue
            passed.append(candidate)
            return

    few, other = few_colour_side(), _certified_costs(G, distinct, p)
    a = b = 0
    while True:
        if a <= b:
            step = next(few, None)
            if step is None:
                return passed[0] if passed else distinct
            a += step
        else:
            step = next(other, None)
            if step is None:
                return distinct
            b += step
