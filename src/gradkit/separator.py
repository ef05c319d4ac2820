"""Certified separator-or-shallow-minor dichotomy, and the driver that
turns a sub-exponential expansion bound into a sublinear separator.

separate_or_minor first tries to assemble h disjoint connected branch
sets, pairwise joined by an edge, each of radius at most the depth budget
(grown as pruned BFS trees reaching a neighbour of every earlier set).
A new set can reach an earlier one only through an unused vertex next to
it, so the search gives up as soon as some set has none left (it is
sealed), without trying another start.  Each unused vertex next to a
set keeps a touch list, its (set index, neighbour) pairs in G.adj order,
rebuilt for the neighbours of each new set, so the BFS reads a reached
vertex's touch list, empty for almost every vertex, and not its row.
When the greedy assembly stalls it falls back to a separator built by
ball growing: grow a breadth-first ball until a layer is small relative
to the ball (the layer goes into the separator), and when no small layer exists before the component is
engulfed, cut its thinnest layer, the one nearest the middle among
equally thin ones.  That cut need not balance the sides (layer 0 is
always a thinnest layer), so a side left with more than ceil(2n/3)
vertices is split again, until every component left by the separator has
at most ceil(2n/3) vertices.  At most one component is ever that large,
so only it is followed: each split costs the ball it grows plus the
pieces it cuts away, not a search of all that is left.
Every piece cut away is a component of the final G - S, so the largest
component fraction comes from the sizes ball growing counts as it cuts,
without another search of G - S.

Both outcomes carry machine-checkable certificates; validate() re-checks
them from scratch.  For a separator it needs only the size of the largest
component of G - S, so it marks S dead and counts one search from each
live vertex, with no component lists and no helper shared with ball
growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import Graph, induced_radius, is_connected
from .errors import DisconnectedError, DomainError, InputError, InvalidFamilyError
from .gradoracle import ball_family, evaluate_family

DEFAULT_C1 = 4.0
DEFAULT_MINOR_ATTEMPTS = 8


@dataclass(frozen=True)
class Separator:
    """Vertex set whose removal leaves components of at most ceil(2n/3)."""

    vertices: frozenset[int]
    largest_component_fraction: float
    size_bound: float


@dataclass(frozen=True)
class MinorWitness:
    """h disjoint connected branch sets, pairwise adjacent in G.

    adjacency_edges lists one G-edge per pair of branch sets, keyed by the
    (i, j) indices of the sets it certifies.
    """

    branch_sets: tuple[frozenset[int], ...]
    radii: tuple[int, ...]
    adjacency_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


SeparatorOutcome = Union[Separator, MinorWitness]


def _size_bound(n: int, l: int, h: int, c1: float) -> float:
    """c1 (n / l + 4 l h^2 log2 n), log2 n read as 0 below n = 2: the size
    a separator reports at (l, h) and validate requires it to report."""
    log2n = math.log2(n) if n >= 2 else 0.0
    return c1 * (n / l + 4.0 * l * h * h * log2n)


def _attach_bfs(
    G: Graph,
    start: int,
    used: list[bool],
    touch: list[tuple[tuple[int, int], ...]],
    budget: int,
    targets: int,
) -> tuple[set[int], dict[int, tuple[int, int]]] | None:
    """Grow a BFS tree from start through unused vertices, up to the depth
    budget, until it touches a neighbour of every existing branch set.

    touch[v] lists the (set index, neighbour) pairs of an unused v in
    G.adj[v] order.  Returns (branch set, {set index: certifying edge})
    built from the union of the tree paths to the first touch points, or
    None.
    """
    adj = G.adj
    attach: dict[int, tuple[int, int]] = {}
    for i, x in touch[start]:
        if i not in attach:
            attach[i] = (start, x)
    parent = [0] * (G.n + 1)
    parent[start] = start
    frontier = [start]
    depth = 0
    while len(attach) < targets and frontier and depth < budget:
        depth += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if not used[w] and not parent[w]:
                    parent[w] = v
                    nxt.append(w)
                    if touch[w]:
                        for i, x in touch[w]:
                            if i not in attach:
                                attach[i] = (w, x)
                        if len(attach) == targets:
                            break
            if len(attach) == targets:
                break
        frontier = nxt
    if len(attach) < targets:
        return None
    branch = {start}
    for (v, _) in attach.values():
        while v not in branch:
            branch.add(v)
            v = parent[v]
    return branch, attach


def _sealed(adj: tuple[tuple[int, ...], ...], used: list[bool], branch: set[int]) -> bool:
    """True if no unused vertex is adjacent to the branch set."""
    return all(used[w] for v in branch for w in adj[v])


def _greedy_minor(
    G: Graph, h: int, budget: int, attempts: int
) -> tuple[list[set[int]], dict[tuple[int, int], tuple[int, int]]] | None:
    n = G.n
    adj = G.adj
    used = [False] * (n + 1)
    node_id = [-1] * (n + 1)
    touch: list[tuple[tuple[int, int], ...]] = [()] * (n + 1)
    nodes: list[set[int]] = []
    pair_edges: dict[tuple[int, int], tuple[int, int]] = {}
    while len(nodes) < h:
        found = False
        tried = 0
        for start in range(1, n + 1):
            if used[start]:
                continue
            tried += 1
            if tried > attempts:
                break
            got = _attach_bfs(G, start, used, touch, budget, len(nodes))
            if got is None:
                continue
            branch, attach = got
            idx = len(nodes)
            nodes.append(branch)
            for v in branch:
                used[v] = True
                node_id[v] = idx
            # only the unused neighbours of the new set gain a touch
            for v in {w for u in branch for w in adj[u] if not used[w]}:
                touch[v] = tuple((node_id[w], w) for w in adj[v] if node_id[w] >= 0)
            for i, (inside, outside) in attach.items():
                # certificate edge oriented (vertex of set i, vertex of set idx)
                pair_edges[(i, idx)] = (outside, inside)
            found = True
            break
        if not found:
            return None
        # _attach_bfs reaches set i only from an unused vertex next to it, so
        # once a set has none, every later attempt fails
        if len(nodes) < h and any(_sealed(adj, used, b) for b in nodes):
            return None
    return nodes, pair_edges


def _kill(adj: tuple[tuple[int, ...], ...], alive: list[bool], stack: list[int]) -> int:
    """Mark dead every live vertex reachable from stack, whose vertices
    are dead already.  Returns how many it marked."""
    killed = 0
    while stack:
        for w in adj[stack.pop()]:
            if alive[w]:
                alive[w] = False
                stack.append(w)
                killed += 1
    return killed


def _drop_pieces(adj: tuple[tuple[int, ...], ...], alive: list[bool], seeds: list[int]) -> int:
    """Mark dead the pieces of live vertices that hold the seeds, one
    search per piece.  Returns the size of the largest, 0 if none."""
    largest = 0
    for s in seeds:
        if alive[s]:
            alive[s] = False
            largest = max(largest, 1 + _kill(adj, alive, [s]))
    return largest


def _keep_big_piece(
    adj: tuple[tuple[int, ...], ...],
    alive: list[bool],
    seeds: list[int],
    total: int,
    bound: int,
) -> tuple[int, int]:
    """Keep alive only the piece of more than bound vertices, if any.

    The live vertices form pieces that hold total vertices together, and
    each piece contains a seed.  One search runs from each seed, and the
    searches take one vertex each per round; two that meet merge.  Once
    at most one search is unfinished, every finished search holds a whole
    piece, and the unfinished one holds the rest.  Every piece but the
    big one is marked dead.  Returns the size of the big piece, 0 if none
    (the live vertices are then left as they are), and the size of the
    largest other piece.
    """
    owner: dict[int, int] = {}
    root = list(range(len(seeds)))
    todo: list[list[int]] = []
    for i, s in enumerate(seeds):
        owner[s] = i
        todo.append([s])

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    active = root[:]
    while len(active) > 1:
        for i in active:
            t = todo[i]
            if root[i] != i or not t:
                continue
            for w in adj[t.pop()]:
                if not alive[w]:
                    continue
                j = owner.get(w)
                if j is None:
                    owner[w] = i
                    todo[i].append(w)
                    continue
                j = find(j)
                if j != i:  # absorb search j, appending the shorter list
                    root[j] = i
                    a, b = todo[i], todo[j]
                    if len(a) < len(b):
                        a, b = b, a
                    a.extend(b)
                    todo[i] = a
                    todo[j] = []
        active = [i for i in active if root[i] == i and todo[i]]

    sizes: dict[int, int] = {}  # root -> vertices it owns
    for j in owner.values():
        r = find(j)
        sizes[r] = sizes.get(r, 0) + 1
    for r in active:  # the unfinished search's piece holds all the rest
        sizes[r] = total - sum(k for q, k in sizes.items() if q != r)
    keep = next((r for r, k in sizes.items() if k > bound), None)
    rest = max((k for r, k in sizes.items() if r != keep), default=0)
    if keep is None:
        return 0, rest
    for v, j in owner.items():
        if find(j) != keep:
            alive[v] = False
    for r in active:
        if r != keep:
            _kill(adj, alive, todo[r])
    return sizes[keep], rest


def _ball_growing(G: Graph, l: int) -> tuple[set[int], int]:
    """Ball-growing separator S of a connected G, and the size of the
    largest component of G - S.

    Every component left has at most ceil(2n/3) vertices.  Each cut takes
    a BFS layer grown from the least vertex of the component C being
    split, and leaves at most one component above ceil(2n/3) (two would
    hold more than n vertices); that one is split next.  alive marks C.
    C is a component of G - S, so every piece a cut leaves beside the
    next C is a component of the final G - S, and its size is counted
    where the cut already searches it.
    """
    n = G.n
    adj = G.adj
    bound = -(-2 * n // 3)  # ceil(2n/3)
    S: set[int] = set()
    alive = [False] + [True] * n
    size = n  # |C|
    seen = [0] * (n + 1)  # stamp of the last split whose BFS reached the vertex
    stamp = 0
    low = 1  # C only shrinks, so its least vertex only moves up
    largest = n if size <= bound else 0  # of the components that are final

    def grow(layer: list[int]) -> list[int]:
        nxt = []
        for v in layer:
            for w in adj[v]:
                if alive[w] and seen[w] != stamp:
                    seen[w] = stamp
                    nxt.append(w)
        return nxt

    while size > bound:
        while not alive[low]:
            low += 1
        stamp += 1
        seen[low] = stamp
        layers = [[low]]
        prefix = 0  # vertices in layers[:-1]
        cut = -1
        while True:
            nxt = grow(layers[-1])
            if not nxt:
                break
            prefix += len(layers[-1])
            layers.append(nxt)
            if l * len(nxt) < prefix:
                # thin frontier relative to the grown ball: cut it out
                cut = len(layers) - 1
                layers.append(grow(nxt))
                break
        if cut < 0:
            # no thin frontier before the ball engulfed C: cut the thinnest
            # layer, the one closest to the middle among those; a side left
            # above ceil(2n/3) is split again
            best_key = None
            prefix = 0
            for r, layer in enumerate(layers):
                key = (len(layer), abs(2 * prefix + len(layer) - size))
                if best_key is None or key < best_key:
                    best_key = key
                    cut = r
                    inner = prefix
                prefix += len(layer)
            layers.append([])
        else:
            inner = prefix
        S.update(layers[cut])
        for v in layers[cut]:
            alive[v] = False
        outer = size - inner - len(layers[cut])
        seeds = layers[cut + 1]  # every piece beyond the cut has one
        if inner > bound:  # the ball before the cut is connected
            largest = max(largest, _drop_pieces(adj, alive, seeds))
            size = inner
            continue
        largest = max(largest, inner)
        for q in range(cut):
            for v in layers[q]:
                alive[v] = False
        if outer > bound:
            size, rest = _keep_big_piece(adj, alive, seeds, outer, bound)
            largest = max(largest, rest)
        else:
            size = 0
            if outer > largest:  # else no piece beyond the cut is larger
                largest = max(largest, _drop_pieces(adj, alive, seeds))
    return S, largest


def separate_or_minor(
    G: Graph,
    l: int,
    h: int,
    *,
    c1: float = DEFAULT_C1,
    minor_attempts: int = DEFAULT_MINOR_ATTEMPTS,
    radius_budget: int | None = None,
) -> SeparatorOutcome:
    """Either a depth-bounded K_h minor witness or a certified balanced separator.

    The branch-set radius bound is l * log2(n) unless a tighter
    radius_budget is supplied.  The witness search is greedy with a
    bounded number of starts per branch set; when it gives up, the
    separator construction takes over unconditionally.
    """
    if l < 1:
        raise DomainError(f"depth parameter l must be >= 1, got {l}")
    if h < 2:
        raise DomainError(f"clique order h must be >= 2, got {h}")
    if G.n < 1:
        raise DomainError("graph must have at least one vertex")
    if not is_connected(G):
        raise DisconnectedError("separate_or_minor needs a connected graph")
    n = G.n
    log2n = math.log2(n) if n >= 2 else 0.0
    budget = radius_budget if radius_budget is not None else int(l * log2n)

    got = _greedy_minor(G, h, budget, minor_attempts)
    if got is not None:
        nodes, pair_edges = got
        sets = tuple(frozenset(b) for b in nodes)
        return MinorWitness(
            branch_sets=sets,
            radii=tuple(induced_radius(G, b) for b in sets),
            adjacency_edges=tuple(sorted(pair_edges.items())),
        )

    S, largest = _ball_growing(G, l)
    return Separator(
        vertices=frozenset(S),
        largest_component_fraction=largest / n,
        size_bound=_size_bound(n, l, h, c1),
    )


def validate(
    G: Graph,
    outcome: SeparatorOutcome,
    l: int,
    h: int,
    *,
    c1: float = DEFAULT_C1,
) -> bool:
    """Re-check every certificate of the outcome against G, l and h.

    A separator must report exactly the size bound _size_bound gives at
    (l, h, c1), compared as floats like the component fraction, and hold
    at most that many vertices.  Its components are counted, not listed:
    S is marked dead and one search runs from every live vertex, reading
    G.adj directly, so the check shares no code with the ball growing it
    checks.  Branch sets are checked by ball_family: nonempty, inside
    1..n, disjoint and connected, with the radii it computes."""
    n = G.n
    log2n = math.log2(n) if n >= 2 else 0.0
    if isinstance(outcome, Separator):
        S = outcome.vertices
        if any(not 1 <= v <= n for v in S):
            return False
        bound = _size_bound(n, l, h, c1)
        if outcome.size_bound != bound or len(S) > bound:
            return False
        adj = G.adj
        alive = [False] + [True] * n
        for v in S:
            alive[v] = False
        largest = 0
        for s in range(1, n + 1):
            if alive[s]:
                alive[s] = False
                stack = [s]
                size = 1
                while stack:
                    for w in adj[stack.pop()]:
                        if alive[w]:
                            alive[w] = False
                            stack.append(w)
                            size += 1
                largest = max(largest, size)
        if outcome.largest_component_fraction != (largest / n if n else 0.0):
            return False
        return largest <= -(-2 * n // 3)
    if isinstance(outcome, MinorWitness):
        sets = outcome.branch_sets
        if len(sets) != h:
            return False
        try:
            fam = ball_family(G, sets)
        except InvalidFamilyError:
            return False
        if fam.radii != tuple(outcome.radii) or fam.radius > l * log2n:
            return False
        certified = dict(outcome.adjacency_edges)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                edge = certified.get((i, j))
                if edge is None:
                    return False
                u, v = edge
                if u not in sets[i] or v not in sets[j] or not G.has_edge(u, v):
                    return False
        return True
    return False


@dataclass(frozen=True)
class ExpansionBound:
    """Nondecreasing bound f with grad(G, r) <= f(r) claimed for G's class.

    kinds: constant (f = c), polynomial (f(r) = c * (r+1)^d),
    exponential (f(r) = b^(r+1)), table (explicit values, last repeated).
    """

    kind: str
    params: tuple[float, ...]

    def __call__(self, r: int) -> float:
        """f(r), or math.inf where the value overflows a float."""
        try:
            if self.kind == "constant":
                return self.params[0]
            if self.kind == "polynomial":
                c, d = self.params
                return c * (r + 1) ** d
            if self.kind == "exponential":
                return self.params[0] ** (r + 1)
            if self.kind == "table":
                return self.params[min(r, len(self.params) - 1)]
        except OverflowError:
            return math.inf
        raise DomainError(f"unknown expansion bound kind {self.kind!r}")


def parse_expansion(text: str) -> ExpansionBound:
    """Parse const:c | poly:c,d | exp:b | table:v0,v1,..."""
    kind, _, rest = text.partition(":")
    try:
        values = tuple(float(tok) for tok in rest.split(",")) if rest else ()
    except ValueError:
        values = ()
    if not all(math.isfinite(v) for v in values):
        values = ()
    if kind == "const" and len(values) == 1 and values[0] > 0:
        return ExpansionBound("constant", values)
    if kind == "poly" and len(values) == 2 and values[0] > 0 and values[1] >= 0:
        return ExpansionBound("polynomial", values)
    if kind == "exp" and len(values) == 1 and values[0] >= 1:
        return ExpansionBound("exponential", values)
    if kind == "table" and values and all(v > 0 for v in values):
        if list(values) != sorted(values):
            raise InputError(f"table expansion bound must be nondecreasing: {text!r}")
        return ExpansionBound("table", values)
    raise InputError(
        f"bad expansion bound {text!r}; use const:c, poly:c,d, exp:b or table:..."
    )


def choose_z(n: int, f: ExpansionBound) -> int:
    """Largest z >= 1 with 2 z (f(z) + 2) <= sqrt(n log2 n); 0 if none."""
    if n < 2:
        raise DomainError(f"choose_z needs n >= 2, got {n}")
    target = math.sqrt(n * math.log2(n))
    z = 0
    while 2 * (z + 1) * (f(z + 1) + 2) <= target:
        z += 1
    return z


@dataclass(frozen=True)
class SublinearReport:
    """Outcome of the expansion-driven separator run, with its parameters.

    f_violated means the algorithm found a depth-z K_h minor that is
    inconsistent with the declared bound (h - 1 > f(z) by construction);
    witness_density is the quotient density |E(G/P)|/|P| of the branch
    sets, certifying grad(G, z) >= (h-1)/2.
    """

    outcome: SeparatorOutcome
    z: int
    zeta: int
    l: int
    h: int
    f_violated: bool
    witness_density: Fraction | None
    separator_size_bound: float


def _zeta(n: int, f: ExpansionBound) -> int:
    """Greatest integer with log2 f(zeta) < log2(n) / 3 (0 if none)."""
    limit = math.log2(n) / 3 if n >= 2 else 0.0
    z = 0
    while z < n and math.log2(max(f(z + 1), 1e-300)) < limit:
        z += 1
    return z


def sublinear_separator(
    G: Graph,
    f: ExpansionBound,
    *,
    c1: float = DEFAULT_C1,
    minor_attempts: int = DEFAULT_MINOR_ATTEMPTS,
) -> SublinearReport:
    """Separator of size O(n log n / z) for a class with expansion bound f.

    z is the largest rank with 2 z (f(z) + 2) <= sqrt(n log n); the minor
    search depth is capped at z, so a returned witness shows a depth-z
    K_h minor with h = floor(f(z) + 2), contradicting the declared bound.
    The report then flags the violation instead of failing.  An f(z)
    that is not finite raises DomainError; a disconnected G with n >= 2
    raises DisconnectedError from separate_or_minor.
    """
    n = G.n
    if n <= 1:
        return SublinearReport(
            outcome=Separator(frozenset(), 1.0 if n else 0.0, _size_bound(n, 1, 2, c1)),
            z=1,
            zeta=0,
            l=1,
            h=2,
            f_violated=False,
            witness_density=None,
            separator_size_bound=0.0,
        )
    log2n = math.log2(n)
    z = max(1, choose_z(n, f))
    l = max(1, int(z / log2n))
    fz = f(z)
    if not math.isfinite(fz):
        raise DomainError(f"expansion bound f({z}) = {fz} is not finite")
    h = int(fz + 2)
    budget = min(z, int(l * log2n))
    outcome = separate_or_minor(
        G, l, h, c1=c1, minor_attempts=minor_attempts, radius_budget=budget
    )
    violated = isinstance(outcome, MinorWitness)
    density = evaluate_family(G, outcome.branch_sets) if violated else None
    return SublinearReport(
        outcome=outcome,
        z=z,
        zeta=_zeta(n, f),
        l=l,
        h=h,
        f_violated=violated,
        witness_density=density,
        separator_size_bound=c1 * n * log2n / z,
    )
