"""Transitive-fraternal augmentation of weighted digraphs.

One step takes a digraph to a supergraph that closes every directed
two-path x -> u -> v into an arc x -> v (transitivity) and joins every
pair of arcs x -> v, y -> v by an arc between x and y in one direction
(fraternity).  Candidate arcs inherit the sum of the generating weights,
simplification keeps the minimum weight per ordered pair, and the
fraternity edges that are genuinely new are oriented with the
low-indegree orientation so the step only adds bounded indegree.

augment(G, c) starts from the unit-weight low-indegree orientation of G
and applies c steps; the trace retains every intermediate digraph along
with per-step counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ArcListDigraph, Graph, build_graph
from .errors import DomainError
from .orientation import orient


@dataclass(frozen=True)
class StepStats:
    transitivity_added: int
    fraternity_added: int
    fraternity_delta_max: int


def _step(dg: ArcListDigraph, drop_above: int | None) -> tuple[ArcListDigraph, StepStats]:
    """One step; candidates heavier than drop_above (if given) are discarded.

    The rows of the result list the arcs of dg first, in their old order,
    then the new arcs in the order they were found.
    """
    n = dg.n
    stride = n + 1
    srcs = [[u for (u, _) in row] for row in dg.D]
    wts = [[w for (_, w) in row] for row in dg.D]
    arcs: dict[int, int] = {}  # encoded (u, v) -> weight, insertion-ordered
    for v in range(1, n + 1):
        for (u, w) in dg.D[v]:
            arcs[u * stride + v] = w

    # transitivity candidates, min-merged on the fly
    trans_added = 0
    for v in range(1, n + 1):
        sv = srcs[v]
        wv = wts[v]
        base = v  # encoded target
        for i in range(len(sv)):
            u = sv[i]
            w1 = wv[i]
            su = srcs[u]
            wu = wts[u]
            for j in range(len(su)):
                x = su[j]
                if x == v:
                    continue
                w = w1 + wu[j]
                if drop_above is not None and w > drop_above:
                    continue
                key = x * stride + base
                old = arcs.get(key)
                if old is None:
                    arcs[key] = w
                    trans_added += 1
                elif w < old:
                    arcs[key] = w

    # fraternity candidates: min weight per unordered pair
    frat: dict[int, int] = {}
    for v in range(1, n + 1):
        sv = srcs[v]
        wv = wts[v]
        for i in range(len(sv)):
            x = sv[i]
            wi = wv[i]
            for j in range(i + 1, len(sv)):
                y = sv[j]
                w = wi + wv[j]
                if drop_above is not None and w > drop_above:
                    continue
                key = x * stride + y if x < y else y * stride + x
                old = frat.get(key)
                if old is None or w < old:
                    frat[key] = w

    # a fraternity pair already joined in some direction only lowers weights;
    # the rest form a simple graph that gets the low-indegree orientation
    leftover: list[tuple[int, int]] = []
    leftover_w: dict[int, int] = {}
    for key, w in frat.items():
        x, y = divmod(key, stride)
        kxy = key
        kyx = y * stride + x
        hit = False
        if kxy in arcs:
            hit = True
            if w < arcs[kxy]:
                arcs[kxy] = w
        if kyx in arcs:
            hit = True
            if w < arcs[kyx]:
                arcs[kyx] = w
        if not hit:
            leftover.append((x, y))
            leftover_w[key] = w

    frat_delta_max = 0
    if leftover:
        fg = build_graph(n, leftover)
        fdg, forder = orient(fg)
        frat_delta_max = forder.delta_max
        for (src, dst, _) in fdg.arcs():
            key = src * stride + dst if src < dst else dst * stride + src
            arcs[src * stride + dst] = leftover_w[key]

    D: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for key, w in arcs.items():
        u, v = divmod(key, stride)
        D[v].append((u, w))
    new = ArcListDigraph(
        n=n,
        m=len(arcs),
        D=tuple(tuple(row) for row in D),
        md=max((len(row) for row in D), default=0),
    )
    return new, StepStats(trans_added, len(leftover), frat_delta_max)


@dataclass(frozen=True)
class AugmentationTrace:
    """The chain G_1 <= G_2 <= ... produced by augment, with step counters.

    steps[0] is the unit-weight orientation of the input; steps[i] is the
    result of the i-th augmentation step.  The counter tuples have one
    entry per step.
    """

    steps: tuple[ArcListDigraph, ...]
    mds: tuple[int, ...]
    transitivity_added: tuple[int, ...]
    fraternity_added: tuple[int, ...]
    fraternity_delta_max: tuple[int, ...]

    @property
    def final(self) -> ArcListDigraph:
        return self.steps[-1]


def augment(G: Graph, c: int, *, drop_above: int | None = None) -> AugmentationTrace:
    """Apply c augmentation steps to the low-indegree orientation of G.

    The trace holds c + 1 digraphs.  drop_above discards candidates
    heavier than the given bound outright; the distance module explains
    why that cannot change any of its answers.
    """
    if c < 1:
        raise DomainError(f"step count must be >= 1, got {c}")
    first, _ = orient(G)
    steps = [first]
    mds = [first.md]
    t_added: list[int] = []
    f_added: list[int] = []
    f_delta: list[int] = []
    for _ in range(c):
        nxt, stats = _step(steps[-1], drop_above)
        steps.append(nxt)
        mds.append(nxt.md)
        t_added.append(stats.transitivity_added)
        f_added.append(stats.fraternity_added)
        f_delta.append(stats.fraternity_delta_max)
    return AugmentationTrace(
        steps=tuple(steps),
        mds=tuple(mds),
        transitivity_added=tuple(t_added),
        fraternity_added=tuple(f_added),
        fraternity_delta_max=tuple(f_delta),
    )
