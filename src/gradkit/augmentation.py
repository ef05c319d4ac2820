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

import math
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
    old = dg.D
    rows = [dict(row) for row in old]
    cap = math.inf if drop_above is None else drop_above

    # transitivity candidates x -> u -> v, min-merged on the fly
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

    # fraternity candidates: min weight per unordered pair, frat[x][y] with x < y
    frat: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for v in range(1, n + 1):
        entries = list(old[v].items())
        for i, (x, wx) in enumerate(entries):
            for y, wy in entries[i + 1 :]:
                w = wx + wy
                if w > cap:
                    continue
                lo, hi = (x, y) if x < y else (y, x)
                cur = frat[lo].get(hi)
                if cur is None or w < cur:
                    frat[lo][hi] = w

    # a fraternity pair already joined in some direction only lowers weights;
    # the rest form a simple graph that gets the low-indegree orientation
    leftover: list[tuple[int, int]] = []
    for x in range(1, n + 1):
        rx = rows[x]
        for y, w in frat[x].items():
            ry = rows[y]
            if x in ry or y in rx:
                if ry.get(x, w) > w:
                    ry[x] = w
                if rx.get(y, w) > w:
                    rx[y] = w
            else:
                leftover.append((x, y))

    frat_delta_max = 0
    if leftover:
        fdg, forder = orient(build_graph(n, leftover))
        frat_delta_max = forder.delta_max
        for (src, dst, _) in fdg.arcs():
            rows[dst][src] = frat[min(src, dst)][max(src, dst)]

    new = ArcListDigraph(
        n=n,
        m=sum(len(row) for row in rows),
        D=tuple(rows),
        md=max((len(row) for row in rows), default=0),
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
