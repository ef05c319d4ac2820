"""Acyclic low-indegree orientation by iterated minimum-degree removal.

Repeatedly removing a vertex of minimum remaining degree and directing its
remaining edges toward it yields an acyclic orientation whose maximum
indegree equals the degeneracy of the graph, which never exceeds the
maximum average degree taken over subgraphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .core import ArcListDigraph, Graph


@dataclass(frozen=True)
class DegeneracyOrder:
    """Removal sequence of the peeling, plus the largest degree at removal."""

    order: tuple[int, ...]
    delta_max: int


def degeneracy_order(n: int, adj: Sequence[Sequence[int]]) -> DegeneracyOrder:
    """Peel vertices 1..n in order of minimum remaining degree.

    adj[v] lists the neighbours of v, each once; their order is free.
    Ties between equal-degree vertices go to the lowest vertex id, so the
    order is deterministic.  The queue is one min-heap of vertex ids per
    degree: bucket d starts as the ascending list of vertices of degree d
    (already a heap) and gains a vertex when a decrement brings it to d,
    so a vertex enters each bucket at most once and entries whose degree
    has since dropped are skipped lazily.  The minimum degree falls by at
    most one per removal, so the scan for the lowest nonempty bucket
    restarts one below the degree just removed.  Heaps hold ints, not
    (degree, id) pairs, and stay as small as the buckets the peeling
    reaches.
    """
    deg = [0] * (n + 1)
    for v in range(1, n + 1):
        deg[v] = len(adj[v])
    top = max(deg)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in range(1, n + 1):
        buckets[deg[v]].append(v)  # ascending ids: each bucket is a heap

    removed = [False] * (n + 1)
    order: list[int] = []
    delta_max = 0
    push = heapq.heappush
    pop = heapq.heappop
    d = 0
    for _ in range(n):
        while True:
            bucket = buckets[d]
            while bucket:
                v = bucket[0]
                if removed[v] or deg[v] != d:
                    pop(bucket)  # stale entry
                else:
                    break
            if bucket:
                break
            d += 1
        v = pop(bucket)
        removed[v] = True
        order.append(v)
        if d > delta_max:
            delta_max = d
        for w in adj[v]:
            if not removed[w]:
                dw = deg[w] - 1
                deg[w] = dw
                push(buckets[dw], w)
        if d:
            d -= 1
    return DegeneracyOrder(order=tuple(order), delta_max=delta_max)


def orient(G: Graph) -> tuple[ArcListDigraph, DegeneracyOrder]:
    """Orient G acyclically with maximum indegree = degeneracy(G).

    The edge {v, w} becomes the arc w -> v when the peeling of
    degeneracy_order removes v first.  G.edges is sorted, so D[v] lists
    the neighbours of v removed after it in ascending order.  All arc
    weights are 1.
    """
    n = G.n
    peel = degeneracy_order(n, G.adj)
    rank = [0] * (n + 1)
    for i, v in enumerate(peel.order):
        rank[v] = i
    D: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for u, v in G.edges:
        if rank[u] < rank[v]:
            D[u][v] = 1
        else:
            D[v][u] = 1
    dg = ArcListDigraph(
        n=n,
        m=G.m,
        D=tuple(D),
        md=max((len(row) for row in D), default=0),
    )
    return dg, peel
