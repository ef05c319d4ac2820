"""Bounded-distance oracle: linear preprocessing, O(md) per query.

After k augmentation steps with min-weight simplification, two vertices at
distance at most k are joined by a weighted arc or share an in-neighbour
whose two arc weights sum to the distance.  A query therefore inspects
only the in-arc lists of its two endpoints:

    min( w(x -> y), w(y -> x), min over common in-neighbours z of
         w(z -> x) + w(z -> y) )

and the answer is exact whenever it is <= k.

Arc weights are walk lengths in the input graph, so any arc heavier than
k can never contribute to an answer <= k: a single-arc term is already
too big, and in a sum term both components are at least 1, so a usable
component is at most k - 1.  The preprocessing discards those candidates
as it goes (an inductive argument shows every arc of weight <= k of the
uncapped construction is still produced), which keeps the index small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .augmentation import augment
from .core import ArcListDigraph, Graph
from .errors import DomainError, InputError


@dataclass
class DistanceIndex:
    """Query structure for min(k, dist) answers on a fixed graph."""

    k: int
    A: ArcListDigraph
    _srcs: list[list[int]] = field(repr=False, default_factory=list)
    _wts: list[list[int]] = field(repr=False, default_factory=list)
    _mark: list[int] = field(repr=False, default_factory=list)
    _mark_w: list[int] = field(repr=False, default_factory=list)
    _stamp: int = field(repr=False, default=0)

    def query(self, x: int, y: int) -> int | None:
        """Exact distance if it is <= k, else None (meaning dist > k).

        Not thread-safe: the stamp buffer is shared per index.
        """
        n = self.A.n
        if not (1 <= x <= n) or not (1 <= y <= n):
            raise InputError(f"query ({x}, {y}): vertex out of range 1..{n}")
        if x == y:
            return 0
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        mark_w = self._mark_w
        best = self.k + 1
        sx = self._srcs[x]
        wx = self._wts[x]
        for i in range(len(sx)):
            z = sx[i]
            w = wx[i]
            mark[z] = stamp
            mark_w[z] = w
            if z == y and w < best:
                best = w  # arc y -> x
        sy = self._srcs[y]
        wy = self._wts[y]
        for i in range(len(sy)):
            z = sy[i]
            w = wy[i]
            if z == x:
                if w < best:
                    best = w  # arc x -> y
            elif mark[z] == stamp:
                s = w + mark_w[z]
                if s < best:
                    best = s  # common in-neighbour
        return best if best <= self.k else None


def preprocess(G: Graph, k: int) -> DistanceIndex:
    """Build the horizon-k index: k augmentation steps, arcs heavier than k dropped."""
    if k < 1:
        raise DomainError(f"horizon must be >= 1, got {k}")
    trace = augment(G, k, drop_above=k)
    A = trace.final
    return DistanceIndex(
        k=k,
        A=A,
        _srcs=[[u for (u, _) in row] for row in A.D],
        _wts=[[w for (_, w) in row] for row in A.D],
        _mark=[0] * (A.n + 1),
        _mark_w=[0] * (A.n + 1),
    )

