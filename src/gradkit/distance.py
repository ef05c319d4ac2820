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

The same weight floor prunes a query.  Let best be the lighter direct
arc, or k + 1 if there is none; only a sum below best can change the
answer.  Every sum is at least 2, so at best <= 2 the common in-neighbours
are not read at all.  At best <= 4 a sum below best is at most 3, so one
of its summands weighs 1.  Arcs of weight 1 are exactly the arcs of the
unit-weight orientation, and augmentation keeps them at the head of each
row (see gradkit.augmentation), so the query reads only the weight-1
head of each row and probes the other row for each of its sources.  Only
at best > 4 are all common in-neighbours summed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augmentation import augment
from .core import ArcListDigraph, Graph
from .errors import DomainError, InputError


@dataclass(frozen=True)
class DistanceIndex:
    """Query structure for min(k, dist) answers on a fixed graph.

    Queries only read the rows of A, so one index may be queried from
    several threads at once.
    """

    k: int
    A: ArcListDigraph

    def query(self, x: int, y: int) -> int | None:
        """Exact distance if it is <= k, else None (meaning dist > k).

        best, the lighter direct arc or else k + 1, bounds the common
        in-neighbour scan.  At best <= 2 there is no scan, since every sum
        is at least 2.  At best <= 4 a sum below best has a summand of
        weight 1, so only the weight-1 head of each row is read, each of
        its sources probed in the other row.  Otherwise every common
        in-neighbour is summed.
        """
        D = self.A.D
        n = self.A.n
        if not (1 <= x <= n) or not (1 <= y <= n):
            raise InputError(f"query ({x}, {y}): vertex out of range 1..{n}")
        if x == y:
            return 0
        dx = D[x]
        dy = D[y]
        best = self.k + 1
        w = dx.get(y)  # arc y -> x
        if w is not None and w < best:
            best = w
        w = dy.get(x)  # arc x -> y
        if w is not None and w < best:
            best = w
        if best > 4:
            for z in dx.keys() & dy.keys():  # common in-neighbours
                s = dx[z] + dy[z]
                if s < best:
                    best = s
        elif best > 2:  # weight-1 heads: z -> x probed in y's row, then z -> y in x's
            for z, w in dx.items():
                if w > 1:
                    break
                w = dy.get(z)
                if w is not None and w + 1 < best:
                    best = w + 1
            for z, w in dy.items():
                if w > 1:
                    break
                w = dx.get(z)
                if w is not None and w + 1 < best:
                    best = w + 1
        return best if best <= self.k else None


def preprocess(G: Graph, k: int) -> DistanceIndex:
    """Build the horizon-k index: k augmentation steps, arcs heavier than k dropped."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"horizon must be an int >= 1, got {k!r}")
    return DistanceIndex(k=k, A=augment(G, k, drop_above=k).final)
