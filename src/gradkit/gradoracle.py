"""Exact greatest reduced average density on small graphs.

This module is the project's ground truth: grad(G, r) maximizes
|E(G/P)| / |P| over every family P of pairwise disjoint balls of radius
at most r, by exhaustive enumeration.  Values are exact rationals.
evaluate_family scores a single family, which certifies a lower bound on
graphs too large for the full search.  grad's balls are the connected
sets of core.connected_sets (singletons at r = 0) of radius at most r.

Exactness matters here, speed does not; sizes are capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Graph, build_graph, connected_sets, induced_radius, neighbour_masks
from .errors import DomainError, InvalidFamilyError, OracleLimitError

DEFAULT_LIMIT_R0 = 16
DEFAULT_LIMIT = 12


@dataclass(frozen=True)
class BallFamily:
    """Pairwise disjoint vertex sets, each inducing a connected subgraph."""

    balls: tuple[frozenset[int], ...]
    radii: tuple[int, ...]

    @property
    def radius(self) -> int:
        """rho(P): the largest ball radius (0 for an empty family)."""
        return max(self.radii, default=0)

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class GradValue:
    value: Fraction
    witness: BallFamily


def ball_family(G: Graph, sets: Iterable[Iterable[int]]) -> BallFamily:
    """Validate disjointness and connectivity, compute per-ball radii."""
    balls = tuple(frozenset(s) for s in sets)
    seen: set[int] = set()
    for b in balls:
        if not b:
            raise InvalidFamilyError("empty ball in family")
        for v in b:
            if not 1 <= v <= G.n:
                raise InvalidFamilyError(f"ball vertex {v} out of range 1..{G.n}")
            if v in seen:
                raise InvalidFamilyError(f"balls overlap at vertex {v}")
            seen.add(v)
    radii = []
    for b in balls:
        r = induced_radius(G, b)
        if r is None:
            raise InvalidFamilyError(f"ball {sorted(b)} induces a disconnected subgraph")
        radii.append(r)
    return BallFamily(balls=balls, radii=tuple(radii))


def quotient(G: Graph, P: BallFamily | Sequence[Iterable[int]]) -> Graph:
    """Graph on {1..|P|} with an edge {i, j} iff some G-edge joins ball i and j.

    Each ball vertex maps to its ball's index, and each G-edge from ball i
    to a ball j > i gives the edge (i, j), which build_graph merges with
    its repeats: time linear in the degree sum of the balls' vertices."""
    fam = P if isinstance(P, BallFamily) else ball_family(G, P)
    ball_of = {v: i for i, b in enumerate(fam.balls, 1) for v in b}
    edges = [
        (i, j) for v, i in ball_of.items() for w in G.adj[v] if (j := ball_of.get(w, 0)) > i
    ]
    return build_graph(len(fam.balls), edges)


def evaluate_family(G: Graph, P: BallFamily | Sequence[Iterable[int]]) -> Fraction:
    """|E(G/P)| / |P|: a certified lower bound on grad(G, rho(P))."""
    fam = P if isinstance(P, BallFamily) else ball_family(G, P)
    if not fam.balls:
        raise InvalidFamilyError("family must contain at least one ball")
    q = quotient(G, fam)
    return Fraction(q.m, len(fam.balls))


def grad(G: Graph, r: int, *, limit: int | None = None) -> GradValue:
    """Exact grad with rank r, with the attaining family as witness.

    Enumerates every family of disjoint balls of radius <= r.  The search
    space is exponential; the default limits (16 vertices for r = 0, 12
    for r >= 1) keep it tractable.
    """
    if r < 0:
        raise DomainError(f"radius bound {r} is negative")
    if limit is None:
        limit = DEFAULT_LIMIT_R0 if r == 0 else DEFAULT_LIMIT
    n = G.n
    if n > limit:
        raise OracleLimitError(
            f"graph order {n} exceeds the oracle limit {limit}; "
            "use evaluate_family with an explicit witness instead"
        )
    if n == 0:
        return GradValue(Fraction(0), BallFamily((), ()))

    # each ball: its mask, its outside neighbours' mask, and its index at each vertex
    adjm = neighbour_masks(G)
    nbrs = [[w - 1 for w in row] for row in G.adj[1:]]
    ball_masks: list[int] = []
    ball_nbrs: list[int] = []
    balls_at: list[list[int]] = [[] for _ in range(n)]
    for S in connected_sets(nbrs, n if r else 1):
        if induced_radius(G, [i + 1 for i in S]) > r:
            continue
        mask = nb = 0
        for i in S:
            mask |= 1 << i
            nb |= adjm[i]
            balls_at[i].append(len(ball_masks))
        ball_masks.append(mask)
        ball_nbrs.append(nb & ~mask)

    # Depth-first search over families: at the lowest undecided vertex,
    # either leave it out of every ball or start a ball containing it.
    chosen: list[int] = []
    best = [0, 1, [1 << 0]]  # numerator, denominator, ball masks
    edges_now = 0

    def rec(free: int) -> None:
        nonlocal edges_now
        p = len(chosen)
        if p and edges_now * best[1] > best[0] * p:
            best[0], best[1], best[2] = edges_now, p, list(chosen)
        if not free:
            return
        low = free & -free
        v = low.bit_length() - 1
        rec(free ^ low)  # v belongs to no ball
        for bi in balls_at[v]:
            S = ball_masks[bi]
            if S & ~free:
                continue
            delta = 0
            nb = ball_nbrs[bi]
            for M in chosen:
                if M & nb:
                    delta += 1
            chosen.append(S)
            edges_now += delta
            rec(free & ~S)
            chosen.pop()
            edges_now -= delta

    rec((1 << n) - 1)

    witness_sets = [
        frozenset(i + 1 for i in range(n) if S >> i & 1) for S in best[2]
    ]
    return GradValue(
        value=Fraction(best[0], best[1]),
        witness=ball_family(G, witness_sets),
    )
