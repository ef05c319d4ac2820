"""Exact greatest reduced average density on small graphs.

This module is the project's ground truth: grad(G, r) maximizes
|E(G/P)| / |P| over every family P of pairwise disjoint balls of radius
at most r, by exhaustive enumeration.  Values are exact rationals.
evaluate_family scores a single family, which certifies a lower bound on
graphs too large for the full search.

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
    """Graph on {1..|P|} with an edge {i, j} iff some G-edge joins ball i and j."""
    fam = P if isinstance(P, BallFamily) else ball_family(G, P)
    masks = [0] * len(fam.balls)
    nbrs = [0] * len(fam.balls)
    for i, b in enumerate(fam.balls):
        for v in b:
            masks[i] |= 1 << (v - 1)
            for w in G.adj[v]:
                nbrs[i] |= 1 << (w - 1)
        nbrs[i] &= ~masks[i]
    edges = [
        (i + 1, j + 1)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[j] & nbrs[i]
    ]
    return build_graph(len(masks), edges)


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

    adjm = neighbour_masks(G)
    if r == 0:
        ball_masks = [1 << i for i in range(n)]
    else:
        ball_masks = [
            S
            for S in connected_sets(adjm, n)
            if induced_radius(G, [i + 1 for i in range(n) if S >> i & 1]) <= r
        ]

    ball_nbrs = []
    for S in ball_masks:
        nb = 0
        rest = S
        while rest:
            low = rest & -rest
            rest ^= low
            nb |= adjm[low.bit_length() - 1]
        ball_nbrs.append(nb & ~S)

    balls_at: list[list[int]] = [[] for _ in range(n)]
    for bi, S in enumerate(ball_masks):
        rest = S
        while rest:
            low = rest & -rest
            rest ^= low
            balls_at[low.bit_length() - 1].append(bi)

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
