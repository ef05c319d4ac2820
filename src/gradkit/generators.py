"""Deterministic constructors for the example graph families."""

from __future__ import annotations

import random

from .core import Graph, build_graph
from .errors import InputError


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def clique(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}: hub is vertex 1."""
    return build_graph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def grid(a: int, b: int) -> Graph:
    """a x b grid; vertex (i, j) is (i-1)*b + j."""
    if a < 1 or b < 1:
        raise InputError("grid dimensions must be positive")
    edges = []
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            v = (i - 1) * b + j
            if j < b:
                edges.append((v, v + 1))
            if i < a:
                edges.append((v, v + b))
    return build_graph(a * b, edges)


def apex_grid(a: int, b: int) -> Graph:
    """a x b grid plus one vertex, a * b + 1, joined to all the others."""
    G = grid(a, b)
    hub = G.n + 1
    return build_graph(hub, list(G.edges) + [(v, hub) for v in range(1, hub)])


def subdivided_clique(q: int, t: int) -> Graph:
    """K_q with every edge replaced by a path through t new internal vertices."""
    if q < 1 or t < 0:
        raise InputError("subdivided_clique needs q >= 1, t >= 0")
    edges: list[tuple[int, int]] = []
    nxt = q + 1
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            if t == 0:
                edges.append((i, j))
                continue
            prev = i
            for _ in range(t):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, j))
    return build_graph(q + t * q * (q - 1) // 2, edges)


def lex_product_kc(G: Graph, c: int) -> Graph:
    """Lexicographic product G * K_c: each vertex blows up into a c-clique,
    with complete joins between cliques of adjacent vertices."""
    if c < 1:
        raise InputError("lex product needs c >= 1")
    def vid(u: int, i: int) -> int:
        return (u - 1) * c + i
    edges = []
    for u in range(1, G.n + 1):
        for i in range(1, c + 1):
            for j in range(i + 1, c + 1):
                edges.append((vid(u, i), vid(u, j)))
    for (u, v) in G.edges:
        for i in range(1, c + 1):
            for j in range(1, c + 1):
                edges.append((vid(u, i), vid(v, j)))
    return build_graph(G.n * c, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph from the pairing model with rejection, seeded."""
    if d < 0 or n < 0:
        raise InputError("random_regular needs n, d >= 0")
    if d >= n and not (n == 0 and d == 0):
        raise InputError(f"no simple {d}-regular graph on {n} vertices")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n} d={d}")
    if d == 0:
        return build_graph(n, [])
    rng = random.Random(seed)
    stubs = [v for v in range(1, n + 1) for _ in range(d)]
    for _ in range(10000):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        norm = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(norm) == len(pairs):
            return build_graph(n, sorted(norm))
    raise InputError(f"pairing rejection failed for n={n} d={d} seed={seed}")


FAMILIES = {
    "grid": (grid, 2),
    "apex_grid": (apex_grid, 2),
    "subdivided_clique": (subdivided_clique, 2),
    "random_regular": (random_regular, 3),
    "path": (path, 1),
    "clique": (clique, 1),
    "star": (star, 1),
    "cycle": (cycle, 1),
}
