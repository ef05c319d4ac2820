from fractions import Fraction
from itertools import combinations

import pytest

from gradkit.core import build_graph, connected_sets
from gradkit.errors import InvalidFamilyError, OracleLimitError
from gradkit.generators import clique, cycle, grid, path, star, subdivided_clique
from gradkit.gradoracle import (
    ball_family,
    evaluate_family,
    grad,
    quotient,
)


def densest_subset_value(G):
    """Independent oracle: max |E(G[W])| / |W| by direct subset enumeration."""
    best = Fraction(0)
    for size in range(1, G.n + 1):
        for W in combinations(range(1, G.n + 1), size):
            inside = set(W)
            m = sum(1 for (u, v) in G.edges if u in inside and v in inside)
            best = max(best, Fraction(m, size))
    return best


def test_quotient_of_singletons_is_graph():
    G = grid(2, 3)
    q = quotient(G, [[v] for v in range(1, 7)])
    assert q.m == G.m
    assert sorted(len(q.adj[v]) for v in q.vertices()) == sorted(
        len(G.adj[v]) for v in G.vertices()
    )


def test_quotient_path_contraction():
    P3 = path(3)
    q = quotient(P3, [[1, 2], [3]])
    assert (q.n, q.m) == (2, 1)


def test_quotient_c6_opposite_pairs():
    q = quotient(cycle(6), [[1, 2], [4, 5]])
    assert (q.n, q.m) == (2, 0)


def test_quotient_rejects_bad_families():
    G = path(4)
    with pytest.raises(InvalidFamilyError):
        quotient(G, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(InvalidFamilyError):
        quotient(G, [[1, 3]])  # disconnected ball
    with pytest.raises(InvalidFamilyError):
        quotient(G, [[]])  # empty ball


def test_grad_k4_rank0():
    result = grad(clique(4), 0)
    assert result.value == Fraction(3, 2)
    assert sorted(sorted(b) for b in result.witness.balls) == [[1], [2], [3], [4]]


def test_grad_edgeless():
    assert grad(build_graph(5, []), 2).value == 0
    assert grad(build_graph(0, []), 0).value == 0


def test_grad_monotone_and_eventually_constant():
    for G in [path(5), cycle(5), clique(4), star(4), grid(2, 3)]:
        values = [grad(G, r).value for r in range(0, G.n + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[G.n] == values[G.n + 1]


def test_grad_rank0_matches_subset_enumeration():
    for G in [path(6), cycle(6), clique(5), grid(2, 4), star(5), subdivided_clique(3, 1)]:
        assert grad(G, 0).value == densest_subset_value(G)


def test_grad_oracle_limit():
    with pytest.raises(OracleLimitError):
        grad(clique(14), 1)
    with pytest.raises(OracleLimitError):
        grad(build_graph(17, []), 0)


def test_grad_witness_attains_value():
    for G in [cycle(6), clique(5), grid(2, 4)]:
        for r in (0, 1):
            result = grad(G, r)
            assert evaluate_family(G, result.witness) == result.value
            assert result.witness.radius <= r


def test_evaluate_family_lower_bounds_grad():
    G = grid(2, 4)
    fam = ball_family(G, [[1, 2], [3, 4], [7, 8]])
    assert evaluate_family(G, fam) <= grad(G, fam.radius).value


def test_evaluate_family_single_vertex():
    assert evaluate_family(path(3), [[1]]) == 0


def test_evaluate_family_subdivided_clique_witness():
    # q=5, t=2: grow a radius-1 ball around each branch vertex by taking the
    # internal subdivision vertex on its side of every incident path
    q, t = 5, 2
    G = subdivided_clique(q, t)
    balls = {i: {i} for i in range(1, q + 1)}
    nxt = q + 1
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            balls[i].add(nxt)
            balls[j].add(nxt + 1)
            nxt += 2
    fam = ball_family(G, [balls[i] for i in range(1, q + 1)])
    assert fam.radius == 1
    assert evaluate_family(G, fam) == Fraction(q * (q - 1) // 2, q)  # = (q-1)/2 = 2


def test_subdivided_clique_rank0_density_window():
    for (qq, tt) in [(3, 1), (4, 1), (3, 2)]:
        G = subdivided_clique(qq, tt)
        assert grad(G, 0).value < 3


def brute_grad(G, r):
    """Fully independent grad: enumerate balls, then all disjoint families."""
    from gradkit.core import connected_components, induced_subgraph

    balls = []
    for size in range(1, G.n + 1):
        for W in combinations(range(1, G.n + 1), size):
            if len(connected_components(induced_subgraph(G, W)[0])) != 1:
                continue
            ecc = []
            for c in W:
                dist = {c: 0}
                frontier = [c]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for w in G.adj[v]:
                            if w in W and w not in dist:
                                dist[w] = dist[v] + 1
                                nxt.append(w)
                    frontier = nxt
                ecc.append(max(dist.values()))
            if min(ecc) <= r:
                balls.append(frozenset(W))

    best = Fraction(0)

    def rec(i, chosen, used):
        nonlocal best
        if chosen:
            edges = 0
            for a in range(len(chosen)):
                for b in range(a + 1, len(chosen)):
                    if any(G.has_edge(u, v) for u in chosen[a] for v in chosen[b]):
                        edges += 1
            best = max(best, Fraction(edges, len(chosen)))
        for j in range(i, len(balls)):
            if not balls[j] & used:
                rec(j + 1, chosen + [balls[j]], used | balls[j])

    rec(0, [], frozenset())
    return best


def test_grad_positive_rank_matches_independent_brute_force():
    hosts = [path(5), cycle(5), star(4), grid(2, 3), clique(4),
             build_graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6)])]
    for G in hosts:
        for r in (1, 2):
            assert grad(G, r).value == brute_grad(G, r), (G.edges, r)


def test_connected_subsets_enumeration_matches_brute_force():
    # the subsets the oracle enumerates come from core.connected_sets
    for G in [path(4), cycle(5), clique(4), star(3)]:
        got = [
            frozenset(i + 1 for i in T)
            for T in connected_sets([[w - 1 for w in row] for row in G.adj[1:]], G.n)
        ]
        want = []
        for mask in range(1, 1 << G.n):
            verts = [i + 1 for i in range(G.n) if mask >> i & 1]
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                v = stack.pop()
                for w in G.adj[v]:
                    if w in verts and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(verts):
                want.append(frozenset(verts))
        assert set(got) == set(want)
        assert len(got) == len(set(got))  # each subset exactly once

