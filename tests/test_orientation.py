import random

from hypothesis import given, strategies as st

from gradkit.core import underlying_graph
from gradkit.generators import clique, cycle, grid, path, random_regular, star
from gradkit.gradoracle import grad
from gradkit.harness import digraph_is_acyclic
from gradkit.orientation import DegeneracyOrder, degeneracy_order, orient

from conftest import raw_graphs


def test_trees_get_indegree_one():
    for G in [path(7), star(9), path(2)]:
        dg, order = orient(G)
        assert dg.md == 1
        assert order.delta_max == 1


def test_k4_bound():
    dg, order = orient(clique(4))
    assert digraph_is_acyclic(dg)
    assert dg.md <= 3  # floor(2 * 3/2)


def test_c5_indegree_two():
    dg, _ = orient(cycle(5))
    assert dg.md == 2  # any acyclic cycle orientation has an indegree-2 vertex


def test_each_edge_becomes_one_arc():
    G = grid(3, 4)
    dg, _ = orient(G)
    assert dg.m == G.m
    assert underlying_graph(dg) == G


def test_orientation_deterministic():
    G = random_regular(10, 3, 7)
    a = sorted(orient(G)[0].arcs())
    b = sorted(orient(G)[0].arcs())
    assert a == b


def test_indegree_bound_vs_oracle_sample():
    for G in [grid(3, 3), cycle(9), clique(6), random_regular(10, 4, 0), star(8)]:
        dg, order = orient(G)
        bound = int(2 * grad(G, 0).value)
        assert dg.md <= bound
        assert order.delta_max == dg.md


@given(raw_graphs())
def test_orientation_always_acyclic(G):
    dg, _ = orient(G)
    assert digraph_is_acyclic(dg)
    assert dg.m == G.m


def test_removal_order_is_permutation():
    G = grid(2, 5)
    _, order = orient(G)
    assert sorted(order.order) == list(range(1, 11))


def _reference_peel(G):
    """Remove a vertex of least (remaining degree, id) n times."""
    deg = {v: len(G.adj[v]) for v in range(1, G.n + 1)}
    order, delta_max = [], 0
    while deg:
        v = min(deg, key=lambda u: (deg[u], u))
        order.append(v)
        delta_max = max(delta_max, deg.pop(v))
        for w in G.adj[v]:
            if w in deg:
                deg[w] -= 1
    return DegeneracyOrder(order=tuple(order), delta_max=delta_max)


@given(raw_graphs(max_n=40, max_m=120), st.integers(0, 2**32))
def test_peeling_contract(G, seed):
    # the peeling that orient and the augmentation step share: the same
    # order whatever the order of each adjacency list, and every arc of
    # orient points into whichever endpoint was removed first
    dg, order = orient(G)
    assert order == _reference_peel(G)
    rng = random.Random(seed)
    shuffled = [rng.sample(a, len(a)) for a in G.adj]
    assert degeneracy_order(G.n, shuffled) == order
    rank = {v: i for i, v in enumerate(order.order)}
    for (u, v, w) in dg.arcs():
        assert rank[v] < rank[u] and w == 1
    assert dg.m == G.m
