import math
import random

import pytest

from gradkit.core import build_graph
from gradkit.errors import SizeLimitError
from gradkit.forests import closure, dfs_forest, make_forest
from gradkit.generators import clique, cycle, grid, path, random_regular, star
from gradkit.oracles import brute_treedepth, longest_path
from gradkit.treedepth import treedepth_decide, treedepth_exact

SMALL = [
    path(8),
    cycle(9),
    clique(5),
    star(7),
    grid(3, 3),
    random_regular(10, 3, 4),
    build_graph(6, [(1, 2), (3, 4), (4, 5), (5, 3)]),  # disconnected
]


def test_path_formula():
    for k in [1, 2, 3, 6, 7, 8, 15, 16, 21]:
        depth, forest = treedepth_exact(path(k), limit=21)
        assert depth == math.ceil(math.log2(k + 1))
        assert forest.max_height == depth


def test_clique_and_star():
    for n in range(1, 7):
        assert treedepth_exact(clique(n))[0] == n
    assert treedepth_exact(star(9))[0] == 2


def test_witness_forest_contains_graph():
    for G in SMALL:
        depth, forest = treedepth_exact(G)
        assert forest.max_height == depth
        clos = closure(forest)
        for (u, v) in G.edges:
            assert clos.has_edge(u, v)


def test_exact_limit():
    with pytest.raises(SizeLimitError):
        treedepth_exact(path(25))
    assert treedepth_exact(path(25), limit=25)[0] == 5


def test_decide_path_cutoffs():
    assert not treedepth_decide(path(15), 3)
    assert treedepth_decide(path(15), 4)
    # a DFS path of length >= 2^k forces "no" via the height cutoff
    assert not treedepth_decide(path(16), 3)


def test_decide_edgeless():
    assert treedepth_decide(build_graph(5, []), 1)


def test_decide_agrees_with_exact():
    for G in SMALL:
        depth, _ = treedepth_exact(G)
        for k in range(1, 6):
            assert treedepth_decide(G, k) == (depth <= k), (G.edges, k)


def test_decide_large_star_fast():
    assert treedepth_decide(star(500), 2)
    assert not treedepth_decide(star(500), 1)


def test_dfs_sandwich():
    for G in SMALL:
        depth, _ = treedepth_exact(G)
        h = dfs_forest(G).max_height
        assert depth <= h <= 2**depth - 1


def test_finite_order_bound():
    # connected graph with max degree D and tree-depth t has at most
    # 1 + D + ... + D^(t-1) vertices
    for G in [path(7), cycle(8), clique(5), star(6), grid(3, 3)]:
        depth, _ = treedepth_exact(G)
        delta = max(G.degree(v) for v in G.vertices())
        assert G.n <= sum(delta**i for i in range(depth))


def test_longest_path_bounds():
    for G in [path(6), cycle(7), clique(5), star(5), grid(2, 4)]:
        k = longest_path(G)
        depth, _ = treedepth_exact(G)
        assert math.ceil(math.log2(k + 1)) <= depth <= (k + 2) * (k + 1) // 2 - 1


def test_closure_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 10)
        parent = {1: 0}
        for v in range(2, n + 1):
            parent[v] = rng.randint(0, v - 1)
        F = make_forest(n, parent)
        depth, _ = treedepth_exact(closure(F))
        assert depth <= F.max_height


def _agrees_with_brute(G):
    want = brute_treedepth(G)
    depth, forest = treedepth_exact(G)
    assert depth == want, G.edges
    assert forest.max_height == want, G.edges
    clos = closure(forest)
    assert all(clos.has_edge(u, v) for (u, v) in G.edges), G.edges
    for k in range(1, 7):
        assert treedepth_decide(G, k) == (want <= k), (G.edges, k)


def test_stars_with_centre_last():
    # no count-based lower bound may cut the search: K1,r has td 2 at any r
    for r in (3, 6):
        G = build_graph(r + 1, [(r + 1, v) for v in range(1, r + 1)])
        assert brute_treedepth(G) == 2
        _agrees_with_brute(G)


def test_exact_decide_and_witness_match_brute_force():
    rng = random.Random(11)
    for density in (0.15, 0.3, 0.5, 0.75):
        for _ in range(550):
            n = rng.randint(1, 9)
            edges = [
                (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if rng.random() < density
            ]
            _agrees_with_brute(build_graph(n, edges))


def test_brute_treedepth_limit():
    with pytest.raises(SizeLimitError):
        brute_treedepth(path(13))
    assert brute_treedepth(build_graph(0, [])) == 0
