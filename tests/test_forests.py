import time

import pytest

from gradkit.core import build_graph
from gradkit.errors import InputError
from gradkit.forests import (
    TreeDecomposition,
    closure,
    dfs_forest,
    forest_to_decomposition,
    make_forest,
    validate_decomposition,
)
from gradkit.generators import clique, cycle, grid, path, star
from gradkit.harness import fit_exponent


def test_make_forest_heights_and_roots():
    F = make_forest(5, {1: 0, 2: 1, 3: 1, 4: 2, 5: 0})
    assert F.roots == (1, 5)
    assert F.height == (0, 1, 2, 2, 3, 1)
    assert F.max_height == 3
    assert F.root_path(4) == [4, 2, 1]


def test_make_forest_rejects_cycles():
    with pytest.raises(InputError, match="cycle"):
        make_forest(3, {1: 2, 2: 3, 3: 1})
    with pytest.raises(InputError, match="parent"):
        make_forest(2, {1: 1, 2: 0})
    # one cycle through all 1,000 vertices
    n = 1000
    with pytest.raises(InputError, match="cycle through 1$"):
        make_forest(n, [v % n + 1 for v in range(1, n + 1)])
    # a rooted path 1..4, then a tail 5 -> ... -> 500 that runs into the cycle 500 -> ... -> 1000 -> 500
    parent = {1: 0, 2: 1, 3: 2, 4: 3}
    parent.update({v: v + 1 for v in range(5, 1000)})
    parent[1000] = 500
    with pytest.raises(InputError, match="cycle through 500$"):
        make_forest(1000, parent)


def test_make_forest_grows_linearly_on_reversed_paths():
    # parent = [2, ..., n, 0]: the first chain climbs all n vertices to the
    # root n; round-robin timing (one timing of each size per round), best
    # of 3 per size, in process CPU time so that other processes' load
    # does not count
    sizes = (10_000, 20_000, 40_000)
    parents = [list(range(2, n + 1)) + [0] for n in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(3):
        for i, (n, parent) in enumerate(zip(sizes, parents)):
            t = time.process_time()
            F = make_forest(n, parent)
            best[i] = min(best[i], time.process_time() - t)
            assert F.roots == (n,) and F.max_height == n
    points = list(zip(sizes, best))
    assert fit_exponent(points) <= 1.25, points


def test_make_forest_rejects_keys_outside_range():
    for bad in ({-1: 2}, {0: 1}, {5: 1}, {4: 0}):
        with pytest.raises(InputError, match="out of range"):
            make_forest(3, bad)


def test_closure_joins_all_ancestors():
    F = make_forest(4, {1: 0, 2: 1, 3: 2, 4: 3})  # a path-shaped tree
    assert closure(F).m == 6  # becomes K4


def test_dfs_forest_contains_graph_in_closure():
    for G in [path(7), cycle(8), grid(3, 3), star(5), clique(4)]:
        F = dfs_forest(G)
        clos = closure(F)
        for (u, v) in G.edges:
            assert clos.has_edge(u, v)


def test_dfs_forest_star_heights():
    F = dfs_forest(star(5))
    assert F.roots == (1,)
    assert F.max_height == 2


def test_forest_to_decomposition_star():
    F = make_forest(4, {1: 0, 2: 1, 3: 1, 4: 1})
    T = forest_to_decomposition(F)
    assert T.width == 1
    assert validate_decomposition(closure(F), T)


def test_forest_to_decomposition_single_vertex():
    F = make_forest(1, {1: 0})
    assert forest_to_decomposition(F).width == 0


def test_forest_to_decomposition_hangs_roots_off_empty_node():
    F = make_forest(5, {1: 0, 2: 0, 3: 2, 4: 0, 5: 4})
    T = forest_to_decomposition(F)
    assert T.bags[0] == frozenset()
    assert T.bags[1:] == tuple(frozenset(F.root_path(v)) for v in range(1, 6))
    assert sorted(T.tree_edges) == [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5)]
    assert validate_decomposition(closure(F), T)


def test_decomposition_width_is_height_minus_one():
    for G in [path(7), grid(3, 4), cycle(6)]:
        F = dfs_forest(G)
        T = forest_to_decomposition(F)
        assert T.width == F.max_height - 1
        assert validate_decomposition(G, T)


def test_validate_decomposition_negatives():
    G = path(3)
    # missing edge coverage
    bad = TreeDecomposition(bags=(frozenset({1, 2}), frozenset({3})), tree_edges=((0, 1),))
    assert not validate_decomposition(G, bad)
    # vertex occurrences not connected in the tree
    bad2 = TreeDecomposition(
        bags=(frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})),
        tree_edges=((0, 1), (1, 2)),
    )
    assert not validate_decomposition(G, bad2)
    # not a tree
    bad3 = TreeDecomposition(bags=(frozenset({1, 2}), frozenset({2, 3})), tree_edges=())
    assert not validate_decomposition(G, bad3)
    good = TreeDecomposition(
        bags=(frozenset({1, 2}), frozenset({2, 3})), tree_edges=((0, 1),)
    )
    assert validate_decomposition(G, good)
    # edge {a, b} uncovered, with a in three bags and b in one; the lower id
    # is the endpoint in more bags, then the one in fewer
    chain = ((0, 1), (1, 2), (2, 3))
    for a, b in ((1, 3), (3, 1)):
        H = build_graph(5, [(a, 2), (a, 4), (a, 5), (b, 5), (a, b)])
        bags = (frozenset({a, 2}), frozenset({a, 4}), frozenset({a, 5}), frozenset({b, 5}))
        assert not validate_decomposition(H, TreeDecomposition(bags=bags, tree_edges=chain))
        covered = bags[:3] + (frozenset({a, b, 5}),)
        assert validate_decomposition(H, TreeDecomposition(bags=covered, tree_edges=chain))
