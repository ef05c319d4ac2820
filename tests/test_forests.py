import random
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


def plain_is_decomposition(G, T):
    """The definition, written out for t >= 1 nodes: the tree edges form a
    tree on 0..t-1, every bag holds vertices of G only, every vertex and
    every edge lies in some bag, and each vertex's nodes are connected by
    a search through the tree edges between them."""
    t = len(T.bags)
    nodes = range(t)
    if len(T.tree_edges) != t - 1 or any(a not in nodes or b not in nodes for a, b in T.tree_edges):
        return False

    def connected(within):
        within = set(within)
        if not within:
            return False
        start = min(within)
        reached, todo = {start}, [start]
        while todo:
            a = todo.pop()
            for x, y in T.tree_edges:
                for b in ((y,) if x == a else ()) + ((x,) if y == a else ()):
                    if b in within and b not in reached:
                        reached.add(b)
                        todo.append(b)
        return reached == within

    if not connected(nodes):
        return False
    if any(not 1 <= v <= G.n for bag in T.bags for v in bag):
        return False
    if any(not any({u, v} <= bag for bag in T.bags) for u, v in G.edges):
        return False
    return all(connected(i for i in nodes if v in T.bags[i]) for v in range(1, G.n + 1))


def _random_decomposition(rng):
    """A graph on at most 6 vertices and a decomposition of 1..7 nodes:
    half are built valid and then, now and then, broken (an uncovered edge,
    an extra or missing bag entry, an out-of-range tree edge); the rest
    have random bags, vertex ids -1..n + 1, and random or tree edges."""
    n, t = rng.randint(0, 6), rng.randint(1, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if rng.random() < 0.5:
        edges = [(rng.randrange(i), i) for i in range(1, t)]
        bags = [set() for _ in range(t)]
        for v in range(1, n + 1):
            # a random connected node set: grow from one node along the tree
            got = {rng.randrange(t)}
            for a, b in edges * 2:
                if (a in got) != (b in got) and rng.random() < 0.4:
                    got |= {a, b}
            for i in got:
                bags[i].add(v)
        E = [e for e in pairs if any(set(e) <= B for B in bags) and rng.random() < 0.7]
        r = rng.random()
        if r < 0.1 and pairs:
            E.append(rng.choice(pairs))
        elif r < 0.2:
            bags[rng.randrange(t)].add(rng.randint(1, n + 1))
        elif r < 0.3:
            B = bags[rng.randrange(t)]
            B.discard(min(B, default=0))
        elif r < 0.35 and edges:
            edges[rng.randrange(len(edges))] = (rng.randint(-1, t), rng.randint(0, t))
    else:
        E = [e for e in pairs if rng.random() < 0.4]
        bags = [{rng.randint(-1, n + 1) for _ in range(rng.randint(0, 4))} for _ in range(t)]
        if rng.random() < 0.5:
            edges = [(rng.randrange(i), i) for i in range(1, t)]
        else:
            edges = [(rng.randint(-1, t), rng.randint(-1, t)) for _ in range(rng.randint(0, t))]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    T = TreeDecomposition(bags=tuple(map(frozenset, bags)), tree_edges=tuple(edges))
    return build_graph(n, sorted(set(E))), T


def test_validate_decomposition_matches_the_definition():
    rng = random.Random(26)
    verdicts = []
    for _ in range(4000):
        G, T = _random_decomposition(rng)
        want = plain_is_decomposition(G, T)
        assert validate_decomposition(G, T) == want, (G.n, G.edges, T)
        verdicts.append(want)
    # both verdicts are well represented
    assert 1000 <= sum(verdicts) <= 3000, sum(verdicts)
    # no nodes: valid for the empty graph only
    assert validate_decomposition(build_graph(0, []), TreeDecomposition(bags=(), tree_edges=()))
    assert not validate_decomposition(path(1), TreeDecomposition(bags=(), tree_edges=()))
