import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkit.coloring import (
    Coloring,
    _candidates,
    _certified_costs,
    centered_parents,
    centered_to_forest,
    certify_low_tdepth,
    greedy_coloring,
    low_tdepth_coloring,
)
from gradkit.core import build_graph, connected_components, induced_subgraph, local_adjacency
from gradkit.errors import NotCenteredError, SizeLimitError
from gradkit.forests import closure
from gradkit.generators import apex_grid, clique, cycle, grid, path, random_regular, star
from gradkit.harness import fit_exponent
from gradkit.oracles import _connected_vertex_sets, brute_low_tdepth, is_centered, is_p_centered
from gradkit.treedepth import treedepth_exact

from conftest import raw_graphs


def brute_is_p_centered(G, col, p):
    """Independent check over all vertex subsets that induce a connected graph."""
    for size in range(1, G.n + 1):
        for W in combinations(range(1, G.n + 1), size):
            comps = connected_components(G, within=W)
            if len(comps) != 1:
                continue
            counts = {}
            for v in W:
                counts[col.colors[v]] = counts.get(col.colors[v], 0) + 1
            if 1 in counts.values():
                continue
            if p is not None and len(counts) >= p:
                continue
            return False
    return True


def ruler_coloring(k, bits):
    colors = (0,) + tuple(bits - ((i & -i).bit_length() - 1) for i in range(1, k + 1))
    return Coloring(colors=colors, num_colors=bits)


def test_is_centered_examples():
    P3 = path(3)
    assert is_centered(P3, Coloring((0, 1, 2, 1), 2))
    assert not is_centered(path(2), Coloring((0, 1, 1), 1))
    assert is_centered(clique(4), Coloring((0, 1, 2, 3, 4), 4))


def test_is_centered_matches_brute_force():
    G = cycle(6)
    for colors in [(0, 1, 2, 1, 2, 1, 2), (0, 1, 2, 3, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6)]:
        col = Coloring(colors, max(colors))
        assert is_centered(G, col) == brute_is_p_centered(G, col, None)


def test_is_p_centered_examples():
    C4 = cycle(4)
    proper = Coloring((0, 1, 2, 1, 2), 2)
    assert is_p_centered(C4, proper, 1)
    assert not is_p_centered(C4, proper, 3)
    assert is_p_centered(C4, proper, 3) == brute_is_p_centered(C4, proper, 3)
    ruler = ruler_coloring(7, 3)
    assert is_centered(path(7), ruler)
    for p in (2, 3, 4):
        assert is_p_centered(path(7), ruler, p)


def test_certification_limit():
    with pytest.raises(SizeLimitError):
        is_centered(path(25), Coloring((0,) + tuple(range(1, 26)), 25))


def test_certify_low_tdepth_above_the_old_limit():
    # n > 20: the certificate runs at every size
    P = path(31)
    ruler = ruler_coloring(31, 5)  # centered, hence p-centered for every p
    alternating = Coloring((0,) + tuple(1 + v % 2 for v in range(1, 32)), 2)
    for p in (2, 3, 4, 6):
        assert certify_low_tdepth(P, ruler, p)
    assert certify_low_tdepth(P, alternating, 2)  # each class is independent
    assert not certify_low_tdepth(P, alternating, 3)  # both classes: td(P31) = 5 > 2
    G = grid(5, 6)
    for p in (3, 4):
        assert certify_low_tdepth(G, low_tdepth_coloring(G, p), p)
    checkerboard = Coloring((0,) + tuple(1 + v % 2 for v in range(1, 31)), 2)
    assert not certify_low_tdepth(G, checkerboard, 3)


@settings(max_examples=300, deadline=None)
@given(raw_graphs(max_n=9, max_m=20), st.data())
def test_certificate_between_p_centered_and_exhaustive(G, data):
    # p-centered => certified => every union of i < p classes has td <= i
    k = data.draw(st.integers(1, max(G.n, 1)))
    colors = data.draw(st.lists(st.integers(1, k), min_size=G.n, max_size=G.n))
    col = Coloring((0, *colors), max(colors, default=0))
    p = data.draw(st.integers(2, 5))
    certified = certify_low_tdepth(G, col, p)
    if is_p_centered(G, col, p):
        assert certified
    if certified:
        assert brute_low_tdepth(G, col, p)


@settings(max_examples=200, deadline=None)
@given(raw_graphs(max_n=9, max_m=20), st.data())
def test_all_distinct_colourings_are_centered_and_certified(G, data):
    # the premise of the certificate's singleton rule, against the oracle
    perm = data.draw(st.permutations(range(1, G.n + 1)))
    col = Coloring((0, *perm), G.n)
    assert is_centered(G, col)
    for p in range(2, 6):
        assert certify_low_tdepth(G, col, p)


def test_certificate_builds_forests_only_where_a_colour_repeats(monkeypatch):
    import gradkit.coloring as coloring

    built = []

    def counted(adj, colors):
        built.append(frozenset(colors[1:]))
        return centered_parents(adj, colors)

    monkeypatch.setattr(coloring, "centered_parents", counted)
    G = grid(20, 20)
    assert certify_low_tdepth(G, Coloring((0,) + tuple(range(1, 401)), 400), 6)
    assert built == []
    P = path(5)
    col = Coloring((0, 1, 2, 3, 4, 1), 4)
    assert certify_low_tdepth(P, col, 3) and brute_low_tdepth(P, col, 3)
    # of the 8 connected colour sets of at most 2 colours, only those
    # holding colour 1, the class of two vertices, need a forest
    assert sorted(built, key=sorted) == [{1}, {1, 2}, {1, 4}]
    built.clear()
    col = Coloring((0, 1, 2, 1, 2, 3), 3)
    assert not certify_low_tdepth(P, col, 3) and not brute_low_tdepth(P, col, 3)
    assert built[-1] == {1, 2}  # P4 on colours 1, 2 has tree-depth 3


def test_centered_to_forest_p3():
    F = centered_to_forest(path(3), Coloring((0, 1, 2, 1), 2))
    assert F.parent == (0, 2, 0, 2)
    assert F.max_height == 2


def test_centered_to_forest_single_vertex():
    F = centered_to_forest(build_graph(1, []), Coloring((0, 1), 1))
    assert F.roots == (1,)
    assert F.max_height == 1


def test_centered_to_forest_ruler():
    P7 = path(7)
    F = centered_to_forest(P7, ruler_coloring(7, 3))
    assert F.max_height == 3
    clos = closure(F)
    for (u, v) in P7.edges:
        assert clos.has_edge(u, v)


def test_centered_to_forest_height_bounded_by_colors():
    G = grid(3, 3)
    col = low_tdepth_coloring(G, 2)
    distinct = Coloring((0,) + tuple(range(1, 10)), 9)
    F = centered_to_forest(G, distinct)
    assert F.max_height <= 9


def test_centered_to_forest_rejects_uncentered():
    with pytest.raises(NotCenteredError):
        centered_to_forest(path(2), Coloring((0, 1, 1), 1))


def _reference_parents(G, colors):
    """The root rule of centered_parents, one connected_components call
    per root: quadratic, but plainly right.  None if not centered."""
    parent = [0] * (G.n + 1)
    todo = [(comp, 0) for comp in connected_components(G)]
    while todo:
        comp, par = todo.pop()
        comp_colors = [colors[v] for v in comp]
        unique = [c for c in comp_colors if comp_colors.count(c) == 1]
        if not unique:
            return None
        root = next(v for v in comp if colors[v] == min(unique))
        parent[root] = par
        rest = [v for v in comp if v != root]
        if rest:
            todo += [(sub, root) for sub in connected_components(G, within=rest)]
    return parent


@settings(max_examples=300, deadline=None)
@given(raw_graphs(max_n=10, max_m=24), st.data())
def test_centered_parents_matches_per_root_reference(G, data):
    k = data.draw(st.integers(1, max(G.n, 1)))
    colors = (0, *data.draw(st.lists(st.integers(1, k), min_size=G.n, max_size=G.n)))
    want = _reference_parents(G, colors)
    if want is None:
        with pytest.raises(NotCenteredError):
            centered_parents(G.adj, colors)
        with pytest.raises(NotCenteredError):
            centered_to_forest(G, Coloring(colors, k))
    else:
        assert centered_parents(G.adj, colors) == want
        assert centered_to_forest(G, Coloring(colors, k)).parent == tuple(want)
    # on local ids, as the certificate and the counter call it
    verts = sorted(data.draw(st.sets(st.integers(1, G.n)))) if G.n else []
    sub, _ = induced_subgraph(G, verts)
    local_colors = [0] + [colors[v] for v in verts]
    want = _reference_parents(sub, local_colors)
    if want is None:
        with pytest.raises(NotCenteredError):
            centered_parents(local_adjacency(G, verts), local_colors)
    else:
        assert centered_parents(local_adjacency(G, verts), local_colors) == want


def test_centered_to_forest_grows_linearly_on_ruler_paths():
    # one root per component and a stamp per search, not one components
    # pass per root: n log n on a ruler-coloured path (log n levels)
    # three sizes at best of 7 each, timed round-robin (one timing of each
    # size per round), so that a burst of load from the rest of the suite
    # hits every size alike instead of deciding the fitted exponent
    sizes = (12, 13, 14)
    cases = [(path(1 << bits), ruler_coloring(1 << bits, bits + 1)) for bits in sizes]
    best = [float("inf")] * len(cases)
    # process CPU time, which other processes' load does not inflate
    for _ in range(7):
        for i, (P, ruler) in enumerate(cases):
            t = time.process_time()
            F = centered_to_forest(P, ruler)
            best[i] = min(best[i], time.process_time() - t)
            assert F.max_height == sizes[i] + 1
    points = [(1 << bits, t) for bits, t in zip(sizes, best)]
    assert fit_exponent(points) <= 1.25, points


def test_greedy_coloring_proper():
    for G in [grid(3, 4), clique(5), random_regular(12, 3, 3)]:
        col = greedy_coloring(G)
        for (u, v) in G.edges:
            assert col.colors[u] != col.colors[v]


def test_low_tdepth_coloring_edgeless():
    # a tie: 4 host-row entries on either side, and ties go to the
    # few-colour colouring
    col = low_tdepth_coloring(build_graph(4, []), 2)
    assert col.num_colors == 1


def _by_colour(G, col):
    by_color = {}
    for v in range(1, G.n + 1):
        by_color.setdefault(col.colors[v], []).append(v)
    return by_color


@settings(max_examples=150, deadline=None)
@given(raw_graphs(max_n=12, max_m=30), st.sampled_from((2, 3, 4)))
def test_weak_reachability_candidate_is_certified(G, p):
    # the candidate at r = 2^(p-2) is p-centered, so it passes the
    # certificate, and every union of i <= p - 1 of its classes has
    # tree-depth <= i; low_tdepth_coloring may return all-distinct
    # colourings instead, so this keeps the certificate checked on classes
    # of more than one vertex
    *_, col = _candidates(G, p)
    assert certify_low_tdepth(G, col, p)
    by_color = _by_colour(G, col)
    for i in range(1, p):
        for classes in combinations(sorted(by_color), i):
            sub, _ = induced_subgraph(G, [v for c in classes for v in by_color[c]])
            assert treedepth_exact(sub)[0] <= i, (p, classes)


def test_low_tdepth_coloring_picks_the_cheaper_colouring_to_count_with():
    # apex grid: every vertex set through the hub is connected, so the
    # all-distinct sets cost far more than the few-colour unions; grid 8 x 8:
    # the all-distinct sets of at most 3 vertices cost less than unions of
    # the few-colour classes
    for G, few_wins in [(apex_grid(10, 10), True), (grid(8, 8), False)]:
        few = next(c for c in _candidates(G, 4) if certify_low_tdepth(G, c, 4))
        assert few.num_colors < 20
        distinct = Coloring((0,) + tuple(range(1, G.n + 1)), G.n)
        costs = [sum(_certified_costs(G, c, 4)) for c in (few, distinct)]
        assert (costs[0] <= costs[1]) == few_wins, costs
        assert low_tdepth_coloring(G, 4) == (few if few_wins else distinct)


def test_certificate_builds_no_forest_where_every_class_is_one_vertex(monkeypatch):
    # a set of single-vertex classes is centered as it stands: the
    # certificate yields its costs, 1 + deg v summed over each connected
    # vertex set of at most p - 1 vertices, without calling
    # centered_parents; a few-colour colouring still reaches it
    import gradkit.coloring as coloring

    def refuse(*args):
        raise AssertionError("centered_parents reached")

    monkeypatch.setattr(coloring, "centered_parents", refuse)
    for G in (grid(8, 8), random_regular(64, 3, 1)):
        distinct = Coloring((0,) + tuple(range(1, G.n + 1)), G.n)
        for p in (3, 4, 5):
            want = sorted(
                sum(len(G.adj[v]) + 1 for v in U)
                for size in range(1, p)
                for U in _connected_vertex_sets(G, size)
            )
            assert sorted(_certified_costs(G, distinct, p)) == want
        few = next(_candidates(G, 4))
        with pytest.raises(AssertionError, match="centered_parents reached"):
            sum(_certified_costs(G, few, 4))


def test_low_tdepth_coloring_clique_rainbow():
    for p in (2, 3):
        col = low_tdepth_coloring(clique(5), p)
        assert col.num_colors == 5


def test_low_tdepth_coloring_p7():
    G = path(7)
    col = low_tdepth_coloring(G, 3)
    assert col.num_colors >= 3
    assert certify_low_tdepth(G, col, 3)
    # some singleton colour class disconnects the path
    sizes = {}
    for v in range(1, 8):
        sizes.setdefault(col.colors[v], []).append(v)
    singletons = [vs[0] for vs in sizes.values() if len(vs) == 1]
    assert any(
        len(connected_components(G, within=[u for u in range(1, 8) if u != s])) > 1
        for s in singletons
    )


def test_low_tdepth_certification_property_sample():
    for G in [grid(3, 4), cycle(9), random_regular(12, 3, 0), star(9)]:
        for p in (2, 3, 4):
            col = low_tdepth_coloring(G, p)
            by_color = _by_colour(G, col)
            for i in range(1, p):
                for classes in combinations(sorted(by_color), i):
                    verts = [v for c in classes for v in by_color[c]]
                    sub, _ = induced_subgraph(G, verts)
                    depth, _ = treedepth_exact(sub)
                    assert depth <= i, (G.n, p, classes)
