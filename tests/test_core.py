import io

import pytest
from hypothesis import given, strategies as st

from gradkit.core import (
    build_digraph,
    build_graph,
    connected_sets,
    induced_radius,
    induced_subgraph,
    connected_components,
    is_connected,
    local_adjacency,
    neighbour_masks,
    underlying_graph,
)
from gradkit.errors import InputError
from gradkit.orientation import orient
from gradkit import textio

from conftest import raw_graphs

# the worked 5-vertex, 7-arc digraph used throughout the docs
EXAMPLE_ARCS = [(1, 2), (1, 3), (3, 4), (2, 4), (4, 2), (2, 5), (5, 4)]


def test_build_graph_collapses_duplicates():
    G = build_graph(3, [(1, 2), (2, 1), (2, 3)])
    assert G.m == 2
    assert G.edges == ((1, 2), (2, 3))


def test_build_graph_example_digraph_underlying():
    G = build_graph(5, EXAMPLE_ARCS)
    assert G.m == 6  # the antiparallel 2-4 pair collapses


def test_build_graph_single_vertex():
    G = build_graph(1, [])
    assert (G.n, G.m) == (1, 0)


def test_build_graph_removes_loops_and_sorts():
    G = build_graph(4, [(3, 3), (4, 1), (2, 1)])
    assert G.edges == ((1, 2), (1, 4))
    assert G.adj[1] == (2, 4)


def test_build_graph_out_of_range():
    with pytest.raises(InputError, match=r"\(1, 7\)"):
        build_graph(5, [(1, 7)])


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40)
        )
    )
)
def test_build_graph_matches_reference(case):
    # the drawn pairs repeat, hold loops and come in both orientations
    n, pairs = case
    G = build_graph(n, pairs)
    want = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    assert G.edges == tuple(want) and G.m == len(want)
    for v in range(1, n + 1):
        assert G.adj[v] == tuple(sorted({a + b - v for a, b in want if v in (a, b)}))
    assert G.adj[0] == ()


def test_build_digraph_matches_worked_example():
    dg = build_digraph(5, EXAMPLE_ARCS)
    assert dg.m == 7
    assert list(dg.D[2].items()) == [(1, 1), (4, 1)]  # order of first appearance
    assert list(dg.D[4].items()) == [(3, 1), (2, 1), (5, 1)]
    assert dg.D[1] == {}
    assert dg.md == 3


def test_build_digraph_min_weight_merge():
    dg = build_digraph(3, [(1, 2, 3), (3, 2), (1, 2, 1), (1, 2, 2), (3, 2, 4)])
    assert dg.m == 2
    # a later lighter duplicate lowers the weight in place, a heavier one is ignored
    assert list(dg.D[2].items()) == [(1, 1), (3, 1)]
    assert 1 in dg.D[2] and 2 not in dg.D[1]


def test_build_digraph_empty():
    dg = build_digraph(3, [])
    assert dg.m == dg.md == 0
    assert all(dg.D[v] == {} for v in range(1, 4))


def test_arcs_yield_row_by_row():
    dg = build_digraph(5, EXAMPLE_ARCS)
    assert list(dg.arcs()) == [
        (1, 2, 1), (4, 2, 1), (1, 3, 1), (3, 4, 1), (2, 4, 1), (5, 4, 1), (2, 5, 1)
    ]


def test_build_digraph_rejects_loops():
    with pytest.raises(InputError, match="loop"):
        build_digraph(3, [(2, 2)])


def test_underlying_graph():
    dg = build_digraph(5, EXAMPLE_ARCS)
    assert underlying_graph(dg).m == 6
    dg2 = build_digraph(2, [(1, 2), (2, 1)])
    assert underlying_graph(dg2).edges == ((1, 2),)
    dg3 = build_digraph(4, [])
    assert underlying_graph(dg3).m == 0


@given(raw_graphs())
def test_adjacency_symmetric(G):
    for v in range(1, G.n + 1):
        for w in G.adj[v]:
            assert v in G.adj[w]


@given(raw_graphs())
def test_build_graph_idempotent(G):
    assert build_graph(G.n, G.edges) == G


@given(raw_graphs())
def test_orientation_round_trip(G):
    dg, _ = orient(G)
    assert underlying_graph(dg) == G


def test_induced_subgraph_relabels():
    G = build_graph(5, [(1, 2), (2, 4), (4, 5)])
    sub, ids = induced_subgraph(G, [2, 4, 5])
    assert ids == (2, 4, 5)
    assert sub.edges == ((1, 2), (2, 3))


@given(raw_graphs(max_n=10, max_m=30), st.data())
def test_induced_subgraph_matches_edge_scan(G, data):
    # the adjacency-based construction must equal the graph built from a
    # scan of every edge of G; W may be unsorted and hold duplicates
    W = data.draw(st.lists(st.integers(1, G.n), max_size=12)) if G.n else []
    sub, ids = induced_subgraph(G, W)
    assert ids == tuple(sorted(set(W)))
    index = {v: i for i, v in enumerate(ids, 1)}
    scan = [(index[u], index[v]) for (u, v) in G.edges if u in index and v in index]
    assert sub == build_graph(len(ids), scan)


@given(raw_graphs(max_n=10, max_m=30), st.data())
def test_local_adjacency_follows_the_given_order(G, data):
    # local id i stands for ids[i - 1], whatever the order of ids
    ids = data.draw(st.permutations(range(1, G.n + 1))) if G.n else []
    ids = ids[: data.draw(st.integers(0, len(ids)))]
    rows = local_adjacency(G, ids)
    assert rows[0] == () and len(rows) == len(ids) + 1
    for i, v in enumerate(ids, 1):
        want = [j for j, w in enumerate(ids, 1) if G.has_edge(v, w)]
        assert sorted(rows[i]) == want
        assert [ids[j - 1] for j in rows[i]] == [w for w in G.adj[v] if w in ids]


def test_induced_subgraph_rejects_out_of_range():
    G = build_graph(3, [(1, 2)])
    with pytest.raises(InputError, match="out of range"):
        induced_subgraph(G, [1, 4])


def _brute_connected_sets(adjm, k):
    """Every nonempty mask of at most k bits whose bits reach each other
    through adjm, by a closure from the lowest bit."""
    out = set()
    for mask in range(1, 1 << len(adjm)):
        if mask.bit_count() > k:
            continue
        seen = frontier = mask & -mask
        while frontier:
            grown = 0
            for i in range(len(adjm)):
                if frontier >> i & 1:
                    grown |= adjm[i]
            frontier = grown & mask & ~seen
            seen |= frontier
        if seen == mask:
            out.add(mask)
    return out


def _check_connected_sets(adjm, k):
    got = list(connected_sets(adjm, k))
    assert len(got) == len(set(got))  # each mask exactly once
    assert set(got) == _brute_connected_sets(adjm, k)


@given(raw_graphs(), st.integers(0, 9))
def test_connected_sets_matches_brute_force_random(G, k):
    _check_connected_sets(neighbour_masks(G), k)


def test_induced_radius():
    from gradkit.generators import grid, path

    assert induced_radius(grid(3, 3), range(1, 10)) == 2
    assert induced_radius(grid(3, 3), [1, 2, 3, 5]) == 1
    assert induced_radius(path(5), [4]) == 0
    assert induced_radius(path(5), [1, 2, 4, 5]) is None  # disconnected
    assert induced_radius(path(5), []) is None


def test_connected_components():
    G = build_graph(6, [(1, 2), (4, 5)])
    assert connected_components(G) == [[1, 2], [3], [4, 5], [6]]
    assert connected_components(G, within=[1, 4, 5]) == [[1], [4, 5]]


def test_connected_components_checks_within():
    from gradkit.generators import path

    # -1 would read the last slot, 0 the unused one, 6 past the end
    for within in ([-1], [0, 1], [6]):
        with pytest.raises(InputError):
            connected_components(path(5), within=within)


@given(raw_graphs())
def test_is_connected_matches_components(G):
    assert is_connected(G) == (len(connected_components(G)) <= 1)


def test_textio_graph_round_trip():
    G = build_graph(5, EXAMPLE_ARCS)
    text = textio.graph_to_text(G, comments=["example"])
    assert text.startswith("# example\n5 6\n")
    assert text.endswith("\n")
    assert textio.read_graph(io.StringIO(text)) == G


def test_textio_digraph_round_trip():
    dg = build_digraph(5, [(u, v, w) for w, (u, v) in enumerate(EXAMPLE_ARCS, start=1)])
    text = textio.digraph_to_text(dg)
    back = textio.read_digraph(io.StringIO(text))
    assert sorted(back.arcs()) == sorted(dg.arcs())


def test_textio_reports_line_numbers():
    with pytest.raises(InputError, match="line 3"):
        textio.read_graph(io.StringIO("# c\n3 2\n1 oops\n2 3\n"))
    with pytest.raises(InputError, match="header"):
        textio.read_graph(io.StringIO(""))
    with pytest.raises(InputError, match="announced"):
        textio.read_graph(io.StringIO("3 2\n1 2\n"))


def test_textio_vertex_set_and_pairs():
    assert textio.read_vertex_set(io.StringIO("1 2\n# x\n5\n")) == frozenset({1, 2, 5})
    assert textio.read_pairs(io.StringIO("1 2\n3 4\n")) == [(1, 2), (3, 4)]
    assert textio.read_family(io.StringIO("1 2\n3\n")) == [frozenset({1, 2}), frozenset({3})]
