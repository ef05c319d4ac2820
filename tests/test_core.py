import io
import threading

import pytest
from hypothesis import given, strategies as st

from gradkit.coloring import low_tdepth_coloring
from gradkit.core import (
    build_digraph,
    build_graph,
    connected_sets,
    induced_radius,
    induced_subgraph,
    connected_components,
    is_connected,
    local_adjacency,
    underlying_graph,
)
from gradkit.distance import preprocess
from gradkit.errors import InputError
from gradkit.generators import grid
from gradkit.orientation import orient
from gradkit.patterns import count_isomorphs
from gradkit.separator import separate_or_minor, validate
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
    ),
    st.data(),
)
def test_build_graph_matches_reference(case, data):
    # the drawn pairs repeat, hold loops and come in both orientations.  A
    # Graph stores n and adj only; m and edges are read off adj when first
    # asked for and kept, and reading them changes neither equality nor
    # the hash.  A digraph stores n and D only, and its m and md are read
    # off the rows
    n, pairs = case
    G = build_graph(n, pairs)
    twin = build_graph(n, pairs)
    want = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    assert "edges" not in vars(G) and "m" not in vars(G)
    assert G.m == len(want) and "edges" not in vars(G)
    assert G.edges == want and G.m == len(G.edges)
    assert vars(G)["edges"] is G.edges
    arcs = [(u, v) for u, v in pairs if u != v]
    heads = [v for _, v in set(arcs)]
    for dg in (build_digraph(n, arcs), orient(G)[0]):
        assert dg.m == sum(map(len, dg.D)) and dg.md == max(map(len, dg.D), default=0)
    dg = build_digraph(n, arcs)
    assert (dg.m, dg.md) == (len(heads), max(map(heads.count, range(1, n + 1))))
    assert orient(G)[0].m == len(G.edges)
    for v in range(1, n + 1):
        assert G.adj[v] == tuple(sorted({a + b - v for a, b in want if v in (a, b)}))
    assert G.adj[0] == ()
    assert "edges" not in vars(twin)
    assert twin == G and hash(twin) == hash(G)
    W = data.draw(st.lists(st.integers(1, n), max_size=12))
    sub, ids = induced_subgraph(G, W)
    again, _ = induced_subgraph(G, W)
    index = {v: i for i, v in enumerate(ids, 1)}
    sub_want = tuple((index[u], index[v]) for u, v in want if u in index and v in index)
    assert "edges" not in vars(sub)
    assert sub.m == len(sub_want) and sub.edges == sub_want and sub.m == len(sub.edges)
    assert again == sub and hash(again) == hash(sub)


@pytest.mark.parametrize(
    "bad, shown", [(0, "0"), (6, "6"), (-1, "-1"), (1.5, "1.5"), ("a", "'a'")]
)
def test_bad_vertex_messages(bad, shown):
    with pytest.raises(InputError) as exc:
        build_graph(5, [(1, bad)])
    assert str(exc.value) == f"edge (1, {bad}): vertex {shown} out of range 1..5"
    with pytest.raises(InputError) as exc:
        build_graph(5, [(bad, 2)])
    assert str(exc.value) == f"edge ({bad}, 2): vertex {shown} out of range 1..5"
    with pytest.raises(InputError) as exc:
        induced_subgraph(build_graph(5, [(1, 2)]), [1, bad])
    assert str(exc.value) == f"induced_subgraph: vertex {shown} out of range 1..5"


def test_searches_never_build_the_edge_tuple():
    # the separator, the distance oracle and counting walk adj only, so
    # the host graph never stores its edge tuple
    G = grid(30, 30)
    for l, h in ((4, 6), (1, 3)):
        assert validate(G, separate_or_minor(G, l, h), l, h)
    assert "edges" not in vars(G)
    H = grid(20, 20)
    preprocess(H, 4)
    assert "edges" not in vars(H)
    host = grid(6, 6)
    P3 = build_graph(3, [(1, 2), (2, 3)])
    assert count_isomorphs(host, P3, coloring=low_tdepth_coloring(host, 4)).total == 148
    assert "edges" not in vars(host)


def test_threads_reading_edges_at_once_agree():
    want = tuple(
        (u, v) for u in range(1, 2501) for v in (u + 1, u + 50)
        if v <= 2500 and (v == u + 50 or u % 50)
    )
    G = grid(50, 50)
    start = threading.Barrier(8)
    got = [None] * 8

    def read(i):
        start.wait()
        got[i] = G.edges

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(want) == G.m == 4900
    assert all(edges == want for edges in got)


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


def _brute_connected_sets(G, k):
    """Every nonempty set of at most k vertices of G, as 0-based indices,
    whose vertices reach each other inside it, by a closure from its least
    vertex."""
    out = set()
    for mask in range(1, 1 << G.n):
        if mask.bit_count() > k:
            continue
        verts = {i + 1 for i in range(G.n) if mask >> i & 1}
        seen = {min(verts)}
        frontier = list(seen)
        while frontier:
            frontier = [w for v in frontier for w in G.adj[v] if w in verts and w not in seen]
            seen.update(frontier)
        if seen == verts:
            out.add(frozenset(v - 1 for v in verts))
    return out


def _check_connected_sets(G, k):
    got = list(connected_sets([[w - 1 for w in row] for row in G.adj[1:]], k))
    assert all(type(T) is tuple and len(set(T)) == len(T) for T in got)
    assert len(got) == len(set(map(frozenset, got)))  # each set exactly once
    assert set(map(frozenset, got)) == _brute_connected_sets(G, k)


@given(raw_graphs(), st.integers(0, 9))
def test_connected_sets_matches_brute_force_random(G, k):
    _check_connected_sets(G, k)


def test_build_graph_rejects_a_short_edge():
    for short in [(1,), ()]:
        with pytest.raises(InputError, match="fewer than two entries") as err:
            build_graph(3, [(1, 2), short, (2, 3)])
        assert repr(short) in str(err.value)


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
    sub, ids = induced_subgraph(G, [1, 4, 5])
    assert [[ids[v - 1] for v in c] for c in connected_components(sub)] == [[1], [4, 5]]


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
