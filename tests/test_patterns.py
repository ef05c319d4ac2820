import random
import sys
import threading
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradkit.coloring import (
    Coloring,
    _candidates,
    certify_low_tdepth,
    color_classes,
    greedy_coloring,
    low_tdepth_coloring,
)
from gradkit.core import (
    bit_indices,
    build_graph,
    connected_sets,
    induced_subgraph,
    is_connected,
    local_adjacency,
)
from gradkit.errors import DomainError, InputError, PatternError
from gradkit.forests import TreeDecomposition, dfs_forest, forest_to_decomposition
from gradkit.generators import (
    apex_grid,
    clique,
    cycle,
    grid,
    path,
    random_regular,
    star,
    subdivided_clique,
)
from gradkit.harness import fit_exponent, small_corpus
from gradkit.oracles import (
    _connected_vertex_sets,
    brute_aut_count,
    brute_copies,
    brute_count,
    brute_count_hitting,
    brute_has_hom,
    brute_has_induced,
    brute_has_subgraph,
)
from gradkit import patterns
from gradkit.patterns import (
    _embeddings,
    _iso_classes,
    count_isomorphs,
    count_on_decomposition,
    decide_containment,
    exists_small_model,
    list_isomorphs,
    make_pattern,
)

from conftest import raw_graphs

PATTERNS = {
    "K3": clique(3),
    "P3": path(3),
    "P4": path(4),
    "C4": cycle(4),
    "K4": clique(4),
    "star3": star(3),
}

HOSTS = [
    ("grid(3,3)", grid(3, 3)),
    ("cycle(8)", cycle(8)),
    ("clique(6)", clique(6)),
    ("wheel5", build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (5, 2)])),
    ("rr(12,3)", random_regular(12, 3, 6)),
    ("sdK(4,1)", subdivided_clique(4, 1)),
    ("two-triangles", build_graph(7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)])),
]


def test_make_pattern_validates():
    pat = make_pattern(clique(3))
    assert pat.aut_count == 6
    assert make_pattern(path(4)).aut_count == 2
    with pytest.raises(PatternError):
        make_pattern(build_graph(4, [(1, 2)]))  # disconnected
    with pytest.raises(PatternError):
        make_pattern(clique(6))  # too large
    with pytest.raises(PatternError):
        make_pattern(build_graph(0, []))


def test_automorphism_count_matches_permutation_search():
    # the enumerator's self-embeddings against the permutation oracle on
    # every graph of at most 5 vertices; make_pattern takes connected ones
    for M in _iso_classes(5):
        aut = brute_aut_count(M)
        assert sum(1 for _ in _embeddings(M.adj, M)) == aut, M.edges
        if is_connected(M):
            assert make_pattern(M).aut_count == aut, M.edges


def test_count_examples():
    assert count_isomorphs(path(3), path(2)).total == 2
    assert count_isomorphs(clique(3), path(3)).total == 3
    assert count_isomorphs(cycle(4), clique(3)).total == 0
    assert count_isomorphs(path(4), path(4)).total == 1
    wheel = HOSTS[3][1]
    assert count_isomorphs(wheel, clique(3)).total == 4


def test_connected_set_oracle_matches_every_subset_on_the_small_corpus():
    # brute_copies tries only the connected h-sets for a connected pattern;
    # every h-subset and every bijection onto it must give the same copies
    def every_subset(G, H):
        gedges = {frozenset(e) for e in G.edges}
        out = set()
        for sub in combinations(range(1, G.n + 1), H.n):
            for perm in permutations(sub):
                imgs = frozenset(frozenset((perm[u - 1], perm[v - 1])) for (u, v) in H.edges)
                if imgs <= gedges:
                    out.add((sub, imgs))
        return out

    for name, G in small_corpus():
        for H in (path(3), clique(3), path(4), cycle(4), star(3)):
            assert set(brute_copies(G, H)) == every_subset(G, H), name


def test_counts_match_brute_force():
    for hname, G in HOSTS:
        for pname, H in PATTERNS.items():
            got = count_isomorphs(G, H).total
            want = brute_count(G, H)
            assert got == want, (hname, pname)


def test_count_report_breakdown_sums():
    G = grid(3, 3)
    rep = count_isomorphs(G, path(3))
    assert sum(rep.by_color_subset.values()) == rep.total
    assert all(v > 0 for v in rep.by_color_subset.values())


def test_s_restriction():
    rng = random.Random(11)
    for hname, G in HOSTS[:4]:
        for pname, H in [("K3", clique(3)), ("P4", path(4))]:
            S = frozenset(v for v in range(1, G.n + 1) if rng.random() < 0.4)
            got = count_isomorphs(G, H, S).total
            want = brute_count_hitting(G, H, S)
            assert got == want, (hname, pname, sorted(S))


def test_s_restriction_identities():
    G = grid(3, 3)
    H = path(3)
    full = count_isomorphs(G, H).total
    assert count_isomorphs(G, H, frozenset(range(1, 10))).total == full
    S = frozenset({1, 5})
    rest, _ = induced_subgraph(G, [v for v in range(1, 10) if v not in S])
    assert count_isomorphs(G, H, S).total + count_isomorphs(rest, H).total == full


def _ruler(n):
    """Colour 1 + (number of trailing zero bits of v): centered on a path."""
    return Coloring((0,) + tuple((v & -v).bit_length() for v in range(1, n + 1)), n.bit_length())


def _distinct(n):
    return Coloring(tuple(range(n + 1)), n)


BREAKDOWN_CASES = [
    ("grid(3,3) distinct", grid(3, 3), _distinct(9)),
    ("rr(12,3) distinct", HOSTS[4][1], _distinct(12)),
    ("grid(3,3) greedy", grid(3, 3), greedy_coloring(grid(3, 3))),
    ("wheel5 greedy", HOSTS[3][1], greedy_coloring(HOSTS[3][1])),
    ("two-triangles greedy", HOSTS[6][1], greedy_coloring(HOSTS[6][1])),
    ("path(7) ruler", path(7), _ruler(7)),
    ("path(12) ruler", path(12), _ruler(12)),
]


def test_breakdown_matches_brute_force_by_exact_colour_set():
    rng = random.Random(5)
    for cname, G, col in BREAKDOWN_CASES:
        S = frozenset(v for v in range(1, G.n + 1) if rng.random() < 0.3)
        for pname, H in [("P3", path(3)), ("K3", clique(3)), ("P4", path(4)), ("C4", cycle(4))]:
            for R in (None, S):
                want: dict[frozenset[int], int] = {}
                for verts, _ in brute_copies(G, H):
                    if R is None or R.intersection(verts):
                        key = frozenset(col.colors[v] for v in verts)
                        want[key] = want.get(key, 0) + 1
                rep = count_isomorphs(G, H, R, coloring=col)
                assert rep.by_color_subset == want, (cname, pname, R)
                assert rep.total == sum(want.values())


def _tally_by_exact_colour_set(G, H, col, S):
    want: dict[frozenset[int], int] = {}
    for verts, _ in brute_copies(G, H):
        if S is None or S.intersection(verts):
            key = frozenset(col.colors[v] for v in verts)
            want[key] = want.get(key, 0) + 1
    return want


@st.composite
def coloured_hosts(draw):
    """A random graph on at most 10 vertices, a random colouring of it with
    at most n colours, and a random restriction set or None."""
    G = draw(raw_graphs(max_n=10, max_m=24))
    k = draw(st.integers(1, max(G.n, 1)))
    colors = draw(st.lists(st.integers(1, k), min_size=G.n, max_size=G.n))
    S = draw(st.none() | st.frozensets(st.integers(1, G.n), min_size=1)) if G.n else None
    return G, Coloring((0, *colors), k), S


# one colour on a path: the union is not centered, so its forest is a DFS
# forest; all colours distinct on a grid: every union is centered
FALLBACK_CASE = (path(5), Coloring((0, 1, 1, 1, 1, 1), 1), None)
CENTERED_CASE = (grid(3, 3), _distinct(9), frozenset({2, 5}))
# classes of at most 2 vertices and h = 4: the size rule drops every
# single colour and keeps the pairs, and the unit square 1, 2, 6, 5 lies in
# the pair of classes {1, 6} and {2, 5}; S = {6} is part of class {1, 6}
PAIRED_CASE = (grid(2, 4), Coloring((0, 1, 2, 3, 4, 2, 1, 5, 6), 6), frozenset({6}))


@settings(max_examples=200, deadline=None)
@given(coloured_hosts(), st.sampled_from(sorted(PATTERNS)))
@example(FALLBACK_CASE, "P3")
@example(CENTERED_CASE, "C4")
@example(PAIRED_CASE, "C4")
def test_breakdown_matches_brute_force_on_random_colourings(case, pname):
    G, col, S = case
    H = PATTERNS[pname]
    want = _tally_by_exact_colour_set(G, H, col, S)
    rep = count_isomorphs(G, H, S, coloring=col)
    assert rep.by_color_subset == want
    assert rep.total == sum(want.values())


def test_default_colourings_never_take_the_dfs_fallback(monkeypatch):
    # a colouring centered on a union stays centered on the union minus S,
    # so under low_tdepth_coloring(G, h + 1) every union gets its centered
    # forest, the restricted ones included
    def refuse(adj):
        raise AssertionError("dfs_parents fallback reached")

    monkeypatch.setattr(patterns, "dfs_parents", refuse)
    rng = random.Random(8)
    for G, pats in [
        (grid(8, 8), [path(2), path(3), clique(3)]),
        (random_regular(64, 3, 1), [path(2), path(3), clique(3)]),
        (grid(4, 5), [path(3), cycle(4)]),
    ]:
        S = frozenset(rng.sample(range(1, G.n + 1), 8))
        for H in pats:
            assert count_isomorphs(G, H, S).total == brute_count_hitting(G, H, S)


def test_random_colouring_examples_take_both_forests(monkeypatch):
    # the explicit examples above cover both ways a union gets its forest
    calls = {"centered": 0, "dfs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, fn in [("centered", patterns.centered_parents), ("dfs", patterns.dfs_parents)]:
        monkeypatch.setattr(patterns, fn.__name__, counted(name, fn))
    for (G, col, S), pname in [(FALLBACK_CASE, "P3"), (CENTERED_CASE, "C4")]:
        before = calls["dfs"]
        rep = count_isomorphs(G, PATTERNS[pname], S, coloring=col)
        assert rep.by_color_subset == _tally_by_exact_colour_set(G, PATTERNS[pname], col, S)
        assert (calls["dfs"] > before) == (G.n == 5)
    # every union tries centered_parents first; only FALLBACK_CASE's falls back
    assert calls["centered"] > calls["dfs"] > 0


def test_one_dp_per_distinct_labelled_union(monkeypatch):
    # with one vertex per colour every union of h colours has h vertices,
    # and the DP runs once per distinct rows-over-local-ids key in a call
    calls = []

    def counted(*args):
        calls.append(1)
        return copies(*args)

    copies = patterns._copies
    monkeypatch.setattr(patterns, "_copies", counted)
    G = grid(8, 8)
    col = Coloring((0,) + tuple(range(1, 65)), 64)
    _, classes, adjm = color_classes(G, col)
    S = frozenset({1, 10, 37, 64})
    # C4 has the grid's own numbers too: its 7 x 7 unit squares, 9 of them
    # at a vertex of S (1 + 4 + 4 + 1, less the square holding 1 and 10)
    want = {
        name: (brute_count(G, H), brute_count_hitting(G, H, S))
        for name, H in (("P3", path(3)), ("C4", cycle(4)))
    }
    assert want["C4"] == (49, 9)
    for name, H in (("P3", path(3)), ("C4", cycle(4))):
        keys, hit_keys = set(), set()
        for C in connected_sets(adjm, H.n):
            verts = [v for i in bit_indices(C) for v in classes[i]]
            adj = local_adjacency(G, verts)
            if len(verts) == H.n and sum(map(len, adj)) >= 2 * H.m:
                keys.add(tuple(adj))
                if not S.isdisjoint(verts):
                    hit_keys.add(tuple(adj))
        total, hitting = want[name]
        assert (len(list_isomorphs(G, H)), len(list_isomorphs(G, H, S))) == want[name]
        del calls[:]
        assert count_isomorphs(G, H, coloring=col).total == total
        assert len(calls) == len(keys)
        del calls[:]
        assert count_isomorphs(G, H, S, coloring=col).total == hitting
        assert len(calls) == len(hit_keys)  # union minus S has < h vertices


def test_counting_receives_only_unions_that_can_hold_a_copy(monkeypatch):
    # under the all-distinct colouring a union is its colour set, so the
    # unions counted must be exactly the connected h-vertex sets (with S,
    # those meeting S, each also counted without S), each once; a
    # containment scan that finds no copy receives the same sets
    received = []

    def counted(G, verts, *args):
        received.append(frozenset(verts))
        return count_in_union(G, verts, *args)

    count_in_union = patterns._count_in_union
    monkeypatch.setattr(patterns, "_count_in_union", counted)
    rng = random.Random(23)
    for G in (grid(8, 8), random_regular(64, 3, 1)):
        col = _distinct(G.n)
        S = frozenset(rng.sample(range(1, G.n + 1), 6))
        for H in (path(3), cycle(4)):
            sets = _connected_vertex_sets(G, H.n)
            del received[:]
            count_isomorphs(G, H, coloring=col)
            assert len(received) == len(sets) and set(received) == sets
            del received[:]
            count_isomorphs(G, H, S, coloring=col)
            unions = [U for U in received if U & S]
            hitting = {U for U in sets if U & S}
            assert len(unions) == len(hitting) and set(unions) == hitting
            assert sorted(map(sorted, received)) == sorted(
                sorted(U - R) for U in unions for R in (frozenset(), S)
            )
        assert low_tdepth_coloring(G, 4) == col
        del received[:]
        assert not decide_containment(G, clique(3), "subgraph")
        sets = _connected_vertex_sets(G, 3)
        assert len(received) == len(sets) and set(received) == sets


def _few_colour_candidate(G, p):
    """The first weak-reachability candidate the certificate passes."""
    return next(c for c in _candidates(G, p) if certify_low_tdepth(G, c, p))


def test_counts_match_the_connected_set_oracle_on_hundreds_of_vertices():
    # seeded grids and random cubic graphs of 200-1,000 vertices (at most
    # 240 for 4-vertex patterns, whose few-colour counts take seconds there)
    # and apex grids up to a = 8, counted under low_tdepth_coloring and under
    # the few-colour candidate, with and without S, against the oracle
    rng = random.Random(22)

    def host(family, top):
        if family == "grid":
            a = rng.randint(10, 15)
            return grid(a, rng.randint(-(-200 // a), top // a))
        if family == "cubic":
            return random_regular(2 * rng.randint(100, top // 2), 3, rng.randrange(1000))
        a = rng.randint(5, 8)
        return apex_grid(a, a)

    P3, C4, K13, P4 = path(3), cycle(4), star(3), path(4)
    cases = [(P3, "grid"), (P3, "cubic"), (P3, "apex"), (C4, "grid"), (C4, "apex")]
    cases += [(K13, "cubic"), (K13, "apex"), (P4, "grid"), (P4, "apex")]
    for H, family in cases:
        G = host(family, 1000 if H.n == 3 else 240)
        S = frozenset(rng.sample(range(1, G.n + 1), 3))
        copies = brute_copies(G, H)
        want = (len(copies), sum(not S.isdisjoint(verts) for verts, _ in copies))
        pat = make_pattern(H)
        p = H.n + 1
        for col in dict.fromkeys([low_tdepth_coloring(G, p), _few_colour_candidate(G, p)]):
            got = (
                count_isomorphs(G, pat, coloring=col).total,
                count_isomorphs(G, pat, S, coloring=col).total,
            )
            assert got == want, (H.edges, family, G.n, col.num_colors)


def _p3_closed_form(G):
    return sum(len(row) * (len(row) - 1) // 2 for row in G.adj[1:])


def test_colour_and_count_grow_linearly_on_grids_and_apex_grids():
    # colour plus count of P3 (count_isomorphs colours at p = 4), in process
    # CPU time, round-robin over the sizes, best of 3; on apex grids the hub
    # alone holds C(n - 1, 2) copies, which enumeration lists one by one
    P3 = make_pattern(path(3))
    families = [[grid(20, 20), grid(40, 40)], [apex_grid(30, 30), apex_grid(60, 60)]]
    best = [[float("inf")] * 2 for _ in families]
    for _ in range(3):
        for f, hosts in enumerate(families):
            for i, G in enumerate(hosts):
                t = time.process_time()
                total = count_isomorphs(G, P3).total
                best[f][i] = min(best[f][i], time.process_time() - t)
                assert total == _p3_closed_form(G)
    for hosts, times in zip(families, best):
        points = [(G.n, t) for G, t in zip(hosts, times)]
        assert fit_exponent(points) <= 1.25, points


def test_counting_is_thread_safe():
    # the union table lives in one call: four threads counting at once on
    # one host and colouring each get the single-threaded reports
    G = random_regular(64, 3, 1)
    col = Coloring((0,) + tuple(range(1, 65)), 64)
    pats = [make_pattern(path(3)), make_pattern(cycle(4))]
    want = [count_isomorphs(G, P, coloring=col) for P in pats]
    start = threading.Barrier(4)
    wrong: list[int | None] = [None] * 4  # stays None if a thread dies

    def worker(t):
        start.wait()
        bad = 0
        for _ in range(5):
            for P, rep in zip(pats, want):
                if count_isomorphs(G, P, coloring=col) != rep:
                    bad += 1
        wrong[t] = bad

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == [0] * 4


def _quotient_connected(quotient, C):
    start = min(C)
    seen = {start}
    todo = [start]
    while todo:
        c = todo.pop()
        for d in C:
            if quotient[c] >> d & 1 and d not in seen:
                seen.add(d)
                todo.append(d)
    return seen == C


def test_connected_color_sets_each_once():
    # the colour sets the counter visits come from core.connected_sets
    for cname, G, col in BREAKDOWN_CASES:
        quotient = color_classes(G, col)[2]
        for k in range(1, 6):
            got = list(connected_sets(quotient, k))
            want = {
                sum(1 << c for c in C)
                for r in range(1, k + 1)
                for C in combinations(range(len(quotient)), r)
                if _quotient_connected(quotient, frozenset(C))
            }
            assert len(got) == len(set(got)), (cname, k)
            assert set(got) == want, (cname, k)


def test_color_quotient():
    col = Coloring((0, 1, 5, 1, 3), 5)
    used, classes, quotient = color_classes(path(4), col)
    assert used == [1, 3, 5]
    assert classes == [[1, 3], [4], [2]]
    assert quotient == [0b110, 0b001, 0b001]  # colour 1 meets colours 3 and 5


def test_coloring_length_must_match_host():
    G = path(4)
    for colors in [(0, 1, 2), (0, 1, 2, 1, 2, 1)]:  # too short, too long
        col = Coloring(colors, 2)
        with pytest.raises(InputError, match="coloring"):
            count_isomorphs(G, path(2), coloring=col)


def test_restriction_outside_vertex_range_rejected():
    G = path(4)
    for bad in ({99}, {0}, {2, -1}):
        with pytest.raises(InputError, match="out of range"):
            count_isomorphs(G, path(2), frozenset(bad))
        with pytest.raises(InputError, match="out of range"):
            list_isomorphs(G, path(2), frozenset(bad))


def test_listing_matches_brute_force():
    for hname, G in HOSTS[:5]:
        for pname, H in [("K3", clique(3)), ("C4", cycle(4)), ("P3", path(3))]:
            got = list_isomorphs(G, H)
            want = brute_copies(G, H)
            assert len(got) == len(set(got)) == count_isomorphs(G, H).total
            assert sorted(got) == sorted(
                (verts, edges) for (verts, edges) in want
            ), (hname, pname)


def test_restricted_listing_matches_brute_force():
    rng = random.Random(3)
    for hname, G in HOSTS[:5]:
        S = frozenset(v for v in range(1, G.n + 1) if rng.random() < 0.3)
        for pname, H in [("K3", clique(3)), ("P3", path(3))]:
            got = list_isomorphs(G, H, S)
            want = [c for c in brute_copies(G, H) if S.intersection(c[0])]
            assert sorted(got) == sorted(want), (hname, pname)
            assert len(got) == count_isomorphs(G, H, S).total


def _periodic_grid_coloring(a, b):
    """Nine colours on an a x b grid, by row and column modulo 3."""
    return Coloring(
        (0,) + tuple(3 * (i % 3) + j % 3 + 1 for i in range(a) for j in range(b)), 9
    )


def test_listing_enumerates_each_embedding_once_over_the_host():
    # one pass over the whole host yields each copy once per automorphism
    for (a, b), H in [((10, 10), path(4)), ((4, 5), path(4)), ((4, 5), cycle(4))]:
        G, col = grid(a, b), _periodic_grid_coloring(a, b)
        pat = make_pattern(H)
        enumerated = sum(1 for _ in _embeddings(G.adj, H))
        listing = list_isomorphs(G, pat)
        assert enumerated == pat.aut_count * len(listing)
        assert len(listing) == count_isomorphs(G, pat, coloring=col).total
        if G.n <= 20:
            assert list(listing) == brute_copies(G, H)
        else:
            assert enumerated == 2656  # P4 on grid 10 x 10: 1,328 copies


def test_listing_empty_when_absent():
    assert list_isomorphs(cycle(4), clique(3)) == ()


def test_report_listing_length_equals_total():
    for G in [grid(3, 3), cycle(6), clique(5), random_regular(12, 3, 2)]:
        for H in [cycle(4), path(3), clique(3)]:
            assert len(list_isomorphs(G, H)) == count_isomorphs(G, H).total


def test_count_on_decomposition_direct():
    for G in [path(7), grid(3, 3), cycle(6)]:
        T = forest_to_decomposition(dfs_forest(G))
        assert count_on_decomposition(G, T, path(2)) == G.m
        assert count_on_decomposition(G, T, path(3)) == brute_count(G, path(3))


def test_count_on_decomposition_random_graphs():
    from gradkit.core import build_graph
    from gradkit.treedepth import treedepth_exact

    rng = random.Random(17)
    pats = [clique(3), path(4), cycle(4)]
    for _ in range(25):
        n = rng.randint(4, 10)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.35
        ]
        G = build_graph(n, edges)
        _, forest = treedepth_exact(G)
        T = forest_to_decomposition(forest)
        for H in pats:
            assert count_on_decomposition(G, T, H) == brute_count(G, H)


def test_count_on_decomposition_rejects_invalid():
    G = path(3)
    bad = TreeDecomposition(bags=(frozenset({1, 2}),), tree_edges=())
    with pytest.raises(DomainError):
        count_on_decomposition(G, bad, path(2))


def test_count_on_decomposition_width_limit():
    G = path(34)
    one_bag = TreeDecomposition(bags=(frozenset(range(1, 35)),), tree_edges=())
    with pytest.raises(DomainError, match="exceeds the limit 32"):
        count_on_decomposition(G, one_bag, path(2))
    T = TreeDecomposition(bags=(frozenset(range(1, 34)),), tree_edges=())
    assert count_on_decomposition(path(33), T, path(2)) == 32


def test_inclusion_exclusion_consistency():
    # with a coloring of at most h colours, the exact-subset counts must
    # sum to the count computed on one decomposition of the whole graph
    G = path(7)
    ruler = Coloring((0, 3, 2, 3, 1, 3, 2, 3), 3)
    H = path(3)
    rep = count_isomorphs(G, H, coloring=ruler)
    T = forest_to_decomposition(dfs_forest(G))
    assert rep.total == count_on_decomposition(G, T, H)


def test_decide_containment_examples():
    assert decide_containment(cycle(5), clique(3), "hom") is False
    assert decide_containment(clique(3), cycle(5), "hom") is True
    assert decide_containment(clique(3), path(3), "induced") is False
    assert decide_containment(clique(3), path(3), "subgraph") is True
    assert decide_containment(path(3), path(3), "hom") is True
    with pytest.raises(DomainError):
        decide_containment(path(3), path(2), "nonsense")


def test_decide_matches_brute_force():
    hosts = [path(6), cycle(7), clique(4), grid(2, 4), star(5), HOSTS[3][1]]
    pats = [clique(3), path(3), path(4), cycle(4), clique(4), star(3)]
    for G in hosts:
        for H in pats:
            assert decide_containment(G, H, "subgraph") == brute_has_subgraph(G, H)
            assert decide_containment(G, H, "induced") == brute_has_induced(G, H)
            assert decide_containment(G, H, "hom") == brute_has_hom(G, H)


BULL = build_graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)])
DECIDE_PATTERNS = {
    "P5": path(5),
    "K1,4": star(4),
    "C5": cycle(5),
    "bull": BULL,
    "P4": path(4),
    "C4": cycle(4),
}
BRUTE_HAS = {"hom": brute_has_hom, "subgraph": brute_has_subgraph, "induced": brute_has_induced}


def test_decide_matches_brute_force_on_random_graphs():
    # seeded random hosts, n <= 9 (the empty host included), at four edge
    # densities; the 5-vertex patterns check the DP's non-edge test and
    # the quotients of hom mode
    rng = random.Random(12)
    pats = {pname: make_pattern(H) for pname, H in DECIDE_PATTERNS.items()}
    seen: dict[tuple[str, str], set[bool]] = {}
    for i in range(300):
        n = rng.randint(0, 9)
        density = (0.2, 0.35, 0.5, 0.7)[i % 4]
        pairs = combinations(range(1, n + 1), 2)
        G = build_graph(n, [e for e in pairs if rng.random() < density])
        for pname, pat in pats.items():
            for mode, brute in BRUTE_HAS.items():
                got = decide_containment(G, pat, mode)
                assert got == brute(G, pat.graph), (G.n, G.edges, pname, mode)
                seen.setdefault((pname, mode), set()).add(got)
    # every pattern and mode met both answers
    assert all(answers == {True, False} for answers in seen.values())


def test_hom_contained_subgraph_implies_hom():
    for G in [grid(3, 3), cycle(6)]:
        for H in [path(4), cycle(4)]:
            if decide_containment(G, H, "subgraph"):
                assert decide_containment(G, H, "hom")


def _is_cycle(M):
    return M.n >= 3 and is_connected(M) and all(M.degree(v) == 2 for v in M.vertices())


def test_exists_small_model():
    wheel = HOSTS[3][1]
    assert exists_small_model(path(4), 2, lambda M: M.m >= 1) == frozenset({1, 2})
    assert exists_small_model(build_graph(3, []), 2, lambda M: M.m >= 1) is None
    assert exists_small_model(path(9), 4, _is_cycle) is None
    got = exists_small_model(wheel, 4, _is_cycle)
    assert got is not None and is_connected(wheel) and len(got) in (3, 4)
    assert exists_small_model(path(9), 3, lambda M: False) is None
    ind = exists_small_model(cycle(6), 3, lambda M: M.m == 0)
    assert ind is not None and len(ind) <= 3
    deg = exists_small_model(clique(4), 3, lambda M: all(M.degree(v) >= 2 for v in M.vertices()))
    assert deg is not None


def _degrees(M):
    return sorted(M.degree(v) for v in M.vertices())


MODEL_PREDICATES = {
    "K2+K1": lambda M: M.n == 3 and M.m == 1,
    "2K2": lambda M: M.n == 4 and _degrees(M) == [1, 1, 1, 1],
    "P3+K1": lambda M: M.n == 4 and _degrees(M) == [0, 1, 1, 2],
    "K3+K1": lambda M: M.n == 4 and _degrees(M) == [0, 2, 2, 2],
    "independent triple": lambda M: M.n == 3 and M.m == 0,
    "cycle": _is_cycle,
}


def test_exists_small_model_witness_and_none_agree_with_brute_force():
    # the disconnected classes place a component's first vertex anywhere in
    # the host and must still keep it off the other components' images
    rng = random.Random(11)
    p = 4
    for _ in range(400):
        n = rng.randint(1, 8)
        q = rng.random()
        G = build_graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < q])
        for name, pred in MODEL_PREDICATES.items():
            got = exists_small_model(G, p, pred)
            exists = any(
                pred(induced_subgraph(G, X)[0])
                for k in range(1, p + 1)
                for X in combinations(range(1, n + 1), k)
            )
            assert (got is not None) == exists, (name, G.edges)
            if got is not None:
                assert len(got) <= p and pred(induced_subgraph(G, got)[0]), (name, G.edges)


def test_exists_small_model_limits():
    with pytest.raises(PatternError):
        exists_small_model(path(3), 6, lambda M: True)
    with pytest.raises(DomainError):
        exists_small_model(path(3), 0, lambda M: True)
