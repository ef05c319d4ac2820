import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradkit.core import Graph, build_graph, connected_components, induced_subgraph
from gradkit.errors import DisconnectedError, DomainError, InputError
from gradkit.generators import clique, grid, path, random_regular, star, subdivided_clique
from gradkit.gradoracle import evaluate_family
from gradkit.harness import fit_exponent
import gradkit.separator as separator
from gradkit.separator import (
    MinorWitness,
    Separator,
    _ball_growing,
    choose_z,
    parse_expansion,
    separate_or_minor,
    sublinear_separator,
    validate,
)


def test_clique_gives_singleton_witness():
    K5 = clique(5)
    o = separate_or_minor(K5, 1, 5)
    assert isinstance(o, MinorWitness)
    assert sorted(sorted(b) for b in o.branch_sets) == [[1], [2], [3], [4], [5]]
    assert o.radii == (0, 0, 0, 0, 0)
    assert validate(K5, o, 1, 5)


def test_star_center_separator():
    st = star(40)
    o = separate_or_minor(st, 3, 3)
    assert isinstance(o, Separator)
    assert o.vertices == frozenset({1})
    assert validate(st, o, 3, 3)


def test_grid_separator_certified():
    g = grid(20, 20)
    o = separate_or_minor(g, 4, 6)
    assert isinstance(o, Separator)  # grids have no K6 minor at any depth
    assert validate(g, o, 4, 6)
    n = 400
    assert len(o.vertices) <= 4 * (n / 4 + 4 * 4 * 36 * math.log2(n))


def test_balance_on_long_path():
    P = path(200)
    o = separate_or_minor(P, 2, 3)
    if isinstance(o, Separator):
        assert validate(P, o, 2, 3)
        rest = [v for v in range(1, 201) if v not in o.vertices]
        assert max(len(c) for c in connected_components(induced_subgraph(P, rest)[0])) <= 134


def _ladder_and_bundle(L: int, k: int, t: int) -> Graph:
    """Hub 1 with a ladder of 2L vertices hanging off it, and k paths of t
    vertices from the hub that meet again in the last vertex."""
    edges = []
    a = b = 1
    n = 1
    for _ in range(L):
        n += 2
        edges += [(a, n - 1), (b, n), (n - 1, n)]
        a, b = n - 1, n
    ends = []
    for _ in range(k):
        prev = 1
        for _ in range(t):
            n += 1
            edges.append((prev, n))
            prev = n
        ends.append(prev)
    n += 1
    edges += [(e, n) for e in ends]
    return build_graph(n, edges)


def test_balanced_separator_matches_pinned_digest():
    # SHA-256 of ",".join(sorted(S)), computed with the stack-of-regions
    # construction that the single-component loop replaced
    cases = [
        # a thin cut whose interior is the next component split
        (build_graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (4, 6)]), 3,
         "39ce8fd81053a2319b2cccd6e97cb4f684c0575efbc095ba1e8a7ba931ad2fd3"),
        # thin cuts whose rest holds the next component
        (grid(10, 10), 1, "73db371ed4a0349466beb015f853932af087a4e902247471a148d4400322d0e0"),
        # a fallback cut that keeps the side before it: S = {1, 5}
        (build_graph(9, [(i, i % 8 + 1) for i in range(1, 9)] + [(5, 9)]), 8,
         "e10f709ed16cc5cdcb71a16d00c7fcc7886d6fadbb3099f8a23c8815f47ec477"),
        # a fallback cut that keeps a piece of the side after it: S = {1, 2}
        (build_graph(6, [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 5)]), 8,
         "17f8af97ad4a7f7639a4c9171d5185cbafb85462877a4746c21bdb0a4f940ca0"),
        # the bundle of paths, searched out before the ladder, is kept
        (_ladder_and_bundle(10, 8, 6), 100,
         "437cfa92d010507e54d1ec26fa318f391b65c6c93704686e18243b829a6f906e"),
        (grid(30, 30), 4, "f237723455aeb5b62453eda71d72c909cc8c4879fce620195ceb1abc48369a91"),
        (grid(3, 200), 2, "a5e190f77d9fb5816992e8a5df76b5364253f79556540ae9979181f0e89ebcbc"),
        (path(500), 1, "c9e32a886708bda603d3305d9315e5c70daafd3028c42879fc8d0f16044fe74d"),
        (random_regular(1000, 3, 1), 2,
         "7c138969500587f82bd6637060b6b91320d56bf8ec5e5094b60857632d01e8d4"),
    ]
    for G, l, want in cases:
        S = _ball_growing(G, l)[0]
        assert hashlib.sha256(",".join(map(str, sorted(S))).encode()).hexdigest() == want


@st.composite
def connected_graphs(draw, max_n: int = 30) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(v, draw(st.integers(1, v - 1))) for v in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return build_graph(n, tree + extra)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.integers(1, 8), st.integers(2, 6))
def test_separate_or_minor_random_connected(G, l, h):
    outcome = separate_or_minor(G, l, h)
    assert validate(G, outcome, l, h)
    S, largest = _ball_growing(G, l)
    rest = [v for v in range(1, G.n + 1) if v not in S]
    sizes = [len(c) for c in connected_components(induced_subgraph(G, rest)[0])]
    assert largest == max(sizes, default=0)
    assert largest <= -(-2 * G.n // 3)
    if isinstance(outcome, Separator):
        assert outcome.vertices == S
        assert outcome.largest_component_fraction == largest / G.n


@settings(max_examples=200, deadline=None)
@given(
    connected_graphs(),
    st.data(),
    st.integers(1, 4),
    st.integers(2, 6),
    st.sampled_from((0.01, 0.05, 0.2, separator.DEFAULT_C1)),
)
def test_validate_accepts_exactly_balanced_separators(G, data, l, h, c1):
    # an arbitrary S, not one from ball growing; the fraction comes from
    # connected_components, which validate does not call
    n = G.n
    S = frozenset(data.draw(st.sets(st.integers(1, n))))
    rest = [v for v in range(1, n + 1) if v not in S]
    largest = max(map(len, connected_components(induced_subgraph(G, rest)[0])), default=0)
    limit = c1 * (n / l + 4.0 * l * h * h * math.log2(n))
    want = largest <= -(-2 * n // 3) and len(S) <= limit
    assert validate(G, Separator(S, largest / n, limit), l, h, c1=c1) == want
    for off in (-1, 1):
        assert not validate(G, Separator(S, (largest + off) / n, limit), l, h, c1=c1)


def _outcome_digest(o) -> str:
    if isinstance(o, Separator):
        fields = ("separator", sorted(o.vertices), o.largest_component_fraction, o.size_bound)
    else:
        fields = ("minor", [sorted(b) for b in o.branch_sets], o.radii, o.adjacency_edges)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def test_separate_or_minor_matches_pinned_digest():
    # SHA-256 over every field of the outcome, computed before the minor
    # search stopped at sealed sets and before the component fraction was
    # taken from ball growing
    cases = [
        (grid(30, 30), 4, 6, "7dc322e3a8d0ce6869c1cd95df64975215ae733c784ed8de5a999ccf887e8058"),
        (grid(3, 200), 2, 4, "bf23840e27d89d20d158846ea07dba8d4699f816c22a774461c95de7400b47ce"),
        (random_regular(1000, 3, 1), 1, 4,  # a minor witness
         "a8f107190ab690255a949a9871dbb8b75881cf9b7dd9e803b4296a3422bf5ecb"),
        (random_regular(1000, 3, 1), 2, 8,
         "1c2653bb81b7e1c6e93dc899b99931d9015466caeaefb6e36c16dd1af69c8dbb"),
        (_ladder_and_bundle(10, 8, 6), 3, 5,
         "008003bd7fbe1ed8961c51b8e2c276524ce2666a2be42009f434508165a9616c"),
        (path(500), 1, 3, "ae6e5e9f55638e37a1b5f57a501de7199aded5f9228fe3cbec73d10b8bc08647"),
        (star(40), 3, 3, "dbdbd33af2a9e219df8b07171ec33d0ba4a87ebf1218385d1634db9432887f0b"),
        # a star whose leaf 3 goes on as the path 3-6-9-10: the piece {9, 10}
        # cut away beside a ball that is split again is the largest component
        (build_graph(12, [(1, v) for v in (2, 3, 4, 5, 7, 8, 11, 12)] + [(3, 6), (6, 9), (9, 10)]),
         1, 3, "40f4ec7bb476621587bb1883044894efd016f0a0b98fb9cc55106f95f152a4ed"),
        # computed before the minor search read touch lists: each start of
        # clique(6) is next to every earlier set at once, and the searches on
        # the subdivided cliques and the cubic graph (which end in a
        # separator) reach several sets from one vertex
        (clique(6), 1, 5, "f0bba867d1e93eac8e180eff3cbfec31ba11e42e05757c07533dba8f7c7e2985"),
        (subdivided_clique(5, 2), 1, 5,
         "b06040631121ce53759d9693459423eece29e2303975edfbfead21da4511e69a"),
        (subdivided_clique(6, 2), 2, 4,
         "b2a95227e4d14ea59c3ef28070fcf7b874af6f92712dc8c782cddd417443067a"),
        (random_regular(2000, 3, 7), 1, 5,
         "62c0f00056b5657f72381727d520e164aff113012f170f3fe1dae3b0c8a35ad6"),
        # vertex 4 is next to set {2, 3} by two edges; the first in G.adj[4]
        # order, 4-2, certifies the pair
        (build_graph(4, [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]), 1, 3,
         "b0b5ec9de95325d4c6d01cd731ebfe75c39c58a19328143fa26a5668ad2d87e2"),
        (random_regular(100, 3, 3), 1, 4,  # the same, on a cubic graph
         "4f6e93c530b8d741d00dd38fbeb00596d55ef0afeb60156fe64e8028858c059c"),
    ]
    for G, l, h, want in cases:
        assert _outcome_digest(separate_or_minor(G, l, h)) == want


def test_minor_search_stops_at_sealed_set(monkeypatch):
    attach = separator._attach_bfs
    calls = []
    sets = []  # the branch sets built so far, in order

    def checked(G, start, used, touch, budget, targets):
        # every existing branch set still has an unused vertex next to it
        assert len(sets) == targets
        for i, b in enumerate(sets):
            assert any(
                not used[w] for v in b for w in G.adj[v]
            ), f"attempt {len(calls) + 1} after set {i} was sealed"
        calls.append(start)
        got = attach(G, start, used, touch, budget, targets)
        if got is not None:
            sets.append(got[0])
        return got

    monkeypatch.setattr(separator, "_attach_bfs", checked)
    G = grid(10, 10)
    o = separate_or_minor(G, 4, 6)
    assert isinstance(o, Separator) and validate(G, o, 4, 6)
    assert calls == [1, 2, 3]  # three sets, the corner set {1} is then sealed


def test_separate_or_minor_growth():
    points = []
    for a in (100, 200, 300):
        G = grid(a, a)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            separate_or_minor(G, 4, 6)
            best = min(best, time.perf_counter() - t0)
        points.append((G.n, best))
    exponent = fit_exponent(points)
    assert exponent <= 1.3, f"exponent {exponent:.3f}, points {points}"


def test_subdivided_clique_witness():
    sd = subdivided_clique(6, 2)
    o = separate_or_minor(sd, 2, 4)
    assert validate(sd, o, 2, 4)


def test_single_vertex():
    K1 = build_graph(1, [])
    o = separate_or_minor(K1, 1, 2)
    assert isinstance(o, Separator)
    assert o.vertices == frozenset()
    assert validate(K1, o, 1, 2)


def test_preconditions():
    with pytest.raises(DisconnectedError):
        separate_or_minor(build_graph(4, [(1, 2)]), 1, 2)
    with pytest.raises(DomainError):
        separate_or_minor(path(3), 0, 2)
    with pytest.raises(DomainError):
        separate_or_minor(path(3), 1, 1)


def test_validate_negatives():
    K4 = clique(4)
    w = MinorWitness(
        branch_sets=(frozenset({1}), frozenset({2}), frozenset({3})),
        radii=(0, 0, 0),
        adjacency_edges=(((0, 1), (1, 2)), ((0, 2), (1, 3)), ((1, 2), (2, 3))),
    )
    assert validate(K4, w, 1, 3)
    # fewer radii than branch sets
    short = MinorWitness(w.branch_sets, (0, 0), w.adjacency_edges)
    assert not validate(K4, short, 1, 3)
    # separator leaving a 0.9n component
    P10 = path(10)
    assert not validate(P10, Separator(frozenset({1}), 0.9, 99.0), 1, 3)
    # the right separator with a wrong largest component fraction; the
    # size bound at (1, 3) is 4 (10 + 36 log2 10) = 518.36...
    bound = 4.0 * (10 / 1 + 4.0 * 1 * 3 * 3 * math.log2(10))
    assert validate(P10, Separator(frozenset({4, 7}), 0.3, bound), 1, 3)
    assert not validate(P10, Separator(frozenset({4, 7}), 0.5, bound), 1, 3)
    # the right separator reporting a size bound other than the one at (1, 3)
    assert not validate(P10, Separator(frozenset({4, 7}), 0.3, 99.0), 1, 3)
    # branch sets sharing a vertex
    overlap = MinorWitness(
        branch_sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({4})),
        radii=(1, 1, 0),
        adjacency_edges=(),
    )
    assert not validate(K4, overlap, 1, 3)
    # wrong set count
    assert not validate(K4, w, 1, 4)
    # missing certificate edge
    incomplete = MinorWitness(
        branch_sets=(frozenset({1}), frozenset({2})),
        radii=(0, 0),
        adjacency_edges=(),
    )
    assert not validate(K4, incomplete, 1, 2)
    # disconnected branch set
    discon = MinorWitness(
        branch_sets=(frozenset({1}), frozenset({2, 3}), frozenset({4})),
        radii=(0, 1, 0),
        adjacency_edges=(((0, 1), (1, 2)), ((0, 2), (1, 4)), ((1, 2), (3, 4))),
    )
    K4_minus = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    assert not validate(K4_minus, discon, 1, 3)
    # an empty branch set
    empty = MinorWitness(
        branch_sets=(frozenset(), frozenset({2}), frozenset({3})),
        radii=(0, 0, 0),
        adjacency_edges=w.adjacency_edges,
    )
    assert not validate(K4, empty, 1, 3)
    # a vertex outside 1..n
    outside = MinorWitness(
        branch_sets=(frozenset({1}), frozenset({2}), frozenset({3, 9})),
        radii=(0, 0, 1),
        adjacency_edges=w.adjacency_edges,
    )
    assert not validate(K4, outside, 1, 3)
    # radii of the right length, one of them wrong
    assert not validate(K4, MinorWitness(w.branch_sets, (0, 1, 0), w.adjacency_edges), 1, 3)
    # a branch set of radius 4 on path(9): above l * log2(9) = 3.17 at l = 1
    long = MinorWitness((frozenset(range(1, 10)),), (4,), ())
    assert not validate(path(9), long, 1, 1)
    assert validate(path(9), long, 2, 1)


def test_choose_z_example():
    assert choose_z(1024, parse_expansion("const:1")) == 16


def test_choose_z_monotone_in_n():
    f = parse_expansion("poly:1,1")
    values = [choose_z(n, f) for n in (64, 128, 256, 512, 1024)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_choose_z_steep_function():
    assert choose_z(16, parse_expansion("exp:2")) in (0, 1)
    with pytest.raises(DomainError):
        choose_z(1, parse_expansion("const:1"))


def test_parse_expansion():
    assert parse_expansion("const:2")(5) == 2
    assert parse_expansion("poly:2,1")(3) == 8
    assert parse_expansion("exp:3")(1) == 9
    assert parse_expansion("table:1,2,5")(10) == 5
    for bad in (
        "const:", "poly:1", "exp:0.5", "table:3,2", "quux:1",
        "const:inf", "const:1e400", "poly:inf,1", "poly:2,inf", "exp:inf", "exp:1e400",
        "table:1,inf", "const:nan",
    ):
        with pytest.raises(InputError):
            parse_expansion(bad)


def test_sublinear_separator_rejects_overflowing_bound():
    # finite parameters whose values overflow a float: 1e308 * 2^5, 1e300^2, 2^1e308
    G = grid(10, 10)
    for spec in ("poly:1e308,5", "exp:1e300", "poly:2,1e308"):
        f = parse_expansion(spec)
        assert f(1) == math.inf
        with pytest.raises(DomainError, match="not finite"):
            sublinear_separator(G, f)


def test_sublinear_separator_cubic():
    G = random_regular(300, 3, 12)
    rep = sublinear_separator(G, parse_expansion("exp:3"))
    assert validate(G, rep.outcome, rep.l, rep.h)
    if isinstance(rep.outcome, Separator):
        assert not rep.f_violated
        assert len(rep.outcome.vertices) <= rep.separator_size_bound


def test_sublinear_separator_wrong_bound():
    K10 = clique(10)
    rep = sublinear_separator(K10, parse_expansion("const:0.5"))
    assert rep.f_violated
    assert isinstance(rep.outcome, MinorWitness)
    assert validate(K10, rep.outcome, rep.l, rep.h)
    assert rep.h - 1 > 0.5
    # the witness family certifies grad >= (h-1)/2, i.e. quotient completeness
    assert 2 * rep.witness_density >= rep.h - 1
    assert rep.witness_density == evaluate_family(K10, rep.outcome.branch_sets)
    assert max(rep.outcome.radii) <= rep.z


def test_sublinear_separator_k1():
    for n in (0, 1):
        G = build_graph(n, [])
        rep = sublinear_separator(G, parse_expansion("const:1"))
        assert isinstance(rep.outcome, Separator)
        assert rep.outcome.vertices == frozenset()
        assert validate(G, rep.outcome, rep.l, rep.h)


def test_sublinear_separator_rejects_disconnected():
    # two components of two vertices each, and a vertex with no edge
    for G in (build_graph(4, [(1, 2), (3, 4)]), build_graph(3, [(1, 2)]), build_graph(2, [])):
        with pytest.raises(DisconnectedError):
            sublinear_separator(G, parse_expansion("const:1"))


def test_witness_density_is_exactly_half_complete():
    K6 = clique(6)
    o = separate_or_minor(K6, 1, 4)
    assert isinstance(o, MinorWitness)
    dens = evaluate_family(K6, o.branch_sets)
    assert dens == Fraction(4 * 3 // 2, 4)
