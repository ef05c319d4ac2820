import pytest

from gradkit.core import build_digraph
from gradkit.errors import DomainError
from gradkit.generators import path
from gradkit.harness import (
    SUITES,
    check_closure_step,
    digraph_is_acyclic,
    fit_exponent,
    run_suite,
    small_corpus,
)
from gradkit.oracles import INF, bfs_all_pairs, brute_count, longest_path
from gradkit.generators import clique, cycle, star


def test_bfs_all_pairs_path():
    table = bfs_all_pairs(path(3))
    assert table[1][3] == 2 and table[1][2] == 1 and table[2][2] == 0


def test_bfs_all_pairs_disconnected():
    from gradkit.core import build_graph

    table = bfs_all_pairs(build_graph(3, [(1, 2)]))
    assert table[1][3] == INF
    assert bfs_all_pairs(build_graph(1, []))[1][1] == 0


def test_brute_count_examples():
    assert brute_count(clique(4), clique(3)) == 4
    assert brute_count(path(5), path(2)) == 4
    assert brute_count(path(3), clique(4)) == 0


def test_longest_path_examples():
    assert longest_path(path(6)) == 6
    assert longest_path(cycle(5)) == 5
    assert longest_path(star(4)) == 3
    from gradkit.core import build_graph

    assert longest_path(build_graph(1, [])) == 1


def test_digraph_is_acyclic():
    assert digraph_is_acyclic(build_digraph(3, [(1, 2), (2, 3), (1, 3)]))
    assert not digraph_is_acyclic(build_digraph(3, [(1, 2), (2, 3), (3, 1)]))


def test_check_closure_step_negative():
    a = build_digraph(3, [(1, 2), (2, 3)])
    assert not check_closure_step(a, a)  # missing transitivity arc 1->3
    b = build_digraph(3, [(1, 2), (2, 3), (1, 3)])
    assert check_closure_step(a, b)


def test_fit_exponent_synthetic():
    points = [(10, 10**1.5), (100, 100**1.5), (1000, 1000**1.5)]
    assert abs(fit_exponent(points) - 1.5) < 1e-9
    assert fit_exponent([(10, 1.0)]) == 0.0


def test_small_corpus_coverage():
    corpus = small_corpus()
    assert len(corpus) >= 200
    assert all(G.n <= 12 for _, G in corpus)
    names = " ".join(name for name, _ in corpus)
    for family in ("path", "cycle", "clique", "star", "grid", "subdivided_clique", "*K", "rr("):
        assert family in names


def test_run_suite():
    reports = run_suite("generators")
    assert reports and all(r.match for r in reports)
    assert "ok" in reports[0].line()
    with pytest.raises(DomainError):
        run_suite("nope")
    assert set(SUITES) >= {"orientation", "distance", "patterns"}


def test_distance_suite_includes_heavy_direct_arcs():
    # random_regular(40, 3, 1) has direct arcs heavier than the distance
    # and pairs with no direct arc, at k = 3 (head scan) and k = 4 (full scan)
    reports = run_suite("distance")
    assert reports and all(r.match for r in reports)
    cubic = {r.test_id for r in reports if r.subject == "random_regular(40,3,1)"}
    assert cubic == {"distance.k3", "distance.k4"}
