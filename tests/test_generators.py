import pytest

from gradkit.core import is_connected
from gradkit.errors import InputError
from gradkit.generators import (
    apex_grid,
    clique,
    cycle,
    grid,
    lex_product_kc,
    path,
    random_regular,
    star,
    subdivided_clique,
)


def test_grid_examples():
    assert grid(1, 1).n == 1 and grid(1, 1).m == 0
    g22 = grid(2, 2)
    assert (g22.n, g22.m) == (4, 4) and all(g22.degree(v) == 2 for v in g22.vertices())
    assert grid(3, 3).m == 12


def test_apex_grid_examples():
    G = apex_grid(3, 4)
    assert (G.n, G.m) == (13, grid(3, 4).m + 12)
    assert G.adj[13] == tuple(range(1, 13))
    assert all(G.adj[v][:-1] == grid(3, 4).adj[v] for v in range(1, 13))


def test_subdivided_clique_examples():
    assert subdivided_clique(4, 0).edges == clique(4).edges
    c6 = subdivided_clique(3, 1)
    assert (c6.n, c6.m) == (6, 6)
    assert all(c6.degree(v) == 2 for v in c6.vertices()) and is_connected(c6)
    for q, t in [(3, 2), (5, 1), (6, 3)]:
        G = subdivided_clique(q, t)
        assert G.n == q + t * q * (q - 1) // 2
        assert G.m == (t + 1) * q * (q - 1) // 2


def test_lex_product_examples():
    P3 = path(3)
    assert lex_product_kc(P3, 1) == P3
    assert lex_product_kc(path(1), 4).edges == clique(4).edges
    k4 = lex_product_kc(path(2), 2)
    assert (k4.n, k4.m) == (4, 6)


def test_lex_product_order():
    G = cycle(5)
    assert lex_product_kc(G, 3).n == 15
    assert lex_product_kc(G, 3) == lex_product_kc(G, 3)


def test_random_regular():
    G = random_regular(12, 3, 42)
    assert all(G.degree(v) == 3 for v in G.vertices())
    assert random_regular(12, 3, 42) == G  # seed-deterministic
    assert random_regular(5, 0, 0).m == 0
    with pytest.raises(InputError):
        random_regular(5, 3, 0)  # odd n*d
    with pytest.raises(InputError):
        random_regular(4, 4, 0)  # d >= n


def test_star_and_cycle():
    st = star(6)
    assert st.degree(1) == 6 and st.m == 6
    with pytest.raises(InputError):
        cycle(2)

