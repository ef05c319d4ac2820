import hashlib
import math

import pytest
from hypothesis import example, given, settings

from gradkit import augmentation
from gradkit.augmentation import StepStats, _delta, _step, augment
from gradkit.core import build_digraph, build_graph, underlying_graph
from gradkit.distance import preprocess
from gradkit.errors import DomainError
from gradkit.generators import clique, cycle, grid, path, random_regular, star
from gradkit.gradoracle import grad
from gradkit.harness import check_closure_step
from gradkit.oracles import bfs_all_pairs, fraternity_edges, naive_step, transitivity_arcs
from gradkit.orientation import orient

from conftest import raw_graphs

SAMPLE = [
    path(6),
    cycle(7),
    clique(5),
    grid(3, 3),
    star(6),
    random_regular(10, 3, 2),
]


def test_transitivity_chain():
    dg = build_digraph(3, [(1, 2), (2, 3)])
    assert transitivity_arcs(dg) == [(1, 3, 2)]


def test_transitivity_suppresses_loops():
    dg = build_digraph(2, [(1, 2), (2, 1)])
    assert transitivity_arcs(dg) == []


def test_transitivity_weighted_chain():
    dg = build_digraph(4, [(1, 2, 2), (2, 3, 3), (3, 4, 1)])
    assert sorted(transitivity_arcs(dg)) == [(1, 3, 5), (2, 4, 4)]


def test_fraternity_common_target():
    dg = build_digraph(3, [(1, 3), (2, 3)])
    assert fraternity_edges(dg) == [(1, 2, 2)]


def test_fraternity_single_in_arcs():
    dg = build_digraph(4, [(1, 2), (2, 3), (3, 4)])
    assert fraternity_edges(dg) == []


def test_fraternity_duplicates_kept():
    dg = build_digraph(4, [(1, 3, 1), (2, 3, 4), (1, 4, 2), (2, 4, 1)])
    assert sorted(fraternity_edges(dg)) == [(1, 2, 3), (1, 2, 5)]


def test_step_directed_path():
    dg = build_digraph(3, [(1, 2), (2, 3)])
    out, _ = _step(dg, dg.D, 1, None)
    arcs = {(u, v): w for (u, v, w) in out.arcs()}
    assert arcs == {(1, 2): 1, (2, 3): 1, (1, 3): 2}


def test_step_fraternity_one_direction():
    dg = build_digraph(3, [(1, 3), (2, 3)])
    out, _ = _step(dg, dg.D, 1, None)
    arcs = {(u, v): w for (u, v, w) in out.arcs()}
    assert arcs.get((1, 3)) == 1 and arcs.get((2, 3)) == 1
    assert ((1, 2) in arcs) != ((2, 1) in arcs)
    joined = arcs.get((1, 2), arcs.get((2, 1)))
    assert joined == 2


def test_step_arcless_identity():
    dg = build_digraph(4, [])
    out, _ = _step(dg, dg.D, 1, None)
    assert out.m == 0


def test_step_matches_candidate_merge():
    # the step must equal: merge transitivity candidates, then fraternity
    # candidates (minimum weights); orient genuinely new fraternity edges
    for G in SAMPLE:
        trace = augment(G, 2)
        for dg, nxt in zip(trace.steps, trace.steps[1:]):
            before = {(u, v): w for (u, v, w) in dg.arcs()}
            after = {(u, v): w for (u, v, w) in nxt.arcs()}
            merged = dict(before)
            for (x, v, w) in transitivity_arcs(dg):
                if merged.get((x, v), w + 1) > w:
                    merged[(x, v)] = w
            frat = {}
            for (x, y, w) in fraternity_edges(dg):
                frat[(x, y)] = min(frat.get((x, y), w), w)
            for (x, y), w in frat.items():
                hit = False
                if (x, y) in merged:
                    hit = True
                    merged[(x, y)] = min(merged[(x, y)], w)
                if (y, x) in merged:
                    hit = True
                    merged[(y, x)] = min(merged[(y, x)], w)
                if not hit:
                    assert ((x, y) in after) != ((y, x) in after)
                    key = (x, y) if (x, y) in after else (y, x)
                    assert after[key] == w
                    merged[key] = w
            assert merged == after


def test_augment_c4_one_step_completes():
    trace = augment(cycle(4), 1)
    assert len(trace.steps) == 2
    assert underlying_graph(trace.final).m == 6


def test_augment_p4_distance_two():
    trace = augment(path(4), 2)
    u = underlying_graph(trace.steps[1])
    dist = bfs_all_pairs(path(4))
    for x in range(1, 5):
        for y in range(x + 1, 5):
            if dist[x][y] <= 2:
                assert u.has_edge(x, y)


def test_augment_edgeless():
    trace = augment(build_graph(5, []), 3)
    assert all(dg.m == 0 for dg in trace.steps)


def test_augment_requires_positive_steps():
    with pytest.raises(DomainError):
        augment(path(3), 0)


@pytest.mark.parametrize("c", [1.5, 2.0, True, False, "2", None])
def test_augment_rejects_non_int_steps(c):
    with pytest.raises(DomainError):
        augment(path(3), c)


def test_closure_properties_small_corpus():
    for G in SAMPLE:
        trace = augment(G, 3)
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert check_closure_step(a, b)


def test_check_closure_step_negatives():
    chain = build_digraph(3, [(1, 2), (2, 3)])  # 1 -> 2 -> 3 needs 1 -> 3
    assert not check_closure_step(chain, chain)
    assert not check_closure_step(chain, build_digraph(3, [(1, 2), (2, 3), (3, 1)]))
    assert check_closure_step(chain, build_digraph(3, [(1, 2), (2, 3), (1, 3)]))
    fork = build_digraph(3, [(1, 3), (2, 3)])  # 1 -> 3 <- 2 needs 1 and 2 joined
    assert not check_closure_step(fork, fork)
    assert check_closure_step(fork, build_digraph(3, [(1, 3), (2, 3), (2, 1)]))
    assert check_closure_step(fork, build_digraph(3, [(1, 3), (2, 3), (1, 2)]))


def test_arc_inclusion_and_weight_decrease():
    for G in SAMPLE:
        trace = augment(G, 3)
        for a, b in zip(trace.steps, trace.steps[1:]):
            wa = {(u, v): w for (u, v, w) in a.arcs()}
            wb = {(u, v): w for (u, v, w) in b.arcs()}
            for pair, w in wa.items():
                assert pair in wb and wb[pair] <= w


def test_weight_soundness():
    for G in SAMPLE:
        dist = bfs_all_pairs(G)
        trace = augment(G, 3)
        for dg in trace.steps:
            for (u, v, w) in dg.arcs():
                assert dist[u][v] != -1 and w >= dist[u][v]


def test_indegree_recurrence():
    for G in SAMPLE:
        if G.n > 12:
            continue
        trace = augment(G, 2)
        for i in range(len(trace.steps) - 1):
            md_i = trace.steps[i].md
            md_next = trace.steps[i + 1].md
            nabla = grad(underlying_graph(trace.steps[i + 1]), 0).value
            assert md_next <= md_i * md_i + md_i + int(2 * nabla)


def test_trace_deterministic():
    G = random_regular(12, 3, 5)
    t1 = augment(G, 2)
    t2 = augment(G, 2)
    for a, b in zip(t1.steps, t2.steps):
        assert list(a.arcs()) == list(b.arcs())


def _light_pair_weights(dg, k):
    """Per unordered pair, the lightest arc weight, keeping only <= k."""
    best = {}
    for (u, v, w) in dg.arcs():
        if w <= k:
            key = frozenset((u, v))
            if best.get(key, w + 1) > w:
                best[key] = w
    return best


def test_drop_above_agrees_below_horizon():
    # Fraternity orientations may differ between the dropped and the full
    # construction, but the query formula only sees the lightest arc
    # between two endpoints, which must agree at or below the horizon.
    for G in SAMPLE:
        k = 3
        dropped = augment(G, k, drop_above=k).final
        full = augment(G, k).final
        assert _light_pair_weights(dropped, k) == _light_pair_weights(full, k)


def _rows_digest(trace):
    """SHA-256 of every in-arc row of every step, one line per row:
    "<step> <v>: <source>,<weight> ..." in row order."""
    lines = [
        f"{i} {v}: " + " ".join(f"{u},{w}" for (u, w) in dg.D[v].items())
        for i, dg in enumerate(trace.steps)
        for v in range(1, dg.n + 1)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_rows_match_pinned_digest():
    # the rows, in order, as the arc-id format produced them before arc ids
    # were dropped from the in-arc entries
    assert _rows_digest(augment(grid(6, 6), 3)) == (
        "4dc7cf28104bcd233dc7cf239df9557918f331bbe4554f57172909b677c3c32a"
    )
    assert _rows_digest(augment(random_regular(30, 3, 1), 3, drop_above=3)) == (
        "995189d2df4cf08e76df0bdc9d01491e1b742348607f518241270b513c01f422"
    )


def _rows(dg):
    return [list(row.items()) for row in dg.D]


def _sizes_off_rows(dg):
    """(arcs, maximum indegree), counted off the rows."""
    return sum(map(len, dg.D)), max(map(len, dg.D), default=0)


@settings(deadline=None)
@given(raw_graphs(max_n=30, max_m=60))
# small graphs on which a step goes wrong if its delta leaves out lowered
# arcs, or if its fraternity skips pairs of a changed and an unchanged arc
@example(
    build_graph(
        16,
        [(1, 2), (1, 8), (1, 16), (2, 11), (2, 12), (4, 6), (4, 10), (5, 15)]
        + [(6, 11), (6, 14), (6, 16), (8, 15), (9, 10), (9, 12), (13, 14), (13, 15)],
    )
)
@example(build_graph(5, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 5)]))
def test_semi_naive_steps_match_naive_chain(G):
    # every row of every step, in order and weight, and every counter, must
    # be what the full step of gradkit.oracles builds from the previous
    # naive digraph; m and md of both are the counts read off their rows
    for d in (None, 1, 2, 3, 4, 5):
        for c in range(1, 6):
            trace = augment(G, c, drop_above=d)
            dg = orient(G)[0]
            assert _rows(trace.steps[0]) == _rows(dg)
            assert (dg.m, dg.md) == _sizes_off_rows(dg) and dg.m == len(G.edges)
            for i in range(c):
                dg, stats = naive_step(dg, d)
                got = trace.steps[i + 1]
                assert _rows(got) == _rows(dg), (d, c, i + 1)
                assert (got.m, got.md) == _sizes_off_rows(got)
                assert (dg.m, dg.md) == _sizes_off_rows(dg)
                assert (
                    trace.transitivity_added[i],
                    trace.fraternity_added[i],
                    trace.fraternity_delta_max[i],
                ) == stats


@settings(deadline=None)
@given(raw_graphs(max_n=30, max_m=60))
def test_rows_begin_with_their_weight_1_orientation_arcs(G):
    # DistanceIndex.query reads only this head of a row when the lighter
    # direct arc weighs 3 or 4: the arcs of the unit-weight orientation,
    # in its order and of weight 1, and no arc of weight 1 after them
    first = orient(G)[0]
    for d in (None, 1, 2, 3, 5):
        for c in range(1, 5):
            for dg in augment(G, c, drop_above=d).steps:
                for v in range(1, G.n + 1):
                    head = list(first.D[v])
                    items = list(dg.D[v].items())
                    assert items[: len(head)] == [(u, 1) for u in head], (d, c, v)
                    assert all(w > 1 for _, w in items[len(head) :]), (d, c, v)


def test_reverse_arc_takes_skipped_fraternity_weight():
    # The 6-cycle 1-4-2-6-3-5-1.  Arcs 5 -> 1 (weight 1) and 3 -> 1 (2)
    # are unchanged by step 2, so step 3 skips their fraternity pair {3, 5}
    # at head 1; step 2 already used it on the old arc 3 -> 5.  Step 3's
    # transitivity then adds the reverse arc 5 -> 3, heavier than 3, and
    # the full step lowers it to the skipped pair's weight 3.  Likewise
    # 2 -> 5 gets weight 3 from the unchanged arcs 2 -> 4 and 5 -> 4.
    G = build_graph(6, [(1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6)])
    trace = augment(G, 3)
    before, after = trace.steps[2].D, trace.steps[3].D
    assert before[5][3] == 1 and 5 not in before[3]
    assert before[1][5] + before[1][3] == 3
    assert after[3][5] == 3
    assert before[4][2] + before[4][5] == 3 and 2 not in before[5]
    assert after[5][2] == 3
    assert _rows(trace.steps[3]) == _rows(naive_step(trace.steps[2], None)[0])


def test_step_reports_its_delta():
    # each delta row lists, in row order, the sources of the arcs the step
    # added or lowered.  Without a cap it may list unchanged arcs as well;
    # with drop_above = d it lists exactly the added or lowered arcs
    # lighter than d, since an arc of weight d or more is no summand.
    for d in (None, 2, 3, 4):
        for G in SAMPLE:
            dg = orient(G)[0]
            changed, lightest = dg.D, 1
            for _ in range(3):
                out, _ = _step(dg, changed, lightest, d)
                delta, lightest = _delta(dg.D, out.D, d)
                weights = [out.D[v][x] for v in range(1, dg.n + 1) for x in delta[v]]
                assert lightest == min(weights, default=math.inf), d
                for v in range(1, dg.n + 1):
                    row, listed = out.D[v], list(delta[v])
                    assert [x for x in row if x in listed] == listed, (d, v)
                    fresh = [x for x, w in row.items() if dg.D[v].get(x) != w]
                    if d is None:
                        assert all(x in listed for x in fresh), v
                    else:
                        assert all(x in listed for x in fresh if row[x] < d), (d, v)
                        assert all(row[x] < d and x in fresh for x in listed), (d, v)
                dg, changed = out, delta
    # from a delta with no arcs, nothing changes and dg itself comes back
    same, stats = _step(dg, [()] * (dg.n + 1), math.inf, None)
    assert same is dg and stats == StepStats(0, 0, 0)
    assert _delta(dg.D, same.D, None) == ([()] * (dg.n + 1), math.inf)


def test_a_step_that_cannot_add_an_arc_is_not_run(monkeypatch):
    # under the cap 4, step 3 of grid 20 x 20 changes only arcs of weight 4,
    # which are no summand of a kept candidate, so step 4 is not run; its
    # trace entry repeats step 3's digraph with zero counters
    calls = []
    real = augmentation._step

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(augmentation, "_step", counting)
    preprocess(grid(20, 20), 4)
    assert len(calls) == 3
    calls.clear()
    trace = augment(grid(20, 20), 4, drop_above=4)
    assert len(calls) == 3 and len(trace.steps) == 5
    assert trace.steps[4] is trace.steps[3]
    assert trace.transitivity_added[3] == trace.fraternity_added[3] == 0
    assert trace.fraternity_delta_max[3] == 0
    # without a cap, a step runs until one changes nothing
    for c, runs in ((4, 4), (8, 6)):
        calls.clear()
        augment(grid(6, 6), c)
        assert len(calls) == runs, c


def _steps_by_path(monkeypatch):
    """Record each run step as (digraph in, digraph out, insert-only?)."""
    runs = []
    insert_only = []
    real_step, real_insert_only = augmentation._step, augmentation._insert_only

    def step(dg, changed, lightest, drop_above):
        insert_only.clear()
        out, stats = real_step(dg, changed, lightest, drop_above)
        runs.append((dg, out, bool(insert_only)))
        return out, stats

    def spy(*args):
        insert_only.append(True)
        return real_insert_only(*args)

    monkeypatch.setattr(augmentation, "_step", step)
    monkeypatch.setattr(augmentation, "_insert_only", spy)
    return runs


def test_insert_only_step_runs_and_matches_the_full_step(monkeypatch):
    # under the cap 4, step 3 of grid 20 x 20 reads a delta of weight-3
    # arcs only (step 2's is of weight 2, and step 4 is not run), so it
    # alone runs as presence tests over the weight-1 heads
    runs = _steps_by_path(monkeypatch)
    preprocess(grid(20, 20), 4)
    assert [taken for _, _, taken in runs] == [False, False, True]
    dg, out, _ = runs[2]
    assert out is not dg
    assert _rows(out) == _rows(naive_step(dg, 4)[0])


def test_a_delta_with_a_lighter_arc_falls_back(monkeypatch):
    # random cubic n = 10, seed 11, under the cap 4: step 3's delta holds
    # 15 arcs of weight 3 and one of weight 2, which can pair with an arc
    # of weight 2, so that step compares weights
    G = random_regular(10, 3, 11)
    runs = _steps_by_path(monkeypatch)
    augment(G, 4, drop_above=4)
    assert [taken for _, _, taken in runs] == [False, False, False]
    dg = orient(G)[0]
    for before, out, _ in runs:
        assert _rows(before) == _rows(dg)
        dg = naive_step(dg, 4)[0]
        assert _rows(out) == _rows(dg)
    before, after = runs[1][0].D, runs[1][1].D
    delta, lightest = _delta(before, after, 4)
    assert sorted(after[v][x] for v in range(1, G.n + 1) for x in delta[v]) == [2] + [3] * 15
    assert lightest == 2


def test_unchanged_rows_are_shared_between_steps():
    trace = augment(grid(6, 6), 4, drop_above=3)
    for a, b in zip(trace.steps, trace.steps[1:]):
        for v in range(1, a.n + 1):
            if a.D[v] == b.D[v] and list(a.D[v]) == list(b.D[v]):
                assert a.D[v] is b.D[v]
