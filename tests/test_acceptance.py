"""Acceptance suite: one test per criterion, each printing pass/fail lines.

Run `pytest tests/test_acceptance.py -v -s` to see the per-check lines.
Timing checks compare growth exponents, not absolute times, so they are
machine-independent; they do assume an otherwise idle machine.
"""

from __future__ import annotations

import math
import random
import time

from gradkit.augmentation import augment
from gradkit.coloring import low_tdepth_coloring
from gradkit.core import build_graph, connected_components, induced_subgraph, is_connected
from gradkit.distance import preprocess
from gradkit.errors import NotCenteredError
from gradkit.forests import closure, dfs_forest, forest_to_decomposition, validate_decomposition
from gradkit.coloring import centered_to_forest
from gradkit.generators import (
    clique,
    cycle,
    grid,
    lex_product_kc,
    path,
    random_regular,
    star,
    subdivided_clique,
)
from gradkit.gradoracle import evaluate_family, grad
from gradkit.harness import (
    check_closure_step,
    digraph_is_acyclic,
    fit_exponent,
    small_corpus,
)
from gradkit.oracles import (
    INF,
    bfs_all_pairs,
    bfs_distances,
    brute_count,
    brute_count_hitting,
    brute_has_hom,
    brute_has_induced,
    brute_has_subgraph,
    longest_path,
)
from gradkit.orientation import orient
from gradkit.patterns import count_isomorphs, decide_containment, make_pattern
from gradkit.separator import (
    MinorWitness,
    Separator,
    parse_expansion,
    separate_or_minor,
    sublinear_separator,
    validate,
)
from gradkit.treedepth import treedepth_decide, treedepth_exact


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def timed(fn, repeats: int = 3) -> float:
    """Best of repeats runs of fn in process CPU time, which load from
    other processes does not inflate, with the collector off."""
    import gc

    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            fn()
            best = min(best, time.process_time() - t0)
        finally:
            gc.enable()
    return best


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_orientation_bound_and_speed():
    t_start = time.perf_counter()
    corpus = small_corpus()
    assert len(corpus) >= 200
    bad = []
    for name, G in corpus:
        dg, order = orient(G)
        bound = int(2 * grad(G, 0).value)
        if not digraph_is_acyclic(dg) or dg.md > bound or dg.m != G.m:
            bad.append(name)
    report(
        "criterion-1 orientation bound (acyclic, md <= floor(2*grad_0))",
        not bad,
        f"{len(corpus)} graphs, violations: {bad[:5]}",
    )

    # Each sample is a block of calls of about the same length at every
    # size (16, 4 and 1 calls), so a short fast spell of the machine cannot
    # favour the small grid.  The three sizes are timed back to back in
    # each of 9 rounds, which share the machine's speed of the moment; the
    # exponent is the median of the rounds' fits.
    sizes = ((100, 16), (200, 4), (400, 1))
    graphs = [(grid(k, k), calls) for k, calls in sizes]
    fits = []
    for _ in range(9):
        points = []
        for G, calls in graphs:

            def block():
                for _ in range(calls):
                    orient(G)

            points.append((G.n + G.m, timed(block, repeats=1) / calls))
        fits.append(fit_exponent(points))
    exponent = sorted(fits)[len(fits) // 2]
    report("criterion-1 orientation scaling exponent <= 1.15", exponent <= 1.15, f"{exponent:.3f}")
    elapsed = time.perf_counter() - t_start
    report("criterion-1 suite under 5 minutes", elapsed < 300, f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_augmentation_closure():
    violations = []
    corpus = small_corpus()
    for name, G in corpus:
        trace = augment(G, 3)
        for i in range(3):
            if not check_closure_step(trace.steps[i], trace.steps[i + 1]):
                violations.append((name, i + 1))
    report(
        "criterion-2 transitivity+fraternity closure, steps i <= 3",
        not violations,
        f"{len(corpus)} graphs, violations: {violations[:5]}",
    )


# ---------------------------------------------------------------- criterion 3

EXHAUSTIVE_DISTANCE_HOSTS = [
    ("grid(10,10)", lambda: grid(10, 10)),
    ("grid(15,15)", lambda: grid(15, 15)),
    ("sdK(6,2)", lambda: subdivided_clique(6, 2)),
    ("sdK(7,3)", lambda: subdivided_clique(7, 3)),
    ("rr(60,3)", lambda: random_regular(60, 3, 0)),
    ("rr(150,4)", lambda: random_regular(150, 4, 1)),
    ("path(200)", lambda: path(200)),
    ("cycle(240)", lambda: cycle(240)),
    ("star(120)", lambda: star(120)),
]

SAMPLED_DISTANCE_HOSTS = [
    ("grid(23,22)", lambda: grid(23, 22), range(1, 7)),
    ("grid(32,32)", lambda: grid(32, 32), range(1, 7)),
    ("grid(45,45)", lambda: grid(45, 45), range(1, 7)),
    ("sdK(15,9)", lambda: subdivided_clique(15, 9), range(1, 7)),
    ("sdK(20,10)", lambda: subdivided_clique(20, 10), range(1, 7)),
    ("rr(1000,3)", lambda: random_regular(1000, 3, 9), range(1, 7)),
    ("rr(2000,3)", lambda: random_regular(2000, 3, 10), range(1, 7)),
    ("rr(500,4)", lambda: random_regular(500, 4, 3), range(1, 6)),
    ("rr(2000,4)", lambda: random_regular(2000, 4, 5), range(1, 5)),
]

N_SAMPLED_PAIRS = 100_000


def _sample_pairs(n: int, rng: random.Random, count: int, sources: int):
    src = sorted(rng.sample(range(1, n + 1), min(sources, n)))
    pairs = [(rng.choice(src), rng.randint(1, n)) for _ in range(count)]
    return src, pairs


def test_criterion_3_distance_oracle_exactness():
    mismatches = 0
    checked = 0
    for name, build in EXHAUSTIVE_DISTANCE_HOSTS:
        G = build()
        table = bfs_all_pairs(G)
        for k in range(1, 7):
            index = preprocess(G, k)
            for x in range(1, G.n + 1):
                row = table[x]
                for y in range(1, G.n + 1):
                    d = row[y]
                    want = d if d != INF and d <= k else None
                    checked += 1
                    if index.query(x, y) != want:
                        mismatches += 1
    report(
        "criterion-3 exact answers on all pairs (n <= 300, k = 1..6)",
        mismatches == 0,
        f"{checked} queries, {mismatches} mismatches",
    )

    mismatches = 0
    checked = 0
    for name, build, ks in SAMPLED_DISTANCE_HOSTS:
        G = build()
        rng = random.Random(hash(name) & 0xFFFF)
        sources, pairs = _sample_pairs(G.n, rng, N_SAMPLED_PAIRS, 320)
        dist = {s: bfs_distances(G, s) for s in sources}
        for k in ks:
            index = preprocess(G, k)
            for (x, y) in pairs:
                d = dist[x][y]
                want = d if d != INF and d <= k else None
                checked += 1
                if index.query(x, y) != want:
                    mismatches += 1
    report(
        "criterion-3 exact answers on sampled pairs (n up to 2000)",
        mismatches == 0,
        f"{checked} queries, {mismatches} mismatches",
    )

    # mean query time at fixed k=4 should not drift with n
    means = []
    for name, build, _ in SAMPLED_DISTANCE_HOSTS[:3]:
        G = build()
        index = preprocess(G, 4)
        rng = random.Random(7)
        pairs = [(rng.randint(1, G.n), rng.randint(1, G.n)) for _ in range(N_SAMPLED_PAIRS)]
        t0 = time.perf_counter()
        for (x, y) in pairs:
            index.query(x, y)
        means.append((time.perf_counter() - t0) / len(pairs))
    ratio = max(means) / min(means)
    report(
        "criterion-3 query time independent of n within 2x (grids, k=4)",
        ratio <= 2.0,
        f"means {['%.2fus' % (m * 1e6) for m in means]}, ratio {ratio:.2f}",
    )


# ---------------------------------------------------------------- criterion 4


def _tdepth_corpus(max_n: int):
    graphs = [(name, G) for name, G in small_corpus() if G.n <= max_n]
    extras = [
        ("path(13)", path(13)),
        ("path(14)", path(14)),
        ("cycle(13)", cycle(13)),
        ("cycle(14)", cycle(14)),
        ("grid(2,7)", grid(2, 7)),
        ("star(13)", star(13)),
    ]
    if max_n >= 16:
        extras += [
            ("path(16)", path(16)),
            ("cycle(15)", cycle(15)),
            ("grid(4,4)", grid(4, 4)),
            ("star(15)", star(15)),
            ("rr(16,3)", random_regular(16, 3, 8)),
            ("sdK(4,2)", subdivided_clique(4, 2)),
        ]
    return graphs + [(n, g) for n, g in extras if g.n <= max_n]


def test_criterion_4_treedepth_formulas():
    bad = [
        k
        for k in range(1, 32)
        if treedepth_exact(path(k), limit=31)[0] != math.ceil(math.log2(k + 1))
    ]
    report("criterion-4 treedepth_exact(P_k) = ceil(log2(k+1)), k <= 31", not bad, f"bad k: {bad}")

    fin_bad, path_bad, dfs_bad = [], [], []
    for name, G in _tdepth_corpus(14):
        depth, forest = treedepth_exact(G)
        h = dfs_forest(G).max_height
        if not (depth <= h <= 2**depth - 1):
            dfs_bad.append(name)
        k = longest_path(G)
        if not (math.ceil(math.log2(k + 1)) <= depth <= (k + 2) * (k + 1) // 2 - 1):
            path_bad.append(name)
        if G.n and is_connected(G):
            delta = max(G.degree(v) for v in G.vertices())
            if G.n > sum(delta**i for i in range(depth)):
                fin_bad.append(name)
    report("criterion-4 order bound via max degree (connected, n <= 14)", not fin_bad, str(fin_bad[:5]))
    report("criterion-4 longest-path bounds (n <= 14)", not path_bad, str(path_bad[:5]))
    report("criterion-4 DFS sandwich td <= h <= 2^td - 1", not dfs_bad, str(dfs_bad[:5]))

    decide_bad = []
    for name, G in _tdepth_corpus(16):
        depth, _ = treedepth_exact(G)
        for k in range(1, 6):
            if treedepth_decide(G, k) != (depth <= k):
                decide_bad.append((name, k))
    report("criterion-4 decide agrees with exact (n <= 16, k <= 5)", not decide_bad, str(decide_bad[:5]))


# ---------------------------------------------------------------- criterion 5


def _coloring_corpus():
    graphs = list(small_corpus())
    graphs += [
        ("grid(4,5)", grid(4, 5)),
        ("path(18)", path(18)),
        ("path(20)", path(20)),
        ("cycle(17)", cycle(17)),
        ("cycle(20)", cycle(20)),
        ("star(19)", star(19)),
        ("sdK(4,2)", subdivided_clique(4, 2)),
        ("rr(14,3)", random_regular(14, 3, 0)),
        ("rr(18,3)", random_regular(18, 3, 1)),
        ("rr(20,4)", random_regular(20, 4, 2)),
        ("path(9)*K2", lex_product_kc(path(9), 2)),
        ("grid(2,10)", grid(2, 10)),
    ]
    return [(n, g) for n, g in graphs if g.n <= 20]


def _pipeline_forest(sub, subcol):
    try:
        return centered_to_forest(sub, subcol)
    except NotCenteredError:
        return dfs_forest(sub)


def test_criterion_5_coloring_pipeline():
    from gradkit.coloring import Coloring

    td_bad, forest_bad = [], []
    corpus = _coloring_corpus()
    for name, G in corpus:
        for p in (2, 3, 4):
            col = low_tdepth_coloring(G, p)
            by_color: dict[int, list[int]] = {}
            for v in range(1, G.n + 1):
                by_color.setdefault(col.colors[v], []).append(v)
            classes = sorted(by_color)
            from itertools import combinations

            for i in range(1, p):
                for chosen in combinations(classes, i):
                    verts = [v for c in chosen for v in by_color[c]]
                    if not verts:
                        continue
                    sub, ids = induced_subgraph(G, verts)
                    depth, _ = treedepth_exact(sub)
                    if depth > i:
                        td_bad.append((name, p, chosen))
                        continue
                    subcol = Coloring(
                        colors=(0,) + tuple(col.colors[v] for v in ids),
                        num_colors=col.num_colors,
                    )
                    forest = _pipeline_forest(sub, subcol)
                    clos = closure(forest)
                    T = forest_to_decomposition(forest)
                    if (
                        not all(clos.has_edge(u, v) for (u, v) in sub.edges)
                        or not validate_decomposition(sub, T)
                        or T.width != forest.max_height - 1
                    ):
                        forest_bad.append((name, p, chosen))
    report(
        "criterion-5 every i <= p-1 classes induce treedepth <= i (n <= 20, p <= 4)",
        not td_bad,
        f"{len(corpus)} graphs, bad: {td_bad[:5]}",
    )
    report(
        "criterion-5 forest/decomposition certificates on every run",
        not forest_bad,
        str(forest_bad[:5]),
    )


# ---------------------------------------------------------------- criterion 6

COUNT_HOSTS = [
    ("grid(3,4)", lambda: grid(3, 4)),
    ("grid(4,5)", lambda: grid(4, 5)),
    ("grid(5,6)", lambda: grid(5, 6)),
    ("path(25)", lambda: path(25)),
    ("cycle(24)", lambda: cycle(24)),
    ("star(24)", lambda: star(24)),
    ("sdK(4,2)", lambda: subdivided_clique(4, 2)),
    ("sdK(5,2)", lambda: subdivided_clique(5, 2)),
    ("rr(18,3)", lambda: random_regular(18, 3, 3)),
    ("rr(24,3)", lambda: random_regular(24, 3, 4)),
    ("rr(30,4)", lambda: random_regular(30, 4, 5)),
    ("path(5)*K2", lambda: lex_product_kc(path(5), 2)),
    ("wheel9", lambda: build_graph(9, [(1, v) for v in range(2, 10)] + [(v, v + 1) for v in range(2, 9)] + [(9, 2)])),
    ("clique(7)", lambda: clique(7)),
]

COUNT_PATTERNS = [
    ("K3", clique(3)),
    ("P3", path(3)),
    ("P4", path(4)),
    ("C4", cycle(4)),
    ("K4", clique(4)),
    ("star3", star(3)),
]


def test_criterion_6_pattern_counting():
    count_bad = []
    restricted_bad = []
    for hname, build in COUNT_HOSTS:
        G = build()
        colorings = {
            p: low_tdepth_coloring(G, p) for p in {H.n + 1 for _, H in COUNT_PATTERNS}
        }
        rng = random.Random(G.n * 31 + G.m)
        S = frozenset(v for v in range(1, G.n + 1) if rng.random() < 0.35)
        for pname, H in COUNT_PATTERNS:
            pat = make_pattern(H)
            col = colorings[H.n + 1]
            got = count_isomorphs(G, pat, coloring=col).total
            want = brute_count(G, H)
            if got != want:
                count_bad.append((hname, pname, got, want))
            if pname in ("K3", "P4"):
                got_s = count_isomorphs(G, pat, S, coloring=col).total
                want_s = brute_count_hitting(G, H, S)
                if got_s != want_s:
                    restricted_bad.append((hname, pname, got_s, want_s))
    report(
        "criterion-6 counts match brute force (6 patterns, n <= 30)",
        not count_bad,
        f"{len(COUNT_HOSTS)} hosts; bad: {count_bad[:5]}",
    )
    report("criterion-6 S-restricted counts match brute force", not restricted_bad, str(restricted_bad[:5]))

    decide_hosts = [
        ("path(6)", path(6)),
        ("cycle(7)", cycle(7)),
        ("clique(4)", clique(4)),
        ("grid(2,4)", grid(2, 4)),
        ("star(5)", star(5)),
        ("wheel5", build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (5, 2)])),
        ("rr(10,3)", random_regular(10, 3, 1)),
        ("sdK(3,1)", subdivided_clique(3, 1)),
        ("path(3)*K2", lex_product_kc(path(3), 2)),
        ("path(10)", path(10)),
    ]
    decide_bad = []
    for hname, G in decide_hosts:
        for pname, H in COUNT_PATTERNS:
            want = {
                "hom": brute_has_hom(G, H),
                "subgraph": brute_has_subgraph(G, H),
                "induced": brute_has_induced(G, H),
            }
            for mode in ("hom", "subgraph", "induced"):
                if decide_containment(G, H, mode) != want[mode]:
                    decide_bad.append((hname, pname, mode))
    report(
        "criterion-6 containment decisions match brute force (n <= 10, h <= 4)",
        not decide_bad,
        str(decide_bad[:5]),
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_separator_certification():
    witness_count = 0
    separator_count = 0
    bad = []
    runs = [
        ("grid(10,10)", grid(10, 10), 4, 6),
        ("grid(20,20)", grid(20, 20), 4, 6),
        ("grid(35,35)", grid(35, 35), 2, 4),
        ("grid(50,50)", grid(50, 50), 4, 6),
        ("sdK(6,2)", subdivided_clique(6, 2), 2, 4),
        ("sdK(8,2)", subdivided_clique(8, 2), 1, 3),
        ("sdK(10,3)", subdivided_clique(10, 3), 2, 5),
        ("rr(200,3)", random_regular(200, 3, 2), 2, 5),
        ("rr(1000,3)", random_regular(1000, 3, 9), 1, 3),
        ("rr(2000,3)", random_regular(2000, 3, 10), 2, 4),
        ("clique(5)", clique(5), 1, 5),
        ("clique(7)", clique(7), 2, 7),
        ("star(100)", star(100), 2, 3),
    ]
    for name, G, l, h in runs:
        outcome = separate_or_minor(G, l, h)
        if not validate(G, outcome, l, h):
            bad.append((name, "invalid"))
            continue
        if isinstance(outcome, Separator):
            separator_count += 1
            n = G.n
            if len(outcome.vertices) > 4 * (n / l + 4 * l * h * h * math.log2(n)):
                bad.append((name, "size bound"))
            rest = [v for v in range(1, n + 1) if v not in outcome.vertices]
            sizes = [len(c) for c in connected_components(G, within=rest)]
            if sizes and max(sizes) > -(-2 * n // 3):
                bad.append((name, "balance"))
        else:
            witness_count += 1
            density = evaluate_family(G, outcome.branch_sets)
            if 2 * density < h - 1:
                bad.append((name, "density cross-check"))
    report(
        "criterion-7 separate_or_minor outcomes all validate",
        not bad,
        f"{separator_count} separators, {witness_count} witnesses; bad: {bad[:5]}",
    )

    sub_bad = []
    sub_runs = [
        ("rr(2000,3)+exp:3", random_regular(2000, 3, 10), "exp:3", False),
        ("grid(45,45)+poly:2,1", grid(45, 45), "poly:2,1", False),
        ("sdK(10,3)+poly:3,1", subdivided_clique(10, 3), "poly:3,1", None),
        ("clique(10)+const:0.5", clique(10), "const:0.5", True),
    ]
    for name, G, spec, want_violation in sub_runs:
        rep = sublinear_separator(G, parse_expansion(spec))
        if not validate(G, rep.outcome, rep.l, rep.h):
            sub_bad.append((name, "invalid"))
        if want_violation is not None and rep.f_violated != want_violation:
            sub_bad.append((name, f"violated={rep.f_violated}"))
        if rep.f_violated:
            if not isinstance(rep.outcome, MinorWitness):
                sub_bad.append((name, "no witness"))
            elif 2 * rep.witness_density < rep.h - 1 or max(rep.outcome.radii) > rep.z:
                sub_bad.append((name, "witness checks"))
    report("criterion-7 sublinear_separator reports validate", not sub_bad, str(sub_bad[:5]))


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_augmentation_linearity():
    points = []
    for k in (100, 200, 400):
        G = grid(k, k)
        points.append((G.n, timed(lambda: augment(G, 2), repeats=3)))
    exponent = fit_exponent(points)
    report(
        "criterion-8 augment c=2 scaling exponent <= 1.25 on grids (1e4..1.6e5 vertices)",
        exponent <= 1.25,
        f"exponent {exponent:.3f}, times "
        + ", ".join(f"n={n}: {t:.1f}s" for (n, t) in points),
    )
