"""Corpus management, oracle comparisons and growth-exponent fitting.

The verify suites here are desk-scale versions of the acceptance checks:
each compares a fast-path result against an independent brute-force oracle
and reports one line per test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from . import oracles
from .augmentation import augment
from .coloring import low_tdepth_coloring
from .core import ArcListDigraph, Graph
from .distance import preprocess
from .generators import (
    clique,
    cycle,
    grid,
    lex_product_kc,
    path,
    random_regular,
    star,
    subdivided_clique,
)
from .gradoracle import grad
from .orientation import orient
from .patterns import count_isomorphs, decide_containment, list_isomorphs, make_pattern
from .separator import separate_or_minor, validate
from .treedepth import treedepth_decide, treedepth_exact


def small_corpus() -> list[tuple[str, Graph]]:
    """Deterministic corpus of >= 200 graphs with n <= 12, all families."""
    out: list[tuple[str, Graph]] = []
    for k in range(1, 13):
        out.append((f"path({k})", path(k)))
    for k in range(3, 13):
        out.append((f"cycle({k})", cycle(k)))
    for k in range(1, 13):
        out.append((f"clique({k})", clique(k)))
    for m in range(1, 12):
        out.append((f"star({m})", star(m)))
    for a, b in [(1, 5), (1, 9), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]:
        out.append((f"grid({a},{b})", grid(a, b)))
    for q, t in [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (5, 0)]:
        out.append((f"subdivided_clique({q},{t})", subdivided_clique(q, t)))
    for k in range(1, 7):
        out.append((f"path({k})*K2", lex_product_kc(path(k), 2)))
    for k in range(3, 7):
        out.append((f"cycle({k})*K2", lex_product_kc(cycle(k), 2)))
    for k in range(1, 5):
        out.append((f"path({k})*K3", lex_product_kc(path(k), 3)))
    for m in range(1, 6):
        out.append((f"star({m})*K2", lex_product_kc(star(m), 2)))
    for d in (2, 3, 4):
        for n in range(d + 2, 13):
            if (n * d) % 2:
                continue
            for seed in range(6):
                out.append((f"rr({n},{d},{seed})", random_regular(n, d, seed)))
    return out


def digraph_is_acyclic(dg: ArcListDigraph) -> bool:
    """Kahn-style peeling on the arc lists."""
    indeg = [len(dg.D[v]) for v in range(dg.n + 1)]
    out: list[list[int]] = [[] for _ in range(dg.n + 1)]
    for (u, v, _) in dg.arcs():
        out[u].append(v)
    queue = [v for v in range(1, dg.n + 1) if indeg[v] == 0]
    done = 0
    while queue:
        u = queue.pop()
        done += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return done == dg.n


def check_closure_step(a: ArcListDigraph, b: ArcListDigraph) -> bool:
    """Transitivity and fraternity closure of step a inside step b."""
    for v in range(1, a.n + 1):
        for u in a.D[v]:
            # x -> u -> v closes to x -> v
            for x in a.D[u]:
                if x != v and x not in b.D[v]:
                    return False
        for x, y in combinations(a.D[v], 2):
            if x not in b.D[y] and y not in b.D[x]:
                return False
    return True


@dataclass
class OracleReport:
    test_id: str
    subject: str
    got: str
    expected: str
    match: bool

    def line(self) -> str:
        status = "ok" if self.match else "FAIL"
        return f"{status} {self.test_id} [{self.subject}] got={self.got} expected={self.expected}"


def fit_exponent(points: Iterable[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    data = [(math.log(x), math.log(max(t, 1e-9))) for (x, t) in points]
    if len(data) < 2:
        return 0.0
    mx = sum(x for x, _ in data) / len(data)
    my = sum(y for _, y in data) / len(data)
    num = sum((x - mx) * (y - my) for x, y in data)
    den = sum((x - mx) ** 2 for x, _ in data)
    return num / den if den else 0.0


def _suite_orientation() -> list[OracleReport]:
    reports = []
    for name, G in small_corpus()[::4]:
        dg, order = orient(G)
        bound = int(2 * grad(G, 0).value)
        ok = digraph_is_acyclic(dg) and dg.md <= bound and dg.m == G.m
        reports.append(
            OracleReport("orientation.bound", name, f"md={dg.md}", f"<= {bound}", ok)
        )
    return reports


def _suite_grad() -> list[OracleReport]:
    reports = []
    for name, G in [
        ("clique(4)", clique(4)),
        ("cycle(5)", cycle(5)),
        ("path(6)", path(6)),
        ("grid(2,3)", grid(2, 3)),
        ("star(4)", star(4)),
    ]:
        values = [grad(G, r).value for r in range(0, 4)]
        ok = all(values[i] <= values[i + 1] for i in range(len(values) - 1))
        reports.append(
            OracleReport(
                "grad.monotone", name, str([str(v) for v in values]), "nondecreasing", ok
            )
        )
    return reports


def _suite_augmentation() -> list[OracleReport]:
    reports = []
    for name, G in small_corpus()[::8]:
        trace = augment(G, 2)
        ok = all(
            check_closure_step(trace.steps[i], trace.steps[i + 1])
            for i in range(len(trace.steps) - 1)
        )
        reports.append(OracleReport("augment.closure", name, str(ok), "True", ok))
    return reports


def _suite_distance() -> list[OracleReport]:
    reports = []
    cases = [
        ("grid(4,5)", grid(4, 5), (1, 2, 3)),
        ("cycle(9)", cycle(9), (1, 2, 3)),
        ("path(8)", path(8), (1, 2, 3)),
        # direct arcs heavier than the distance, and pairs with no direct
        # arc, so that queries take the weight-1 head scan and the full scan
        ("random_regular(40,3,1)", random_regular(40, 3, 1), (3, 4)),
    ]
    for name, G, horizons in cases:
        table = oracles.bfs_all_pairs(G)
        for k in horizons:
            index = preprocess(G, k)
            bad = 0
            for x in range(1, G.n + 1):
                for y in range(1, G.n + 1):
                    d = table[x][y]
                    got = index.query(x, y)
                    want = d if d != oracles.INF and d <= k else None
                    if got != want:
                        bad += 1
            reports.append(
                OracleReport(f"distance.k{k}", name, f"{bad} mismatches", "0 mismatches", bad == 0)
            )
    return reports


def _suite_tdepth() -> list[OracleReport]:
    reports = []
    for k in range(1, 16):
        depth, forest = treedepth_exact(path(k))
        want = math.ceil(math.log2(k + 1))
        reports.append(
            OracleReport("tdepth.path", f"path({k})", str(depth), str(want), depth == want)
        )
    for name, G in [("star(6)", star(6)), ("clique(5)", clique(5)), ("grid(2,3)", grid(2, 3))]:
        depth, _ = treedepth_exact(G)
        agree = all(treedepth_decide(G, k) == (depth <= k) for k in range(1, 6))
        reports.append(OracleReport("tdepth.decide", name, str(agree), "True", agree))
    return reports


def _suite_coloring() -> list[OracleReport]:
    reports = []
    for name, G in [
        ("path(7)", path(7)),
        ("cycle(6)", cycle(6)),
        ("grid(3,3)", grid(3, 3)),
        ("clique(5)", clique(5)),
    ]:
        for p in (2, 3):
            col = low_tdepth_coloring(G, p)
            ok = oracles.brute_low_tdepth(G, col, p)
            reports.append(
                OracleReport(f"coloring.p{p}", name, f"{col.num_colors} colors", "low tdepth", ok)
            )
    return reports


def _suite_patterns() -> list[OracleReport]:
    reports = []
    pats = [("K3", clique(3)), ("P3", path(3)), ("P4", path(4)), ("C4", cycle(4))]
    hosts = [("grid(3,3)", grid(3, 3)), ("clique(5)", clique(5)), ("cycle(7)", cycle(7))]
    for hname, H in pats:
        pat = make_pattern(H)
        for gname, G in hosts:
            got = count_isomorphs(G, pat).total
            want = oracles.brute_count(G, H)
            reports.append(
                OracleReport(
                    f"patterns.count[{hname}]", gname, str(got), str(want), got == want
                )
            )
            got, want = list(list_isomorphs(G, pat)), oracles.brute_copies(G, H)
            test_id = f"patterns.list[{hname}]"
            reports.append(OracleReport(test_id, gname, str(len(got)), str(len(want)), got == want))
    for mode in ("hom", "subgraph", "induced"):
        got = decide_containment(cycle(5), make_pattern(clique(3)), mode)
        want = {
            "hom": oracles.brute_has_hom(cycle(5), clique(3)),
            "subgraph": oracles.brute_has_subgraph(cycle(5), clique(3)),
            "induced": oracles.brute_has_induced(cycle(5), clique(3)),
        }[mode]
        reports.append(
            OracleReport(f"patterns.decide.{mode}", "K3 in C5", str(got), str(want), got == want)
        )
    for hname, H, gname, G in [
        ("K1,4", star(4), "grid(3,3)", grid(3, 3)),
        ("K1,4", star(4), "cycle(7)", cycle(7)),
        ("P5", path(5), "cycle(7)", cycle(7)),
        ("P5", path(5), "clique(5)", clique(5)),  # a subgraph, not induced
    ]:
        got = decide_containment(G, H, "induced")
        want = oracles.brute_has_induced(G, H)
        reports.append(
            OracleReport(
                "patterns.decide.induced", f"{hname} in {gname}", str(got), str(want), got == want
            )
        )
    return reports


def _suite_separator() -> list[OracleReport]:
    reports = []
    for name, G, l, h in [
        ("grid(8,8)", grid(8, 8), 2, 4),
        ("clique(6)", clique(6), 1, 4),
        ("star(20)", star(20), 1, 3),
    ]:
        outcome = separate_or_minor(G, l, h)
        ok = validate(G, outcome, l, h)
        reports.append(
            OracleReport("separator.validate", name, type(outcome).__name__, "valid", ok)
        )
    return reports


def _suite_generators() -> list[OracleReport]:
    checks = [
        ("grid(3,3).m", grid(3, 3).m, 12),
        ("grid(2,2)=C4", grid(2, 2).m, 4),
        ("sdK(3,1)=C6", subdivided_clique(3, 1).n, 6),
        ("lex(P2,K2)=K4", lex_product_kc(path(2), 2).m, 6),
        ("rr(8,3) degs", min(random_regular(8, 3, 0).degree(v) for v in range(1, 9)), 3),
    ]
    return [
        OracleReport("generators", name, str(got), str(want), got == want)
        for (name, got, want) in checks
    ]


SUITES: dict[str, Callable[[], list[OracleReport]]] = {
    "orientation": _suite_orientation,
    "grad": _suite_grad,
    "augmentation": _suite_augmentation,
    "distance": _suite_distance,
    "tdepth": _suite_tdepth,
    "coloring": _suite_coloring,
    "patterns": _suite_patterns,
    "separator": _suite_separator,
    "generators": _suite_generators,
}


def run_suite(name: str | None = None) -> list[OracleReport]:
    if name is None:
        reports = []
        for fn in SUITES.values():
            reports.extend(fn())
        return reports
    if name not in SUITES:
        from .errors import DomainError

        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
