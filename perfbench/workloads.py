"""Inputs, operations and correctness gates of the three benchmark workloads.

Every input is generated here from the run's seed; gradkit only ever sees
the generated edge lists, query pairs and vertex sets.  Each workload is a
closed loop with one caller: the next operation starts when the previous
one has returned.

A workload object has five parts:

- ``setup()`` builds what the operations need (timed by the caller);
- ``release()`` drops it again, so a repeated set-up starts from nothing;
- ``run_pass(tracer)`` performs one pass over the workload's fixed list of
  operations through ``timed_pass``, checks every answer (against BFS
  distances or brute-force counts computed once per process, or with
  validate()), and returns a ``PassResult``;
- ``result_size()`` is the size of what the operations returned;
- ``detail(passes, pass_s)`` gives the workload's own metrics by name.

Gradkit functions are always called through the ``gradkit`` package
namespace (``gk.preprocess`` and so on), looked up at call time, so the
traced run can put its wrappers there.
"""

from __future__ import annotations

import dataclasses
import operator
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from functools import partial

import gradkit as gk
from gradkit import oracles
from gradkit.harness import fit_exponent

HORIZON = 4  # k of the distance oracle
RAISED = object()  # stands for the result of a call that raised


@dataclass(frozen=True)
class PassResult:
    op_seconds: tuple[float, ...]  # wall time of each operation
    op_cal: tuple[float, ...]  # calibrate() time around each of them
    attempted: int
    failed: int
    # quantiles of the per-call times, where a pass times each of many calls
    call_p50_us: float | None = None
    call_p99_us: float | None = None


def calibrate() -> float:
    """Time of a fixed pure-Python loop that allocates like gradkit does.

    The speed of this machine drifts by tens of percent over seconds, and
    the loop drifts with it; the workloads time it before and after each
    operation, so that run.py can express operation times in its units.
    """
    t0 = time.perf_counter()
    d = {}
    for i in range(100_000):
        d[i & 1023] = (i, [i])
    return time.perf_counter() - t0


def timed_pass(ops, attempted: int) -> PassResult:
    """Run ops in order, timing each one and calibrate() between them.

    ops holds (run, check) pairs.  run() is timed; check(result) is not,
    and returns how many of the operation's answers were wrong.  A run()
    that raises counts as one failed operation.
    """
    times, cals, failed = [], [], 0
    before = calibrate()
    for run, check in ops:
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception:
            result = RAISED
        times.append(time.perf_counter() - t0)
        after = calibrate()
        cals.append((before + after) / 2)
        before = after
        failed += 1 if result is RAISED else check(result)
    return PassResult(tuple(times), tuple(cals), attempted, failed)


def grid_edges(a: int, b: int) -> list[tuple[int, int]]:
    """a x b grid; vertex (i, j) is (i - 1) * b + j."""
    edges = []
    for i in range(a):
        for j in range(1, b + 1):
            v = i * b + j
            if j < b:
                edges.append((v, v + 1))
            if i < a - 1:
                edges.append((v, v + b))
    return edges


def cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random simple 3-regular graph: pairing model with rejection."""
    stubs = [v for v in range(1, n + 1) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        edges = {
            (min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v
        }
        if len(edges) == len(stubs) // 2:
            return sorted(edges)


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def ball(adj: list[list[int]], source: int, radius: int) -> dict[int, int]:
    """BFS distances from source to every vertex within radius."""
    dist = {source: 0}
    frontier = [source]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class Oracle:
    """Distance oracle on grid 100 x 100 with horizon k = 4.

    Set-up is build_graph + preprocess.  A pass answers a fixed list of
    query pairs: half pair a source with a vertex of its radius-k BFS ball,
    half pair it with a uniform vertex.  Sources are drawn uniformly; each
    serves ten pairs, so BFS balls give the expected answers cheaply.
    A pass is timed in chunks of queries, so that a burst of outside load
    costs one chunk one sample, not the whole pass.
    """

    name = "oracle"
    side = 100
    pairs = 100_000
    pairs_per_source = 10
    chunks = 10

    def __init__(self, seed: int):
        rng = random.Random(f"oracle-{seed}")
        self.n = self.side * self.side
        self.edges = grid_edges(self.side, self.side)
        adj = adjacency(self.n, self.edges)
        xs: list[int] = []
        ys: list[int] = []
        expected: list[int | None] = []
        while len(xs) < self.pairs:
            source = rng.randint(1, self.n)
            dist = ball(adj, source, HORIZON)
            near = sorted(dist)
            for i in range(self.pairs_per_source):
                y = rng.choice(near) if i % 2 == 0 else rng.randint(1, self.n)
                xs.append(source)
                ys.append(y)
                expected.append(dist.get(y))
        order = list(range(self.pairs))
        rng.shuffle(order)
        self.xs = [xs[i] for i in order]
        self.ys = [ys[i] for i in order]
        self.expected = [expected[i] for i in order]
        self.answers: list[object] = [None] * self.pairs
        self.latency_ns = array("q", bytes(8 * self.pairs))
        self.index = None

    def release(self) -> None:
        self.index = None

    def setup(self) -> None:
        G = gk.build_graph(self.n, self.edges)
        self.index = gk.preprocess(G, HORIZON)

    def run_pass(self, tracer=None) -> PassResult:
        size = self.pairs // self.chunks
        ops = [
            (partial(self._answer, lo, lo + size, tracer), partial(self._wrong, lo, lo + size))
            for lo in range(0, self.pairs, size)
        ]
        result = timed_pass(ops, self.pairs)
        if tracer:
            tracer.add("distance.query.calls", self.pairs)
            tracer.add("distance.query.hits", sum(a is not None and a is not RAISED for a in self.answers))
        cuts = statistics.quantiles(self.latency_ns, n=100)
        return dataclasses.replace(result, call_p50_us=cuts[49] / 1e3, call_p99_us=cuts[98] / 1e3)

    def _answer(self, lo: int, hi: int, tracer) -> None:
        """Answer queries lo..hi-1, timing each call; one span for the loop."""
        query = self.index.query
        xs, ys, answers, latency = self.xs, self.ys, self.answers, self.latency_ns
        clock = time.perf_counter_ns
        span = tracer.open("distance.query") if tracer else None
        for i in range(lo, hi):
            t0 = clock()
            try:
                answers[i] = query(xs[i], ys[i])
            except Exception:  # a raised query is a failed operation
                answers[i] = RAISED
            latency[i] = clock() - t0
        if tracer:
            tracer.close(span)

    def _wrong(self, lo: int, hi: int, _) -> int:
        answers, expected = self.answers, self.expected
        return sum(answers[i] != expected[i] for i in range(lo, hi))

    def result_size(self) -> int:
        return self.index.A.m  # arcs in the final index

    def detail(self, passes: list[PassResult], pass_s: float) -> dict[str, tuple[float, str]]:
        return {
            "query_per_s": (self.pairs / pass_s, "1/s"),
            "query_p50_us": (statistics.median(p.call_p50_us for p in passes), "us"),
            "query_p99_us": (statistics.median(p.call_p99_us for p in passes), "us"),
        }


def _pattern(n: int, edges: list[tuple[int, int]]) -> gk.Pattern:
    return gk.make_pattern(gk.build_graph(n, edges))


class Count:
    """Pattern counting on three small hosts, each coloured once in set-up.

    Set-up is build_graph + low_tdepth_coloring(p = largest pattern order
    + 1) per host.  A pass is a fixed list of count_isomorphs calls; every
    total is compared with a brute-force count made once per process.
    """

    name = "count"

    def __init__(self, seed: int):
        rng = random.Random(f"count-{seed}")
        P2 = _pattern(2, [(1, 2)])
        P3 = _pattern(3, [(1, 2), (2, 3)])
        K3 = _pattern(3, [(1, 2), (2, 3), (1, 3)])
        C4 = _pattern(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        self.hosts = [
            (64, grid_edges(8, 8), 4),
            (64, cubic_edges(64, rng), 4),
            (20, grid_edges(4, 5), 5),
        ]
        S = frozenset(rng.sample(range(1, 65), 8))
        # (host index, pattern, S)
        self.plan = [(h, P, None) for h in (0, 1) for P in (P2, P3, K3)]
        self.plan += [(2, P3, None), (2, C4, None), (0, P3, S)]
        self.graphs: list[gk.Graph] = []
        self.colorings: list[gk.Coloring] = []
        self.expected = []
        for h, P, hit in self.plan:
            G = gk.build_graph(*self.hosts[h][:2])
            if hit is None:
                self.expected.append(oracles.brute_count(G, P.graph))
            else:
                self.expected.append(oracles.brute_count_hitting(G, P.graph, hit))

    def release(self) -> None:
        self.graphs, self.colorings = [], []

    def setup(self) -> None:
        for n, edges, p in self.hosts:
            G = gk.build_graph(n, edges)
            self.graphs.append(G)
            self.colorings.append(gk.low_tdepth_coloring(G, p))

    def run_pass(self, tracer=None) -> PassResult:
        ops = [
            (partial(self._count, h, P, S), partial(operator.ne, want))
            for (h, P, S), want in zip(self.plan, self.expected)
        ]
        return timed_pass(ops, len(self.plan))

    def _count(self, h: int, P: gk.Pattern, S) -> int:
        return gk.count_isomorphs(self.graphs[h], P, S, coloring=self.colorings[h]).total

    def result_size(self) -> int:
        return sum(c.num_colors for c in self.colorings)

    def detail(self, passes: list[PassResult], pass_s: float) -> dict[str, tuple[float, str]]:
        return {
            "count_s": (pass_s, "s"),
            "colors": (self.result_size(), "count"),
        }


class Separator:
    """separate_or_minor followed by validate on four instances.

    Grids 100 x 100 and 150 x 150 with (l, h) = (4, 6) give ball-growing
    separators; a random cubic graph on 20000 vertices gives a minor
    witness with (1, 4) and a separator with (2, 8).  Set-up is build_graph
    of the three graphs.  validate() is the correctness gate and, being
    what a user runs to trust the outcome, lies inside the timed pass.
    """

    name = "separator"
    grids = (100, 150)

    def __init__(self, seed: int):
        rng = random.Random(f"separator-{seed}")
        self.inputs = [(a * a, grid_edges(a, a)) for a in self.grids]
        self.inputs.append((20000, cubic_edges(20000, rng)))
        # (input index, l, h)
        self.plan = [(0, 4, 6), (1, 4, 6), (2, 1, 4), (2, 2, 8)]
        self.graphs: list[gk.Graph] = []
        self.sizes: list[int] = []

    def release(self) -> None:
        self.graphs = []

    def setup(self) -> None:
        for n, edges in self.inputs:
            self.graphs.append(gk.build_graph(n, edges))

    def run_pass(self, tracer=None) -> PassResult:
        self.sizes = []
        return timed_pass([(partial(self._separate, *op), self._invalid) for op in self.plan], len(self.plan))

    def _separate(self, g: int, l: int, h: int) -> bool:
        G = self.graphs[g]
        outcome = gk.separate_or_minor(G, l, h)
        if isinstance(outcome, gk.Separator):
            self.sizes.append(len(outcome.vertices))
        return gk.validate(G, outcome, l, h)

    def _invalid(self, ok: bool) -> int:
        return int(not ok)

    def result_size(self) -> int:
        return sum(self.sizes)

    def exponent(self, durations: list[float]) -> float:
        """Growth exponent of separate_or_minor time in n over the grids.

        durations are the traced separate_or_minor calls in call order,
        one per plan entry per pass.
        """
        k = len(self.plan)
        points = [
            (self.inputs[g][0], statistics.fmean(durations[i::k]))
            for i, (g, _, _) in enumerate(self.plan)
            if g < len(self.grids)
        ]
        return fit_exponent(points)

    def detail(self, passes: list[PassResult], pass_s: float) -> dict[str, tuple[float, str]]:
        return {
            "separate_s": (pass_s, "s"),
            "separator_size": (self.result_size(), "vertices"),
        }


WORKLOADS = {w.name: w for w in (Oracle, Count, Separator)}
