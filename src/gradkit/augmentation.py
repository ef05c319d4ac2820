"""Transitive-fraternal augmentation of weighted digraphs.

One step takes a digraph to a supergraph that closes every directed
two-path x -> u -> v into an arc x -> v (transitivity) and joins every
pair of arcs x -> v, y -> v by an arc between x and y in one direction
(fraternity).  Candidate arcs inherit the sum of the generating weights,
simplification keeps the minimum weight per ordered pair, and the
fraternity edges that are genuinely new are oriented with the
low-indegree orientation so the step only adds bounded indegree.

A step makes three passes over the rows it builds.  Transitivity
min-merges its candidates into them.  Fraternity then visits its pairs.
A pair whose endpoints are already joined, in either direction, lowers
the arcs between them in place: only the arcs added in the last pass
insert anything, so whether a pair is joined cannot change before then.
Only the unjoined pairs, the leftovers, are tabled with their minimum
weight, in a map keyed by the lower endpoint.  Last, the leftover pairs
form a simple graph, and orientation.degeneracy_order, the min-degree
peeling that orient runs, gives its removal order.  Each pair becomes an
arc into the endpoint removed first, which is the arc orient would give
it, and the arcs enter the rows by target, then by ascending source, the
order in which orient's digraph lists them.  No table of all fraternity
pairs is built, and no graph or digraph of the leftovers.

augment(G, c) starts from the unit-weight low-indegree orientation of G
and applies c steps; the trace holds every intermediate digraph along
with per-step counters.  Steps share rows: a row that a step does not
change is the same dict object in both digraphs, and a step copies a row
only when it first writes to it.

Steps are evaluated semi-naively.  After each step, augment computes
its delta: per row, the sources of the arcs the step added or whose
weight it lowered, as a tuple in row order; the weights are read from
the row.  The next step generates a transitivity candidate x -> u -> v
only if x -> u or u -> v is in the delta, and a fraternity pair x, y at
v only if x -> v or y -> v is; the first step is full.  A skipped
candidate is built from two arcs that the step before already had, with
the same weights, so that step generated it too: transitivity left an
arc x -> v no heavier than the candidate, and fraternity left every arc
between x and y no heavier than the pair.  Generating it again changes
nothing, with one exception, the reverse-arc correction.  When this
step's transitivity adds an arc y -> x whose reverse x -> y is already
there, the full step lowers the new arc to the fraternity minimum over
every common head of x and y, skipped pairs included.  So for each such
arc heavier than its reverse (a skipped pair weighs at least the reverse
arc), the pairs at heads where both arcs are unchanged are gathered
again.  Candidates are visited in the full step's order, so new arcs
enter each row in the same order and every digraph is exactly the one
the full step builds; gradkit.oracles.naive_step is that full step, kept
as the reference.

With drop_above = cap, candidates heavier than cap are discarded.  Arc
weights are positive, so an arc of weight cap or more is no summand of
any kept candidate: it is skipped before its partners are read, and the
delta leaves it out.  A step whose delta lists no arc can add none and
is not run; under the cap 4, the fourth step on a grid is one.  The
weights bound two more loops.  An arc u -> v
of weight cap - 1 pairs only with the weight-1 head of old[u] (see
below), so its walk stops at the first heavier arc.  At a head v, an
unchanged arc heavier than cap minus the lightest changed arc pairs with
no changed arc, and is left out of v's fraternity pairs.  Without a cap,
a row that is mostly new arcs is its own delta: every arc counts as
changed, which only adds candidates that change nothing, and saves
comparing the row entry by entry.

A capped step is insert-only when cap >= 3 and the lightest arc of its
delta weighs cap - 1, as in the third step on a grid under the cap 4;
the delta reports its lightest weight as it is built, so choosing the
kind of step reads no arc again.
Every candidate it keeps then pairs a changed arc with an arc of weight
1 and weighs exactly cap, and no arc is heavier than cap, so a candidate
can insert an absent arc but never lower one.  Such a step pairs the
changed arcs with the weight-1 heads of the rows, which no such delta
holds, by presence tests alone.  Transitivity into v walks v's head,
each source u with the delta of u, and then the delta of v, each source
u with the head of old[u]; that is the full step's candidates in its
order.  Fraternity at v pairs each changed arc with v's head and tables
the pair at cap when neither endpoint's row holds the other.  The
reverse-arc correction, the orientation of the leftover pairs and the
digraph build are the same for both kinds of step.

Every row of every digraph in the trace begins with its arcs from the
unit-weight orientation, in that orientation's order and of weight 1, and
no later arc weighs 1.  A step keeps a row's old arcs first, in their old
order, and every arc it adds or lowers gets a sum of two positive
weights, which is at least 2.  DistanceIndex.query and the capped
transitivity walk rely on this: they find the weight-1 arcs of a row by
reading it up to the first heavier arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Sequence

from .core import ArcListDigraph, Graph
from .errors import DomainError
from .orientation import degeneracy_order, orient

_UNCHANGED: tuple[int, ...] = ()  # the delta of a row a step did not touch


@dataclass(frozen=True)
class StepStats:
    transitivity_added: int
    fraternity_added: int
    fraternity_delta_max: int


def _delta(
    old: Sequence[dict[int, int]], rows: Sequence[dict[int, int]], drop_above: int | None
) -> tuple[list[Collection[int]], float]:
    """Per row, the sources of the arcs of rows not in old with the same
    weight, and the least weight among the arcs listed (inf if none).

    Each entry lists sources in row order; the weights are read from the
    row.  An untouched row gets _UNCHANGED.  With drop_above, arcs of that
    weight or more are left out: they are no summand of any candidate the
    next step keeps.  Without it, a row that is mostly new arcs is its own
    delta: every arc counts as changed, which only adds candidates that
    change nothing, and saves comparing the row entry by entry.
    """
    cap = math.inf if drop_above is None else drop_above
    out: list[Collection[int]] = []
    lightest = math.inf
    for row, orow in zip(rows, old):
        if row is orow:
            out.append(_UNCHANGED)
        elif drop_above is None and 2 * len(orow) < len(row):
            out.append(row)
            lightest = min(lightest, *row.values())
        else:
            # the walrus keeps the least listed weight while the list is
            # built; weights are positive, so the assignment tests true
            out.append(tuple([
                x for x, w in row.items()
                if w < cap and orow.get(x) != w and (w >= lightest or (lightest := w))
            ]))
    return out, lightest


def _merge(
    old: Sequence[dict[int, int]],
    rows: list[dict[int, int]],
    changed: Sequence[Collection[int]],
    cap: float,
) -> tuple[int, list[tuple[int, int]], dict[int, dict[int, int]]]:
    """Transitivity and fraternity of a step, with weights compared.

    Writes the new and lowered arcs into rows, copy-on-write, and returns
    the number of arcs added, the flagged pairs of the reverse-arc
    correction and the leftover fraternity pairs, left[x][y] for x < y.
    """
    n = len(old) - 1

    # transitivity candidates x -> u -> v with u -> v or x -> u changed,
    # min-merged on the fly; a new arc heavier than its old reverse arc is
    # flagged for the reverse-arc correction.  The delta of a row is a
    # subsequence of it, so one pointer walks it alongside the row.  When
    # u -> v weighs cap - 1, only a partner of weight 1 is kept; those
    # come first in old[u] and in its delta, so the walk stops at the
    # first heavier one.
    trans_added = 0
    flagged: list[tuple[int, int]] = []
    for v in range(1, n + 1):
        ov = old[v]
        row = ov
        marks = iter(changed[v])
        mark = next(marks, None)
        for u, w1 in ov.items():
            if u == mark:
                mark = next(marks, None)
                src: Collection[int] = old[u]
            else:
                src = changed[u]
            if w1 >= cap or not src:
                continue
            ou = old[u]
            head = w1 + 1 >= cap
            for x in src:
                w = w1 + ou[x]
                if w > cap:
                    if head:
                        break
                    continue
                if x == v:
                    continue
                cur = row.get(x)
                if cur is None:
                    if row is ov:
                        row = rows[v] = dict(ov)
                    row[x] = w
                    trans_added += 1
                    back = old[x].get(v)
                    if back is not None and w > back:
                        flagged.append((x, v))
                elif w < cur:
                    if row is ov:
                        row = rows[v] = dict(ov)
                    row[x] = w

    # fraternity candidates with at least one changed arc.  The changed
    # arcs of a row come first in entries, and each pair with one of them
    # is visited once.  An unchanged arc heavier than cap minus the
    # lightest changed one pairs with none of them, and is left out.  Only
    # the leftover arcs added last insert arcs, so whether a pair is
    # joined after transitivity stays fixed: a joined pair lowers its arcs
    # in place, and an unjoined one is tabled with its minimum weight in
    # left[x][y], x < y.  Both take minima, so the visiting order is free.
    left: dict[int, dict[int, int]] = {}
    for v in range(1, n + 1):
        dv = changed[v]
        if not dv:
            continue
        ov = old[v]
        fresh = [(x, ov[x]) for x in dv]
        entries = fresh
        if dv is not ov:
            floor = cap - min([w for _, w in fresh])
            entries = fresh + [(x, w) for x, w in ov.items() if w <= floor and x not in dv]
        for i, (x, wx) in enumerate(fresh):
            rx = rows[x]
            for y, wy in entries[i + 1 :]:
                w = wx + wy
                if w > cap:
                    continue
                ry = rows[y]
                wyx = rx.get(y)
                wxy = ry.get(x)
                if wyx is None and wxy is None:
                    lo, hi = (x, y) if x < y else (y, x)
                    table = left.get(lo)
                    if table is None:
                        left[lo] = {hi: w}
                    elif table.get(hi, w + 1) > w:
                        table[hi] = w
                    continue
                if wyx is not None and wyx > w:
                    if rx is old[x]:
                        rx = rows[x] = dict(rx)
                    rx[y] = w
                if wxy is not None and wxy > w:
                    if ry is old[y]:
                        ry = rows[y] = dict(ry)
                    ry[x] = w
    return trans_added, flagged, left


def _insert_only(
    old: Sequence[dict[int, int]],
    rows: list[dict[int, int]],
    changed: Sequence[Collection[int]],
    cap: int,
) -> tuple[int, list[tuple[int, int]], dict[int, dict[int, int]]]:
    """_merge for a delta of arcs of weight cap - 1 only, cap >= 3.

    A kept candidate then pairs a changed arc with an arc of weight 1 and
    weighs cap, which no arc exceeds: it inserts an absent arc and lowers
    none, so presence tests replace the weight comparisons.  The arcs of
    weight 1 are the head of each row, which no such delta holds.
    """
    n = len(old) - 1
    heads: list[list[int]] = []
    for row in old:
        head = []
        for u, w in row.items():
            if w > 1:
                break
            head.append(u)
        heads.append(head)

    # transitivity into v, in _merge's order: the head arcs u -> v, each
    # with the delta of u, then the changed arcs u -> v, each with the
    # head of u.  A new arc whose old reverse arc is lighter is flagged.
    trans_added = 0
    flagged: list[tuple[int, int]] = []
    for v in range(1, n + 1):
        ov = old[v]
        row = ov
        for us, xs_of in ((heads[v], changed), (changed[v], heads)):
            for u in us:
                for x in xs_of[u]:
                    if x == v or x in row:
                        continue
                    if row is ov:
                        row = rows[v] = dict(ov)
                    row[x] = cap
                    trans_added += 1
                    back = old[x].get(v)
                    if back is not None and back < cap:
                        flagged.append((x, v))

    # fraternity at v: each changed arc with each head arc; a pair already
    # joined cannot be lowered, and an unjoined one is tabled at cap
    left: dict[int, dict[int, int]] = {}
    for v in range(1, n + 1):
        dv = changed[v]
        head = heads[v]
        if not dv or not head:
            continue
        for x in dv:
            rx = rows[x]
            for y in head:
                if y in rx or x in rows[y]:
                    continue
                lo, hi = (x, y) if x < y else (y, x)
                table = left.get(lo)
                if table is None:
                    left[lo] = {hi: cap}
                elif hi not in table:
                    table[hi] = cap
    return trans_added, flagged, left


def _step(
    dg: ArcListDigraph,
    changed: Sequence[Collection[int]],
    lightest: float,
    drop_above: int | None,
) -> tuple[ArcListDigraph, StepStats]:
    """One step from dg, given the delta changed of the step that built it.

    changed[v] lists, in row order, the sources of the arcs into v that
    that step added or lowered, and lightest is the least weight among
    them (see _delta); pass dg.D itself and 1 for a full step.  Returns
    the new digraph and its counters.  The rows of the result list the
    arcs of dg first, in their old order, then the new arcs in the order
    they were found.  When nothing changes, dg itself is returned.
    """
    n = dg.n
    old = dg.D
    rows = list(old)  # shared with dg until first written
    cap = math.inf if drop_above is None else drop_above
    if drop_above is not None and drop_above >= 3 and lightest >= drop_above - 1:
        trans_added, flagged, left = _insert_only(old, rows, changed, drop_above)
    else:
        trans_added, flagged, left = _merge(old, rows, changed, cap)

    # reverse-arc correction: a flagged pair also takes the pairs skipped
    # above, at the heads where both of its arcs are unchanged.  Those
    # pairs weigh at least the old reverse arc, hence only flagged arcs
    # heavier than it can be lowered by them.  A flagged pair is joined
    # both ways, so it only lowers.
    if flagged:
        partners: dict[int, set[int]] = {}
        for x, y in flagged:
            lo, hi = (x, y) if x < y else (y, x)
            partners.setdefault(lo, set()).add(hi)
        los = partners.keys()
        for ov, dv in zip(old, changed):
            if dv is ov:
                continue
            for x in ov.keys() & los:
                if x in dv:
                    continue
                wx = ov[x]
                for y in partners[x]:
                    wy = ov.get(y)
                    if wy is None or y in dv:
                        continue
                    w = wx + wy
                    if w > cap:
                        continue
                    for a, b in ((x, y), (y, x)):
                        rb = rows[b]
                        if rb[a] > w:
                            if rb is old[b]:
                                rb = rows[b] = dict(rb)
                            rb[a] = w

    # the unjoined pairs form a simple graph; each becomes an arc into the
    # endpoint that its min-degree peeling removes first, inserted by
    # target and then by ascending source
    n_left = 0
    frat_delta_max = 0
    if left:
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for x, table in left.items():
            n_left += len(table)
            for y in table:
                adj[x].append(y)
                adj[y].append(x)
        peel = degeneracy_order(n, adj)
        frat_delta_max = peel.delta_max
        rank = [0] * (n + 1)
        for i, v in enumerate(peel.order):
            rank[v] = i
        for x in sorted(left):
            table = left[x]
            for y in sorted(table):
                src, dst = (y, x) if rank[x] < rank[y] else (x, y)
                row = rows[dst]
                if row is old[dst]:
                    row = rows[dst] = dict(row)
                row[src] = table[y]

    stats = StepStats(trans_added, n_left, frat_delta_max)
    if all(row is orow for row, orow in zip(rows, old)):
        return dg, stats
    return ArcListDigraph(n=n, D=tuple(rows)), stats


@dataclass(frozen=True)
class AugmentationTrace:
    """The chain G_1 <= G_2 <= ... produced by augment, with step counters.

    steps[0] is the unit-weight orientation of the input; steps[i] is the
    result of the i-th augmentation step.  Consecutive digraphs share the
    rows that a step left unchanged.  The counter tuples have one entry
    per step.
    """

    steps: tuple[ArcListDigraph, ...]
    transitivity_added: tuple[int, ...]
    fraternity_added: tuple[int, ...]
    fraternity_delta_max: tuple[int, ...]

    @property
    def final(self) -> ArcListDigraph:
        return self.steps[-1]


def augment(G: Graph, c: int, *, drop_above: int | None = None) -> AugmentationTrace:
    """Apply c augmentation steps to the low-indegree orientation of G.

    The trace holds c + 1 digraphs.  drop_above discards candidates
    heavier than the given bound outright; the distance module explains
    why that cannot change any of its answers.  The first step is full;
    each later one reads the delta of the step before (see the module
    docstring), which with drop_above lists only arcs lighter than the
    bound.  A step runs only when that delta lists an arc: otherwise it
    could add or lower none, nor could any later step, and the remaining
    entries repeat the last digraph with zero counters.
    """
    if isinstance(c, bool) or not isinstance(c, int) or c < 1:
        raise DomainError(f"step count must be an int >= 1, got {c!r}")
    first, _ = orient(G)
    steps = [first]
    t_added: list[int] = []
    f_added: list[int] = []
    f_delta: list[int] = []
    changed: Sequence[Collection[int]] = first.D
    lightest: float = 1
    for i in range(c):
        dg = steps[-1]
        nxt, stats = dg, StepStats(0, 0, 0)
        if any(changed):
            nxt, stats = _step(dg, changed, lightest, drop_above)
            changed = ()  # released before the next delta is built
            if i < c - 1:
                changed, lightest = _delta(dg.D, nxt.D, drop_above)
        steps.append(nxt)
        t_added.append(stats.transitivity_added)
        f_added.append(stats.fraternity_added)
        f_delta.append(stats.fraternity_delta_max)
    return AugmentationTrace(
        steps=tuple(steps),
        transitivity_added=tuple(t_added),
        fraternity_added=tuple(f_added),
        fraternity_delta_max=tuple(f_delta),
    )
