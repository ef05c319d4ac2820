"""Spans around the calls into gradkit's layers, recorded from outside.

While installed, the tracer replaces each function named in LAYERS by a
wrapper under every name that the package or a layer module holds it by,
because those are the names its callers look up at run time: preprocess calls
``gradkit.distance.augment``, augment calls ``gradkit.augmentation.orient``,
count_isomorphs calls ``gradkit.patterns.induced_subgraph`` and so on.
Untraced runs and passes install nothing.

A span records its name, its parent, its start and end, and whether the
call returned or raised.  Spans stay in memory until the run ends.  The
root spans are the benchmark's own phases, one "setup" and one or more
"pass"; counters read from return values are kept per phase.  Every
per-layer metric describes one set-up plus one average pass.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import gradkit

LAYERS = {
    "core": ("build_graph", "induced_subgraph", "connected_components", "underlying_graph"),
    "orientation": ("orient",),
    "augmentation": ("augment",),
    "distance": ("preprocess",),
    "coloring": ("low_tdepth_coloring", "greedy_coloring", "certify_low_tdepth", "centered_to_forest"),
    "treedepth": ("treedepth_decide",),
    "forests": ("forest_to_decomposition", "dfs_forest"),
    "patterns": ("count_isomorphs", "count_on_decomposition"),
    "separator": ("separate_or_minor", "validate"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = bytearray()
        self._stack = [-1]
        self._phase = ""
        self.counters: Counter[tuple[str, str]] = Counter()
        self.peaks: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.ok.append(1)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int, ok: bool = True) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        if not ok:
            self.ok[sid] = 0

    @contextmanager
    def phase(self, name: str):
        """Root span for one benchmark phase ("setup" or "pass")."""
        self._phase = name
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, key: str, value: float) -> None:
        self.counters[(self._phase, key)] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called name, in the order they started."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid]

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for i in range(len(self.name)):
                record = {
                    "id": i,
                    "parent": self.parent[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "ok": bool(self.ok[i]),
                }
                f.write(json.dumps(record) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one average pass."""
        n = len(self.name)
        names = self.names
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        # (phase, span name) -> [calls, seconds, self seconds, returned]
        stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        under: Counter[tuple[str, str, str]] = Counter()  # (phase, parent, name) -> calls
        for i in range(n):
            phase = names[self.name[root[i]]]
            name = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            s = stats[(phase, name)]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i]
            s[3] += self.ok[i]
            if self.parent[i] >= 0:
                under[(phase, names[self.name[self.parent[i]]], name)] += 1
        setups = stats[("setup", "setup")][0]
        passes = stats[("pass", "pass")][0]

        def per_run(get) -> float:
            return (get("setup") / setups if setups else 0.0) + (get("pass") / passes if passes else 0.0)

        def calls(name: str) -> float:
            return per_run(lambda ph: stats[(ph, name)][0])

        def seconds(name: str) -> float:
            return per_run(lambda ph: stats[(ph, name)][1])

        def counter(key: str) -> float:
            return per_run(lambda ph: self.counters[(ph, key)])

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[name + ".calls"] = calls(name)
                out[name + ".s"] = seconds(name)
                out[name + ".self_s"] = per_run(lambda ph: stats[(ph, name)][2])
        for key in ("steps", "arcs_final", "transitivity_added", "fraternity_added"):
            out["augmentation." + key] = counter("augmentation." + key)
        for key in ("md_final", "fraternity_delta_max"):
            out["augmentation." + key] = self.peaks.get("augmentation." + key, 0)
        out["distance.preprocess.us_per_vertex"] = 1e6 * ratio(
            seconds("distance.preprocess"), counter("distance.preprocess.vertices")
        )
        out["distance.query.calls"] = counter("distance.query.calls")
        out["distance.query.ns_per_call"] = 1e9 * ratio(seconds("distance.query"), out["distance.query.calls"])
        out["distance.query.hit_ratio"] = ratio(counter("distance.query.hits"), out["distance.query.calls"])
        out["coloring.attempts"] = per_run(
            lambda ph: under[(ph, "coloring.low_tdepth_coloring", "augmentation.augment")]
        )
        out["coloring.certify_low_tdepth.pass_ratio"] = ratio(
            counter("coloring.certify_low_tdepth.passes"), calls("coloring.certify_low_tdepth")
        )
        out["coloring.centered_ratio"] = ratio(
            per_run(lambda ph: stats[(ph, "coloring.centered_to_forest")][3]),
            calls("coloring.centered_to_forest"),
        )
        out["patterns.subsets_per_count"] = ratio(
            per_run(lambda ph: under[(ph, "patterns.count_isomorphs", "core.induced_subgraph")]),
            calls("patterns.count_isomorphs"),
        )
        out["separator.minor_witnesses"] = counter("separator.minor_witnesses")
        out["separator.separators"] = counter("separator.separators")
        return out


def _augment_hook(tracer: Tracer, trace) -> None:
    tracer.add("augmentation.steps", len(trace.steps) - 1)
    tracer.add("augmentation.arcs_final", trace.final.m)
    tracer.add("augmentation.transitivity_added", sum(trace.transitivity_added))
    tracer.add("augmentation.fraternity_added", sum(trace.fraternity_added))
    tracer.peak("augmentation.md_final", trace.final.md)
    tracer.peak("augmentation.fraternity_delta_max", max(trace.fraternity_delta_max, default=0))


def _separator_hook(tracer: Tracer, outcome) -> None:
    kind = "minor_witnesses" if isinstance(outcome, gradkit.MinorWitness) else "separators"
    tracer.add("separator." + kind, 1)


# counters read from the value a wrapped function returns
HOOKS = {
    "augmentation.augment": _augment_hook,
    "distance.preprocess": lambda t, index: t.add("distance.preprocess.vertices", index.A.n),
    "coloring.certify_low_tdepth": lambda t, ok: t.add("coloring.certify_low_tdepth.passes", ok),
    "separator.separate_or_minor": _separator_hook,
}


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, ok=False)
            raise
        tracer.close(sid)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Put a traced wrapper under every name a layer function is held by,
    and put the originals back on exit."""
    modules = {layer: importlib.import_module(f"gradkit.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, fns in LAYERS.items():
        for fn in fns:
            original = getattr(modules[layer], fn)
            name = f"{layer}.{fn}"
            wrappers[id(original)] = (original, _wrap(tracer, name, original, HOOKS.get(name)))
    replaced = []  # (module, attribute, original)
    for module in (gradkit, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)
