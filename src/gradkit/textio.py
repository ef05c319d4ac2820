"""Text formats for graphs, digraphs and auxiliary inputs.

Graph files: '#'-prefixed comment lines, then "n m", then m lines "u v"
with 1-based endpoints.  Digraph files carry a weight: "u v w".  Writers
emit edges and arcs in ascending order so output files are stable.
"""

from __future__ import annotations

from typing import IO, Iterable

from .core import ArcListDigraph, Graph, build_digraph, build_graph
from .errors import InputError


def _iter_data_lines(stream: Iterable[str]):
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _ints(line: str, lineno: int, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise InputError(f"line {lineno}: expected {what}, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"line {lineno}: expected {what}, got {line!r}") from None


def read_graph(source: str | IO[str]) -> Graph:
    """Parse a graph file; raises InputError naming the offending line."""
    return _read(source, weighted=False)


def read_digraph(source: str | IO[str]) -> ArcListDigraph:
    """Parse a digraph file with weighted arc lines "u v w"."""
    return _read(source, weighted=True)


def _read(source, weighted: bool):
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            return _read_stream(f, weighted)
    return _read_stream(source, weighted)


def _read_stream(stream: Iterable[str], weighted: bool):
    lines = _iter_data_lines(stream)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise InputError("missing 'n m' header line") from None
    n, m = _ints(header, lineno, 2, "'n m' header")
    if n < 0 or m < 0:
        raise InputError(f"line {lineno}: negative counts in header")
    rows = []
    for lineno, line in lines:
        if weighted:
            u, v, w = _ints(line, lineno, 3, "'u v w' arc line")
        else:
            u, v = _ints(line, lineno, 2, "'u v' edge line")
            w = 1
        for x in (u, v):
            if not 1 <= x <= n:
                raise InputError(f"line {lineno}: endpoint {x} out of range 1..{n}")
        if weighted and u == v:
            raise InputError(f"line {lineno}: loop arc ({u}, {v})")
        if weighted and w < 0:
            raise InputError(f"line {lineno}: negative weight {w}")
        rows.append((u, v, w))
    if len(rows) != m:
        raise InputError(f"header announced {m} lines, found {len(rows)}")
    if weighted:
        return build_digraph(n, rows)
    return build_graph(n, [(u, v) for (u, v, _) in rows])


def graph_to_text(G: Graph, comments: Iterable[str] = ()) -> str:
    """A graph file: comment lines, "n m", then the edges in G.edges order."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{G.n} {G.m}")
    lines += [f"{u} {v}" for (u, v) in G.edges]
    return "\n".join(lines) + "\n"


def digraph_to_text(dg: ArcListDigraph, comments: Iterable[str] = ()) -> str:
    """A digraph file: comment lines, "n m", then the arcs in ascending order."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{dg.n} {dg.m}")
    lines += [f"{u} {v} {w}" for (u, v, w) in sorted(dg.arcs())]
    return "\n".join(lines) + "\n"


def read_pairs(source: str | IO[str]) -> list[tuple[int, int]]:
    """Read "x y" query pairs, one per line."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            return read_pairs(f)
    out = []
    for lineno, line in _iter_data_lines(source):
        x, y = _ints(line, lineno, 2, "'x y' pair")
        out.append((x, y))
    return out


def read_vertex_set(source: str | IO[str]) -> frozenset[int]:
    """Read whitespace-separated vertex ids (any number per line)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            return read_vertex_set(f)
    verts: set[int] = set()
    for lineno, line in _iter_data_lines(source):
        for tok in line.split():
            try:
                verts.add(int(tok))
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex id {tok!r}") from None
    return frozenset(verts)


def read_family(source: str | IO[str]) -> list[frozenset[int]]:
    """Read a ball family: one ball per line, whitespace-separated ids."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            return read_family(f)
    balls: list[frozenset[int]] = []
    for lineno, line in _iter_data_lines(source):
        try:
            balls.append(frozenset(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"line {lineno}: bad ball line {line!r}") from None
    return balls
