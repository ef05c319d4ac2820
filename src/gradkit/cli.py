"""grad-kit command-line interface.

One subcommand per toolkit operation; stdout carries data, stderr carries
messages.  Exit codes: 0 success, 1 domain errors (violated
preconditions, size limits), 2 I/O and format errors.
"""

from __future__ import annotations

import argparse
import sys

from . import textio
from .augmentation import augment
from .config import resolve_config
from .coloring import low_tdepth_coloring
from .core import Graph, _check_vertex
from .distance import preprocess
from .errors import DomainError, InputError
from .generators import FAMILIES, lex_product_kc
from .gradoracle import ball_family, evaluate_family, grad
from .harness import run_suite
from .orientation import orient
from .patterns import count_isomorphs, list_isomorphs, make_pattern
from .separator import (
    Separator,
    parse_expansion,
    separate_or_minor,
    sublinear_separator,
    validate,
)
from .treedepth import treedepth_decide, treedepth_exact


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_orient(args, cfg) -> int:
    G = textio.read_graph(args.input)
    dg, order = orient(G)
    _emit(textio.digraph_to_text(dg, comments=[f"delta_max = {order.delta_max}"]), args.output)
    return 0


def _cmd_grad(args, cfg) -> int:
    G = textio.read_graph(args.input)
    if args.witness_only:
        fam = ball_family(G, textio.read_family(args.witness_only))
        value = evaluate_family(G, fam)
        print(f"rho = {fam.radius}")
        print(f"nabla_{fam.radius} >= {value.numerator}/{value.denominator}")
        return 0
    limit = cfg.oracle_limit_r0 if args.r == 0 else cfg.oracle_limit
    result = grad(G, args.r, limit=limit)
    v = result.value
    print(f"nabla_{args.r} = {v.numerator}/{v.denominator}")
    for ball in result.witness.balls:
        print("ball: " + " ".join(str(x) for x in sorted(ball)))
    return 0


def _cmd_augment(args, cfg) -> int:
    G = textio.read_graph(args.input)
    trace = augment(G, args.steps)
    comments = ["step arcs md transitivity_added fraternity_added"]
    for i, dg in enumerate(trace.steps):
        t = trace.transitivity_added[i - 1] if i else 0
        f = trace.fraternity_added[i - 1] if i else 0
        comments.append(f"{i + 1} {dg.m} {dg.md} {t} {f}")
    _emit(textio.digraph_to_text(trace.final, comments=comments), args.output)
    return 0


def _cmd_dist(args, cfg) -> int:
    G = textio.read_graph(args.input)
    k = args.k if args.k is not None else cfg.default_k
    pairs = textio.read_pairs(args.pairs)
    for (x, y) in pairs:
        for v in (x, y):
            _check_vertex(v, G.n, f"query ({x}, {y})")
    index = preprocess(G, k)
    for (x, y) in pairs:
        d = index.query(x, y)
        print(f"{x} {y} {d}" if d is not None else f"{x} {y} >{k}")
    return 0


def _cmd_color(args, cfg) -> int:
    G = textio.read_graph(args.input)
    col = low_tdepth_coloring(G, args.p)
    print(f"# colors = {col.num_colors}")
    for v in range(1, G.n + 1):
        print(f"{v} {col.colors[v]}")
    return 0


def _cmd_tdepth(args, cfg) -> int:
    G = textio.read_graph(args.input)
    if args.decide is not None:
        print("yes" if treedepth_decide(G, args.decide) else "no")
        return 0
    depth, forest = treedepth_exact(G, limit=cfg.exact_treedepth_limit)
    print(f"depth {depth}")
    for v in range(1, G.n + 1):
        print(f"{v} {forest.parent[v]}")
    return 0


def _cmd_count(args, cfg) -> int:
    G = textio.read_graph(args.input)
    pat = make_pattern(textio.read_graph(args.pattern), limit=cfg.pattern_limit)
    S = textio.read_vertex_set(args.restrict) if args.restrict else None
    if not args.list:
        print(f"count {count_isomorphs(G, pat, S).total}")
        return 0
    # the listing holds each copy once, so its length is the count
    copies = list_isomorphs(G, pat, S)
    print(f"count {len(copies)}")
    for (verts, edges) in copies:
        vtxt = " ".join(str(v) for v in verts)
        etxt = " ".join("-".join(str(x) for x in sorted(e)) for e in sorted(edges, key=sorted))
        print(f"{vtxt} ; {etxt}")
    return 0


def _write_certificate(outcome, prefix: str) -> None:
    if isinstance(outcome, Separator):
        with open(f"{prefix}.separator.txt", "w", encoding="utf-8") as fh:
            fh.write(" ".join(str(v) for v in sorted(outcome.vertices)) + "\n")
    else:
        with open(f"{prefix}.minor.txt", "w", encoding="utf-8") as fh:
            for b in outcome.branch_sets:
                fh.write(" ".join(str(v) for v in sorted(b)) + "\n")


def _print_outcome(G: Graph, outcome, l: int, h: int, c1: float) -> None:
    if isinstance(outcome, Separator):
        print("outcome separator")
        print(f"size {len(outcome.vertices)}")
        print(f"largest_component_fraction {outcome.largest_component_fraction:.4f}")
        print(f"size_bound {outcome.size_bound:.2f}")
        print("vertices " + " ".join(str(v) for v in sorted(outcome.vertices)))
    else:
        print("outcome minor")
        print(f"h {len(outcome.branch_sets)}")
        for i, b in enumerate(outcome.branch_sets):
            print(f"set {i} (radius {outcome.radii[i]}): " + " ".join(str(v) for v in sorted(b)))
    print(f"valid {validate(G, outcome, l, h, c1=c1)}")
    print("log_base 2")


def _cmd_separator(args, cfg) -> int:
    G = textio.read_graph(args.input)
    if args.expansion:
        f = parse_expansion(args.expansion)
        report = sublinear_separator(
            G, f, c1=cfg.separator_c1, minor_attempts=cfg.minor_attempts
        )
        print(f"z {report.z}")
        print(f"zeta {report.zeta}")
        print(f"f_violated {report.f_violated}")
        if report.witness_density is not None:
            d = report.witness_density
            print(f"witness_density {d.numerator}/{d.denominator}")
        print(f"separator_size_bound {report.separator_size_bound:.2f}")
        outcome, l, h = report.outcome, report.l, report.h
    elif args.l is None or args.h is None:
        raise DomainError("separator needs either --l and --h, or --expansion")
    else:
        l, h = args.l, args.h
        outcome = separate_or_minor(
            G, l, h, c1=cfg.separator_c1, minor_attempts=cfg.minor_attempts
        )
    _print_outcome(G, outcome, l, h, cfg.separator_c1)
    if args.cert:
        _write_certificate(outcome, args.cert)
    return 0


def _int_params(params: list[str]) -> list[int]:
    try:
        return [int(p) for p in params]
    except ValueError:
        raise InputError(f"non-integer generator parameters: {params}") from None


def _cmd_gen(args, cfg) -> int:
    family = args.family.replace("-", "_")
    if family == "lex_product":
        if len(args.params) != 2:
            raise InputError("gen lex_product takes: <base graph file> <c>")
        base = textio.read_graph(args.params[0])
        G = lex_product_kc(base, *_int_params(args.params[1:]))
        name = f"lex_product({args.params[0]},{args.params[1]})"
    else:
        params = _int_params(args.params)
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}")
        fn, arity = FAMILIES[family]
        if len(params) != arity:
            raise InputError(f"family {family!r} takes {arity} parameters, got {len(params)}")
        G = fn(*params)
        name = family + "(" + ",".join(str(p) for p in params) + ")"
    _emit(textio.graph_to_text(G, comments=[name]), args.output)
    return 0


def _cmd_verify(args, cfg) -> int:
    reports = run_suite(args.suite)
    failures = 0
    for r in reports:
        print(r.line())
        if not r.match:
            failures += 1
    print(f"# {len(reports) - failures}/{len(reports)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grad-kit",
        description="Sparse-graph toolkit: orientations, augmentations, distance "
        "oracles, low tree-depth colorings, pattern counting, certified separators.",
        epilog="Graph files: '#' comments, a 'n m' header, then 'u v' edge lines "
        "(digraphs: 'u v w').  Vertices are 1-based.",
    )
    parser.add_argument("--config", help="key=value config file (env: GRADKIT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orient", help="acyclic low-indegree orientation")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_orient)

    p = sub.add_parser("grad", help="exact grad (oracle-sized graphs)")
    p.add_argument("input")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--witness-only", help="evaluate this ball-family file instead")
    p.set_defaults(fn=_cmd_grad)

    p = sub.add_parser("augment", help="transitive-fraternal augmentation")
    p.add_argument("input")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("dist", help="bounded-distance oracle queries")
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p.add_argument("--pairs", required=True, help="file of 'x y' lines")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("color", help="low tree-depth coloring")
    p.add_argument("input")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("tdepth", help="tree-depth: exact or --decide k")
    p.add_argument("input")
    p.add_argument("--decide", type=int)
    p.set_defaults(fn=_cmd_tdepth)

    p = sub.add_parser("count", help="count/list copies of a small pattern")
    p.add_argument("input")
    p.add_argument("--pattern", required=True, help="pattern graph file")
    p.add_argument("--restrict", help="count only copies meeting this vertex set")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("separator", help="balanced separator or shallow-minor witness")
    p.add_argument("input")
    p.add_argument("--l", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--expansion", help="const:c | poly:c,d | exp:b | table:v0,v1,...")
    p.add_argument("--cert", help="certificate file prefix")
    p.set_defaults(fn=_cmd_separator)

    p = sub.add_parser("gen", help=f"generate a family graph: {sorted(FAMILIES)} or lex_product")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run desk-scale oracle suites")
    p.add_argument("--suite", help="one suite name (default: all)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config)
        return args.fn(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
