"""Compare two result sets written by collect.py, one per commit.

    python3 perfbench/compare.py perfbench/results/seed-c62ba82.json perfbench/out/change.json

Prints one row per workload and metric: each side's median and quartiles,
the ratio of the medians with its base, and a verdict:

- better: at least MIN_PAIRS runs pair up by seed, the change wins at
  least nine tenths of them, ties counting for neither, and the medians
  differ by more than the base's quartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (without a bound: as for better, with
  losses in place of wins);
- unresolved: neither, and either side's quartile distance is wider than
  the bound, or the metric has no bound;
- unchanged: otherwise.

Traced runs give the per-layer rows.  A rise in failed_ratio on any
workload is flagged.  The exit code is 1 when a row is worse or
failed_ratio rose, else 0.  Sets whose runs lasted different run_seconds
are not compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from collect import SPEC, metric_values, spread

DECLARED = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_PAIRS = 10


def direction(name: str, unit: str) -> str:
    if name in DECLARED:
        return DECLARED[name]["better"]
    return "higher" if unit.endswith("/s") else "lower"


def by_seed(runs: list[dict], workload: str, trace: int) -> list[int]:
    return [r["seed"] for r in runs if r["workload"] == workload and r["trace"] == trace]


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    base_med, base_q1, base_q3, base_spread = spread(base)
    new_med, _, _, new_spread = spread(new)
    gain = sign * (new_med - base_med)
    if base_med == new_med and base_spread == new_spread == 0:
        return "unchanged"
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    iqr = base_q3 - base_q1
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(pairs) and gain > iqr:
        return "better"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(base_med):
        return "worse"
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if max(base_spread, new_spread) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_set: dict, new_set: dict) -> int:
    if base_set["run_seconds"] != new_set["run_seconds"]:
        raise SystemExit(f"run lengths differ: {base_set['run_seconds']} s against "
                         f"{new_set['run_seconds']} s; collect both sets with the same run_seconds")
    status = 0
    for side, rs in (("base", base_set), ("change", new_set)):
        print(f"{side}: revision {rs['git']['revision'][:12]}, src modified {rs['git']['src_modified']}, "
              f"Python {rs['python']}, nproc {rs['nproc']}, {rs['run_seconds']} s runs")
    print(f"{'workload':<10} {'metric':<44} {'base median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} {'unit':<8} {'change/base':>11}  verdict")
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            base = metric_values(base_set["runs"], w, trace)
            new = metric_values(new_set["runs"], w, trace)
            base_seeds = by_seed(base_set["runs"], w, trace)
            new_seeds = by_seed(new_set["runs"], w, trace)
            for name in [n for n in base if n in new]:
                (bv, unit), (nv, _) = base[name], new[name]
                bound = DECLARED[name].get("bound") if name in DECLARED else None
                pairs = [(b, nv[new_seeds.index(s)]) for s, b in zip(base_seeds, bv) if s in new_seeds]
                v = verdict(bv, nv, pairs, direction(name, unit), bound)
                bm, bq1, bq3, _ = spread(bv)
                nm, nq1, nq3, _ = spread(nv)
                ratio = f"{nm / bm:.4f}" if bm else "-"
                print(f"{w:<10} {name:<44} {f'{bm:.6g} [{bq1:.6g}, {bq3:.6g}]':<38} "
                      f"{f'{nm:.6g} [{nq1:.6g}, {nq3:.6g}]':<38} {unit:<8} {ratio:>11}  {v}")
                if name == "failed_ratio" and max(nv) > max(bv):
                    print(f"{w:<10} FAILED RATIO ROSE: {max(bv):.6g} -> {max(nv):.6g}")
                    status = 1
                if v == "worse":
                    status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    return compare(json.loads(Path(args.base).read_text()), json.loads(Path(args.change).read_text()))


if __name__ == "__main__":
    sys.exit(main())
