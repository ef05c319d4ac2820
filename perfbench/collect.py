"""Run the benchmark several times and save the runs as one result set.

    python3 perfbench/collect.py --runs 10 --out perfbench/out/base.json

Runs perfbench/run.py once per seed and workload without tracing, seeds
1, 2, ..., --runs, cycling through the workloads for each seed, then once
per workload with tracing on seed 1 (run.py writes the spans to
perfbench/out/).  Every run is a fresh process and lasts BENCHMARK.json's
run_seconds.  The result set records each run's last-line result and
detail metrics, plus the Python version, the git revision of the checkout
and whether src/ differs from it, nproc and the platform.  A table of
medians and quartile spreads goes to standard output.  Compare two result
sets with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": wall,
        "detail": json.loads(lines[-2])["detail"],
        "result": json.loads(lines[-1]),
    }


def git_revision() -> dict:
    def git(*args: str) -> str:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    return {"revision": git("rev-parse", "HEAD"), "src_modified": git("status", "--porcelain", "--", "src") != ""}


def metric_values(runs: list[dict], workload: str, trace: int) -> dict[str, tuple[list[float], str]]:
    """name -> (values in run order, unit), from results and details."""
    table: dict[str, tuple[list[float], str]] = {}
    for r in runs:
        if r["workload"] != workload or r["trace"] != trace:
            continue
        res = r["result"]
        merged = {"failed_ratio": {"value": res["failed"] / res["attempted"], "unit": "ratio"}}
        merged.update(r["detail"])
        merged.update(res["metrics"])
        for name, m in merged.items():
            table.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return table


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def print_table(runs: list[dict]) -> None:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            table = metric_values(runs, w["name"], trace)
            if not table:
                continue
            count = len(next(iter(table.values()))[0])
            print(f"{w['name']} trace={trace} runs={count}")
            for name, (values, unit) in table.items():
                med, q1, q3, sp = spread(values)
                print(f"  {name:<48} {med:>14.6g} {unit:<9} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--out", required=True, help="result set file to write")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in SPEC["workloads"]]
    runs = []
    for seed in range(1, args.runs + 1):
        for w in workloads:
            runs.append(run_once(w, seed, 0))
            print(f"{w} seed={seed} {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
    for w in workloads:
        runs.append(run_once(w, 1, 1))
        print(f"{w} seed=1 traced {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
    result_set = {
        "git": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": SPEC["run_seconds"],
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    print_table(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
