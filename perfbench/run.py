"""Run one gradkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: gradkit is imported from the
checkout's src/ directory and from nowhere else.  Workloads: oracle,
count and separator (see workloads.py and README.md).

With --trace 0 the run sets up at least MIN_SETUPS times and for at least
SETUP_SECONDS, and reports the median set-up time.  It then repeats passes
over the workload's operations until --seconds have gone by (at least
MIN_PASSES passes) and reports medians over the passes.  With --trace 1
it makes one untraced and one traced set-up, then alternates untraced and
traced passes until --seconds have gone by, reports the per-layer metrics
of the traced ones, and writes their spans to
perfbench/out/spans-<workload>-<seed>.jsonl.gz as gzip-compressed JSON lines.

Times are also expressed in units of workloads.calibrate(), a fixed loop
timed just before and just after each set-up and operation: the speed of
the shared machines this runs on drifts by tens of percent over seconds,
and the loop drifts with it while a change to gradkit does not move it.

Standard output ends with two JSON lines: {"detail": ...} holds the
workload's own metrics by name, with units, and the last line holds
correct, attempted, failed and the metrics that BENCHMARK.json declares
(end_to_end without tracing, per_layer with it).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 5
SETUP_SECONDS = 3.0
MIN_PASSES = 3
# About the median time of one calibrate() on the machine the checked-in
# results come from (2-vCPU VM, Python 3.11): setup_s is set-up time in
# calibrate() units, expressed in seconds of that machine.
CAL_S = 0.018


def pass_seconds(passes) -> float:
    """Time of one pass: the sum over its operations of their median times.

    A burst of load from outside the process then costs one operation one
    sample, not a whole pass.
    """
    return sum(statistics.median(ts) for ts in zip(*(p.op_seconds for p in passes)))


def pass_cal(passes) -> float:
    """pass_seconds with each operation's time in units of the calibrate()
    loop timed around it, which cancels the machine's speed drift."""
    ratios = ([t / c for t, c in zip(p.op_seconds, p.op_cal)] for p in passes)
    return sum(statistics.median(rs) for rs in zip(*ratios))


def timed_setup(w) -> tuple[float, float]:
    """(wall seconds, calibrate() units) of one set-up from nothing."""
    from workloads import calibrate

    w.release()
    before = calibrate()
    t0 = perf_counter()
    w.setup()
    wall = perf_counter() - t0
    return wall, wall / ((before + calibrate()) / 2)


def plain_run(w, seconds: float):
    setups = []
    while len(setups) < MIN_SETUPS or sum(wall for wall, _ in setups) < SETUP_SECONDS:
        setups.append(timed_setup(w))
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(w.run_pass())
    values = {
        "setup_s": CAL_S * statistics.median(cal for _, cal in setups),
        "pass_cal": pass_cal(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "result_size": w.result_size(),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "setup_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
        "failed_ratio": (failed / attempted, "ratio"),
        **w.detail(passes, pass_seconds(passes)),
    }
    return values, attempted, failed, detail


def traced_run(w, seconds: float, spans: Path):
    import tracer
    import workloads

    tr = tracer.Tracer()
    untraced_setup = timed_setup(w)[1]
    with tracer.installed(tr), tr.phase("setup"):
        traced_setup = timed_setup(w)[1]
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(w.run_pass())
        with tracer.installed(tr), tr.phase("pass"):
            traced.append(w.run_pass(tr))

    values = tr.per_layer()
    values["trace.overhead_ratio"] = (traced_setup + pass_cal(traced)) / (untraced_setup + pass_cal(untraced))
    # only the separator workload runs separate_or_minor
    values["separator.separate_or_minor.exponent"] = (
        w.exponent(tr.durations("separator.separate_or_minor"))
        if isinstance(w, workloads.Separator)
        else 0.0
    )
    spans.parent.mkdir(exist_ok=True)
    tr.write(spans)
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {"passes_each": (len(traced), "count")}
    return values, attempted, failed, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "count", "separator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gradkit
    except ImportError as exc:
        print(f"perfbench: cannot import gradkit from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(gradkit.__file__).resolve().is_relative_to(src):
        print(f"perfbench: gradkit came from {gradkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        values, attempted, failed, detail = traced_run(w, args.seconds, spans)
        declared = spec["per_layer"]
    else:
        values, attempted, failed, detail = plain_run(w, args.seconds)
        declared = spec["end_to_end"]

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{failed} of {attempted} operations failed")
    for name, (value, unit) in detail.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for m in declared:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
