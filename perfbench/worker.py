"""One workload process: set up, report ready, run passes, check, report.

Started by run.py, which times the set-up from launch to the READY line.
After a warm-up pass the process runs passes one after another (closed
loop) until their wall times add up to --seconds, checks every pass's
outputs, and prints one JSON line with the per-pass times, peak RSS,
operation counts, failures and, with --trace 1, the per-layer figures.
With --trace 1 untraced and traced passes alternate, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

MIN_PASSES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--traces", type=Path, help="directory for the trace file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    failures = []
    walls, traced_walls, figures = [], [], []
    attempted = failed = 0
    density_l1 = None
    index = 0
    while index == 0 or len(walls) + len(traced_walls) < MIN_PASSES \
            or sum(walls) + sum(traced_walls) < args.seconds:
        out_dir = args.work / f"pass-{index}"
        out_dir.mkdir(parents=True)
        traced = tracer is not None and index % 2 == 0 and index > 0
        gc.collect()
        if traced:
            tracer.install()
            tracer.start_pass()
        start = time.perf_counter()
        result = workload.run_pass(out_dir)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            figures.append(tracer.end_pass(wall, workloads.output_mb(out_dir)))
        attempted += workload.ops_per_pass
        failed += result.failed
        bad, dist = workload.check(result)
        failures += bad + [f"pass {index}: {e}" for e in result.errors]
        if dist is not None:
            density_l1 = dist
        shutil.rmtree(out_dir)
        if index > 0:          # pass 0 is the warm-up
            (traced_walls if traced else walls).append(wall)
        index += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += workload.finish()
    report = {"walls": walls, "peak_rss_mb": peak_rss_mb, "attempted": attempted,
              "failed": failed, "failures": failures, "density_l1_dist": density_l1}
    if tracer is not None:
        tracer.write(args.traces / f"{args.workload}-seed{args.seed}.jsonl")
        per_layer = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report["per_layer"] = {name: {"value": value, "unit": tracer_mod.PER_LAYER[name][0]}
                               for name, value in per_layer.items()}
        report["traced_walls"] = traced_walls
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
