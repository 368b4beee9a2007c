"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steady.py

Run from the root of a checkout.  Runs every workload ten times in each of
two sets, each run with its own seed and BENCHMARK.json's run_seconds, and
interleaves the sets run by run (set A run 1, set B run 1, set A run 2, ...)
so that both sets see the same drift of the host.  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and how much the second median is worse than the first.
The bounds in BENCHMARK.json were compared with this output; the README
records it.  Raw results go to .perfbench/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "crosscheck")
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if med else 0.0}


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for i in range(RUNS):
        for s in range(SETS):
            for w in WORKLOADS:
                seed = 1 + s * RUNS + i
                out = run_once(w, seed, seconds)
                results[w][s].append({"seed": seed, "attempted": out["attempted"],
                                      "failed": out["failed"], "run_s": out["run_s"],
                                      **{k: v["value"] for k, v in out["metrics"].items()}})
                print(f"set {s} run {i} {w} seed {seed} ({out['run_s']:.1f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                      flush=True)

    out_path = Path.cwd() / ".perfbench" / "steady.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1))
    print()
    print(f"{'workload':<11} {'metric':<16} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7}  {'2nd/1st-1':>9}  failed/attempted")
    for w, sets in results.items():
        for metric in [k for k in sets[0][0]
                       if k not in ("seed", "attempted", "failed", "run_s")]:
            medians = []
            for s, runs in enumerate(sets):
                st = summary([r[metric] for r in runs])
                medians.append(st["median"])
                worse = f"{medians[1] / medians[0] - 1:+9.3f}" if s and medians[0] else ""
                share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                print(f"{w:<11} {metric:<16} {s:>3} {st['median']:>11.5g} {st['q1']:>11.5g} "
                      f"{st['q3']:>11.5g} {st['spread']:>7.3f}  {worse:>9}  {share:.4f}")
    runs = [r for sets in results.values() for runs in sets for r in runs]
    print(f"\n{len(runs)} runs, {statistics.mean(r['run_s'] for r in runs):.1f} s per run "
          f"on average, longest {max(r['run_s'] for r in runs):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
