"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from ./src, and
scratch files go to ./.perfbench/.  The workload runs in fresh worker
processes (perfbench/worker.py) whose BLAS/OpenMP pools are pinned to one
thread.  set-up time is the median over SETUP_SAMPLES launches of the time
from starting a worker until it reports ready (imports plus making the
workload's inputs); the last launch goes on to run the passes.

--trace 0 prints the end-to-end metrics: setup_s, wall_s (median pass),
peak_rss_mb and density_l1_dist.  --trace 1 prints the per-layer metrics
of traced passes and the tracing overhead.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
# A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one BLAS/OpenMP thread: a second one only adds contention on 2 cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
            raise BenchError("worker did not answer in time")
        return proc.stdout.readline()
    finally:
        sel.close()


def _launch(cmd: list, env: dict, setup_only: bool) -> tuple:
    """Start a worker; return (seconds until READY, its final JSON or None)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = _read_line(proc, deadline)
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker failed during set-up: {line.strip()!r}")
        last = ""
        while True:
            line = _read_line(proc, deadline)
            if not line:
                break
            if line.strip():
                last = line
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return ready, (None if setup_only else json.loads(last))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "besovtransfer" / "__init__.py").is_file():
        print("run.py: no src/besovtransfer here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / "passes"),
           "--traces", str(root / ".perfbench" / "traces")]
    env = _env(root)
    try:
        samples = []
        n_setup = SETUP_SAMPLES if not args.trace else 1
        for i in range(n_setup):
            ready, report = _launch(cmd, env, setup_only=i < n_setup - 1)
            samples.append(ready)
    except (BenchError, json.JSONDecodeError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = report["walls"]
    if args.trace:
        metrics = dict(sorted(report["per_layer"].items()))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "density_l1_dist": {"value": report["density_l1_dist"], "unit": "1"},
        }
    for msg in report["failures"]:
        print(f"CHECK FAILED: {msg}")
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} untraced passes"
          + (f", {len(report['traced_walls'])} traced" if args.trace else "")
          + f", {report['attempted']} operations, {report['failed']} failed")
    print("  pass walls: " + " ".join(f"{w:.3f}" for w in walls)
          + (" | traced: " + " ".join(f"{w:.3f}" for w in report["traced_walls"])
             if args.trace else "")
          + ("" if args.trace else " | set-up: " + " ".join(f"{s:.3f}" for s in samples)))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    correct = not report["failures"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
