"""Benchmark entry point: run workloads of ``obd``, each in a process of its own.

    python3 obdbench/run.py                      # all three workloads
    python3 obdbench/run.py --workload quad_sweep --seed 3
    python3 obdbench/run.py --workload smooth_regret --trace 1

Each workload runs in a fresh worker process (``worker.py``) with OpenBLAS,
OpenMP and MKL held to one thread before numpy loads, so its set-up time and
peak memory are its own.  Set-up time counts from just before that process is
started.  With one ``--workload`` the last line of standard output is the
worker's JSON result; with all of them, a table per workload is printed and
the last line is one JSON object whose metric names are prefixed with the
workload's name.  The exit status is 0 only when every worker ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER_TIMEOUT_S = 170.0


def run_worker(workload: str, seed: int, trace: int) -> dict:
    """Run one workload in a fresh process; forward its notes, return its result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OBD_LOG="off", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = tuple(w["name"] for w in json.load(fh)["workloads"])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="accepted for the common benchmark command line and "
                        "ignored: a run is always one pass of a fixed case list, "
                        "whose length BENCHMARK.json records as run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one untraced and one traced pass, per-layer metrics")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "obd", "__init__.py")):
        print(f"obdbench: no obd package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_worker(name, args.seed, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"obdbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]), flush=True)
        return 0
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {}}
    for name, r in results.items():
        print(f"{name}: {r['attempted']} cases attempted, {r['failed']} failed, "
              f"correct={str(r['correct']).lower()}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
