"""Steadiness check: two interleaved sets of runs of the same code.

    python3 obdbench/steady.py --runs 5
    python3 obdbench/steady.py --workloads smooth_regret --runs 3 --seed 500
    python3 obdbench/steady.py --runs 5 --seed 1 --same-seed

For each workload, run i of set A uses seed ``seed + 2i`` and run i of set B
seed ``seed + 2i + 1``, so the spread holds both host noise and the
difference between case lists.  With ``--same-seed`` every run uses
``seed``, so the spread is host noise alone.  The two sets alternate which
goes first.  For every end-to-end metric the command prints each set's
median and quartiles, the spread (quartile distance over median) of each set
and of all runs, and whether set B's median agrees with set A's within the
metric's bound from BENCHMARK.json.  Quartiles are
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--same-seed", action="store_true",
                   help="run every run on --seed instead of a new seed each")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    workloads = args.workloads.split(",")
    runs: dict = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                seed = args.seed if args.same_seed else args.seed + 2 * i + (side == "B")
                r = one_run(w, seed)
                r["seed"] = seed
                runs[w][side].append(r)
                vals = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
                print(f"run {i} set {side} {w} seed {seed}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']} {vals}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for side in ("A", "B"):
            rs = runs[w][side]
            share = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            print(f"  set {side}: failed share {share:.6g}, all correct "
                  f"{all(r['correct'] for r in rs)}")
        print(f"  {'metric':<12} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7}   verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            both = []
            meds = {}
            for side in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in runs[w][side]]
                both += vals
                q1, med, q3 = quartiles(vals)
                meds[side] = med
                print(f"  {name:<12} {side:<3} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{spread(vals):>7.2%}")
            diff = meds["B"] / meds["A"] - 1.0
            agree = abs(diff) <= bound
            all_spread = spread(both)
            ok &= agree and (name == "setup_s" or all_spread <= bound)
            print(f"  {name:<12} all {statistics.median(both):>10.5g} "
                  f"{'':>10} {'':>10} {all_spread:>7.2%}   medians differ "
                  f"{diff:+.2%}, bound {bound:.0%}: {'agree' if agree else 'DISAGREE'}; "
                  f"spread {'below' if all_spread <= bound / 3 else 'ABOVE'} bound/3")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
