"""Record the benchmark of this checkout as BENCH_<n>.json at the repository root.

    python3 tools/bench_record.py

Runs ``python3 obdbench/run.py --workload all --seed 1`` twice, once
untraced (the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics: call counts, iteration sums and self times), and writes both JSON
results with the run's ``# env`` line and the git commit.  It adds one layer
record, ``layers``: the binding movement-budgeted solve
(``offline_opt_constrained``) at fixed (T, d) in {(100, 2), (100, 5)}, timed
in a fresh process of this checkout with BLAS on one thread, as the median
seconds per solve and the banded Cholesky factorizations (``dpbtrf`` calls)
per solve.  n is one more than the highest number of an existing
BENCH_<n>.json; an existing file is never overwritten.

    python3 tools/bench_record.py --layers   # print the layer record alone
"""

from __future__ import annotations

import datetime
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["obdbench/run.py", "--workload", "all", "--seed", "1"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def bench(*extra: str) -> tuple[str, dict]:
    """One run of the benchmark: its first ``# env`` line and its JSON result."""
    lines = subprocess.run([sys.executable, *COMMAND, *extra], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.splitlines()
    env = next(line for line in lines if line.startswith("# env"))
    return env, json.loads(lines[-1])


def budget_layer() -> dict:
    """The binding budgeted solve at each fixed (T, d): smooth_regret's
    instance shape (quadratics with cond 10 in the centred radius-10 ball,
    seeds 1-5) under the diameter budget L = 20, which binds on every seed.
    Per shape, the median over 5 passes of the seconds per solve, and the
    ``dpbtrf`` calls per solve, counted by wrapping ``obd.offline.dpbtrf``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import statistics
    import time

    import obd.offline
    from obd.costs import InstanceSpec, generate_instance

    calls = [0]
    factor = obd.offline.dpbtrf

    def counted(*args, **kwargs):
        calls[0] += 1
        return factor(*args, **kwargs)

    obd.offline.dpbtrf = counted
    record, repeats = {}, 5
    for T, d in ((100, 2), (100, 5)):
        cases = []
        for seed in range(1, 6):
            inst = generate_instance(InstanceSpec(d=d, T=T, family="quadratic", seed=seed,
                                                  feasible_kind="ball", feasible_radius=10.0))
            base = obd.offline.offline_opt(inst.costs, inst.x0, inst.feasible)
            cases.append((inst, base))
        L = 20.0

        def run():
            for inst, base in cases:
                obd.offline.offline_opt_constrained(inst.costs, inst.x0, L, inst.feasible,
                                                    base=base)

        run()  # warm
        calls[0] = 0
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        record[f"offline.offline_opt_constrained.T{T}_d{d}"] = {
            "solves": len(cases),
            "median_s": statistics.median(times) / len(cases),
            "dpbtrf_calls": calls[0] / (repeats * len(cases)),
        }
    return record


def layers() -> dict:
    """``budget_layer`` in a fresh process of this checkout."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--layers"], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    if sys.argv[1:] == ["--layers"]:
        print(json.dumps(budget_layer()))
        return 0
    taken = [int(m.group(1)) for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)))]
    path = os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")
    env, untraced = bench()
    _, traced = bench("--trace", "1")
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": " ".join(["python3", *COMMAND]),
        "env": env,
        "untraced": untraced,
        "traced": traced,
        "layers": layers(),
    }
    with open(path, "x") as fh:  # never overwrite an earlier record
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}: correct={untraced['correct'] and traced['correct']}, "
          f"failed={untraced['failed'] + traced['failed']}")
    return 0 if untraced["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
