"""Record the benchmark of this checkout as BENCH_<n>.json at the repository root.

    python3 tools/bench_record.py

Runs ``python3 obdbench/run.py --workload all --seed 1`` twice, once
untraced (the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics: call counts, iteration sums and self times), and writes both JSON
results with the run's ``# env`` line and the git commit.  It adds the layer
records, ``layers``, taken in a fresh process of this checkout with BLAS on
one thread, each the median over 5 passes of the seconds per call with its
work counts per call:

* the binding movement-budgeted solve (``offline_opt_constrained``) at fixed
  (T, d) in {(100, 2), (100, 5)}, with its banded Cholesky factorizations
  (``dpbtrf`` calls);
* one primal step on quad_sweep's instances (quadratics, T = 50, d in
  {2, 8, 32}, beta 1/2, seeds 1-3), one dual step on smooth_regret's
  (quadratics in the centred radius-10 ball, T = 100, d in {2, 5}, eta for
  the diameter budget, seeds 1-3), and ``generate_instance`` of quad_sweep's
  instances, each with its balance evaluations and ``eigh`` calls.  The
  steps run every round of fresh instances, so a cached eigenbasis counts
  as it does in a workload.

n is one more than the highest number of an existing BENCH_<n>.json; an
existing file is never overwritten.

    python3 tools/bench_record.py --layers   # print the layer records alone
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


def _counted(module, name: str, counts: dict) -> None:
    """Count the calls of ``module.name`` in ``counts[name]``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    counts[name] = 0
    setattr(module, name, counted)


def _median_s(run, repeats: int = 5) -> float:
    """The median seconds of ``run()`` over ``repeats`` passes, after one
    untimed pass; ``run`` readies its inputs before it returns its timed part."""
    import statistics
    import time

    run()()  # warm
    times = []
    for _ in range(repeats):
        timed = run()
        started = time.perf_counter()
        timed()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def layer_records() -> dict:
    """Every layer record (see the module docstring), keyed by layer and shape."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import obd.offline
    from obd.algorithms import (
        DualConfig, PrimalConfig, choose_eta, dual_obd_step, primal_obd_step,
    )
    from obd.costs import InstanceSpec, generate_instance
    from obd.geometry import euclidean_map
    from obd.harness import mirror_grad_bound

    counts: dict = {}
    _counted(obd.offline, "dpbtrf", counts)
    _counted(np.linalg, "eigh", counts)
    repeats, record = 5, {}

    def passes(before: dict) -> dict:
        # work per pass: the warm pass and the timed ones
        return {name: (counts[name] - before[name]) / (repeats + 1) for name in counts}

    for T, d in ((100, 2), (100, 5)):
        cases = []
        for seed in range(1, 6):
            inst = generate_instance(InstanceSpec(d=d, T=T, family="quadratic", seed=seed,
                                                  feasible_kind="ball", feasible_radius=10.0))
            base = obd.offline.offline_opt(inst.costs, inst.x0, inst.feasible)
            cases.append((inst, base))
        L = 20.0

        def budgeted():
            return lambda: [obd.offline.offline_opt_constrained(
                inst.costs, inst.x0, L, inst.feasible, base=base) for inst, base in cases]

        before = dict(counts)
        seconds = _median_s(budgeted, repeats)
        record[f"offline.offline_opt_constrained.T{T}_d{d}"] = {
            "solves": len(cases), "median_s": seconds / len(cases),
            "dpbtrf_calls": passes(before)["dpbtrf"] / len(cases)}

    def steps(specs, step, cfg_of, label):
        evaluations = []

        def run():
            played = [(inst, cfg_of(inst)) for inst in map(generate_instance, specs)]

            def timed():
                for inst, cfg in played:
                    x = inst.x0
                    for t, f in enumerate(inst.costs, 1):
                        rec = step(x, f, cfg, t=t)
                        evaluations.append(rec.iterations)
                        x = rec.x
            return timed

        before = dict(counts)
        seconds = _median_s(run, repeats)
        n = len(evaluations)
        record[label] = {"steps": n // (repeats + 1), "median_s": seconds * (repeats + 1) / n,
                         "balance_evaluations": sum(evaluations) / n,
                         "eigh_calls": passes(before)["eigh"] * (repeats + 1) / n}

    quad_sweep = {d: [InstanceSpec(d=d, T=50, family="quadratic", seed=seed)
                      for seed in (1, 2, 3)] for d in (2, 8, 32)}
    for d, specs in quad_sweep.items():
        steps(specs, primal_obd_step, lambda inst: PrimalConfig(0.5, euclidean_map()),
              f"algorithms.primal_obd_step.T50_d{d}")
    for d in (2, 5):
        specs = [InstanceSpec(d=d, T=100, family="quadratic", seed=seed, feasible_kind="ball",
                              feasible_radius=10.0) for seed in (1, 2, 3)]

        def dual_cfg(inst):
            eta = choose_eta(mirror_grad_bound(euclidean_map(), inst.feasible),
                             inst.feasible.diameter(), 1.0, inst.T).eta
            return DualConfig(eta, euclidean_map(), inst.feasible)

        steps(specs, dual_obd_step, dual_cfg, f"algorithms.dual_obd_step.T100_d{d}")
    for d, specs in quad_sweep.items():
        before = dict(counts)
        seconds = _median_s(lambda: lambda: [generate_instance(spec) for spec in specs],
                            repeats)
        record[f"costs.generate_instance.T50_d{d}"] = {
            "instances": len(specs), "median_s": seconds / len(specs),
            "balance_evaluations": 0.0, "eigh_calls": passes(before)["eigh"] / len(specs)}
    return record


def layers() -> dict:
    """``layer_records`` in a fresh process of this checkout."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--layers"], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    if sys.argv[1:] == ["--layers"]:
        print(json.dumps(layer_records()))
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
