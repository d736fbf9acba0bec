"""One workload in one process: set up, run its case list once, check.

Started by ``run.py``, which holds BLAS to one thread in this process's
environment before numpy loads.  Prints one environment line, then as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The end-to-end metrics come from one untraced pass over the
case list; with ``--trace 1`` the worker runs that pass and then the same
cases once more under the tracer, and prints the per-layer metrics instead.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["OBD_LOG"] = "off"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import obd.cli  # noqa: E402
import obd.costs  # noqa: E402
import obd.harness  # noqa: E402
import obd.offline  # noqa: E402
from obd.costs import InstanceSpec  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".obdbench_out")


def case_seeds(seed: int, workload_index: int, n: int) -> list[int]:
    """Per-case instance seeds, a pure function of the run's ``--seed``."""
    ss = np.random.SeedSequence([seed, workload_index])
    return [int(s) for s in ss.generate_state(n)]


def _trajectory(steps) -> tuple[np.ndarray, np.ndarray]:
    X = np.stack([np.asarray(s.x, dtype=float) for s in steps])
    balanced = np.array([s.branch == "balanced" for s in steps])
    return X, balanced


# ---------------------------------------------------------------------------
# quad_sweep: one cr_vs_dim CLI call per (d, seed)
# ---------------------------------------------------------------------------

class QuadSweep:
    """cr_vs_dim on quadratics through ``obd.cli.run_cli``, one case per (d, seed)."""

    DIMS = (2, 8, 32)
    SEEDS_PER_DIM = 6
    T = 50
    BETA = 0.5  # the CLI default

    def __init__(self, seed: int):
        seeds = case_seeds(seed, 0, self.SEEDS_PER_DIM * len(self.DIMS))
        self.cases = [(d, seeds[k * len(self.DIMS) + i])
                      for k in range(self.SEEDS_PER_DIM)
                      for i, d in enumerate(self.DIMS)]
        self.out = os.path.join(OUT_DIR, f"cli_{os.getpid()}")
        self.counter = 0

    def _argv(self, d: int, seed: int, T: int, out: str) -> list[str]:
        return ["--experiment", "cr_vs_dim", "--family", "quadratic",
                "--dims", str(d), "--trials", "1", "--seed", str(seed),
                "--T", str(T), "--out", out]

    def warm_up(self) -> None:
        out = os.path.join(self.out, "warm")
        obd.cli.run_cli(self._argv(2, 0, 5, out))
        shutil.rmtree(out, ignore_errors=True)

    def run(self, case):
        d, seed = case
        self.counter += 1
        out = os.path.join(self.out, f"case{self.counter}")
        return obd.cli.run_cli(self._argv(d, seed, self.T, out)), out

    def check(self, case, output) -> list[str]:
        rc, out = output
        try:
            return self._check_files(case, rc, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, case, rc, out) -> list[str]:
        d, seed = case
        label = f"quad_sweep d={d} seed={seed}"
        if rc != 0:
            return [f"{label}: CLI exit status {rc}"]
        runs = glob.glob(os.path.join(out, "run_*.json"))
        if len(runs) != 1:
            return [f"{label}: expected one trajectory file, found {len(runs)}"]
        with open(runs[0]) as fh:
            traj = json.load(fh)
        with open(os.path.join(out, "results.csv")) as fh:
            rows = fh.read().splitlines()
        header, values = rows[0].split(","), rows[1].split(",")
        row = dict(zip(header, values))
        spec = InstanceSpec.from_dict(traj["spec"])
        if (spec.d, spec.T, spec.family) != (d, self.T, "quadratic") or len(rows) != 2:
            return [f"{label}: output describes another run: {traj['spec']}"]
        inst = obd.costs.generate_instance(spec)
        costs = checks.costs_of(inst.costs)
        X = np.array([s["x"] for s in traj["steps"]], dtype=float)
        balanced = np.array([s["branch"] == "balanced" for s in traj["steps"]])
        own = sum(checks.path_cost(costs, inst.x0, X))
        opt = float(traj["totals"]["comparators"]["opt"])
        fails = checks.check_total(own, float(traj["totals"]["total_cost"]),
                                   f"{label} trajectory total")
        fails += checks.check_total(own, float(row["total_cost"]), f"{label} csv total")
        fails += checks.check_total(opt, float(row["opt_cost"]), f"{label} csv opt")
        fails += checks.check_comparator(costs, inst.x0, opt, own, label)
        fails += checks.check_primal_balance(costs, inst.x0, X, balanced,
                                             self.BETA, label)
        return fails

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# polyhedral_audit: theorem-1 cases plus grid-oracle companions
# ---------------------------------------------------------------------------

class PolyhedralAudit:
    """``run_theorem1_case`` over (alpha, d), plus d = 2 oracle companions."""

    ALPHAS = (0.5, 1.0, 2.0, 4.0)
    DIMS = (2, 5, 10)
    ROUNDS = 4
    T = 50
    COMPANIONS = ((1.0, 4), (2.0, 6))  # (alpha, T), d = 2

    def __init__(self, seed: int):
        combos = [(a, d) for a in self.ALPHAS for d in self.DIMS]
        n = self.ROUNDS * len(combos)
        seeds = case_seeds(seed, 1, n + len(self.COMPANIONS))
        self.cases = [("theorem1", self._spec(d, self.T, a, seeds[i]))
                      for i, (a, d) in enumerate(combos * self.ROUNDS)]
        self.cases += [("companion", self._spec(2, T, a, seeds[n + j]))
                       for j, (a, T) in enumerate(self.COMPANIONS)]

    @staticmethod
    def _spec(d, T, alpha, seed) -> InstanceSpec:
        return InstanceSpec(d=d, T=T, family="norm_tracking", seed=seed,
                            tracking_scale=alpha, diameter=10.0)

    def warm_up(self) -> None:
        obd.harness.run_theorem1_case(self._spec(2, 5, 1.0, 0))
        inst = obd.costs.generate_instance(self._spec(2, 3, 1.0, 0))
        obd.offline.offline_opt(inst.costs, inst.x0)
        obd.offline.grid_dp_oracle(inst.costs, inst.x0, refine=0)

    def run(self, case):
        kind, spec = case
        if kind == "theorem1":
            return obd.harness.run_theorem1_case(spec)
        inst = obd.costs.generate_instance(spec)
        return (inst, obd.offline.offline_opt(inst.costs, inst.x0),
                obd.offline.grid_dp_oracle(inst.costs, inst.x0, refine=4))

    def check(self, case, output) -> list[str]:
        kind, spec = case
        alpha = spec.tracking_scale
        label = f"polyhedral_audit {kind} d={spec.d} alpha={alpha} seed={spec.seed}"
        if kind == "companion":
            inst, sol, dp = output
            costs = checks.costs_of(inst.costs)
            own_sol = sum(checks.path_cost(costs, inst.x0, sol.trajectory))
            own_dp = sum(checks.path_cost(costs, inst.x0, dp.trajectory))
            fails = checks.check_total(own_sol, sol.objective, f"{label} offline_opt objective")
            fails += checks.check_total(own_dp, dp.objective, f"{label} oracle objective")
            fails += checks.check_comparator(costs, inst.x0, own_sol, None, label)
            fails += checks.check_oracle_gap(own_sol, own_dp, label)
            return fails
        report, audits = output
        fails = [f"{label}: program audit {a.name} failed: {a.detail}"
                 for a in audits if not a.passed]
        inst = report.instance
        costs = checks.costs_of(inst.costs)
        X, balanced = _trajectory(report.steps)
        own = sum(checks.path_cost(costs, inst.x0, X))
        opt = report.comparators["opt"]
        own_opt = sum(checks.path_cost(costs, inst.x0, opt.trajectory))
        beta = 0.5 + 1.0 / (alpha + 2.0)
        fails += checks.check_total(own, report.total_cost, f"{label} online total")
        fails += checks.check_total(own_opt, opt.objective, f"{label} offline objective")
        fails += checks.check_comparator(costs, inst.x0, own_opt, own, label)
        fails += checks.check_primal_balance(costs, inst.x0, X, balanced, beta, label)
        fails += checks.check_ratio(own, own_opt, alpha, label)
        return fails

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# smooth_regret: theorem-3 cases, three movement budgets each
# ---------------------------------------------------------------------------

class SmoothRegret:
    """``run_theorem3_case`` on quadratics in the centred radius-10 ball."""

    DIMS = (2, 5)
    N_CASES = 9  # odd, so that the median case time is one case's time
    T = 100
    RADIUS = 10.0

    def __init__(self, seed: int):
        n = self.N_CASES
        seeds = case_seeds(seed, 2, n)
        self.cases = [self._spec(self.DIMS[i % len(self.DIMS)], self.T, seeds[i])
                      for i in range(n)]

    def _spec(self, d, T, seed) -> InstanceSpec:
        return InstanceSpec(d=d, T=T, family="quadratic", seed=seed, cond=10.0,
                            diameter=10.0, feasible_kind="ball",
                            feasible_radius=self.RADIUS)

    def warm_up(self) -> None:
        obd.harness.run_theorem3_case(self._spec(2, 5, 0))

    def run(self, spec):
        return obd.harness.run_theorem3_case(spec)

    def check(self, spec, output) -> list[str]:
        label = f"smooth_regret d={spec.d} seed={spec.seed}"
        fails = []
        reports = {id(c.report): c.report for c in output}
        for rep in reports.values():
            fails += [f"{label}: program audit {a.name} failed: {a.detail}"
                      for a in rep.audits if not a.passed]
        if sorted(round(c.L, 9) == 0.0 for c in output) != [False, False, True]:
            return fails + [f"{label}: expected two positive budgets and zero"]
        inst = output[0].report.instance
        costs = checks.costs_of(inst.costs)
        x0, T = inst.x0, inst.T
        diameter = 2.0 * self.RADIUS
        opt = output[0].report.comparators["opt"]
        static = output[0].report.comparators["static"]
        own_opt_hit, own_opt_move = checks.path_cost(costs, x0, opt.trajectory)
        own_opt = own_opt_hit + own_opt_move
        own_static = sum(checks.path_cost(costs, x0, static.trajectory))
        fails += checks.check_total(own_opt, opt.objective, f"{label} OPT objective")
        fails += checks.check_total(own_static, static.objective, f"{label} static objective")
        etas = [math.sqrt(2.0 * checks.G_BALL * c.L * checks.M_STRONG / T)
                for c in output if c.L > 0]
        for c in output:
            lab = f"{label} L={c.L:g}"
            eta = math.sqrt(2.0 * checks.G_BALL * c.L * checks.M_STRONG / T) \
                if c.L > 0 else min(etas)
            X, _ = _trajectory(c.report.steps)
            own = sum(checks.path_cost(costs, x0, X))
            sol = c.report.comparators[f"opt_L:{c.L:g}"]
            hit_L, move_L = checks.path_cost(costs, x0, sol.trajectory)
            fails += checks.check_total(own, c.report.total_cost, f"{lab} online total")
            fails += checks.check_total(hit_L + move_L, sol.objective, f"{lab} OPT(L) objective")
            fails += checks.check_comparator(costs, x0, own_opt, own, lab)
            fails += checks.check_dual_balance(costs, x0, X, eta, lab)
            fails += checks.check_regret(own - (hit_L + move_L), c.L, T, eta, lab)
            fails += checks.check_budget(move_L, c.L, own_opt_move > c.L, lab)
            if abs(c.L - diameter) <= 1e-12 * diameter:
                fails += checks.check_static(hit_L + move_L, own_static, lab)
        return fails

    def close(self) -> None:
        pass


WORKLOADS = {"quad_sweep": QuadSweep, "polyhedral_audit": PolyhedralAudit,
             "smooth_regret": SmoothRegret}


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------

class Pass:
    """Case times and failures of one pass over the case list."""

    def __init__(self):
        self.case_s: list[float] = []
        self.cpu_s = 0.0
        self.failures: list[str] = []
        self.failed = 0

    @property
    def wall_s(self) -> float:
        return sum(self.case_s)


def run_pass(workload, tracer: Tracer = None) -> Pass:
    """Every case once; only the calls into the program are timed, and the
    checks run between cases, outside the timed region."""
    p = Pass()
    for case in workload.cases:
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                output = workload.run(case)
            else:
                tracer.active = True
                try:
                    output = tracer.call("case", workload.run, case)
                finally:
                    tracer.active = False
            p.case_s.append(time.perf_counter() - t0)
            p.cpu_s += time.process_time() - c0
            fails = workload.check(case, output)
        except Exception:  # a case that raises counts as failed
            fails = [f"case {case!r} raised:\n{traceback.format_exc()}"]
        if fails:
            p.failed += 1
            p.failures += fails
    return p


def environment_line() -> str:
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"# env cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} {threads}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="monotonic clock reading taken just before this process "
                        "was started; set-up time is counted from it")
    args = p.parse_args(argv)
    print(environment_line(), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        passes = [run_pass(workload)]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(workload, tracer))
            finally:
                tracer.uninstall()
    finally:
        workload.close()

    for i, q in enumerate(passes):
        # CPU time well below wall time means the process was kept waiting
        print(f"# pass {i + 1}{' (traced)' if i else ''}: {len(q.case_s)} cases, "
              f"wall {q.wall_s:.3f} s, cpu {q.cpu_s:.3f} s", flush=True)
    failures = [f for q in passes for f in q.failures]
    for f in failures:
        print(f"# FAILED {f}", file=sys.stderr)
    attempted = len(passes) * len(workload.cases)
    failed = sum(q.failed for q in passes)
    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)} "
              f"({len(tracer.spans)} spans)", flush=True)
        metrics = tracer.metrics(passes[1].wall_s - passes[0].wall_s)
    else:
        only = passes[0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": only.wall_s, "unit": "s"},
            "case_s.p50": {"value": statistics.median(only.case_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
