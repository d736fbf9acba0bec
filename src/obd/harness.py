"""Run online algorithms over instances, account costs, audit the proven bounds.

A run reveals each cost before the decision, accumulates hitting plus
switching cost in the instance's norm, solves requested offline comparators,
and attaches competitive ratios / regrets.  Auditors re-check the per-step
inequalities behind the competitive-ratio and regret guarantees: a violation
beyond numerical slack indicates an implementation bug, so the acceptance
suite treats it as a first-class failure while ordinary runs only record the
residuals.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algorithms import (
    Branch, DualConfig, DualOBD, OnlineAlgorithm, PrimalConfig, PrimalOBD,
    SetProjectionResponder, StepRecord, choose_beta, choose_eta,
)
from .costs import HYPERPLANE_CHASE, Instance, InstanceSpec, generate_instance
from .geometry import (
    BALL, BOX, SIMPLEX, FeasibleSet, MirrorMap, Norm, euclidean_map,
    norm_equivalence_constants, pair_growth_constant,
)
from .offline import OfflineSolution, offline_opt, offline_opt_constrained, static_opt

log = logging.getLogger("obd")


@dataclass
class AuditResult:
    name: str
    passed: bool
    worst_residual: float
    detail: str = ""


@dataclass
class RunReport:
    algo: str
    steps: list
    total_cost: float
    total_hit: float
    total_move: float
    comparators: dict
    comparator_errors: dict
    cr: Optional[float]
    regrets: dict
    static_regret: Optional[float]
    audits: list = field(default_factory=list)
    instance: Optional[Instance] = None
    revealed_costs: Optional[list] = None

    def unverified(self) -> list[str]:
        """Labels of the comparators that raised or did not converge, and
        ``step:<t>`` for every step that did not converge."""
        return sorted(set(self.comparator_errors) | {
            label for label, sol in self.comparators.items()
            if sol is not None and not sol.converged}) + [
            f"step:{s.t}" for s in self.steps if not s.converged]

    def worst_audit_residual(self) -> Optional[float]:
        if not self.audits:
            return None
        return max(a.worst_residual for a in self.audits)

    def to_dict(self) -> dict:
        return {
            "spec": self.instance.spec.to_dict() if self.instance else None,
            "algo": self.algo,
            "steps": [s.to_dict() for s in self.steps],
            "totals": {
                "total_cost": self.total_cost,
                "total_hit": self.total_hit,
                "total_move": self.total_move,
                "cr": self.cr,
                "regrets": self.regrets,
                "static_regret": self.static_regret,
                "comparators": {k: (v.objective if v is not None else None)
                                for k, v in self.comparators.items()},
                "unverified": self.unverified(),
                "audits": [asdict(a) for a in self.audits],
            },
        }


def mirror_grad_bound(mirror_map: MirrorMap, feasible: FeasibleSet) -> float:
    """Upper bound on ||grad Phi(x)||_* over the feasible set (inf if unbounded).

    Under a quadratic-form map Phi(x) = x'Qx/2 (the Euclidean map as Q = I)
    ||Qx||_* is the map's own norm of x, so a ball gives ||c||_map + r / c(ball
    norm, map norm) and a box ||corner||_2 / c(l2, map norm), with c the
    ``pair_growth_constant``; the Euclidean map gives 1 on the simplex, and
    the entropy map there max(1, |ln delta + 1|).
    """
    p = feasible.params
    if mirror_map.name == "entropy" and feasible.kind == SIMPLEX:
        return max(1.0, abs(math.log(p["delta"]) + 1.0))
    if mirror_map.name not in ("euclidean", "mahalanobis"):
        return math.inf
    norm, d = mirror_map.norm, feasible.dim
    if feasible.kind == BALL:
        return norm(p["center"]) + p["radius"] / pair_growth_constant(p["norm"], norm, d)
    if feasible.kind == BOX:
        corner = np.maximum(np.abs(p["lo"]), np.abs(p["hi"]))
        return float(np.linalg.norm(corner)) / pair_growth_constant(Norm.l2(), norm, d)
    if feasible.kind == SIMPLEX and mirror_map.name == "euclidean":
        return 1.0
    return math.inf


# ---------------------------------------------------------------------------
# Running an algorithm over an instance
# ---------------------------------------------------------------------------

def _solve_guarded(comp: dict, errors: dict, label: str, fn) -> None:
    """comp[label] = fn(), unless already there; if fn raises, log it and
    store None, with the error in errors[label]."""
    if label in comp:
        return
    try:
        comp[label] = fn()
    except Exception as exc:
        log.warning("comparator %s failed: %s", label, exc)
        comp[label] = None
        errors[label] = str(exc)


def run(algorithm: OnlineAlgorithm, instance: Instance,
        comparators: Sequence = ("opt",),
        opt_L: Sequence[float] = (),
        precomputed: Optional[dict] = None) -> RunReport:
    """Play ``algorithm`` through the instance and fill requested comparators.

    ``comparators`` may contain "opt" and/or "static"; every L in ``opt_L``
    adds a movement-budgeted comparator keyed "opt_L:<L>".  ``precomputed``
    injects already-solved comparators (valid only for non-adaptive
    instances, whose cost sequence does not depend on the algorithm).
    A comparator whose solve raises is logged, stored as None with its error
    in ``comparator_errors``, and leaves cr or its regret empty instead of
    aborting the run.  Both it and a comparator that returned
    ``converged=False`` are listed by ``RunReport.unverified()``, with every
    unconverged step, and the CLI turns any of them into exit code 3.  Each
    round logs one debug line: t, branch, eta, iterations, residual and
    whether the step converged.
    """
    algorithm.start(instance)
    steps: list[StepRecord] = []
    revealed = []
    for t in range(1, instance.T + 1):
        f = instance.cost_at(t, algorithm.x)
        revealed.append(f)
        rec = algorithm.step(t, f)
        log.debug("step %s: t=%d branch=%s eta=%.6g iterations=%d residual=%.3g "
                  "converged=%s", algorithm.name, t, rec.branch.value, rec.eta_t,
                  rec.iterations, rec.residual, rec.converged)
        if not math.isfinite(rec.hit):
            raise RuntimeError(f"round {t}: infinite hitting cost recorded")
        steps.append(rec)
    total_hit = float(sum(s.hit for s in steps))
    total_move = float(sum(s.move for s in steps))
    total = total_hit + total_move

    comp: dict[str, Optional[OfflineSolution]] = {}
    errors: dict[str, str] = {}
    if precomputed:
        if instance.adaptive:
            raise ValueError("precomputed comparators are invalid for adaptive instances")
        comp.update(precomputed)

    if "opt" in comparators:
        _solve_guarded(comp, errors, "opt", lambda: offline_opt(
            revealed, instance.x0, instance.feasible, instance.switching_norm))
    if "static" in comparators:
        _solve_guarded(comp, errors, "static", lambda: static_opt(
            revealed, instance.x0, instance.feasible, instance.switching_norm))
    for L in opt_L:
        _solve_guarded(comp, errors, f"opt_L:{L:g}", lambda L=L: offline_opt_constrained(
            revealed, instance.x0, L, instance.feasible, instance.switching_norm,
            base=comp.get("opt")))

    cr = None
    opt = comp.get("opt")
    if opt is not None and opt.objective > 1e-12:
        cr = total / opt.objective
    regrets = {label: total - sol.objective
               for label, sol in comp.items()
               if sol is not None and label.startswith("opt_L:")}
    static_regret = None
    if comp.get("static") is not None:
        static_regret = total - comp["static"].objective

    return RunReport(algo=algorithm.name, steps=steps, total_cost=total,
                     total_hit=total_hit, total_move=total_move, comparators=comp,
                     comparator_errors=errors, cr=cr, regrets=regrets,
                     static_regret=static_regret, instance=instance,
                     revealed_costs=revealed)


# ---------------------------------------------------------------------------
# Theorem audits
# ---------------------------------------------------------------------------

# Audit slacks: the competitive ratio's (absolute), the per-step inequalities'
# (absolute) and the regret bounds' (relative to max(1, bound)).
CR_SLACK = 1e-3
STEP_SLACK = 1e-6
REGRET_SLACK = 1e-4


def audit_theorem1(report: RunReport, alpha: float) -> list[AuditResult]:
    """Competitive-ratio audits for the primal stepper on polyhedral costs.

    Checks (a) the ratio bound 3 + 8/alpha (scaled by norm-equivalence
    constants off l2), (b) the per-step potential inequality
    H_t + M_t + C*(||x_t - x*_t|| - ||x*_t - x_{t-1}||) <= C*H*_t against the
    dynamic-optimal trajectory, and (c) the potential decrease on balanced
    steps whose hitting cost exceeds the comparator's.
    """
    inst = report.instance
    opt = report.comparators.get("opt")
    if opt is None:
        raise ValueError("theorem-1 audit needs the dynamic optimal comparator")
    choice = choose_beta(alpha)
    C = choice.competitive_ratio
    acct = inst.switching_norm
    k1, k2 = norm_equivalence_constants(acct, inst.d)
    factor = max(k2, 1.0) / min(k1, 1.0)
    bound = factor * C
    results = []

    if report.cr is None:
        results.append(AuditResult("theorem1_cr", False, math.inf,
                                   "competitive ratio undefined (zero optimal cost)"))
    else:
        resid = report.cr - bound
        results.append(AuditResult("theorem1_cr", resid <= CR_SLACK, resid,
                                   f"cr={report.cr:.6f} bound={bound:.6f}"))

    # per-step inequalities live in the balance norm of the proof (l2)
    norm = Norm.l2()
    steps = report.steps
    X = np.stack([s.x for s in steps])
    X_prev = np.vstack([inst.x0[None], X[:-1]])
    X_star = opt.trajectory[[s.t - 1 for s in steps]]
    h_star = np.array([report.revealed_costs[s.t - 1](x) for s, x in zip(steps, X_star)])
    hit = np.array([s.hit for s in steps])
    move = norm(X - X_prev)
    drift = norm(X - X_star) - norm(X_star - X_prev)
    resid = hit + move + C * drift - C * h_star
    balanced = np.array([s.branch == Branch.BALANCED for s in steps])
    lresid = (drift + choice.gamma * move)[balanced & (hit > h_star)]
    results.append(AuditResult("theorem1_step", not (resid > STEP_SLACK).any(),
                               float(resid.max()), f"C={C:.4f} over {len(steps)} steps"))
    results.append(AuditResult("theorem1_potential_decrease", not (lresid > STEP_SLACK).any(),
                               float(lresid.max()) if lresid.size else 0.0,
                               f"{lresid.size} balanced steps with H_t > H*_t"))
    return results


def audit_theorem3(report: RunReport, G: float, L: float, m: float, eta: float,
                   diameter: Optional[float] = None) -> list[AuditResult]:
    """Dynamic-regret audits for the dual stepper.

    Checks the movement-budgeted regret against G*L/eta + T*eta/(2m) (valid
    for every eta), the optimized form sqrt(2*G*L*T/m) when eta matches the
    optimizing choice, and the static specialization at L = diameter.  The
    regret audit is named after the comparator it checks, as in
    ``theorem3_regret[opt_L:20]``, so one report can carry one per budget.
    """
    inst = report.instance
    if float(np.linalg.norm(inst.x0)) > 1e-12:
        raise ValueError("theorem-3 audit assumes the start translated to the origin")
    label = f"opt_L:{L:g}"
    sol = report.comparators.get(label)
    if sol is None:
        raise ValueError(f"theorem-3 audit needs comparator {label}")
    T = inst.T
    rho = report.total_cost - sol.objective
    bound = G * L / eta + T * eta / (2.0 * m) if L > 0 else T * eta / (2.0 * m)
    slack = REGRET_SLACK * max(1.0, bound)
    results = [AuditResult(f"theorem3_regret[{label}]", rho <= bound + slack, rho - bound,
                           f"rho={rho:.6f} bound={bound:.6f} (L={L:g})")]
    if L > 0:
        opt_eta, cor_bound = choose_eta(G, L, m, T)
        if abs(opt_eta - eta) <= 1e-9 * max(1.0, eta):
            results.append(AuditResult(
                "corollary4_regret", rho <= cor_bound + REGRET_SLACK * max(1.0, cor_bound),
                rho - cor_bound, f"rho={rho:.6f} bound={cor_bound:.6f}"))
    if diameter is not None and abs(L - diameter) <= 1e-12 * max(1.0, diameter):
        static = report.comparators.get("static")
        if static is not None:
            interp = sol.objective - static.objective
            results.append(AuditResult(
                "opt_diameter_below_static", interp <= 1e-6 * max(1.0, static.objective),
                interp, "cost(OPT(D)) <= cost of static play"))
            sreg = report.total_cost - static.objective
            results.append(AuditResult(
                "static_regret", sreg <= bound + slack, sreg - bound,
                f"static regret {sreg:.6f} under the L=D bound"))
    return results


# ---------------------------------------------------------------------------
# Result tables and experiments
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["family", "d", "trial", "seed", "algo", "total_cost", "opt_cost",
               "cr", "regret_L", "bound", "audit_worst_residual"]


class ResultTable:
    """Rows in the fixed benchmark schema, CSV- and plot-file serializable."""

    def __init__(self, rows: Optional[list[dict]] = None):
        self.rows: list[dict] = rows or []

    def append(self, **kwargs) -> None:
        row = {c: kwargs.get(c, "") for c in CSV_COLUMNS}
        self.rows.append(row)

    def sorted(self) -> "ResultTable":
        return ResultTable(sorted(self.rows, key=lambda r: (
            str(r["family"]), int(r["d"]) if r["d"] != "" else 0,
            int(r["trial"]) if r["trial"] != "" else 0, str(r["algo"]))))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.to_csv_text())


def report_row(report: RunReport, trial: int, **cells) -> dict:
    """The result row of ``report``: its spec, costs, cr and worst audit
    residual, blank where unset; ``cells`` set or override columns."""
    spec, opt = report.instance.spec, report.comparators.get("opt")
    return {c: "" for c in CSV_COLUMNS} | {
        "family": spec.family, "d": spec.d, "trial": trial, "seed": spec.seed,
        "algo": report.algo, "total_cost": report.total_cost,
        "opt_cost": opt.objective if opt else "",
        "cr": report.cr if report.cr is not None else "",
        "audit_worst_residual": report.worst_audit_residual() if report.audits else "",
    } | cells


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so partial runs never truncate output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def derive_seed(base_seed: int, *key: int) -> int:
    """Stable per-task seed from a base seed and integer coordinates."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cr_trial(task) -> tuple[dict, dict]:
    """One primal run of (spec dict, beta, trial): its row and payload.  At
    beta None or the proven ``choose_beta(alpha).beta`` it runs the theorem-1
    audits, and its row carries the bound 3 + 8/alpha."""
    spec_dict, beta, trial = task
    spec = InstanceSpec.from_dict(spec_dict)
    instance = generate_instance(spec)
    choice = choose_beta(instance.alpha) if instance.alpha is not None else None
    proven = choice is not None and beta in (None, choice.beta)
    if proven:
        report = _theorem1_run(instance)
    else:
        cfg = PrimalConfig(beta=beta, mirror_map=euclidean_map())
        report = run(PrimalOBD(cfg), instance, comparators=("opt",))
    row = report_row(report, trial, bound=choice.competitive_ratio if proven else "")
    return row, report.to_dict()


def experiment_cr_vs_dim(family: str, dims: Sequence[int], trials: int,
                         seed: int, beta: float = 0.5, T: int = 50,
                         cond: float = 10.0, diameter: float = 10.0,
                         tracking_scale: float = 1.0, jobs: int = 1,
                         ) -> tuple[ResultTable, list[dict]]:
    """Competitive ratio of the primal stepper as dimension grows: the table
    and one run payload (``RunReport.to_dict()``) per trial.

    Defaults mirror the reference sweep: beta = 0.5, condition number 10,
    target-set diameter 10, 10 seeded trials per dimension.  Only when beta
    is the ``choose_beta(alpha)`` value the bound 3 + 8/alpha is proven for
    does a trial run the theorem-1 audits of ``run_theorem1_case``; its row
    then carries the bound, and the audits' worst residual when they ran.
    The adaptive ``hyperplane_chase`` family has no offline comparator here,
    so it is rejected before any trial runs.
    """
    if family == HYPERPLANE_CHASE:
        raise ValueError(f"cr_vs_dim cannot run family {family!r}: its adaptive "
                         "adversary has no offline comparator to price a ratio")
    tasks = []
    for di, d in enumerate(dims):
        for trial in range(trials):
            spec = InstanceSpec(d=d, T=T, family=family,
                                seed=derive_seed(seed, di, trial),
                                cond=cond, diameter=diameter,
                                tracking_scale=tracking_scale)
            tasks.append((spec.to_dict(), beta, trial))
    results = _map_tasks(_cr_trial, tasks, jobs)
    table = ResultTable([row for row, _ in results]).sorted()
    return table, [rep for _, rep in results]


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _lower_bound_case(d: int) -> tuple[RunReport, float]:
    """Adversary vs Euclidean projection responder: the run and the offline cost.

    The responder is forced to move one unit per round for d rounds; the
    offline play moves once to the intersection of the drawn hyperplanes at
    cost ||(+-1, ..., +-1)||_2 = sqrt(d).  The report's one audit checks
    the ratio online / offline against sqrt(d).
    """
    spec = InstanceSpec(d=d, T=d, family=HYPERPLANE_CHASE, seed=0)
    instance = generate_instance(spec)
    report = run(SetProjectionResponder(euclidean_map()), instance, comparators=())
    # offline: one move to the intersection of all revealed hyperplanes
    target = np.zeros(d)
    for t, f in enumerate(report.revealed_costs):
        a, b = f.constraint.params["a"], f.constraint.params["b"]
        target[t] = b * a[t]
    offline = float(np.linalg.norm(target - instance.x0))
    ratio = report.total_cost / offline
    gap = ratio - math.sqrt(d)
    report.audits = [AuditResult("lower_bound_ratio", abs(gap) <= 1e-9, gap,
                                 f"ratio={ratio!r} sqrt(d)={math.sqrt(d)!r}")]
    return report, offline


def lower_bound_run(d: int) -> tuple[float, float, float]:
    """Adversary vs Euclidean projection responder: (online, offline, ratio)."""
    report, offline = _lower_bound_case(d)
    return report.total_cost, offline, report.total_cost / offline


def experiment_lower_bound(dims: Sequence[int]) -> tuple[ResultTable, list[dict]]:
    """The sqrt(d) lower-bound construction per d: the table and one run
    payload per d."""
    table = ResultTable()
    payloads = []
    for d in dims:
        report, offline = _lower_bound_case(d)
        table.rows.append(report_row(report, 0, opt_cost=offline,
                                     cr=report.total_cost / offline, bound=math.sqrt(d)))
        payloads.append(report.to_dict())
    return table, payloads


def theorem1_suite(seed: int, count: int = 50, dims: Sequence[int] = (2, 5, 10),
                   T: int = 50) -> list[InstanceSpec]:
    """Seeded locally polyhedral instances cycling over (alpha, d) pairs, with
    alpha in 0.5, 1, 2 and 4."""
    combos = [(a, d) for a in (0.5, 1.0, 2.0, 4.0) for d in dims]
    specs = []
    for i in range(count):
        alpha, d = combos[i % len(combos)]
        specs.append(InstanceSpec(d=d, T=T, family="norm_tracking",
                                  seed=derive_seed(seed, i),
                                  tracking_scale=alpha, diameter=10.0))
    return specs


def theorem3_suite(seed: int, count: int = 30, dims: Sequence[int] = (2, 5),
                   T: int = 100) -> list[InstanceSpec]:
    """Seeded smooth quadratic instances on the centered radius-10 ball."""
    specs = []
    for i in range(count):
        d = dims[i % len(dims)]
        specs.append(InstanceSpec(d=d, T=T, family="quadratic",
                                  seed=derive_seed(seed, i), cond=10.0,
                                  diameter=10.0, feasible_kind="ball",
                                  feasible_radius=10.0))
    return specs


def run_theorem1_case(spec: InstanceSpec) -> tuple[RunReport, list[AuditResult]]:
    report = _theorem1_run(generate_instance(spec))
    return report, report.audits


def _theorem1_run(instance: Instance) -> RunReport:
    """The primal stepper at the proven beta, with the theorem-1 audits."""
    alpha = instance.alpha
    cfg = PrimalConfig(beta=choose_beta(alpha).beta, mirror_map=euclidean_map())
    report = run(PrimalOBD(cfg), instance, comparators=("opt",))
    # without its comparator the audit cannot run; unverified() names it
    report.audits = audit_theorem1(report, alpha) if report.comparators["opt"] else []
    return report


def experiment_audit_suite(seed: int, trials: int, dims: Sequence[int], T: int,
                           jobs: int = 1) -> tuple[ResultTable, list[dict]]:
    """``min(50, 12 * trials)`` ``theorem1_suite`` cases over the dims up to
    10 (else (2, 5)), T capped at 50, run as cr_vs_dim trials at the proven
    beta: the table in case order and one run payload per case."""
    specs = theorem1_suite(seed, count=min(50, 12 * trials),
                           dims=tuple(d for d in dims if d <= 10) or (2, 5),
                           T=min(T, 50))
    results = _map_tasks(_cr_trial, [(spec.to_dict(), None, i)
                                     for i, spec in enumerate(specs)], jobs)
    return ResultTable([row for row, _ in results]), [rep for _, rep in results]


@dataclass
class RegretCase:
    """One (budget, run) pair of a dual-balance regret experiment; ``regret``
    is None when the budgeted comparator could not be solved."""

    L: float
    eta: float
    regret: Optional[float]
    bound: float
    report: RunReport


def run_theorem3_case(spec: InstanceSpec) -> list[RegretCase]:
    """Run the dual stepper per movement budget with the optimizing eta.

    The budgets are the comparator's movement allowances: the dynamic
    optimum's own movement, the feasible diameter, and zero.  Positive
    budgets re-run the stepper with eta = sqrt(2*G*L*m/T); the zero budget
    is solved in the smallest positive-budget run (eta grows with L, so its
    eta is the smallest), whose bound T*eta/(2m) is valid for any eta.
    ``opt`` and ``static`` are solved once, guarded as in ``run``: one that
    raises is None in every report and listed by its ``unverified()``; the
    opt_move budget is then skipped, and a budget whose comparator raised
    gets no regret and no audit.
    """
    instance = generate_instance(spec)
    m = 1.0
    G = mirror_grad_bound(euclidean_map(), instance.feasible)
    D = instance.feasible.diameter(instance.switching_norm)
    shared, errors = {}, {}
    _solve_guarded(shared, errors, "opt", lambda: offline_opt(
        list(instance.costs), instance.x0, instance.feasible, instance.switching_norm))
    _solve_guarded(shared, errors, "static", lambda: static_opt(
        list(instance.costs), instance.x0, instance.feasible, instance.switching_norm))
    opt = shared["opt"]
    named = {"opt_move": opt.total_move if opt else None, "diameter": D}
    positive = [(name, L) for name, L in named.items() if L is not None]
    smallest = min(range(len(positive)), key=lambda i: positive[i][1], default=None)
    cases = []
    for i, (name, L) in enumerate(positive):
        eta = choose_eta(G, L, m, instance.T).eta
        budget_Ls = (L, 0.0) if i == smallest else (L,)
        cfg = DualConfig(eta=eta, mirror_map=euclidean_map())
        rep = run(DualOBD(cfg), instance, comparators=("opt", "static"),
                  opt_L=budget_Ls, precomputed=dict(shared))
        rep.comparator_errors.update(errors)
        for B in budget_Ls:
            sol = rep.comparators[f"opt_L:{B:g}"]
            if sol is not None:
                rep.audits += audit_theorem3(rep, G, B, m, eta,
                                             diameter=D if name == "diameter" else None)
            bound = G * B / eta + instance.T * eta / (2.0 * m)
            cases.append(RegretCase(L=B, eta=eta, bound=bound, report=rep,
                                    regret=rep.regrets.get(f"opt_L:{B:g}")))
    return cases


def experiment_regret_sweep(dims: Sequence[int], trials: int, seed: int,
                            T: int = 100, diameter: float = 10.0,
                            jobs: int = 1) -> tuple[ResultTable, list[dict]]:
    tasks = []
    for di, d in enumerate(dims):
        for trial in range(trials):
            spec = InstanceSpec(d=d, T=T, family="quadratic",
                                seed=derive_seed(seed, di, trial),
                                diameter=diameter, feasible_kind="ball",
                                feasible_radius=diameter)
            tasks.append((spec.to_dict(), trial))
    results = _map_tasks(_regret_task, tasks, jobs)
    table = ResultTable([r for rows, _ in results for r in rows]).sorted()
    return table, [rep for _, reps in results for rep in reps]


def _regret_task(task) -> tuple[list[dict], list[dict]]:
    spec_dict, trial = task
    cases = run_theorem3_case(InstanceSpec.from_dict(spec_dict))
    rows = [report_row(case.report, trial, algo=f"dual_obd(L={case.L:g})",
                       regret_L=case.regret if case.regret is not None else "",
                       bound=case.bound) for case in cases]
    # the zero-budget case shares the report of the smallest-eta run
    reports = {id(case.report): case.report for case in cases}
    return rows, [rep.to_dict() for rep in reports.values()]
