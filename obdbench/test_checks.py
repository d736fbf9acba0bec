"""Each benchmark check fails on a corrupted result and passes on the real one.

Run with ``python3 -m pytest obdbench``.  The cases are small versions of the
workloads' cases (short horizons), so the whole file runs in seconds.
"""

import copy
import json
import os

import numpy as np
import pytest

import worker  # puts src/ on the path and holds BLAS to one thread
import checks
from obd.costs import InstanceSpec
from obd.harness import run_theorem1_case, run_theorem3_case
from tracing import PER_LAYER, Tracer


def _has(fails, text):
    return any(text in f for f in fails)


@pytest.fixture(scope="module")
def theorem1():
    spec = InstanceSpec(d=2, T=12, family="norm_tracking", seed=5,
                        tracking_scale=1.0, diameter=10.0)
    return ("theorem1", spec), run_theorem1_case(spec)


@pytest.fixture(scope="module")
def theorem3():
    spec = InstanceSpec(d=2, T=12, family="quadratic", seed=5, cond=10.0,
                        diameter=10.0, feasible_kind="ball", feasible_radius=10.0)
    return spec, run_theorem3_case(spec)


def _balanced_round(report):
    return next(i for i, s in enumerate(report.steps) if s.branch == "balanced")


def test_polyhedral_case_passes(theorem1):
    case, output = theorem1
    assert worker.PolyhedralAudit(1).check(case, output) == []


def test_offline_objective_raised_by_one_percent(theorem1):
    case, (report, audits) = theorem1
    report = copy.deepcopy(report)
    report.comparators["opt"].objective *= 1.01
    fails = worker.PolyhedralAudit(1).check(case, (report, audits))
    assert _has(fails, "offline objective")


def test_total_off_by_1e_6(theorem1):
    case, (report, audits) = theorem1
    report = copy.deepcopy(report)
    report.total_cost *= 1.0 + 1e-6
    fails = worker.PolyhedralAudit(1).check(case, (report, audits))
    assert _has(fails, "online total")


def test_unbalanced_primal_step(theorem1):
    case, (report, audits) = theorem1
    report = copy.deepcopy(report)
    t = _balanced_round(report)
    prev = report.instance.x0 if t == 0 else report.steps[t - 1].x
    report.steps[t].x = prev + 0.99 * (report.steps[t].x - prev)
    fails = worker.PolyhedralAudit(1).check(case, (report, audits))
    assert _has(fails, f"round {t + 1} unbalanced")


def test_failed_program_audit(theorem1):
    case, (report, audits) = theorem1
    audits = copy.deepcopy(audits)
    audits[0].passed = False
    assert _has(worker.PolyhedralAudit(1).check(case, (report, audits)),
                "program audit")


def test_ratio_and_oracle_gap_checks():
    assert checks.check_ratio(10.0, 2.0, 2.0, "x") == []  # cr 5 <= 7
    assert checks.check_ratio(14.1, 2.0, 2.0, "x")  # cr 7.05 > 7.001
    assert checks.check_oracle_gap(1.0005, 1.0, "x") == []
    assert checks.check_oracle_gap(1.002, 1.0, "x")


def test_smooth_case_passes(theorem3):
    spec, output = theorem3
    assert worker.SmoothRegret(1).check(spec, output) == []


def _budget_case(output, binding=True):
    """The budgeted case whose budget binds (or not), with its comparator."""
    opt_move = output[0].report.comparators["opt"].total_move
    for c in output:
        if c.L > 0 and (opt_move > c.L * (1 + 1e-9)) == binding:
            return c, c.report.comparators[f"opt_L:{c.L:g}"]
    pytest.skip("no budget of that kind on this instance")


def test_trajectory_over_its_movement_budget(theorem3):
    spec, output = theorem3
    c, sol = _budget_case(output, binding=False)
    inst = c.report.instance
    costs = checks.costs_of(inst.costs)
    X = np.array(sol.trajectory)
    X[-1] = X[-1] + 0.01 * (X[-1] - X[-2]) + 1e-3
    _, move = checks.path_cost(costs, inst.x0, X)
    assert checks.check_budget(move, c.L, False, "x")
    output = copy.deepcopy(output)
    c2 = next(x for x in output if x.L == c.L)
    c2.report.comparators[f"opt_L:{c.L:g}"].trajectory = X
    assert _has(worker.SmoothRegret(1).check(spec, output), "over budget")


def test_binding_budget_not_reached():
    assert checks.check_budget(0.99, 1.0, True, "x")
    assert checks.check_budget(0.99995, 1.0, True, "x") == []
    assert checks.check_budget(0.5, 1.0, False, "x") == []


def test_unbalanced_dual_step(theorem3):
    spec, output = theorem3
    output = copy.deepcopy(output)
    rep = output[0].report
    t = next(i for i, s in enumerate(rep.steps) if s.move > 0)
    prev = rep.instance.x0 if t == 0 else rep.steps[t - 1].x
    rep.steps[t].x = prev + 1.001 * (rep.steps[t].x - prev)
    fails = worker.SmoothRegret(1).check(spec, output)
    assert _has(fails, f"round {t + 1} unbalanced in the dual")


def test_smooth_total_off_by_1e_6(theorem3):
    spec, output = theorem3
    output = copy.deepcopy(output)
    output[0].report.total_cost *= 1.0 + 1e-6
    assert _has(worker.SmoothRegret(1).check(spec, output), "online total")


def test_regret_and_static_checks():
    bound = checks.regret_bound(4.0, 100, 0.3)  # sqrt(2*10*4*100)
    assert bound == pytest.approx(89.4427191)
    assert checks.check_regret(bound, 4.0, 100, 0.3, "x") == []
    assert checks.check_regret(bound * 1.001, 4.0, 100, 0.3, "x")
    assert checks.check_regret(15.0, 0.0, 100, 0.3, "x") == []  # T*eta/2 = 15
    assert checks.check_regret(15.01, 0.0, 100, 0.3, "x")
    assert checks.check_static(10.0, 10.0, "x") == []
    assert checks.check_static(10.001, 10.0, "x")


def test_comparator_above_a_built_trajectory(theorem1):
    _, (report, _) = theorem1
    inst = report.instance
    costs = checks.costs_of(inst.costs)
    jump = sum(checks.path_cost(costs, inst.x0, costs.minimizers()))
    assert _has(checks.check_comparator(costs, inst.x0, jump * 1.001, None, "x"),
                "jump to minimizers")
    assert _has(checks.check_comparator(costs, inst.x0, 5.0, 4.0, "x"), "online total")


@pytest.fixture(scope="module")
def quad_case(tmp_path_factory):
    w = worker.QuadSweep(1)
    w.T = 8
    w.out = str(tmp_path_factory.mktemp("cli"))
    case = (2, 11)
    return w, case, w.run(case)


def _edit_trajectory(out, edit):
    path = next(p for p in os.listdir(out) if p.startswith("run_"))
    with open(os.path.join(out, path)) as fh:
        traj = json.load(fh)
    edit(traj)
    with open(os.path.join(out, path), "w") as fh:
        json.dump(traj, fh)


def test_quad_sweep_files(quad_case):
    w, case, (rc, out) = quad_case
    assert rc == 0
    assert w._check_files(case, rc, out) == []

    def bump_total(traj):
        traj["totals"]["total_cost"] *= 1.0 + 1e-6

    _edit_trajectory(out, bump_total)
    assert _has(w._check_files(case, rc, out), "trajectory total")
    assert _has(w._check_files(case, 2, out), "CLI exit status 2")


def test_traced_counts_repeat_and_self_times_add_up():
    w = worker.PolyhedralAudit(3)
    w.cases = w.cases[:3] + w.cases[-1:]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            p = worker.run_pass(w, tracer)
        finally:
            tracer.uninstall()
        assert p.failed == 0, p.failures
        m = tracer.metrics(0.0)
        assert set(m) == set(PER_LAYER)
        counts.append({k: v["value"] for k, v in m.items()
                       if k.endswith((".calls", ".iterations"))})
        roots = [s for s in tracer.spans if s[3] == -1]
        total_self = sum(s[2] - s[1] - s[4] for s in tracer.spans)
        assert total_self == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert counts[0] == counts[1]
    assert counts[0]["offline.grid_dp_oracle.calls"] == 1
    assert counts[0]["harness.run.calls"] == 3

