import logging
import math

import numpy as np
import pytest

from obd.algorithms import (
    DualConfig, DualOBD, Greedy, PrimalConfig, PrimalOBD, choose_beta,
)
from obd.costs import InstanceSpec, generate_instance, make_norm_tracking
from obd.geometry import (
    FeasibleSet, Norm, entropy_map, euclidean_map, mahalanobis_map,
)
from obd.harness import (
    CSV_COLUMNS, ResultTable, audit_theorem1, audit_theorem3, derive_seed,
    experiment_audit_suite, experiment_cr_vs_dim, lower_bound_run,
    mirror_grad_bound, run, run_theorem1_case, run_theorem3_case, theorem1_suite,
    theorem3_suite,
)


class TestRun:
    def test_accounting_matches_steps(self):
        spec = InstanceSpec(d=2, T=15, family="quadratic", seed=60)
        inst = generate_instance(spec)
        rep = run(PrimalOBD(PrimalConfig(0.5, euclidean_map())), inst,
                  comparators=("opt",))
        assert rep.total_cost == pytest.approx(
            sum(s.hit + s.move for s in rep.steps))
        assert rep.cr is not None and rep.cr >= 1.0 - 1e-6

    def test_greedy_constant_target(self):
        v = np.array([1.0, 2.0])
        spec = InstanceSpec(d=2, T=5, family="norm_tracking", seed=61)
        inst = generate_instance(spec)
        inst.costs = [make_norm_tracking(v, Norm.l2()) for _ in range(5)]
        rep = run(Greedy(), inst, comparators=("opt",))
        assert rep.total_cost == pytest.approx(np.linalg.norm(v))
        assert rep.cr >= 1.0 - 1e-6

    def test_adversary_ratio_sqrt_d(self):
        online, offline, ratio = lower_bound_run(9)
        assert online == 9.0
        assert offline == 3.0
        assert ratio == pytest.approx(math.sqrt(9), abs=1e-12)

    def test_report_reproducible(self):
        spec = InstanceSpec(d=2, T=10, family="quadratic", seed=62)
        reps = []
        for _ in range(2):
            inst = generate_instance(spec)
            reps.append(run(PrimalOBD(PrimalConfig(0.5, euclidean_map())), inst,
                            comparators=("opt",)))
        assert reps[0].total_cost == reps[1].total_cost
        assert reps[0].cr == reps[1].cr
        for a, b in zip(reps[0].steps, reps[1].steps):
            np.testing.assert_array_equal(a.x, b.x)

    def test_regret_keys(self):
        spec = InstanceSpec(d=2, T=10, family="quadratic", seed=63,
                            feasible_kind="ball", feasible_radius=10.0)
        inst = generate_instance(spec)
        rep = run(DualOBD(DualConfig(1.0, euclidean_map())), inst,
                  comparators=("opt",), opt_L=(0.0, 5.0))
        assert "opt_L:0" in rep.regrets and "opt_L:5" in rep.regrets
        # a tighter budget can only raise the comparator's cost
        assert rep.regrets["opt_L:0"] <= rep.regrets["opt_L:5"] + 1e-6

    def test_unconverged_comparator_is_unverified(self, monkeypatch):
        import dataclasses
        import obd.harness
        solve = obd.harness.offline_opt
        monkeypatch.setattr(obd.harness, "offline_opt", lambda *a: dataclasses.replace(
            solve(*a), converged=False))
        spec = InstanceSpec(d=2, T=5, family="quadratic", seed=60)
        rep = run(Greedy(), generate_instance(spec), comparators=("opt", "static"))
        assert rep.unverified() == ["opt"]
        assert rep.to_dict()["totals"]["unverified"] == ["opt"]

    def test_unconverged_steps_are_unverified(self):
        spec = InstanceSpec(d=2, T=5, family="quadratic", seed=60)
        cfg = PrimalConfig(0.5, euclidean_map(), level_tol=1e-300)
        rep = run(PrimalOBD(cfg), generate_instance(spec), comparators=())
        unconverged = [f"step:{s.t}" for s in rep.steps if not s.converged]
        assert unconverged and rep.unverified() == unconverged

    def test_debug_line_per_round(self, caplog):
        caplog.set_level(logging.DEBUG, logger="obd")
        spec = InstanceSpec(d=2, T=5, family="quadratic", seed=60)
        rep = run(PrimalOBD(PrimalConfig(0.5, euclidean_map())), generate_instance(spec),
                  comparators=())
        lines = [r.getMessage() for r in caplog.records if r.name == "obd"]
        assert len(lines) == len(rep.steps) == 5
        for line, s in zip(lines, rep.steps):
            assert line == (f"step primal_obd: t={s.t} branch={s.branch.value} "
                            f"eta={s.eta_t:.6g} iterations={s.iterations} "
                            f"residual={s.residual:.3g} converged={s.converged}")
        assert any(s.branch.value == "balanced" and s.iterations > 0 for s in rep.steps)

    def test_opt_L_monotone(self):
        spec = InstanceSpec(d=2, T=10, family="quadratic", seed=64)
        inst = generate_instance(spec)
        rep = run(Greedy(), inst, comparators=("opt",), opt_L=(1.0, 4.0, 16.0))
        objs = [rep.comparators[f"opt_L:{L:g}"].objective for L in (1.0, 4.0, 16.0)]
        assert objs[0] >= objs[1] >= objs[2] - 1e-9


class TestAudits:
    def test_theorem1_needs_opt(self):
        spec = theorem1_suite(seed=65, count=1)[0]
        inst = generate_instance(spec)
        rep = run(PrimalOBD(PrimalConfig(0.5, euclidean_map())), inst,
                  comparators=())
        with pytest.raises(ValueError):
            audit_theorem1(rep, 1.0)

    def test_theorem1_small_suite(self):
        for spec in theorem1_suite(seed=66, count=4):
            report, audits = run_theorem1_case(spec)
            assert all(a.passed for a in audits)

    def test_theorem1_nonl2_bound_scaling(self):
        # l2-balanced stepper, costs accounted in the l1 switching norm; the
        # ratio bound picks up the norm-equivalence factor
        spec = InstanceSpec(d=3, T=10, family="norm_tracking", seed=67,
                            tracking_norm="l1", switching_norm="l1")
        inst = generate_instance(spec)
        from obd.algorithms import choose_beta
        from obd.geometry import pair_growth_constant
        alpha_l2 = pair_growth_constant(Norm.l1(), Norm.l2(), 3)
        cfg = PrimalConfig(choose_beta(alpha_l2).beta, euclidean_map())
        rep = run(PrimalOBD(cfg), inst, comparators=("opt",))
        audits = audit_theorem1(rep, alpha_l2)
        cr_audit = audits[0]
        assert cr_audit.passed
        plain = 3.0 + 8.0 / alpha_l2
        scaled = float(cr_audit.detail.split("bound=")[1])
        assert scaled == pytest.approx(math.sqrt(3) * plain)

    def test_theorem3_requires_origin_start(self):
        spec = InstanceSpec(d=2, T=5, family="quadratic", seed=68,
                            feasible_kind="ball", feasible_radius=10.0,
                            x0=(1.0, 0.0))
        inst = generate_instance(spec)
        rep = run(DualOBD(DualConfig(1.0, euclidean_map())), inst,
                  comparators=("opt",), opt_L=(1.0,))
        with pytest.raises(ValueError):
            audit_theorem3(rep, 10.0, 1.0, 1.0, 1.0)

    def test_theorem3_any_eta_bound(self):
        spec = theorem3_suite(seed=69, count=1, dims=(2,), T=30)[0]
        inst = generate_instance(spec)
        G = mirror_grad_bound(euclidean_map(), inst.feasible)
        for eta in (0.5, 1.0, 2.0):
            rep = run(DualOBD(DualConfig(eta, euclidean_map())), inst,
                      comparators=("opt",), opt_L=(5.0,))
            audits = audit_theorem3(rep, G, 5.0, 1.0, eta)
            assert audits[0].passed

    def test_theorem3_case_solves_offline_opt_once(self, monkeypatch):
        # one opt and one static solve shared by both runs, and one budgeted
        # solve per budget, the zero budget included
        import obd.harness
        import obd.offline
        calls = []

        def counting(name):
            solve = getattr(obd.offline, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return counted

        for name in ("offline_opt", "offline_opt_constrained", "static_opt"):
            counted = counting(name)
            monkeypatch.setattr(obd.harness, name, counted)
            monkeypatch.setattr(obd.offline, name, counted)
        spec = theorem3_suite(seed=71, count=1, dims=(2,), T=20)[0]
        cases = run_theorem3_case(spec)
        assert sorted(c.L == 0.0 for c in cases) == [False, False, True]
        assert sorted(calls) == ["offline_opt", "offline_opt_constrained",
                                 "offline_opt_constrained", "offline_opt_constrained",
                                 "static_opt"]

    def test_theorem3_zero_budget_in_shared_report(self):
        # the zero budget is solved inside the smallest-budget run, so its
        # regret is in that report's regrets and payload, not only its comparators
        spec = theorem3_suite(seed=71, count=1, dims=(2,), T=10)[0]
        cases = run_theorem3_case(spec)
        (zero,) = [c for c in cases if c.L == 0.0]
        (shared,) = [c for c in cases if c.L > 0.0 and c.report is zero.report]
        assert shared.L == min(c.L for c in cases if c.L > 0.0)
        assert zero.report.regrets["opt_L:0"] == zero.regret
        totals = zero.report.to_dict()["totals"]
        assert set(totals["regrets"]) == {"opt_L:0", f"opt_L:{shared.L:g}"}
        assert totals["regrets"]["opt_L:0"] == zero.regret
        names = [a["name"] for a in totals["audits"] if a["name"].startswith("theorem3_regret")]
        assert names == [f"theorem3_regret[opt_L:{shared.L:g}]", "theorem3_regret[opt_L:0]"]

    def test_theorem3_zero_budget_reduction(self):
        spec = theorem3_suite(seed=70, count=1, dims=(2,), T=30)[0]
        cases = run_theorem3_case(spec)
        zero = [c for c in cases if c.L == 0.0][0]
        assert zero.bound == pytest.approx(30 * zero.eta / 2.0)
        assert zero.regret <= zero.bound + 1e-4 * max(1.0, zero.bound)


class TestGradBounds:
    def test_euclidean_ball(self):
        ball = FeasibleSet.ball(np.zeros(3), 2.5)
        assert mirror_grad_bound(euclidean_map(), ball) == pytest.approx(2.5)

    def test_euclidean_box(self):
        box = FeasibleSet.box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))
        assert mirror_grad_bound(euclidean_map(), box) == pytest.approx(
            math.sqrt(9 + 4))

    def test_unbounded_is_inf(self):
        assert mirror_grad_bound(euclidean_map(),
                                 FeasibleSet.whole_space(2)) == math.inf

    def test_entropy_simplex(self):
        s = FeasibleSet.simplex(3, 0.01)
        g = mirror_grad_bound(entropy_map(0.01), s)
        assert g == pytest.approx(abs(math.log(0.01) + 1.0))

    @staticmethod
    def _mahalanobis_map(rng, d):
        A = rng.standard_normal((d, d))
        return mahalanobis_map(A.T @ A + 0.5 * np.eye(d))

    def test_mahalanobis_bounds_hold_over_the_set(self):
        # ||grad Phi(x)||_* = ||Qx||_{Q^-1} at sampled points of each set,
        # boundary points included, never exceeds the bound
        rng = np.random.default_rng(83)
        mmap = self._mahalanobis_map(rng, 3)
        c, r = rng.standard_normal(3), 1.5
        lo, hi = -rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)
        radial = rng.uniform(0.0, 1.0, 200) ** np.repeat([0.0, 1.0], 100)
        sets = {
            "matching ball": (FeasibleSet.ball(c, r, mmap.norm),
                              [c + r * a * mmap.norm.unit_ball_sample(rng, 3)
                               for a in radial]),
            "l2 ball": (FeasibleSet.ball(c, r),
                        [c + r * a * Norm.l2().unit_ball_sample(rng, 3)
                         for a in radial]),
            "box": (FeasibleSet.box(lo, hi),
                    [np.where(rng.random(3) < 0.5, lo, hi) for _ in range(50)]
                    + list(lo + (hi - lo) * rng.random((150, 3)))),
        }
        for name, (s, points) in sets.items():
            G = mirror_grad_bound(mmap, s)
            worst = max(mmap.norm.dual_value(mmap.grad(x)) for x in points)
            assert math.isfinite(G) and worst <= G * (1.0 + 1e-12), name
        assert mirror_grad_bound(mmap, FeasibleSet.halfspace(c, 1.0)) == math.inf

    @pytest.mark.parametrize("which", ["euclidean", "mahalanobis"])
    def test_balls_in_other_norms(self, which):
        # a ball in any norm is bounded: its bound is finite and holds at
        # sampled points, boundary points included
        rng = np.random.default_rng(85)
        mmap = euclidean_map() if which == "euclidean" else self._mahalanobis_map(rng, 3)
        c, r = rng.standard_normal(3), 1.5
        radial = rng.uniform(0.0, 1.0, 200) ** np.repeat([0.0, 1.0], 100)
        for norm in (Norm.l1(), Norm.linf(), self._mahalanobis_map(rng, 3).norm):
            points = [c + r * a * norm.unit_ball_sample(rng, 3) for a in radial]
            G = mirror_grad_bound(mmap, FeasibleSet.ball(c, r, norm))
            worst = max(mmap.norm.dual_value(mmap.grad(x)) for x in points)
            assert math.isfinite(G) and worst <= G * (1.0 + 1e-12), norm

    def test_mahalanobis_matching_ball_is_attained(self):
        # the ball's point farthest from the origin in the Q norm attains it
        rng = np.random.default_rng(84)
        mmap = self._mahalanobis_map(rng, 3)
        c, r = rng.standard_normal(3), 1.5
        G = mirror_grad_bound(mmap, FeasibleSet.ball(c, r, mmap.norm))
        extreme = c + (r / mmap.norm(c)) * c
        assert mmap.norm.dual_value(mmap.grad(extreme)) == pytest.approx(G, rel=1e-9)


class TestResultTable:
    def test_csv_schema(self):
        t = ResultTable()
        t.append(family="quadratic", d=2, trial=0, seed=1, algo="primal_obd",
                 total_cost=1.5, opt_cost=1.0, cr=1.5)
        text = t.to_csv_text()
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert text.splitlines()[1].startswith("quadratic,2,0,1,primal_obd,1.5,1.0,1.5")

    def test_sorted_deterministic(self):
        t = ResultTable()
        t.append(family="a", d=4, trial=1, seed=0, algo="x")
        t.append(family="a", d=2, trial=0, seed=0, algo="x")
        s = t.sorted()
        assert [r["d"] for r in s.rows] == [2, 4]

    def test_experiment_table_deterministic(self):
        a, _ = experiment_cr_vs_dim("norm_tracking", (2,), 2, seed=71, T=10)
        b, _ = experiment_cr_vs_dim("norm_tracking", (2,), 2, seed=71, T=10)
        assert a.to_csv_text() == b.to_csv_text()

    def test_cr_vs_dim_bound_only_at_its_beta(self):
        # 3 + 8/alpha is proven for beta = choose_beta(alpha).beta alone
        off, (payload,) = experiment_cr_vs_dim("norm_tracking", (2,), 1, seed=71,
                                               beta=0.5, T=10)
        assert [(r["bound"], r["audit_worst_residual"]) for r in off.rows] == [("", "")]
        assert payload["totals"]["audits"] == []
        on, (payload,) = experiment_cr_vs_dim("norm_tracking", (2,), 1, seed=71,
                                              beta=choose_beta(1.0).beta, T=10)
        row = on.rows[0]
        audits = payload["totals"]["audits"]
        assert row["bound"] == pytest.approx(11.0)
        # the theorem-1 audits of run_theorem1_case, as in audit_suite
        assert [a["name"] for a in audits] == [
            "theorem1_cr", "theorem1_step", "theorem1_potential_decrease"]
        assert all(a["passed"] for a in audits)
        assert audits[0]["worst_residual"] == pytest.approx(row["cr"] - 11.0)
        assert row["audit_worst_residual"] == max(a["worst_residual"] for a in audits)

    def test_one_instance_per_trial_at_the_proven_beta(self, monkeypatch):
        import obd.harness
        generate, made = obd.harness.generate_instance, []
        monkeypatch.setattr(obd.harness, "generate_instance",
                            lambda spec: made.append(spec) or generate(spec))
        experiment_cr_vs_dim("norm_tracking", (2,), 3, seed=71,
                             beta=choose_beta(1.0).beta, T=10)
        assert len(made) == 3
        table, payloads = experiment_audit_suite(71, 1, (2,), 10)
        assert len(table.rows) == len(payloads) == 12 and len(made) == 15
        run_theorem1_case(theorem1_suite(seed=71, count=1)[0])
        assert len(made) == 16

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
