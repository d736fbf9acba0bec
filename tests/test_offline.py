import logging
import math
import tracemalloc

import numpy as np
import pytest

import obd.offline
from obd.costs import InstanceSpec, generate_instance, make_norm_tracking, make_quadratic
from obd.geometry import FeasibleSet, Norm
from obd.offline import (
    GridSpec, _inside, _min_plus, auto_grid, grid_dp_oracle, offline_opt,
    offline_opt_constrained, static_opt,
)


def abs_cost(target):
    return make_norm_tracking([float(target)], Norm.l2())


class TestOfflineOpt:
    def test_two_round_absolute(self):
        # f1 = f2 = |x - 1| from 0: move to 1 once, objective 1
        sol = offline_opt([abs_cost(1.0), abs_cost(1.0)], [0.0])
        np.testing.assert_allclose(sol.trajectory.ravel(), [1.0, 1.0], atol=1e-4)
        assert sol.objective == pytest.approx(1.0, abs=1e-5)
        dp = grid_dp_oracle([abs_cost(1.0), abs_cost(1.0)], [0.0],
                            GridSpec([-2.0], [3.0], 41))
        assert sol.objective == pytest.approx(dp.objective, rel=1e-3)

    def test_stay_put_when_free(self):
        f = make_quadratic(np.eye(2), np.zeros(2))
        sol = offline_opt([f, f, f], np.zeros(2))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.total_move == pytest.approx(0.0, abs=1e-9)

    def test_matches_dp_on_seeded_quadratic(self):
        spec = InstanceSpec(d=2, T=5, family="quadratic", seed=42)
        inst = generate_instance(spec)
        sol = offline_opt(inst.costs, inst.x0)
        dp = grid_dp_oracle(inst.costs, inst.x0)
        assert sol.objective == pytest.approx(dp.objective, rel=1e-3)

    def test_lower_bounds_any_algorithm(self):
        from obd.algorithms import Greedy, PrimalConfig, PrimalOBD
        from obd.geometry import euclidean_map
        from obd.harness import run
        spec = InstanceSpec(d=3, T=20, family="norm_tracking", seed=43)
        inst = generate_instance(spec)
        opt = offline_opt(inst.costs, inst.x0)
        for algo in (Greedy(), PrimalOBD(PrimalConfig(0.5, euclidean_map()))):
            rep = run(algo, inst, comparators=())
            assert opt.objective <= rep.total_cost * (1 + 1e-5)

    def test_never_above_jump_trajectory(self):
        # steep tracking: jumping to each minimizer is optimal, and the solve
        # alone used to land about 3e-8 relative above it
        spec = InstanceSpec(d=2, T=10, family="norm_tracking", seed=0,
                            tracking_scale=4.0, diameter=10.0)
        inst = generate_instance(spec)
        sol = offline_opt(inst.costs, inst.x0)
        V = np.stack([f.minimizer for f in inst.costs])
        jump = sum(f(v) for f, v in zip(inst.costs, V)) + float(
            np.linalg.norm(np.diff(np.vstack([inst.x0, V]), axis=0), axis=1).sum())
        assert sol.objective <= jump
        assert "jump to minimizers" in sol.note
        np.testing.assert_array_equal(sol.trajectory, V)

    def test_first_order_residual_flag(self):
        spec = InstanceSpec(d=2, T=10, family="quadratic", seed=44)
        inst = generate_instance(spec)
        sol = offline_opt(inst.costs, inst.x0)
        assert sol.converged

    def test_linf_switching_converges(self):
        # linf switching: log-sum-exp smoothing, the stiffest of the norms
        spec = InstanceSpec(d=5, T=30, family="norm_tracking", seed=16,
                            switching_norm="linf")
        inst = generate_instance(spec)
        sol = offline_opt(inst.costs, inst.x0, inst.feasible, inst.switching_norm)
        assert sol.converged
        assert sol.objective <= 103.9606

    def test_binding_ball(self):
        # every target lies outside the radius-2 ball, so the rows sit on it
        rng = np.random.default_rng(3)
        ball = FeasibleSet.ball(np.zeros(2), 2.0)
        costs = []
        for _ in range(4):
            A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            v = rng.standard_normal(2)
            costs.append(make_quadratic(A, A @ (3.5 * v / np.linalg.norm(v))))
        sol = offline_opt(costs, np.zeros(2), ball)
        radii = np.linalg.norm(sol.trajectory, axis=1)
        assert sol.converged
        assert np.all(radii <= 2.0) and radii.max() >= 2.0 - 1e-6
        dp = grid_dp_oracle(costs, np.zeros(2), feasible=ball, refine=4)
        assert sol.objective == pytest.approx(dp.objective, rel=1e-3)

    def test_binding_box_matches_oracle(self):
        # every target lies outside the box, so the rows sit on its faces
        rng = np.random.default_rng(4)
        box = FeasibleSet.box([-1.0, -0.5], [1.0, 1.5])
        costs = []
        for _ in range(4):
            A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            costs.append(make_quadratic(A, A @ rng.uniform(1.5, 3.0, 2)))
        sol = offline_opt(costs, np.zeros(2), box)
        assert sol.converged
        assert all(box.contains(x, tol=0.0) for x in sol.trajectory)
        dp = grid_dp_oracle(costs, np.zeros(2), feasible=box, refine=4)
        assert sol.objective == pytest.approx(dp.objective, rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_composite_matches_oracle(self, seed):
        inst = generate_instance(InstanceSpec(d=2, T=5, family="composite", seed=seed))
        sol = offline_opt(inst.costs, inst.x0)
        assert sol.converged
        dp = grid_dp_oracle(inst.costs, inst.x0, refine=4)
        assert sol.objective == pytest.approx(dp.objective, rel=1e-3)

    @pytest.mark.parametrize("feasible", [
        FeasibleSet.simplex(2, 0.1), FeasibleSet.halfspace([1.0, 0.0], 1.0),
        FeasibleSet.hyperplane([1.0, 0.0], 0.0),
        FeasibleSet.ball(np.zeros(2), 1.0, Norm.l1()),
        FeasibleSet.ball(np.zeros(2), 1.0, Norm.linf())])
    def test_unsupported_sets_rejected(self, feasible):
        f = make_quadratic(np.eye(2), np.zeros(2))
        for solve in (offline_opt, static_opt):
            with pytest.raises(ValueError):
                solve([f, f], np.zeros(2), feasible)
        with pytest.raises(ValueError):
            offline_opt_constrained([f, f], np.zeros(2), 0.5, feasible)

    def test_mixed_families_rejected(self):
        quad = make_quadratic(np.eye(2), np.ones(2))
        l2 = make_norm_tracking(np.ones(2), Norm.l2())
        l1 = make_norm_tracking(np.ones(2), Norm.l1())
        for costs in ([quad, l2], [l2, l1]):
            with pytest.raises(ValueError):
                offline_opt(costs, np.zeros(2))

    def test_debug_line_per_solve(self, caplog):
        caplog.set_level(logging.DEBUG, logger="obd")
        costs = [abs_cost(1.0), abs_cost(1.0)]
        sol = offline_opt(costs, [0.0])
        offline_opt_constrained(costs, [0.0], 0.5, base=sol)
        static_opt(costs, [0.0])
        grid_dp_oracle(costs, [0.0], GridSpec([-2.0], [3.0], 41), refine=3)
        lines = [r.getMessage() for r in caplog.records if r.name == "obd"]
        assert [line.split(":")[0] for line in lines] == [
            "offline opt", "offline opt_L", "offline static", "offline oracle"]
        assert lines[0].startswith(f"offline opt: T=2 d=1 steps={sol.iterations} "
                                   "converged=True ")
        assert sol.iterations > 0
        assert lines[3].startswith("offline oracle: T=2 d=1 points=101 passes=4 ")


class TestConstrained:
    def test_slack_budget_equals_opt(self):
        costs = [abs_cost(1.0), abs_cost(1.0)]
        free = offline_opt(costs, [0.0])
        sol = offline_opt_constrained(costs, [0.0], 10.0)
        assert sol.lam == 0.0
        assert sol.objective == pytest.approx(free.objective)

    def test_zero_budget_pins_start(self):
        costs = [abs_cost(1.0), abs_cost(1.0)]
        sol = offline_opt_constrained(costs, [0.0], 0.0)
        np.testing.assert_array_equal(sol.trajectory, [[0.0], [0.0]])
        assert sol.objective == pytest.approx(2.0)
        assert sol.total_move == 0.0

    def test_half_budget_scalar(self):
        # best movement-0.5 play: go to 0.5 and stay -> 0.5 + 0.5 + 0.5
        costs = [abs_cost(1.0), abs_cost(1.0)]
        sol = offline_opt_constrained(costs, [0.0], 0.5)
        assert sol.total_move <= 0.5 + 1e-9
        assert sol.total_move >= 0.5 * (1 - 1e-4)
        assert sol.objective == pytest.approx(1.5, abs=2e-4)
        # 1-d enumeration over stopping points p in [0, 0.5]
        best = min(p + 2 * (1 - p) for p in np.linspace(0, 0.5, 2001))
        assert sol.objective == pytest.approx(best, abs=2e-4)

    def test_objective_monotone_in_budget(self):
        spec = InstanceSpec(d=2, T=8, family="quadratic", seed=45)
        inst = generate_instance(spec)
        opt = offline_opt(inst.costs, inst.x0)
        budgets = [0.0, 0.25 * opt.total_move, 0.5 * opt.total_move,
                   opt.total_move, 2 * opt.total_move]
        objs = [offline_opt_constrained(inst.costs, inst.x0, L,
                                        base=opt).objective for L in budgets]
        for a, b in zip(objs, objs[1:]):
            assert a >= b - 1e-6 * max(1.0, abs(b))
        assert objs[-1] == pytest.approx(opt.objective)

    def test_binding_budget_movement_window(self, monkeypatch):
        spec = InstanceSpec(d=2, T=8, family="quadratic", seed=46)
        inst = generate_instance(spec)
        opt = offline_opt(inst.costs, inst.x0)
        L = 0.4 * opt.total_move
        solves = []
        solve = obd.offline._solve

        def counting(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(obd.offline, "_solve", counting)
        sol = offline_opt_constrained(inst.costs, inst.x0, L, base=opt)
        assert len(solves) == 1  # the budget is a barrier row, not a multiplier search
        assert sol.converged
        assert L * (1 - 1e-4) <= sol.total_move <= L * (1 + 1e-12)
        assert sol.lam > 0

    def test_penalized_optimality_certificate(self):
        # at the recovered multiplier the trajectory minimizes the penalized
        # objective, checked against a weighted DP oracle
        spec = InstanceSpec(d=1, T=6, family="norm_tracking", seed=47)
        inst = generate_instance(spec)
        opt = offline_opt(inst.costs, inst.x0)
        L = 0.5 * opt.total_move
        sol = offline_opt_constrained(inst.costs, inst.x0, L, base=opt)
        w = 1.0 + sol.lam
        penalized = sol.total_hit + w * sol.total_move
        dp = grid_dp_oracle(inst.costs, inst.x0, move_weight=w, refine=3)
        assert penalized <= dp.objective * (1 + 1e-3)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            offline_opt_constrained([abs_cost(0.0)], [0.0], -1.0)


class TestStatic:
    def test_three_targets(self):
        costs = [abs_cost(t) for t in (1.0, 2.0, 3.0)]
        sol = static_opt(costs, [0.0])
        assert sol.objective == pytest.approx(4.0, abs=1e-4)
        xs = np.linspace(-1, 4, 2001)
        best = min(abs(x) + sum(abs(x - t) for t in (1, 2, 3)) for x in xs)
        assert sol.objective == pytest.approx(best, abs=1e-4)

    def test_single_round_matches_opt(self):
        f = make_quadratic(np.diag([2.0, 1.0]), np.array([1.0, 1.0]))
        a = static_opt([f], np.zeros(2))
        b = offline_opt([f], np.zeros(2))
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_moves_to_shared_minimizer(self):
        v = np.array([0.5, -0.25])
        costs = [make_norm_tracking(v, Norm.l2()) for _ in range(10)]
        sol = static_opt(costs, np.zeros(2))
        # scanning the segment x0 -> v confirms the endpoint is optimal
        vals = []
        for lam in np.linspace(0, 1, 501):
            x = lam * v
            vals.append(np.linalg.norm(x) + 10 * np.linalg.norm(x - v))
        assert sol.objective == pytest.approx(min(vals), abs=1e-6)
        np.testing.assert_allclose(sol.trajectory[0], v, atol=1e-6)


class TestGridOracle:
    def test_single_round(self):
        f = abs_cost(1.0)
        dp = grid_dp_oracle([f], [0.0], GridSpec([-2.0], [3.0], 101))
        assert dp.objective == pytest.approx(1.0, abs=1e-6)

    def test_monotone_under_resolution(self):
        spec = InstanceSpec(d=2, T=4, family="norm_tracking", seed=48)
        inst = generate_instance(spec)
        grid = auto_grid(inst.costs, inst.x0)
        objs = []
        for pts in (9, 17, 33):
            g = GridSpec(grid.lo, grid.hi, pts)
            objs.append(grid_dp_oracle(inst.costs, inst.x0, g, refine=0).objective)
        for a, b in zip(objs, objs[1:]):
            assert a >= b - 1e-12

    def test_refinement_improves(self):
        spec = InstanceSpec(d=2, T=4, family="quadratic", seed=49)
        inst = generate_instance(spec)
        coarse = grid_dp_oracle(inst.costs, inst.x0, refine=0)
        fine = grid_dp_oracle(inst.costs, inst.x0, refine=2)
        assert fine.objective <= coarse.objective + 1e-12
        assert fine.uncertainty < coarse.uncertainty

    def test_size_limits(self):
        f = abs_cost(0.0)
        with pytest.raises(ValueError):
            grid_dp_oracle([f] * 9, [0.0])
        spec = InstanceSpec(d=2, T=2, family="quadratic", seed=50)
        inst = generate_instance(spec)
        with pytest.raises(ValueError):
            grid_dp_oracle(inst.costs, inst.x0,
                           GridSpec([-1.0, -1.0], [1.0, 1.0], 700))

    def test_indicator_costs_supported(self):
        # the adversary run: offline optimum moves once to the intersection
        from obd.costs import adversary_step
        fs = [adversary_step(np.zeros(2), 1)]
        fs.append(adversary_step(np.array([-1.0, 0.0]), 2))
        grid = GridSpec([-1.5, -1.5], [1.5, 1.5], 7)
        dp = grid_dp_oracle(fs, np.zeros(2), grid, refine=0)
        assert dp.objective == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("norm", [
        Norm.l2(), Norm.l1(), Norm.linf(), Norm.mahalanobis([[2.0, 0.5], [0.5, 1.0]])],
        ids=["l2", "l1", "linf", "mahalanobis"])
    @pytest.mark.parametrize("w", [1.0, 1.7])
    def test_min_plus_matches_full_matrix(self, norm, w):
        a = GridSpec([-1.0, -2.0], [2.0, 1.0], 51).mesh()
        b = GridSpec([-1.5, -1.5], [1.5, 2.5], 37).mesh()
        V = np.random.default_rng(5).uniform(0.0, 3.0, len(b))
        # a block holds _BLOCK // len(b) rows for l2 and Mahalanobis, and
        # _BLOCK // (2 len(b)) for l1 and linf: neither divides len(a)
        assert all(len(a) % (obd.offline._BLOCK // w) for w in (len(b), 2 * len(b)))
        if norm.kind in ("l2", "mahalanobis"):
            L = np.eye(2) if norm.kind == "l2" else norm._chol
            ua, ub = a @ L, b @ L
            sq = (np.sum(ua * ua, axis=1)[:, None] + np.sum(ub * ub, axis=1)[None, :]
                  - 2.0 * (ua @ ub.T))
            D = np.sqrt(np.maximum(sq, 0.0))
        else:
            diff = np.abs(a[:, None, :] - b[None, :, :])
            D = diff.sum(axis=2) if norm.kind == "l1" else diff.max(axis=2)
        total = w * D + V[None, :]
        best, idx = _min_plus(a, b, norm, w, V)
        np.testing.assert_array_equal(idx, np.argmin(total, axis=1))
        np.testing.assert_allclose(best, total.min(axis=1), rtol=1e-12, atol=0.0)

    def test_memory_bounded(self):
        # a full distance matrix per transition would be 54 MB on the 51 x 51 zoom grid
        inst = generate_instance(InstanceSpec(d=2, T=4, family="norm_tracking", seed=48))
        tracemalloc.start()
        try:
            grid_dp_oracle(inst.costs, inst.x0, refine=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("feasible", [
    FeasibleSet.box([-1.0, -0.5], [1.0, 1.5]), FeasibleSet.ball(np.zeros(2), 1.5),
    FeasibleSet.ball(np.array([0.25, -0.5]), 1.0, Norm.mahalanobis([[2.0, 0.5], [0.5, 1.0]])),
    FeasibleSet.ball(np.zeros(2), 1.0, Norm.l1()), FeasibleSet.halfspace([1.0, 1.0], 0.5),
    FeasibleSet.whole_space(2)], ids=["box", "l2", "mahalanobis", "l1", "halfspace", "whole"])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_row_test_matches_contains(feasible, tol):
    pts = [GridSpec([-2.0, -2.0], [2.0, 2.0], 41).mesh()]
    p = feasible.params
    if feasible.kind == "box":
        pts.append(np.array([[-1.0, 0.0], [1.0, 1.5], [1.0 + tol, -0.5 - tol],
                             [1.0 + 2 * tol, 0.0]]))
    elif feasible.kind == "ball":
        # rays scaled onto the boundary, and just inside and outside it
        rays = np.random.default_rng(6).standard_normal((2000, 2))
        on = np.array([p["radius"] * u / p["norm"](u) for u in rays])
        pts += [p["center"] + on, p["center"] + (1.0 + 1e-15) * on,
                p["center"] + (1.0 - 1e-15) * on,
                p["center"] + np.array([[p["radius"] + tol, 0.0], [0.0, -p["radius"]]])]
    pts = np.vstack(pts)
    np.testing.assert_array_equal(_inside(feasible, pts, tol),
                                  [feasible.contains(x, tol) for x in pts])
