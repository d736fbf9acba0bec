import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError

import obd.offline
from obd.costs import (
    InstanceSpec, generate_instance, make_composite, make_norm_tracking, make_quadratic,
)
from obd.geometry import FeasibleSet, Norm
from obd.offline import (
    GridSpec, _TrajectoryProblem, _interior, _transition, auto_grid, grid_dp_oracle,
    offline_opt, offline_opt_constrained, static_opt,
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
        # l2 tracking of scale >= 2: the jump's dual point proves it, no solve
        assert "certified optimal" in sol.note
        assert (sol.iterations, sol.converged) == (0, True)

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
        costs, ball = _ball_quadratics(4)
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
        budgeted = offline_opt_constrained(costs, [0.0], 0.5, base=sol)
        assert lines[1].startswith(f"offline opt_L: T=2 d=1 pd_iterations={budgeted.iterations} "
                                   f"factorizations={budgeted.iterations + 1} gap=")
        assert " converged=True " in lines[1]
        assert sol.iterations > 0
        assert lines[3].startswith("offline oracle: T=2 d=1 points=101 passes=4 ")


def _ball_quadratics(T, seed=3):
    """T quadratics on R^2 whose minimizers lie outside the radius-2 ball."""
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(T):
        A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        v = rng.standard_normal(2)
        costs.append(make_quadratic(A, A @ (3.5 * v / np.linalg.norm(v))))
    return costs, FeasibleSet.ball(np.zeros(2), 2.0)


class TestNewtonStep:
    """The Newton step's contract and the solves' exact work, pinned: a
    cheaper step must take the same iterates."""

    def _parts(self):
        costs, ball = _ball_quadratics(4)
        problem = _TrajectoryProblem(costs, np.zeros(2), None, ball)
        X = _interior(ball, np.stack([f.minimizer for f in costs]))
        return problem, problem.evaluate(X, 1e-2, 1e-2)

    def test_solves_positive_definite(self):
        problem, (F, grad, D, C) = self._parts()
        assert math.isfinite(F)
        step = problem.newton_step(F, grad, D, C)
        assert step.shape == grad.shape and np.isfinite(step).all()
        assert float((grad * step).sum()) < 0.0

    def test_not_positive_definite_raises(self):
        problem, (F, grad, D, C) = self._parts()
        with pytest.raises(LinAlgError):
            problem.newton_step(F, grad, D - 1e3 * np.eye(2), C)

    @pytest.mark.parametrize("where", ["grad", "diagonal", "off-diagonal"])
    def test_nan_raises(self, where):
        problem, (F, grad, D, C) = self._parts()
        parts = {"grad": grad, "diagonal": D, "off-diagonal": C}
        parts[where] = parts[where].copy()
        parts[where].flat[2] = math.nan  # in the lower triangle of a diagonal block
        with pytest.raises(ValueError):
            problem.newton_step(F, parts["grad"], parts["diagonal"], parts["off-diagonal"])

    def test_pinned_tracking_whole_space(self):
        # started from the cheaper of staying put and jumping (here staying),
        # the solve takes 71 steps where the minimizers took 113, to the same bits
        inst = generate_instance(InstanceSpec(d=3, T=20, family="norm_tracking", seed=43))
        sol = offline_opt(inst.costs, inst.x0)
        assert (sol.iterations, sol.objective.hex()) == (71, "0x1.1c0339c61adc3p+6")

    def test_pinned_budget_in_ball(self):
        costs, ball = _ball_quadratics(6)
        opt = offline_opt(costs, np.zeros(2), ball)
        assert (opt.iterations, opt.objective.hex()) == (67, "0x1.d933954f4383ap+4")
        # the cone program takes 10 interior-point iterations where the barrier
        # row took 74 Newton steps, and ends 3.4e-9 relative lower
        sol = offline_opt_constrained(costs, np.zeros(2), 0.5 * opt.total_move, ball,
                                      base=opt)
        assert (sol.iterations, sol.objective.hex()) == (10, "0x1.86a36882b77e0p+5")

    def test_pinned_static_in_ball(self):
        costs, ball = _ball_quadratics(6)
        sol = static_opt(costs, np.zeros(2), ball)
        assert (sol.iterations, sol.objective.hex()) == (9, "0x1.b403919459dbep+6")


def _spd(rng, d):
    M = rng.standard_normal((d, d))
    return M @ M.T + d * np.eye(d)


def _norm(kind, rng, d):
    return Norm.mahalanobis(_spd(rng, d)) if kind == "mahalanobis" else Norm(kind)


def _costs(family, rng, d, T):
    """T costs of one family; the tracking ones share one norm."""
    norm = _norm("l2" if family in ("quadratic", "composite") else family.split()[0], rng, d)
    costs = []
    for _ in range(T):
        v = 2.0 * rng.standard_normal(d)
        A = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        track = make_norm_tracking(v, norm, 0.5 + rng.random())
        costs.append(make_quadratic(A, A @ v) if family == "quadratic" else
                     make_composite(track, make_quadratic(A, A @ v))
                     if family == "composite" else track)
    return costs


def _set(kind, rng, d):
    if kind == "whole":
        return FeasibleSet.whole_space(d)
    if kind == "box":
        return FeasibleSet.box(-1.0 - 3.0 * rng.random(d), 1.0 + 3.0 * rng.random(d))
    norm = Norm.mahalanobis(_spd(rng, d)) if kind == "mahalanobis ball" else Norm.l2()
    return FeasibleSet.ball(0.1 * rng.standard_normal(d), 2.0 + 3.0 * rng.random(), norm)


FAMILIES = ["quadratic", "l1 tracking", "l2 tracking", "linf tracking",
            "mahalanobis tracking", "composite"]
SETS = ["whole", "box", "l2 ball", "mahalanobis ball"]


def _same(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), T=st.integers(1, 5),
       family=st.sampled_from(FAMILIES), kind=st.sampled_from(SETS),
       switching=st.sampled_from(["l1", "l2", "linf", "mahalanobis"]), tied=st.booleans())
def test_value_is_evaluate_objective(seed, d, T, family, kind, switching, tied):
    # the Armijo trials price a point by terms(); the accepted point's F comes
    # from evaluate(), and the two must agree bit for bit, inf outside the domain
    rng = np.random.default_rng(seed)
    costs = _costs(family, rng, d, T)
    feasible = _set(kind, rng, d)
    x0 = _interior(feasible, rng.standard_normal((1, d)))[0] if kind != "whole" \
        else rng.standard_normal(d)
    norm = _norm(switching, rng, d)
    X = _interior(feasible, 3.0 * rng.standard_normal((1 if tied else T, d)))
    problem = _TrajectoryProblem(costs, x0, norm, feasible, tied=tied)
    for eps, mu in ((1e-2, 1e-2), (1e-8, 1e-10 * (1.0 + rng.random()))):
        F = problem.evaluate(X, eps, mu)[0]
        assert _same(problem.terms(X, eps, mu)[0], F)
        assert not math.isnan(F)
    # far outside the set: inf from both
    for Y in (X + 1e3, x0 + 1e3 * (X - x0)):
        F = problem.evaluate(Y, 1e-2, 1e-2)
        assert _same(problem.terms(Y, 1e-2, 1e-2)[0], F[0])
        if not np.all(feasible.contains(Y)):
            assert F == (math.inf,) * 4
    # the one-row problem behind x(eta) under the Euclidean or a Mahalanobis
    # map shares the terms; its exact parts are (eta f(x), 1/2 u'Qu), which
    # solve_regularized's x(0) guard compares
    Q = norm.Q if switching == "mahalanobis" else np.eye(d)
    eta = 0.1 + 10.0 * rng.random()
    reg = _TrajectoryProblem([costs[0]], x0, None, feasible, Q=Q, eta=eta)
    for Y in (X[:1], X[:1] + 1e3):
        F = reg.evaluate(Y, 1e-3, 1e-6)[0]
        assert _same(reg.terms(Y, 1e-3, 1e-6)[0], F)
        assert F == math.inf if not np.all(feasible.contains(Y)) else math.isfinite(F)
        u = Y[0] - x0
        hit, move = reg.exact_parts(Y)
        assert _same(hit, eta * costs[0](Y[0]))
        assert move == pytest.approx(0.5 * float(u @ (Q @ u)), rel=1e-14)


@pytest.mark.parametrize("kind", ["l1", "l2", "linf", "mahalanobis"])
def test_tracking_parts_are_per_round_calls(kind):
    # norm-tracking hits are priced as one stack, with each round's bits and
    # the per-round sum's order
    rng = np.random.default_rng(len(kind))
    for d, T, tied in ((1, 1, False), (2, 7, False), (5, 50, False), (10, 50, False),
                       (3, 6, True)):
        norm = _norm(kind, rng, d)
        costs = [make_norm_tracking(v, norm, 0.5 + 3.0 * rng.random())
                 for v in rng.standard_normal((T, d))]
        problem = _TrajectoryProblem(costs, rng.standard_normal(d), None, None, tied=tied)
        X = 3.0 * rng.standard_normal((1 if tied else T, d))
        rows = np.broadcast_to(X, (T, d))
        assert _same(problem.exact_parts(X)[0],
                     sum(f(rows[t]) for t, f in enumerate(costs)))



@pytest.mark.parametrize("family", ["quadratic", "composite"])
def test_quadratic_parts_are_per_round_calls(family):
    # quadratic and composite hits are priced as one stack too, with each
    # round's bits and the per-round sum's order
    rng = np.random.default_rng(len(family))
    for d, T, tied in ((1, 1, False), (2, 7, False), (5, 100, False), (8, 50, False),
                       (32, 50, False), (3, 6, True)):
        costs = generate_instance(InstanceSpec(d=d, T=T, family=family, seed=d * T)).costs
        problem = _TrajectoryProblem(costs, rng.standard_normal(d), None, None, tied=tied)
        X = 3.0 * rng.standard_normal((1 if tied else T, d))
        rows = np.broadcast_to(X, (T, d))
        assert _same(problem.exact_parts(X)[0],
                     sum(f(rows[t]) for t, f in enumerate(costs)))

def _dual_bound(costs, x0, V):
    """The Lagrangian bound -nu_1'x_0 + sum_t (nu_t - nu_{t+1})'v_t of l2
    switching at the jump's dual point nu_t = u_t / ||u_t||, nu_{T+1} = 0, and
    whether every round's dual constraint ||nu_t - nu_{t+1}||_a* <= s_t holds."""
    U = np.diff(np.vstack([x0, V]), axis=0)
    nu = np.vstack([U / np.linalg.norm(U, axis=1)[:, None], np.zeros((1, len(x0)))])
    c = nu[:-1] - nu[1:]
    feasible = all(f.norm_a.dual_value(ct) <= f.scale for f, ct in zip(costs, c))
    return -nu[0] @ x0 + sum(ct @ v for ct, v in zip(c, V)), feasible


def _is_certified(sol) -> bool:
    return "certified optimal" in sol.note


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), T=st.integers(2, 5),
       kind=st.sampled_from(["l1", "l2", "linf"]), ball=st.booleans())
@example(seed=12, d=2, T=3, kind="l2", ball=False)  # only the last round's s_t < 1
@example(seed=2, d=2, T=3, kind="linf", ball=False)  # ||c||_2 <= s_t < ||c||_1 somewhere
def test_certified_jump_is_optimal(seed, d, T, kind, ball):
    # whenever the dual point certifies the jump, the jump is a valid bound:
    # every dual constraint holds, the bound meets the objective, and the
    # grid oracle finds nothing cheaper
    rng = np.random.default_rng(seed)
    V, x0 = rng.uniform(-2.0, 2.0, (T, d)), rng.uniform(-2.0, 2.0, d)
    costs = [make_norm_tracking(v, Norm(kind), s) for v, s in zip(V, rng.uniform(0.5, 4.0, T))]
    feasible = None
    if ball:  # it holds a ball of radius >= 0.5 about each minimizer, so grid points
        c = 0.5 * rng.standard_normal(d)
        feasible = FeasibleSet.ball(c, float(np.linalg.norm(V - c, axis=1).max())
                                    + rng.uniform(0.5, 2.0))
    sol = offline_opt(costs, x0, feasible)
    if not _is_certified(sol):
        assert sol.iterations > 0
        return
    assert (sol.iterations, sol.converged) == (0, True)
    np.testing.assert_array_equal(sol.trajectory, V)
    bound, dual_feasible = _dual_bound(costs, x0, V)
    assert dual_feasible
    assert bound == pytest.approx(sol.objective, rel=1e-12, abs=0.0)
    dp = grid_dp_oracle(costs, x0, feasible=feasible, refine=0)
    assert sol.objective <= dp.objective * (1.0 + 1e-12)


class TestCertificateFallsBack:
    """Where the jump's dual point proves nothing, the Newton solve runs."""

    @staticmethod
    def _solve(V, x0, scale=2.0, feasible=None):
        costs = [make_norm_tracking(v, Norm.l2(), scale) for v in np.asarray(V, dtype=float)]
        sol = offline_opt(costs, np.asarray(x0, dtype=float), feasible)
        assert not _is_certified(sol) and sol.iterations > 0
        return sol

    def test_reversal(self):
        # u_2 = -u_1 at s = 2: ||nu_1 - nu_2|| = 2 = s_1, on the edge of the dual ball
        sol = self._solve([[1.0, 0.5], [0.0, 0.0], [0.5, 1.0]], [0.0, 0.0])
        assert sol.objective <= 3.0 * math.sqrt(1.25)  # the jump, by the guard

    def test_zero_difference(self):
        self._solve([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [0.0, 0.0], scale=4.0)

    def test_jump_outside_ball(self):
        sol = self._solve([[1.0, 0.0], [3.0, 0.0]], [0.0, 0.0], scale=4.0,
                          feasible=FeasibleSet.ball(np.zeros(2), 2.0))
        assert "jump to minimizers" not in sol.note
        assert np.linalg.norm(sol.trajectory, axis=1).max() <= 2.0


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
        calls = {"_solve": 0, "dpbtrf": 0}

        def counting(name):
            real = getattr(obd.offline, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(obd.offline, name, counted)

        counting("_solve")
        counting("dpbtrf")
        sol = offline_opt_constrained(inst.costs, inst.x0, L, base=opt)
        # no Newton solve: the budget is a row of the cone program, which takes
        # one banded factorization for its start and one per iteration
        assert calls == {"_solve": 0, "dpbtrf": sol.iterations + 1}
        assert sol.converged
        assert L * (1 - 1e-12) <= sol.total_move <= L
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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_multiplier_matches_kkt_fit(self, seed):
        # lam is the budget row's dual variable: the multiplier that makes the
        # trajectory stationary for sum_t f_t + (1 + lam) ||x_t - x_{t-1}||
        inst = generate_instance(InstanceSpec(d=2, T=6, family="quadratic", seed=seed))
        opt = offline_opt(inst.costs, inst.x0)
        sol = offline_opt_constrained(inst.costs, inst.x0, 0.5 * opt.total_move, base=opt)
        assert sol.lam == pytest.approx(_kkt_multiplier(inst.costs, inst.x0, sol.trajectory),
                                        rel=1e-6)

    def test_spend_budget_off_origin(self):
        # from x0 = 10, fl(10.3) moves 0.30000000000000071 > 0.3, and scaling
        # its move by 1 - 1e-15 rounds back to it: the pull toward x0 has to
        # step on the grid of floats near 10 and still end
        problem = _TrajectoryProblem([abs_cost(11.0)], [10.0], None, None)
        X = np.array([[10.3]])
        assert problem.movement(X) > 0.3
        spent = obd.offline._spend_budget(problem, X, np.array([[11.0]]), 0.3)
        assert 0.3 * (1 - 1e-12) <= problem.movement(spent) <= 0.3
        sol = offline_opt_constrained([abs_cost(11.0)], [10.0], 0.3)
        assert 0.3 * (1 - 1e-12) <= sol.total_move <= 0.3
        assert sol.converged

    def test_failed_solve_not_converged(self, monkeypatch):
        # a factorization failing on the first iteration leaves no iterate
        # within the residual bounds: the last one comes back unconverged
        inst = generate_instance(InstanceSpec(d=2, T=6, family="quadratic", seed=3))
        opt = offline_opt(inst.costs, inst.x0)
        real, calls = obd.offline._cholesky, []

        def failing(band):
            calls.append(None)
            if len(calls) > 1:
                raise LinAlgError("not positive definite")
            return real(band)

        monkeypatch.setattr(obd.offline, "_cholesky", failing)
        L = 0.5 * opt.total_move
        sol = offline_opt_constrained(inst.costs, inst.x0, L, base=opt)
        assert len(calls) == 2
        assert not sol.converged
        assert sol.total_move <= L

    def test_infeasible_budget_not_converged(self):
        # from x0 = (5, 0) the unit ball is 4 away, more than L = 3.9: no
        # iterate meets the primal residual bound, though the gap closes
        ball = FeasibleSet.ball(np.zeros(2), 1.0, Norm.l2())
        costs = [make_norm_tracking(np.zeros(2), Norm.l2())] * 3
        base = offline_opt(costs, [5.0, 0.0], ball)
        sol = offline_opt_constrained(costs, [5.0, 0.0], 3.9, ball, base=base)
        assert not sol.converged


def test_cone_scaling_and_boundary_step():
    # the Nesterov-Todd scaling W of cone points s and z is symmetric with
    # W z = W^-1 s; lam + t D leaves the cone at t = -1 / (least eigenvalue)
    rng = np.random.default_rng(5)

    def inside(n, p=4):
        u = rng.standard_normal((n, p))
        u[:, 0] = np.linalg.norm(u[:, 1:], axis=1) + 1e-3 + rng.random(n)
        return u

    s, z = inside(50), inside(50)
    W, W_inv = obd.offline._nt_scaling(np.stack((s, z)))
    np.testing.assert_allclose(W @ W_inv, np.broadcast_to(np.eye(4), W.shape), atol=1e-10)
    np.testing.assert_allclose(W, W.transpose(0, 2, 1), atol=1e-12)
    np.testing.assert_allclose(obd.offline._mv(W, z), obd.offline._mv(W_inv, s), rtol=1e-10)
    lam, D = inside(50), rng.standard_normal((50, 4))
    det = obd.offline._jdot(lam, lam)
    worst = obd.offline._soc_worst(lam * np.array([1.0, -1, -1, -1]) / det[:, None], det, D)
    out = worst < 0.0
    assert 10 <= out.sum() < len(out)
    edge = lam[out] - D[out] / worst[out, None]
    np.testing.assert_allclose(edge[:, 0], np.linalg.norm(edge[:, 1:], axis=1), rtol=1e-8)
    assert (edge[:, 0] > 0.0).all()
    inside_all = lam[~out] + 1e3 * D[~out]  # no boundary ahead
    assert (inside_all[:, 0] >= np.linalg.norm(inside_all[:, 1:], axis=1)).all()


def _kkt_multiplier(costs, x0, X) -> float:
    """lam by least squares on the stationarity of a trajectory X of quadratics
    under the l2 switching norm, grad f_t(x_t) + (1 + lam)(nu_t - nu_{t+1}) = 0
    with nu_{T+1} = 0: nu_t is u_t / ||u_t|| for a move u_t, and a free
    unknown (times 1 + lam) where the move is zero."""
    T, d = X.shape
    U = np.diff(np.vstack([x0, X]), axis=0)
    n = np.linalg.norm(U, axis=1)
    zero = n <= 1e-9 * n.max()
    nu = np.where(zero[:, None], 0.0, U / np.where(zero, 1.0, n)[:, None])
    nu[:-1] -= nu[1:]
    columns = [nu.ravel()]
    for t in np.flatnonzero(zero):
        for i in range(d):
            c = np.zeros((T, d))
            c[t, i] = 1.0
            if t > 0:
                c[t - 1, i] = -1.0
            columns.append(c.ravel())
    grads = np.stack([f.grad(x) for f, x in zip(costs, X)])
    w = np.linalg.lstsq(np.stack(columns, axis=1), -grads.ravel(), rcond=None)[0][0]
    return w - 1.0


# the draw space of every family, tracking norm, switching norm and set the
# offline solves take
SOLVE_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), T=st.integers(1, 6),
    family=st.sampled_from(["quadratic", "norm_tracking", "composite"]),
    tracking=st.sampled_from(["l1", "l2", "linf"]),
    switching=st.sampled_from(["l1", "l2", "linf", "mahalanobis"]),
    kind=st.sampled_from(["whole", "ball", "box", "mahalanobis ball"]))


def _drawn_instance(seed, d, T, family, tracking, switching, kind):
    """One draw of ``SOLVE_DRAWS``: (instance, switching norm, feasible set)."""
    rng = np.random.default_rng(seed)
    spec = InstanceSpec(d=d, T=T, family=family, seed=seed % 2**31, tracking_norm=tracking,
                        switching_norm="l2" if switching == "mahalanobis" else switching,
                        feasible_kind=kind.split()[-1], feasible_radius=6.0,
                        x0=tuple(rng.uniform(-1.0, 1.0, d)))
    inst = generate_instance(spec)
    norm = _norm(switching, rng, d) if switching == "mahalanobis" else inst.switching_norm
    feasible = inst.feasible
    if kind == "mahalanobis ball":
        Q = _norm("mahalanobis", rng, d)
        points = np.vstack([inst.x0] + [f.minimizer for f in inst.costs])
        feasible = FeasibleSet.ball(np.zeros(d), 1.5 * Q(points).max(), Q)
    return inst, norm, feasible


def _path_objective(costs, x0, norm, X) -> float:
    """X's hitting plus switching cost, each round priced by its own call."""
    hit = sum(f(x) for f, x in zip(costs, X))
    return hit + float(norm(np.diff(np.vstack([x0, X]), axis=0)).sum())


@settings(max_examples=60, deadline=None)
@given(**SOLVE_DRAWS)
def test_guarded_solves_never_above_a_candidate(seed, d, T, family, tracking, switching,
                                                kind):
    # offline_opt and static_opt return a trajectory inside the set, priced
    # exactly, and never above a candidate inside the set: staying at x0 and
    # jumping to every minimizer, and holding x0 or one round's minimizer.
    # static_opt ranks its candidates by stacked sums and prices only the
    # winner exactly, so another candidate may undercut it by rounding alone
    inst, norm, feasible = _drawn_instance(seed, d, T, family, tracking, switching, kind)
    x0, costs = inst.x0, inst.costs
    V = np.stack([f.minimizer for f in costs])
    candidates = {"opt": [np.tile(x0, (T, 1)), V],
                  "static": [np.tile(x, (T, 1)) for x in np.vstack([x0, V])]}
    for label, solve in (("opt", offline_opt), ("static", static_opt)):
        sol = solve(costs, x0, feasible, norm)
        assert np.all(feasible.contains(sol.trajectory, 0.0))
        assert sol.objective == pytest.approx(_path_objective(costs, x0, norm, sol.trajectory),
                                              rel=1e-12, abs=1e-12)
        for Y in candidates[label]:
            if np.all(feasible.contains(Y, 0.0)):
                bound = _path_objective(costs, x0, norm, Y)
                assert sol.objective <= bound * (1.0 + (1e-12 if label == "static" else 0.0))


@settings(max_examples=60, deadline=None)
@given(**SOLVE_DRAWS, fraction=st.floats(0.05, 0.95))
def test_budgeted_solve_properties(seed, d, T, family, tracking, switching, kind, fraction):
    # every family, tracking norm, switching norm and set the budgeted solve
    # takes: within the budget, between OPT and base shrunk to the budget,
    # converged, inside the set; the sets and families it does not take
    # raise ValueError
    inst, norm, feasible = _drawn_instance(seed, d, T, family, tracking, switching, kind)
    base = offline_opt(inst.costs, inst.x0, feasible, norm)
    binds = base.total_move > 1e-6
    if binds:
        L = fraction * base.total_move
        sol = offline_opt_constrained(inst.costs, inst.x0, L, feasible, norm, base=base)
        U = np.diff(np.vstack([inst.x0, sol.trajectory]), axis=0)
        move = float(norm(U).sum())
        hit = sum(f(x) for f, x in zip(inst.costs, sol.trajectory))
        # the budget is spent to 1e-12, or to the rounding grid of the
        # trajectory's coordinates where that is coarser
        ulp = np.spacing(np.abs(np.vstack([inst.x0, sol.trajectory])).max())
        grid = 4.0 * T * float(norm(np.full((1, d), ulp)).sum())
        assert move <= L * (1.0 + 1e-12) and L * (1.0 - 1e-12) - grid <= sol.total_move <= L
        assert np.all(feasible.contains(sol.trajectory, 1e-9))
        # a feasible trajectory priced exactly, so never below OPT; offline_opt
        # is an independent solve, but its smoothing leaves it up to about
        # 3e-6 above OPT on flat polyhedral costs, where the budget then
        # reaches below it
        assert sol.objective == pytest.approx(hit + move, rel=1e-12, abs=1e-12)
        assert sol.objective >= base.objective - 1e-5 * abs(base.objective)
        shrunk = inst.x0 + (L / base.total_move) * (base.trajectory - inst.x0)
        hit = sum(f(x) for f, x in zip(inst.costs, shrunk))
        shrunk_objective = hit + float(norm(np.diff(np.vstack([inst.x0, shrunk]), axis=0)).sum())
        assert sol.objective <= shrunk_objective + 1e-9 * (1.0 + abs(shrunk_objective))
        assert sol.converged
    # what the solve does not take raises ValueError, whatever the base
    fake = base if binds else obd.offline.OfflineSolution(
        trajectory=base.trajectory + 1.0, total_hit=0.0, total_move=1.0, objective=1.0)
    for bad in (FeasibleSet.simplex(d, 0.1 / d), FeasibleSet.halfspace(np.ones(d), 1.0),
                FeasibleSet.ball(np.zeros(d), 6.0, Norm.l1()),
                FeasibleSet.ball(np.zeros(d), 6.0, Norm.linf())):
        with pytest.raises(ValueError):
            offline_opt_constrained(inst.costs, inst.x0, 0.5 * fake.total_move, bad, norm,
                                    base=fake)
    chase = generate_instance(InstanceSpec(d=d, T=min(T, d), family="hyperplane_chase",
                                           seed=seed % 2**31))
    indicators = [chase.cost_at(t + 1, chase.x0) for t in range(chase.T)]
    with pytest.raises(ValueError):
        offline_opt_constrained(indicators, chase.x0, 0.5, base=obd.offline.OfflineSolution(
            trajectory=np.ones((chase.T, d)), total_hit=0.0, total_move=1.0, objective=1.0))


class TestStatic:
    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_never_above_holding_x0(self, kind):
        # l1 tracking under l1 switching separates by coordinate, so the static
        # optimum is the coordinate-wise weighted median, 31.773462; the solve
        # ends at 31.8833, above holding x0 (31.814775), and is reported as
        # that candidate, not converged
        spec = InstanceSpec(d=3, T=5, family="norm_tracking", seed=6, tracking_norm="l1",
                            switching_norm="l1", feasible_kind=kind, feasible_radius=6.0,
                            x0=tuple(np.random.default_rng(6).uniform(-1, 1, 3)))
        inst = generate_instance(spec)
        sol = static_opt(inst.costs, inst.x0, inst.feasible, inst.switching_norm)
        hold = sum(f(inst.x0) for f in inst.costs)
        assert hold == pytest.approx(31.814775, abs=1e-6)
        assert sol.objective <= hold
        np.testing.assert_array_equal(sol.trajectory, np.tile(inst.x0, (5, 1)))
        assert not sol.converged
        assert "hold x0" in sol.note

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


def _grid_norm(kind, d):
    if kind == "mahalanobis":
        return Norm.mahalanobis(np.array([[2.0, 0.5], [0.5, 1.0]])[:d, :d])
    return Norm(kind)


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

    @pytest.mark.parametrize("kind", ["l2", "l1", "linf", "mahalanobis"])
    @pytest.mark.parametrize("w", [1.0, 1.7])
    @pytest.mark.parametrize("d", [1, 2])
    def test_transition_matches_full_matrix(self, kind, w, d, monkeypatch):
        # two windows of one lattice, offset by positive, negative and
        # nonoverlapping corners; a tenth of the points are priced inf.  The
        # buffer takes one p_2 row, five (the last chunk three) or all 23.
        norm = _grid_norm(kind, d)
        rng = np.random.default_rng(5)
        n = 23 if d == 2 else 61
        origin, step = np.array([-1.0, 0.5])[:d], np.array([0.13, 0.07])[:d]
        k = np.indices((n,) * d).reshape(d, -1).T
        for ca, cb in (([0, 0], [0, 0]), ([2, -3], [-4, 1]), ([-5, 7], [30, -28])):
            ca, cb = np.array(ca[:d], dtype=float), np.array(cb[:d], dtype=float)
            a, b = origin + step * (ca + k), origin + step * (cb + k)
            V = rng.uniform(0.0, 3.0, len(b))
            V[rng.random(len(b)) < 0.1] = math.inf
            total = w * norm(a[:, None, :] - b[None, :, :]) + V[None, :]
            for chunk in (1, 5 * n ** d, 2 ** 18):
                monkeypatch.setattr(obd.offline, "_CHUNK", chunk)
                best, idx = _transition(norm, w, step, ca - cb, n, V)
                np.testing.assert_array_equal(idx, np.argmin(total, axis=1))
                np.testing.assert_allclose(best, total.min(axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["l2", "l1", "linf", "mahalanobis"])
    @pytest.mark.parametrize("w", [1.0, 1.7])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("region", ["whole", "ball", "box"])
    def test_first_pass_is_best_grid_path(self, kind, w, d, region):
        # refine=0 returns the cheapest of all paths over the grid, every
        # path priced on its own; a point outside the set is no state
        norm = _grid_norm(kind, d)
        rng = np.random.default_rng([d, int(10 * w), len(kind), len(region)])
        for case in range(4):
            T, m = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            lo = rng.uniform(-2.0, 0.0, d)
            hi = lo + rng.uniform(0.5, 3.0, d)
            axes = [np.linspace(lo[i], hi[i], m) for i in range(d)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            costs = []
            for v in rng.uniform(lo - 1.0, hi + 1.0, (T, d)):
                A = np.eye(d) + 0.3 * rng.standard_normal((d, d))
                costs.append(make_norm_tracking(v, norm, 0.5 + rng.random()) if case % 2
                             else make_quadratic(A, v))
            x0 = rng.uniform(lo - 0.5, hi + 0.5)
            c = pts[rng.integers(len(pts))]
            feasible = {"whole": None,
                        "ball": FeasibleSet.ball(c, rng.uniform(0.2, 1.5), norm),
                        "box": FeasibleSet.box(c - rng.uniform(0.1, 1.0, d),
                                               c + rng.uniform(0.1, 1.0, d))}[region]
            priced = [np.array([f(p) for p in pts]) for f in costs]
            if feasible is not None:
                for v in priced:
                    v[~np.array([feasible.contains(p, 1e-9) for p in pts])] = math.inf
            # total[i_0, ..., i_t]: the cost of every path through rounds 0..t
            total = w * np.array([norm(x0 - p) for p in pts]) + priced[0]
            moves = np.array([[norm(p - q) for q in pts] for p in pts])
            for v in priced[1:]:
                total = total[..., None] + w * moves + v
            dp = grid_dp_oracle(costs, x0, GridSpec(lo, hi, m), norm=norm,
                                feasible=feasible, refine=0, move_weight=w)
            assert dp.objective == pytest.approx(total.min(), rel=1e-12, abs=0.0)

    def test_zero_span_axis(self):
        # a grid flat along one axis stays on it through the zoom passes
        costs = [make_norm_tracking(np.array([0.3, 0.5]), Norm.l2())] * 3
        coarse = grid_dp_oracle(costs, np.zeros(2), GridSpec([0.0, -1.0], [0.0, 1.0], 5),
                                refine=0)
        dp = grid_dp_oracle(costs, np.zeros(2), GridSpec([0.0, -1.0], [0.0, 1.0], 5))
        assert np.all(dp.trajectory[:, 0] == 0.0)
        assert dp.objective < coarse.objective

    def test_uncertainty_is_that_of_returned_pass(self, monkeypatch):
        # a zoom pass that does not lower the objective is dropped, and so is
        # its finer cell diagonal
        inst = generate_instance(InstanceSpec(d=2, T=3, family="norm_tracking", seed=48))
        coarse = grid_dp_oracle(inst.costs, inst.x0, refine=0)
        once = grid_dp_oracle(inst.costs, inst.x0, refine=1)
        assert once.uncertainty < coarse.uncertainty
        solve, calls = obd.offline._dp_solve, []

        def reject(*args):
            X, obj = solve(*args)
            calls.append(obj)
            return X, obj + (1.0 if len(calls) in rejected else 0.0)

        monkeypatch.setattr(obd.offline, "_dp_solve", reject)
        for rejected, expected in (({2, 3}, coarse), ({3}, once)):
            calls.clear()
            dp = grid_dp_oracle(inst.costs, inst.x0, refine=2)
            assert len(calls) == 3
            assert dp.uncertainty == expected.uncertainty
            np.testing.assert_array_equal(dp.trajectory, expected.trajectory)

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

    def test_transition_buffer_in_chunks(self):
        # a whole p_1 row of windows is 151^3 doubles on a 151 x 151 grid, a
        # 30.1 MB peak; chunks of p_2 rows hold the buffer near 2 MB, same bits
        inst = generate_instance(InstanceSpec(d=2, T=2, family="norm_tracking", seed=48))
        grid = auto_grid(inst.costs, inst.x0, points=151)
        tracemalloc.start()
        try:
            dp = grid_dp_oracle(inst.costs, inst.x0, grid, refine=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert dp.objective.hex() == "0x1.01d1e28c0c43fp+3"  # as with whole rows


def _set_and_boundary(kind, d, rng):
    """A set of ``kind`` in R^d, points on its boundary, a centre the points
    are scaled about, and the scale per unit tol that moves them onto the
    boundary inflated by tol."""
    U = rng.standard_normal((200, d))
    zero = np.zeros(d)
    if kind == "box":
        h = 1.0 + rng.random(d)
        return FeasibleSet.box(-h, h), np.clip(2.0 * U, -h, h), zero, 1.0 / h
    if kind == "simplex":
        W = rng.random((200, d)) + 1e-3
        delta = 0.5 / d
        on = delta + (1.0 - d * delta) * W / W.sum(axis=1, keepdims=True)
        on[::2, 0] = delta  # on the delta face as well
        on[::2, -1] += 1.0 - on[::2].sum(axis=1)
        return FeasibleSet.simplex(d, delta), on, zero, 1.0
    if kind in ("halfspace", "hyperplane"):
        a, b = rng.standard_normal(d), 0.5 + rng.random()
        on = U - ((U @ a - b) / (a @ a))[:, None] * a
        if kind == "halfspace":
            return FeasibleSet.halfspace(a, b), on, zero, 1.0 / b
        return FeasibleSet.hyperplane(a, b), on, zero, (1.0 + b) / b
    if kind == "whole":
        return FeasibleSet.whole_space(d), U, zero, 0.0
    if kind == "mahalanobis":
        M = rng.standard_normal((d, d))
        norm = Norm.mahalanobis(M @ M.T + d * np.eye(d))
    else:
        norm = Norm(kind)
    c, r = rng.standard_normal(d), 0.5 + rng.random()
    ball = FeasibleSet.ball(c, r, norm)
    return ball, c + r * U / norm(U)[:, None], c, 1.0 / r


@pytest.mark.parametrize("kind", ["box", "l2", "mahalanobis", "l1", "linf", "halfspace",
                                  "hyperplane", "simplex", "whole"])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_row_test_matches_contains(kind, tol):
    # each row of a stack gets the same answer as that point alone, for
    # points on each boundary (and on it inflated by tol), and 1e-15 inside
    # and outside it; a ball's norm gives the same bits row by row
    rng = np.random.default_rng(6)
    for d in (1, 2, 5, 10, 32):
        feasible, on, c, per_tol = _set_and_boundary(kind, d, rng)
        pts = np.vstack([c + f * (1.0 + g * tol * per_tol) * (on - c)
                         for f in (1.0, 1.0 - 1e-15, 1.0 + 1e-15) for g in (0.0, 1.0)])
        mask = feasible.contains(pts, tol)
        single = [feasible.contains(x, tol) for x in pts]
        assert all(type(v) is bool for v in single)
        np.testing.assert_array_equal(mask, single)
        assert 0 < mask.sum() < len(pts) or kind == "whole"
        if feasible.kind == "ball":
            norm = feasible.params["norm"]
            assert type(norm(pts[0])) is float
            np.testing.assert_array_equal(norm(pts), [norm(x) for x in pts])
