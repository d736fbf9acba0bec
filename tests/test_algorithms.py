import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obd.algorithms
import obd.projection
from obd.algorithms import (
    Branch, DualConfig, DualOBD, Greedy, OGD, OMD, PrimalConfig, PrimalOBD,
    SetProjectionResponder, StaticPlay, choose_beta, choose_beta_general,
    choose_eta, dual_balance_curve, dual_obd_step, lemma_gamma,
    primal_balance_curve, primal_obd_step,
)
from obd.costs import (
    Instance, InstanceSpec, adversary_step, generate_instance, make_norm_tracking,
    make_quadratic,
)
from obd.geometry import FeasibleSet, Norm, euclidean_map, mahalanobis_map
from obd.harness import run

EMAP = euclidean_map()


def primal_cfg(beta, **kw):
    return PrimalConfig(beta=beta, mirror_map=euclidean_map(), **kw)


def dual_cfg(eta, **kw):
    return DualConfig(eta=eta, mirror_map=euclidean_map(), **kw)


class TestPrimalStep:
    def test_scalar_absolute_value(self):
        # f = |x|, x_prev = 3, beta = 1/2: balance at l = 2, x = 2, move = 1
        f = make_norm_tracking([0.0], Norm.l2())
        rec = primal_obd_step([3.0], f, primal_cfg(0.5))
        assert rec.branch == Branch.BALANCED
        assert rec.x[0] == pytest.approx(2.0, abs=1e-7)
        assert rec.level == pytest.approx(2.0, abs=1e-7)
        assert abs(rec.move - 0.5 * rec.level) <= 1e-8 * max(1.0, rec.level)

    def test_collinear_2d(self):
        f = make_norm_tracking([1.0, 0.0], Norm.l2())
        rec = primal_obd_step([-2.0, 0.0], f, primal_cfg(0.5))
        np.testing.assert_allclose(rec.x, [-1.0, 0.0], atol=1e-7)
        assert rec.level == pytest.approx(2.0, abs=1e-7)

    def test_move_to_minimizer_branch(self):
        # positive minimum value makes the closeness test meaningful
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        f = make_quadratic(A, np.array([2.0, 2.0, 0.0]))
        assert f.min_value > 0.5
        x_prev = f.minimizer + 1e-3
        rec = primal_obd_step(x_prev, f, primal_cfg(0.5))
        assert rec.branch == Branch.MOVE_TO_MINIMIZER
        np.testing.assert_array_equal(rec.x, f.minimizer)

    def test_tie_returns_previous_point(self):
        f = make_norm_tracking([0.5, 0.5], Norm.l2())
        rec = primal_obd_step([0.5, 0.5], f, primal_cfg(0.7))
        assert rec.move == 0.0
        np.testing.assert_array_equal(rec.x, [0.5, 0.5])

    def test_balance_residual_tight(self):
        rng = np.random.default_rng(30)
        cfg = primal_cfg(0.75)
        for _ in range(10):
            A = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
            f = make_quadratic(A, rng.standard_normal(3) * 2)
            rec = primal_obd_step(f.minimizer + rng.standard_normal(3) * 2, f, cfg)
            if rec.branch == Branch.BALANCED:
                assert rec.residual <= 1e-8 * max(1.0, rec.level)

    def test_movement_bounded_by_beta_hit(self):
        spec = InstanceSpec(d=3, T=30, family="norm_tracking", seed=31,
                            tracking_scale=2.0)
        inst = generate_instance(spec)
        beta = choose_beta(2.0).beta
        report = run(PrimalOBD(primal_cfg(beta)), inst, comparators=())
        for s in report.steps:
            assert s.move <= beta * s.hit + 1e-7

    def test_indicator_goes_to_set_projection(self):
        f = adversary_step(np.zeros(2), 1)
        rec = primal_obd_step(np.zeros(2), f, primal_cfg(0.5))
        assert rec.branch == Branch.SET_PROJECTION
        assert rec.move == pytest.approx(1.0)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            primal_cfg(1.0)
        with pytest.raises(ValueError):
            primal_cfg(0.0)

    def test_record_dict_reports_how_step_was_found(self):
        f = make_quadratic(np.eye(2), np.array([1.0, -1.0]))
        rec = primal_obd_step([4.0, 3.0], f, primal_cfg(0.5))
        out = rec.to_dict()
        assert out["residual"] == rec.residual <= 1e-8 * max(1.0, rec.level)
        assert out["converged"] is True
        assert out["iterations"] == rec.iterations > 0


def _random_quadratic(d, seed, spread):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    f = make_quadratic(A, rng.standard_normal(d))
    return f, f.minimizer + spread * rng.standard_normal(d)


class TestBalanceRoot:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           beta=st.floats(0.01, 0.99), spread=st.floats(0.1, 10.0))
    def test_primal_root_balances_inside_sweep_cell(self, d, seed, beta, spread):
        f, x_prev = _random_quadratic(d, seed, spread)
        cfg = primal_cfg(beta)
        rec = primal_obd_step(x_prev, f, cfg)
        if rec.branch != Branch.BALANCED:
            return
        assert rec.converged
        assert rec.residual <= 1e-10 * max(1.0, rec.level)
        ls, vals = primal_balance_curve(x_prev, f, cfg, num=100)
        k = int(np.nonzero(vals > 0.0)[0][-1])  # last level that moves too far
        assert ls[k] <= rec.level <= ls[k + 1]

    def test_primal_work_count(self, monkeypatch):
        # a closed-form step evaluates its path's balance sides once per eta
        # tried, and builds x once, at the chosen eta
        sublevel_calls, evals, builds = [], [], []
        sides, build = obd.projection._Path.sides, obd.projection._Path._build
        monkeypatch.setattr(obd.projection._Path, "sides",
                            lambda path, eta: evals.append(eta) or sides(path, eta))
        monkeypatch.setattr(obd.projection._Path, "_build",
                            lambda path, eta: builds.append(eta) or build(path, eta))
        monkeypatch.setattr(obd.algorithms, "project_sublevel",
                            lambda *a, **k: sublevel_calls.append(a))
        for seed in range(10):
            f, x_prev = _random_quadratic(8, seed, 3.0)
            evals.clear()
            builds.clear()
            rec = primal_obd_step(x_prev, f, primal_cfg(0.5))
            assert rec.branch == Branch.BALANCED
            assert rec.iterations == len(evals) <= 100
            assert builds == [rec.eta_t]
        assert sublevel_calls == []


    def test_pinned_work_on_quad_sweep_steps(self, monkeypatch):
        # quad_sweep's shape: a generated d = 32 quadratic family, beta 1/2,
        # from x0 = 0.  The eigenbasis is the generator's (no eigh), and each
        # balanced step takes 6 evaluations: eta = 0, then Newton's steps in
        # log eta to machine precision
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        inst = generate_instance(InstanceSpec(d=32, T=6, family="quadratic", seed=40))
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        x = inst.x0
        for t, f in enumerate(inst.costs, 1):
            rec = primal_obd_step(x, f, primal_cfg(0.5), t=t)
            assert rec.branch == Branch.BALANCED and rec.converged
            assert rec.iterations == 6
            assert rec.residual <= 8.0 * np.finfo(float).eps * rec.level
            x = rec.x

    def test_one_newton_step_on_l2_tracking(self):
        # below ||u||/s the l2 tracking gap is linear in eta, so the Newton
        # step from eta = 0 lands on the root: two evaluations
        rng = np.random.default_rng(41)
        for _ in range(20):
            f = make_norm_tracking(rng.uniform(-5.0, 5.0, 3), Norm.l2(),
                                   scale=rng.uniform(0.5, 4.0))
            rec = primal_obd_step(np.zeros(3), f, primal_cfg(rng.uniform(0.5, 0.9)))
            assert rec.branch == Branch.BALANCED and rec.converged
            assert rec.iterations == 2


class TestDualStep:
    def test_scalar_balance(self):
        # f = x^2/2 via A = sqrt(1/2): |x - 4| = eta * |x| crossings
        f = make_quadratic(np.array([[math.sqrt(0.5)]]), [0.0])
        rec = dual_obd_step([4.0], f, dual_cfg(1.0))
        assert rec.x[0] == pytest.approx(2.0, abs=1e-6)
        rec3 = dual_obd_step([4.0], f, dual_cfg(3.0))
        assert rec3.x[0] == pytest.approx(1.0, abs=1e-6)
        # stationarity with the recovered multiplier: x = x_prev - eta*f'(x)
        assert rec3.x[0] == pytest.approx(4.0 - rec3.eta_t * rec3.x[0], abs=1e-6)

    def test_already_at_minimum_value(self):
        f = make_quadratic(np.eye(2), np.array([1.0, -1.0]))
        rec = dual_obd_step(f.minimizer, f, dual_cfg(2.0))
        assert rec.move == 0.0
        np.testing.assert_array_equal(rec.x, f.minimizer)

    def test_nonsmooth_rejected(self):
        f = make_norm_tracking([0.0], Norm.l2())
        with pytest.raises(ValueError):
            dual_obd_step([3.0], f, dual_cfg(1.0))

    def test_balance_residual(self):
        rng = np.random.default_rng(32)
        cfg = dual_cfg(0.8)
        for _ in range(10):
            A = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
            f = make_quadratic(A, rng.standard_normal(3) * 2)
            x_prev = f.minimizer + rng.standard_normal(3)
            rec = dual_obd_step(x_prev, f, cfg)
            lhs = np.linalg.norm(rec.x - x_prev)
            rhs = cfg.eta * np.linalg.norm(f.grad(rec.x))
            assert abs(lhs - rhs) / max(lhs, rhs, 1e-30) <= 1e-6

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            dual_cfg(0.0)


class TestBalanceCurves:
    def test_primal_sweep_single_crossing(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        f = make_quadratic(A, rng.standard_normal(2))
        x_prev = f.minimizer + np.array([1.5, -0.7])
        cfg = primal_cfg(0.6)
        ls, vals = primal_balance_curve(x_prev, f, cfg, num=100)
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes == 1
        # the bisection lands inside the sign-change cell: no crossing skipped
        rec = primal_obd_step(x_prev, f, cfg)
        k = int(np.nonzero(signs[:-1] != signs[1:])[0][0])
        assert ls[k] <= rec.level <= ls[k + 1]
        # movement is non-increasing in the level (projection monotonicity)
        moves = vals + cfg.beta * ls
        assert all(a >= b - 1e-9 for a, b in zip(moves, moves[1:]))

    def test_dual_sweep_crossing_contains_result(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        f = make_quadratic(A, rng.standard_normal(2))
        x_prev = f.minimizer + np.array([1.0, 0.8])
        cfg = dual_cfg(1.2)
        ls, vals = dual_balance_curve(x_prev, f, cfg, num=100)
        signs = np.sign(vals)
        changes = np.nonzero(signs[:-1] != signs[1:])[0]
        assert len(changes) >= 1
        rec = dual_obd_step(x_prev, f, cfg)
        assert any(ls[k] <= rec.level <= ls[k + 1] for k in changes)


class TestParameterChoices:
    def test_choose_beta_exact(self):
        c = choose_beta(2.0)
        assert c.beta == pytest.approx(0.75)
        assert c.competitive_ratio == pytest.approx(7.0)

    def test_choose_beta_alpha8(self):
        c = choose_beta(8.0)
        assert c.beta == pytest.approx(0.6)
        assert c.competitive_ratio == pytest.approx(4.0)
        assert c.gamma > 0

    def test_choose_beta_limit(self):
        c = choose_beta(1e9)
        assert c.beta == pytest.approx(0.5, abs=1e-8)
        assert c.competitive_ratio == pytest.approx(3.0, abs=1e-7)

    def test_choose_beta_rejects(self):
        with pytest.raises(ValueError):
            choose_beta(0.0)

    def test_choose_beta_general(self):
        c = choose_beta_general(4.0, 2.0)
        assert c.beta == pytest.approx(0.75)
        assert c.gamma > 0
        with pytest.raises(ValueError):
            choose_beta_general(1.0, 2.0)

    def test_choose_beta_general_kappa_one(self):
        c = choose_beta_general(3.0, 1.0)
        assert 0 < c.beta < 1
        assert c.gamma == pytest.approx(lemma_gamma(3.0, c.beta, 1.0))

    def test_choose_eta_exact(self):
        e = choose_eta(1.0, 1.0, 1.0, 8)
        assert e.eta == pytest.approx(0.5)
        assert e.regret_bound == pytest.approx(4.0)

    def test_choose_eta_optimizes_two_term_bound(self):
        G, L, m, T = 2.0, 3.0, 0.5, 40
        e = choose_eta(G, L, m, T)
        bound_at = lambda eta: G * L / eta + T * eta / (2 * m)
        assert e.regret_bound == pytest.approx(bound_at(e.eta))
        for eta in (0.5 * e.eta, 2.0 * e.eta):
            assert bound_at(eta) >= e.regret_bound

    def test_choose_eta_scaling(self):
        base = choose_eta(1.0, 1.0, 1.0, 10)
        quad = choose_eta(1.0, 1.0, 1.0, 40)
        assert quad.eta == pytest.approx(base.eta / 2)
        assert quad.regret_bound == pytest.approx(2 * base.regret_bound)

    def test_choose_eta_rejects(self):
        with pytest.raises(ValueError):
            choose_eta(1.0, -1.0, 1.0, 10)


class TestBaselinesAndMemory:
    def test_move_recorded_in_the_switching_norm(self):
        # the map's norm and the switching norm are both Mahalanobis, with
        # different Q: each recorded move is in the switching norm
        spec = InstanceSpec(d=2, T=3, family="quadratic", seed=1)
        base = generate_instance(spec)
        sw = Norm.mahalanobis(np.diag([9.0, 1.0]))
        inst = Instance(spec, base.costs, base.feasible, sw, base.x0, base.alpha)
        cfg = PrimalConfig(0.5, mahalanobis_map(np.diag([1.0, 4.0])))
        report = run(PrimalOBD(cfg), inst, comparators=())
        X = [inst.x0] + [s.x for s in report.steps]
        moves = [sw(b - a) for a, b in zip(X[:-1], X[1:])]
        assert [s.move for s in report.steps] == moves
        assert report.total_move == pytest.approx(14.3820, abs=1e-4)

    def test_greedy_tracks_minimizers(self):
        spec = InstanceSpec(d=2, T=10, family="norm_tracking", seed=35)
        inst = generate_instance(spec)
        report = run(Greedy(), inst, comparators=())
        assert report.total_hit == pytest.approx(0.0, abs=1e-12)
        moves = sum(np.linalg.norm(a.minimizer - b.minimizer)
                    for a, b in zip(inst.costs[1:], inst.costs[:-1]))
        first = np.linalg.norm(inst.costs[0].minimizer - inst.x0)
        assert report.total_move == pytest.approx(first + moves)

    def test_ogd_zero_gradient_stays(self):
        class Flat:
            smooth = True
            min_value = 0.0
            alpha = None
            is_indicator = False
            minimizer = np.zeros(2)

            def __call__(self, x):
                return 0.0

            def grad(self, x):
                return np.zeros(2)

        spec = InstanceSpec(d=2, T=3, family="quadratic", seed=36)
        inst = generate_instance(spec)
        inst.costs = [Flat() for _ in range(3)]
        report = run(OGD(c=1.0), inst, comparators=())
        assert report.total_move == 0.0

    def test_omd_euclidean_matches_ogd(self):
        for kind in ("whole", "ball", "box"):
            spec = InstanceSpec(d=3, T=20, family="quadratic", seed=37, diameter=4.0,
                                feasible_kind=kind, feasible_radius=2.0)
            inst = generate_instance(spec)
            r1 = run(OGD(c=0.7), inst, comparators=())
            r2 = run(OMD(euclidean_map(), c=0.7), inst, comparators=())
            assert r1.algo == "ogd" and r2.algo == "omd"
            assert len(r1.steps) == len(r2.steps) == 20
            for a, b in zip(r1.steps, r2.steps):
                np.testing.assert_array_equal(a.x, b.x)
                assert (a.hit, a.move) == (b.hit, b.move)
            if kind != "whole":  # some step projects onto the boundary
                assert any(not inst.feasible.contains(s.x, tol=-1e-9) for s in r2.steps)

    def test_static_play_stays(self):
        spec = InstanceSpec(d=2, T=8, family="norm_tracking", seed=38)
        inst = generate_instance(spec)
        report = run(StaticPlay(), inst, comparators=())
        first = report.steps[0].x
        for s in report.steps[1:]:
            np.testing.assert_array_equal(s.x, first)
            assert s.move == 0.0

    def test_memoryless_replay_is_bitwise(self):
        spec = InstanceSpec(d=3, T=12, family="quadratic", seed=39)
        inst = generate_instance(spec)
        cfg = primal_cfg(0.5)
        full = run(PrimalOBD(cfg), inst, comparators=())
        # replay the suffix from the stored round-5 point
        x = full.steps[4].x
        for t in range(6, inst.T + 1):
            rec = primal_obd_step(x, inst.costs[t - 1], cfg, t=t)
            np.testing.assert_array_equal(rec.x, full.steps[t - 1].x)
            x = rec.x

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(["quadratic", "norm_tracking"]), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), ball=st.booleans(), start=st.integers(1, 7),
           weight=st.floats(0.05, 0.95))
    def test_suffix_replay_is_bitwise(self, family, d, seed, ball, start, weight):
        # every step record of a suffix replayed from a stored point, on the
        # whole space and in a ball, primal (and dual on smooth costs)
        spec = InstanceSpec(d=d, T=8, family=family, seed=seed, diameter=10.0,
                            feasible_kind="ball" if ball else "whole",
                            feasible_radius=5.0 if ball else 0.0)
        inst = generate_instance(spec)
        steppers = [(PrimalOBD, primal_obd_step, primal_cfg(weight, feasible=inst.feasible))]
        if family == "quadratic":
            steppers.append((DualOBD, dual_obd_step,
                             dual_cfg(2.0 * weight, feasible=inst.feasible)))
        for algo, step, cfg in steppers:
            full = run(algo(cfg), inst, comparators=())
            x = full.steps[start - 1].x
            for t in range(start + 1, inst.T + 1):
                rec = step(x, inst.costs[t - 1], cfg, t=t)
                assert rec.to_dict() == full.steps[t - 1].to_dict()
                x = rec.x

    def test_projection_responder_requires_indicators(self):
        spec = InstanceSpec(d=2, T=2, family="quadratic", seed=40)
        inst = generate_instance(spec)
        with pytest.raises(ValueError):
            run(SetProjectionResponder(euclidean_map()), inst, comparators=())


def _ball_detour():
    """One round whose x(eta) path leaves the unit ball: from x_prev =
    (-0.9, 0) toward the minimizer (0, 0.9), the stiff second coordinate
    arrives first, so the balanced point sits on the sphere and comes from
    the Newton solve of x(eta)."""
    f = make_quadratic(np.diag([1.0, 10.0]), np.array([0.0, 9.0]))
    spec = InstanceSpec(d=2, T=1, family="quadratic", seed=0, diameter=2.0,
                        feasible_kind="ball", feasible_radius=1.0)
    return Instance(spec, [f], FeasibleSet.ball(np.zeros(2), 1.0), Norm.l2(),
                    np.array([-0.9, 0.0]), None)


class TestSolveConvergence:
    """A step is converged only if the x(eta) solve behind its point is."""

    @pytest.mark.parametrize("make", [lambda: PrimalOBD(primal_cfg(0.5)),
                                      lambda: DualOBD(dual_cfg(0.1))],
                             ids=["primal", "dual"])
    def test_unconverged_solve_marks_the_step(self, monkeypatch, make):
        inst = _ball_detour()
        clean = run(make(), inst, comparators=())
        assert clean.steps[0].converged and clean.unverified() == []
        assert abs(np.linalg.norm(clean.steps[0].x) - 1.0) <= 1e-8

        solve = obd.projection._solve

        def unconverged(*args, **kwargs):
            X, steps, _ = solve(*args, **kwargs)
            return X, steps, False

        monkeypatch.setattr(obd.projection, "_solve", unconverged)
        report = run(make(), inst, comparators=())
        step = report.steps[0]
        assert step.branch == Branch.BALANCED
        np.testing.assert_array_equal(step.x, clean.steps[0].x)
        assert step.converged is False
        assert report.unverified() == ["step:1"]

    def test_unconverged_solve_marks_the_projection(self, monkeypatch):
        inst = _ball_detour()
        f, x_prev = inst.costs[0], inst.x0
        level = 2.0  # its sublevel set meets the ball only near the sphere
        clean = obd.algorithms.project_sublevel(EMAP, f, level, x_prev, inst.feasible)
        assert clean.converged and abs(np.linalg.norm(clean.x) - 1.0) <= 1e-8
        solve = obd.projection._solve
        monkeypatch.setattr(obd.projection, "_solve",
                            lambda *a, **k: (*solve(*a, **k)[:2], False))
        res = obd.algorithms.project_sublevel(EMAP, f, level, x_prev, inst.feasible)
        np.testing.assert_array_equal(res.x, clean.x)
        assert res.converged is False
        assert res.note == "x(eta) solve did not converge"
