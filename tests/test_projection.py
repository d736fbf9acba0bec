import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import obd.projection
from obd.costs import (
    InstanceSpec, generate_instance, make_composite, make_norm_tracking,
    make_quadratic,
)
from obd.geometry import (
    FeasibleSet, Norm, bregman_divergence, entropy_map, euclidean_map,
    mahalanobis_map,
)
from obd.projection import (
    InfeasibleLevel, NonConvergence, _brent, project_set, project_sublevel,
    solve_regularized,
)

EMAP = euclidean_map()


def golden_section(f, lo, hi, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    for _ in range(iters):
        c, d = b - phi * (b - a), a + phi * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


UNIT_BALL = FeasibleSet.ball(np.zeros(2), 1.0)


def _circle_minimizer(obj, n=20000):
    """Minimizer of obj over the unit circle: a grid in the angle, then
    golden section in the best cell."""
    point = lambda t: np.array([math.cos(t), math.sin(t)])
    ts = np.linspace(-math.pi, math.pi, n)
    k = int(np.argmin([obj(point(t)) for t in ts]))
    return point(golden_section(lambda t: obj(point(t)), ts[max(k - 1, 0)],
                                ts[min(k + 1, n - 1)]))


class TestSolveRegularized:
    def test_zero_eta_projects_only(self):
        f = make_quadratic(np.eye(2), np.ones(2))
        x = solve_regularized(EMAP, f, 0.0, [0.3, -0.2],
                              FeasibleSet.whole_space(2))
        np.testing.assert_allclose(x, [0.3, -0.2])

    def test_scalar_quadratic(self):
        # argmin 0.5*(x-3)^2 + x^2 = 1, cross-checked by golden section
        f = make_quadratic(np.eye(1), np.zeros(1))
        x = solve_regularized(EMAP, f, 1.0, [3.0], FeasibleSet.whole_space(1))
        assert x[0] == pytest.approx(1.0, abs=1e-10)
        ref = golden_section(lambda u: 0.5 * (u - 3) ** 2 + u * u, -5, 5)
        assert x[0] == pytest.approx(ref, abs=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(["quadratic", "l2_tracking"]),
           kind=st.sampled_from(["whole", "ball", "box"]))
    def test_level_monotone_in_eta(self, d, seed, family, kind):
        # _multiplier_root relies on f(x(eta)) falling and ||x(eta) - x_prev||
        # rising in eta; the sets make some solves leave the closed forms for
        # the Newton path
        rng = np.random.default_rng(seed)
        if family == "quadratic":
            f = make_quadratic(rng.standard_normal((d, d)) + 2 * np.eye(d),
                               2 * rng.standard_normal(d))
        else:
            f = make_norm_tracking(2 * rng.standard_normal(d), Norm.l2(),
                                   scale=rng.uniform(0.5, 3.0))
        feasible = {"whole": FeasibleSet.whole_space(d),
                    "ball": FeasibleSet.ball(np.zeros(d), 1.5),
                    "box": FeasibleSet.box(-np.ones(d), np.ones(d))}[kind]
        x_prev = 3 * rng.standard_normal(d)
        xs = [solve_regularized(EMAP, f, eta, x_prev, feasible)
              for eta in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)]
        vals = [f(x) for x in xs]
        dists = [float(np.linalg.norm(x - x_prev)) for x in xs]
        assert all(b <= a + 1e-9 * vals[0] for a, b in zip(vals, vals[1:]))
        assert all(b >= a - 1e-9 * dists[-1] for a, b in zip(dists, dists[1:]))

    def test_mahalanobis_tracking_stationarity(self):
        # x - x_prev + eta * s * Q(x - v) / ||x - v||_Q = 0 away from v, and
        # x = v once the pull is strong enough
        Q = np.array([[4.0, 1.0], [1.0, 2.0]])
        v = np.array([1.0, -1.0])
        f = make_norm_tracking(v, Norm.mahalanobis(Q), scale=1.5)
        x_prev = np.array([3.0, 2.0])
        for eta in (0.1, 0.5, 1.0):
            x = solve_regularized(EMAP, f, eta, x_prev, FeasibleSet.whole_space(2))
            u = x - v
            stat = x - x_prev + eta * 1.5 * (Q @ u) / math.sqrt(u @ Q @ u)
            assert np.linalg.norm(stat) <= 1e-9
        x = solve_regularized(EMAP, f, 10.0, x_prev, FeasibleSet.whole_space(2))
        np.testing.assert_allclose(x, v, atol=1e-12)

    def test_composite_newton_is_stationary(self):
        # an l2 tracking norm plus a quadratic, away from the kink: the Newton
        # solve must meet stationarity, x - x_prev + eta * grad f(x) = 0
        inst = generate_instance(InstanceSpec(d=2, T=10, family="composite", seed=0))
        f, eta = inst.costs[0], 0.234
        x = solve_regularized(EMAP, f, eta, inst.x0, FeasibleSet.whole_space(2))
        assert np.linalg.norm(x - f.g.minimizer) > 1e-3
        assert np.linalg.norm(x - inst.x0 + eta * f.grad(x)) <= 1e-9

    def test_tracking_on_ball_matches_circle_reference(self):
        # the prox lands outside the unit ball, so the minimum lies on the circle
        x_prev, eta = np.array([0.0, 0.8]), 3.0
        f = make_norm_tracking([3.0, 0.0], Norm.l2())
        obj = lambda y: 0.5 * (y - x_prev) @ (y - x_prev) + eta * f(y)
        x = solve_regularized(EMAP, f, eta, x_prev, UNIT_BALL)
        ref = _circle_minimizer(obj)
        assert UNIT_BALL.contains(x, tol=0.0)
        assert obj(x) <= obj(ref) * (1.0 + 1e-8)
        assert np.linalg.norm(x - ref) <= 1e-6
        np.testing.assert_allclose(x, [0.98421, 0.17703], atol=1e-5)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 3.0])
    def test_composite_on_ball_matches_circle_reference(self, eta):
        v = np.array([2.0, 1.0])
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        f = make_composite(make_norm_tracking(v, Norm.l2()), make_quadratic(A, A @ v))
        x_prev = np.array([0.0, 0.5])
        obj = lambda y: 0.5 * (y - x_prev) @ (y - x_prev) + eta * f(y)
        free = solve_regularized(EMAP, f, eta, x_prev, FeasibleSet.whole_space(2))
        assert np.linalg.norm(free) > 1.5
        x = solve_regularized(EMAP, f, eta, x_prev, UNIT_BALL)
        ref = _circle_minimizer(obj)
        assert UNIT_BALL.contains(x, tol=0.0)
        assert obj(x) <= obj(ref) * (1.0 + 1e-8)
        assert np.linalg.norm(x - ref) <= 1e-6

    def test_mahalanobis_map_tracking_stationarity(self):
        # Q(x - x_prev) + eta * s * (x - v) / ||x - v|| = 0 away from v
        Q = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        v = np.array([1.0, -1.0, 0.5])
        f = make_norm_tracking(v, Norm.l2(), scale=1.5)
        x_prev = np.array([3.0, 2.0, -1.0])
        for eta in (0.1, 0.5, 1.0, 2.0):
            x = solve_regularized(mahalanobis_map(Q), f, eta, x_prev,
                                  FeasibleSet.whole_space(3))
            u = x - v
            assert np.linalg.norm(u) > 1e-3
            stat = Q @ (x - x_prev) + eta * 1.5 * u / np.linalg.norm(u)
            assert np.linalg.norm(stat) <= 1e-9

    def test_pairs_without_a_solver_rejected(self):
        f = make_norm_tracking([0.25, 0.25, 0.5], Norm.l2())
        with pytest.raises(ValueError, match="entropy"):
            solve_regularized(entropy_map(0.01), f, 1.0, np.full(3, 1.0 / 3.0),
                              FeasibleSet.simplex(3, 0.01))
        q = make_quadratic(np.eye(2), [5.0, 5.0])
        with pytest.raises(ValueError, match="simplex"):
            solve_regularized(EMAP, q, 1.0, [0.5, 0.5], FeasibleSet.simplex(2, 0.01))

    def test_entropy_delta_bound_raises(self):
        # the quadratic pulls the last coordinate to 0, below delta = 0.01
        f = make_quadratic(np.eye(3), [0.7, 0.3, 0.0])
        for eta in (200.0, 1000.0):
            with pytest.raises(NonConvergence, match="delta"):
                solve_regularized(entropy_map(0.01), f, eta, np.array([0.5, 0.3, 0.2]),
                                  FeasibleSet.simplex(3, 0.01))

    def test_respects_feasible_set(self):
        f = make_quadratic(np.eye(2), np.array([2.0, 2.0]))
        box = FeasibleSet.box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        x = solve_regularized(EMAP, f, 50.0, np.zeros(2), box)
        assert box.contains(x, tol=1e-9)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)


class TestProjectSet:
    def test_hyperplane_from_origin(self):
        s = FeasibleSet.hyperplane(np.array([1.0, 0.0, 0.0]), -1.0)
        p = project_set(EMAP, s, np.zeros(3))
        np.testing.assert_allclose(p, [-1.0, 0.0, 0.0])
        assert np.linalg.norm(p) == 1.0

    def test_inside_unchanged(self):
        ball = FeasibleSet.ball(np.zeros(2), 5.0)
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(project_set(EMAP, ball, x), x)

    def test_simplex_projection_against_sampling(self):
        s = FeasibleSet.simplex(3, 0.01)
        x = np.array([0.9, 0.2, -0.1])
        p = project_set(EMAP, s, x)
        assert s.contains(p, tol=1e-9)
        assert p.min() >= 0.01 - 1e-12
        # grid over the simplex at ~1e-3 resolution cannot beat the projection
        best = np.inf
        for a in np.arange(0.01, 0.99, 1e-3):
            for b in np.arange(0.01, 1.0 - a - 0.01 + 1e-12, 4e-3):
                c = 1.0 - a - b
                if c < 0.01:
                    continue
                d2 = (a - 0.9) ** 2 + (b - 0.2) ** 2 + (c + 0.1) ** 2
                best = min(best, d2)
        assert float((p - x) @ (p - x)) <= best + 1e-7

    def test_mahalanobis_affine(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        mmap = mahalanobis_map(Q)
        s = FeasibleSet.hyperplane(np.array([1.0, 1.0]), 1.0)
        x = np.array([2.0, 2.0])
        p = project_set(mmap, s, x)
        assert s.contains(p, tol=1e-9)
        # optimality among sampled feasible points in the Q geometry
        rng = np.random.default_rng(21)
        dp = bregman_divergence(mmap, p, x)
        for _ in range(500):
            tvec = rng.standard_normal() * np.array([1.0, -1.0])
            y = p + tvec
            assert bregman_divergence(mmap, y, x) >= dp - 1e-10

    def test_entropy_simplex_scaled_renormalization(self):
        ent = entropy_map(0.01)
        s = FeasibleSet.simplex(4, 0.01)
        y = np.array([0.4, 0.3, 0.2, 0.1]) * 2.3
        p = project_set(ent, s, y)
        assert s.contains(p, tol=1e-10)
        np.testing.assert_allclose(p, y / y.sum(), atol=1e-12)
        # clamped case: tiny coordinate pinned at delta
        y2 = np.array([1.0, 1.0, 1.0, 1e-6])
        p2 = project_set(ent, s, y2)
        assert p2[3] == pytest.approx(0.01, abs=1e-12)
        assert p2.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_closed_form_rejected(self):
        # a Mahalanobis map on an l2 ball has no closed-form projection
        mmap = mahalanobis_map(np.array([[2.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="l2 ball"):
            project_set(mmap, UNIT_BALL, np.array([2.0, 1.0]))

    def test_l1_and_linf_balls(self):
        b1 = FeasibleSet.ball(np.zeros(3), 1.0, Norm.l1())
        p1 = project_set(EMAP, b1, np.array([2.0, 0.5, -0.5]))
        assert np.abs(p1).sum() == pytest.approx(1.0, abs=1e-9)
        binf = FeasibleSet.ball(np.zeros(3), 1.0, Norm.linf())
        pinf = project_set(EMAP, binf, np.array([2.0, 0.5, -3.0]))
        np.testing.assert_allclose(pinf, [1.0, 0.5, -1.0])


class TestBrentProjections:
    """The two projections whose scalar is a Brent root, checked against their
    optimality conditions."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
           log_cond=st.floats(0.0, 4.0), scale=st.floats(0.05, 5.0))
    @example(seed=0, d=6, log_cond=2.0, scale=1.0)  # on the boundary, to rounding
    @example(seed=0, d=3, log_cond=1.0, scale=1.0)
    def test_ellipsoid(self, seed, d, log_cond, scale):
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Q = (V * np.geomspace(1.0, 10.0 ** log_cond, d)) @ V.T
        c, r = rng.standard_normal(d), 0.5 + 2.0 * rng.random()
        u = rng.standard_normal(d)
        x = c + (scale * r / math.sqrt(float(u @ (Q @ u)))) * u
        y = obd.projection._ellipsoid_project(x, c, Q, r)
        if float((x - c) @ (Q @ (x - c))) <= r * r:
            np.testing.assert_array_equal(y, x)
            return
        assert abs(math.sqrt(float((y - c) @ (Q @ (y - c)))) - r) <= 1e-11 * r
        # KKT: x - y = mu Q (y - c) with mu >= 0, to 1e-10 of ||x - c||, which
        # bounds ||x - y|| since c is in the set
        g, step = Q @ (y - c), x - y
        mu = float(step @ g) / float(g @ g)
        tol = 1e-10 * np.linalg.norm(x - c)
        assert mu * np.linalg.norm(g) >= -tol
        assert np.linalg.norm(step - mu * g) <= tol

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
           share=st.floats(0.0, 0.99), spread=st.floats(0.0, 6.0))
    def test_entropy_simplex(self, seed, d, share, spread):
        rng = np.random.default_rng(seed)
        delta = max(share, 1e-6) / d
        x = rng.random(d) * 10.0 ** rng.uniform(-spread, spread, d) + 1e-300
        y = obd.projection._entropy_simplex_project(x, delta)
        assert abs(float(y.sum()) - 1.0) <= 1e-15
        assert y.min() >= delta - 1e-15

    def test_no_sign_change_at_zero(self):
        # rounding can leave the scalar's function without a sign change on
        # [0, hi]: just outside an ellipsoid, its eigenbasis form can read the
        # point as inside, and 93 copies of the delta just below 1/93 sum
        # above 1; both projections then take the scalar 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            M = rng.standard_normal((d, d))
            Q, z = M @ M.T + 0.1 * np.eye(d), rng.standard_normal(d)
            r = np.nextafter(math.sqrt(float(z @ (Q @ z))), 0.0)
            y = obd.projection._ellipsoid_project(z, np.zeros(d), Q, r)
            np.testing.assert_allclose(y, z, rtol=0.0, atol=1e-12 * np.abs(z).max())
        delta = np.nextafter(1.0 / 93, 0.0)
        y = obd.projection._entropy_simplex_project(rng.random(93) + 0.5, delta)
        assert abs(float(y.sum()) - 1.0) <= 1e-15 and y.min() >= delta - 1e-15


class TestProjectSublevel:
    def test_scalar_parabola(self):
        f = make_quadratic(np.eye(1), np.zeros(1))
        res = project_sublevel(EMAP, f, 1.0, [3.0])
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)
        assert res.eta == pytest.approx(1.0, abs=1e-8)
        assert res.active

    def test_inactive_level(self):
        f = make_quadratic(np.eye(1), np.zeros(1))
        res = project_sublevel(EMAP, f, 10.0, [2.0])
        assert not res.active and res.eta == 0.0
        assert res.x[0] == 2.0

    def test_norm_ball_level_set(self):
        f = make_norm_tracking(np.zeros(2), Norm.l2())
        res = project_sublevel(EMAP, f, 1.0, [3.0, 4.0])
        np.testing.assert_allclose(res.x, [0.6, 0.8], atol=1e-12)
        assert np.linalg.norm(res.x - [3.0, 4.0]) == pytest.approx(4.0)
        assert res.eta == pytest.approx(4.0)
        # optimality against points sampled inside the level set
        rng = np.random.default_rng(22)
        for _ in range(2000):
            u = rng.standard_normal(2)
            y = u / np.linalg.norm(u) * rng.random()
            assert np.sum((y - [3.0, 4.0]) ** 2) >= 16.0 - 1e-9

    def test_infeasible_level(self):
        f = make_quadratic(np.eye(1), np.zeros(1))
        with pytest.raises(InfeasibleLevel):
            project_sublevel(EMAP, f, -0.5, [3.0])

    def test_unreachable_level_raises(self):
        # the box keeps f at 32 or more, whatever the multiplier
        f = make_quadratic(np.eye(2), [5.0, 5.0])
        box = FeasibleSet.box([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(NonConvergence):
            project_sublevel(EMAP, f, 1.0, np.zeros(2), box)

    def test_indicator_rejected(self):
        from obd.costs import adversary_step
        f = adversary_step(np.zeros(2), 1)
        with pytest.raises(ValueError):
            project_sublevel(EMAP, f, 0.0, np.zeros(2))

    def test_pythagorean_inequality(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            A = rng.standard_normal((d, d)) + (1 + trial % 3) * np.eye(d)
            f = make_quadratic(A, rng.standard_normal(d))
            x_prev = f.minimizer + rng.standard_normal(d)
            l = f.min_value + 0.4 * (f(x_prev) - f.min_value)
            res = project_sublevel(EMAP, f, l, x_prev)
            w, W = np.linalg.eigh(f.AtA)
            for _ in range(100):
                u = rng.standard_normal(d)
                u *= rng.random() / np.linalg.norm(u)
                y = f.minimizer + W @ (u * np.sqrt(max(l - f.min_value, 0) / np.maximum(w, 1e-12)))
                assert f(y) <= l + 1e-8
                lhs = (bregman_divergence(EMAP, res.x, x_prev)
                       + bregman_divergence(EMAP, y, res.x))
                assert lhs <= bregman_divergence(EMAP, y, x_prev) + 1e-7

    def test_kkt_and_idempotence(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            A = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
            f = make_quadratic(A, rng.standard_normal(3))
            x_prev = f.minimizer + rng.standard_normal(3)
            l = f.min_value + 0.5 * (f(x_prev) - f.min_value)
            res = project_sublevel(EMAP, f, l, x_prev)
            # stationarity, complementarity, idempotence
            stat = res.x - x_prev + res.eta * f.grad(res.x)
            assert np.linalg.norm(stat) <= 1e-6
            assert abs(res.eta * (f(res.x) - l)) <= 1e-6
            again = project_sublevel(EMAP, f, l, res.x)
            assert np.linalg.norm(again.x - res.x) <= 1e-7

    def test_composite_generic_path(self):
        g = make_norm_tracking(np.zeros(2), Norm.l1())
        h = make_quadratic(np.eye(2), np.zeros(2))
        f = make_composite(g, h)
        x_prev = np.array([2.0, 1.0])
        l = 0.4 * f(x_prev)
        res = project_sublevel(EMAP, f, l, x_prev)
        assert abs(f(res.x) - l) <= 1e-8 * max(1.0, l)
        # optimal among sampled level-set points
        rng = np.random.default_rng(25)
        d2 = float((res.x - x_prev) @ (res.x - x_prev))
        hits = 0
        for _ in range(4000):
            y = rng.standard_normal(2) * 1.5
            if f(y) <= l:
                hits += 1
                assert float((y - x_prev) @ (y - x_prev)) >= d2 - 1e-6
        assert hits > 50

    def test_mirror_update_forms(self):
        rng = np.random.default_rng(26)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        f = make_quadratic(A, rng.standard_normal(3))
        x_prev = f.minimizer + rng.standard_normal(3)
        l = f.min_value + 0.3 * (f(x_prev) - f.min_value)

        res = project_sublevel(EMAP, f, l, x_prev)
        np.testing.assert_allclose(res.x, x_prev - res.eta * f.grad(res.x),
                                   atol=1e-6)

        Q = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.5]])
        mmap = mahalanobis_map(Q)
        res2 = project_sublevel(mmap, f, l, x_prev)
        np.testing.assert_allclose(
            res2.x, x_prev - res2.eta * np.linalg.solve(Q, f.grad(res2.x)),
            atol=1e-6)

    def test_entropy_multiplicative_form(self):
        d, delta = 4, 0.01
        ent = entropy_map(delta)
        simplex = FeasibleSet.simplex(d, delta)
        rng = np.random.default_rng(27)
        v = np.array([0.4, 0.3, 0.2, 0.1])
        A = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        f = make_quadratic(A, A @ v)
        x_prev = np.array([0.1, 0.2, 0.3, 0.4])
        l = f.min_value + 0.4 * (f(x_prev) - f.min_value)
        res = project_sublevel(ent, f, l, x_prev, simplex)
        assert abs(f(res.x) - l) <= 1e-7 * max(1.0, l)
        # componentwise multiplicative update, renormalized onto the simplex
        mult = x_prev * np.exp(-res.eta * f.grad(res.x))
        mult /= mult.sum()
        np.testing.assert_allclose(res.x, mult, atol=1e-6)


def _count_solves(monkeypatch):
    etas = []
    solve = obd.projection.solve_regularized

    def counting_solve(*args, **kwargs):
        etas.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(obd.projection, "solve_regularized", counting_solve)
    return etas


class TestMultiplierRoot:
    """project_sublevel is one multiplier root: every solve is counted in
    ``iterations``, with no bisection around it."""

    def test_quadratic(self, monkeypatch):
        etas = _count_solves(monkeypatch)
        rng = np.random.default_rng(28)
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            f = make_quadratic(A, rng.standard_normal(4))
            x_prev = f.minimizer + 2.0 * rng.standard_normal(4)
            l = f.min_value + 0.3 * (f(x_prev) - f.min_value)
            etas.clear()
            res = project_sublevel(EMAP, f, l, x_prev)
            assert res.converged
            assert res.iterations == len(etas) <= 100

    def test_entropy_simplex(self, monkeypatch):
        etas = _count_solves(monkeypatch)
        d = 4
        A = np.eye(d) + 0.2 * np.random.default_rng(29).standard_normal((d, d))
        f = make_quadratic(A, A @ np.array([0.4, 0.3, 0.2, 0.1]))
        x_prev = np.array([0.1, 0.2, 0.3, 0.4])
        l = f.min_value + 0.4 * (f(x_prev) - f.min_value)
        res = project_sublevel(entropy_map(0.01), f, l, x_prev,
                               FeasibleSet.simplex(d, 0.01))
        assert res.converged
        assert res.iterations == len(etas) <= 100


def _bracket(rng, k):
    """A monotone function with a sign change on the returned bracket."""
    r = rng.uniform(-5.0, 5.0)
    a, b = r - rng.uniform(0.01, 10.0), r + rng.uniform(0.01, 10.0)
    p, c = rng.uniform(0.2, 5.0), rng.uniform(0.1, 3.0)
    f = [lambda x: math.copysign(abs(x - r) ** p, x - r),
         lambda x: math.tanh(c * (x - r)) + 1e-3 * (x - r),
         lambda x: math.exp(c * (x - r)) - 1.0,
         lambda x: (x - r) ** 3 + c * (x - r)][k % 4]
    return (f if rng.random() < 0.5 else (lambda x: -f(x))), a, b


class TestBrent:
    """``_brent`` is scipy's brentq iteration, evaluated point for point."""

    def test_same_points_as_scipy(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(30)
        rtol = 4.0 * np.finfo(float).eps
        exhausted = 0
        for k in range(600):
            f, a, b = _bracket(rng, k)
            maxiter = 4 if k % 50 == 0 else 100
            ours, theirs = [], []
            _brent(lambda x: ours.append(x) or f(x), a, b, 1e-300, rtol, maxiter)
            brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=1e-300, rtol=rtol,
                   maxiter=maxiter, disp=False)
            assert ours == theirs
            exhausted += len(ours) == maxiter + 2
        assert exhausted >= 1  # the silent end of the iteration budget is covered

    def test_nan_and_same_sign_raise(self):
        with pytest.raises(ValueError):
            _brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 1e-12, 1e-15, 100)
        with pytest.raises(ValueError):
            _brent(lambda x: x + 2.0, 0.0, 1.0, 1e-12, 1e-15, 100)

    def test_import_leaves_out_scipy_optimize(self):
        # scipy.optimize costs about 0.25 s and 20 MB at import, for no use
        src = os.path.dirname(os.path.dirname(obd.projection.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, obd, obd.cli, obd.harness; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
