import math

import numpy as np
import pytest

from obd.geometry import (
    DomainError, FeasibleSet, Norm, SingularMatrixError, bregman_divergence,
    check_divergence_sandwich, entropy_map, euclidean_map, generalized_eigh,
    mahalanobis_map, norm_equivalence_constants, pair_growth_constant,
)
from obd.projection import project_set


def all_norms(d=3):
    rng = np.random.default_rng(5)
    B = rng.standard_normal((d, d))
    Q = B @ B.T + d * np.eye(d)
    return [Norm.l1(), Norm.l2(), Norm.linf(), Norm.mahalanobis(Q)]


class TestNorms:
    def test_dual_examples(self):
        assert Norm.l1().dual_value([3.0, -4.0]) == 4.0
        assert Norm.l2().dual_value([3.0, 4.0]) == pytest.approx(5.0)
        m = Norm.mahalanobis(np.diag([4.0, 1.0]))
        assert m.dual_value([2.0, 0.0]) == pytest.approx(1.0)

    def test_mahalanobis_dual_by_ellipse_sampling(self):
        # ||z||_* = max <z, x> over ||x||_Q <= 1, checked on a fine sweep
        Q = np.diag([4.0, 1.0])
        m = Norm.mahalanobis(Q)
        z = np.array([2.0, 0.0])
        theta = np.linspace(0, 2 * math.pi, 20000)
        pts = np.stack([np.cos(theta) / 2.0, np.sin(theta)], axis=1)  # Q-unit ellipse
        best = float(np.max(pts @ z))
        assert best == pytest.approx(m.dual_value(z), rel=1e-6)

    def test_axioms_random(self):
        rng = np.random.default_rng(0)
        for norm in all_norms():
            for _ in range(50):
                x, y = rng.standard_normal(3), rng.standard_normal(3)
                assert norm(x) >= 0
                assert norm(x + y) <= norm(x) + norm(y) + 1e-12
            assert norm(np.zeros(3)) == 0.0
            assert norm(np.array([0.1, 0, 0])) > 0

    def test_dual_pairing(self):
        rng = np.random.default_rng(1)
        for norm in all_norms():
            for _ in range(100):
                z, x = rng.standard_normal(3), rng.standard_normal(3)
                assert abs(z @ x) <= norm.dual_value(z) * norm(x) * (1 + 1e-12)

    def test_dual_matches_unit_ball_sup(self):
        # dual value equals the sampled supremum of <z, x> to within 2%;
        # sparse-support samples cover the l1 ball's vertices
        rng = np.random.default_rng(2)
        d = 4
        for norm in all_norms(d=d):
            z = rng.standard_normal(d)
            sup = -np.inf
            for i in range(10000):
                if i % 3 == 0:
                    x = norm.unit_ball_sample(rng, d)
                elif i % 3 == 2:
                    u = rng.choice([-1.0, 1.0], size=d)  # cube corners
                    x = u / norm(u)
                else:
                    u = rng.standard_normal(d)
                    k = int(rng.integers(1, d + 1))
                    mask = np.zeros(d)
                    mask[rng.permutation(d)[:k]] = 1.0
                    u = u * mask
                    x = u / norm(u)
                sup = max(sup, float(z @ x))
            dual = norm.dual_value(z)
            assert sup <= dual * (1 + 1e-12)
            assert sup >= dual * 0.98

    def test_dual_of_dual_objects(self):
        assert Norm.l1().dual().kind == "linf"
        assert Norm.linf().dual().kind == "l1"
        Q = np.diag([4.0, 1.0])
        md = Norm.mahalanobis(Q).dual()
        np.testing.assert_allclose(md.Q, np.linalg.inv(Q))

    def test_equality_and_hash(self):
        # same kind and, for Mahalanobis norms, the same Q
        Q = np.diag([4.0, 1.0])
        assert Norm.l2() == Norm.l2() and Norm.l1() != Norm.linf()
        assert Norm.mahalanobis(Q) == Norm.mahalanobis(Q.copy())
        assert Norm.mahalanobis(Q) != Norm.mahalanobis(np.diag([1.0, 4.0]))
        assert Norm.mahalanobis(np.eye(2)) != Norm.l2()
        assert len({Norm.l1(), Norm.l1(), Norm.mahalanobis(Q),
                    Norm.mahalanobis(Q.copy())}) == 2
        m = Norm.mahalanobis(Q)
        assert m.dual() is m.dual() and m.dual().dual() is m
        assert pair_growth_constant(m, Norm.mahalanobis(Q.copy()), 2) == 1.0

    def test_singular_Q_rejected(self):
        with pytest.raises(SingularMatrixError):
            Norm.mahalanobis(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            Norm.mahalanobis(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestEquivalenceConstants:
    def test_closed_forms(self):
        assert norm_equivalence_constants(Norm.l2(), 7) == (1.0, 1.0)
        assert norm_equivalence_constants(Norm.linf(), 4) == (1.0, 2.0)
        assert norm_equivalence_constants(Norm.l1(), 4) == (0.5, 1.0)

    def test_linf_extremes(self):
        k1, k2 = norm_equivalence_constants(Norm.linf(), 4)
        e1 = np.array([1.0, 0, 0, 0])
        ones = np.ones(4)
        # k1*||x||_inf <= ||x||_2 <= k2*||x||_inf, tight at e1 and all-ones
        assert np.linalg.norm(e1) == pytest.approx(k1 * 1.0)
        assert np.linalg.norm(ones) == pytest.approx(k2 * 1.0)

    def test_sandwich_holds_randomly(self):
        rng = np.random.default_rng(3)
        for norm in all_norms(d=5):
            k1, k2 = norm_equivalence_constants(norm, 5)
            for _ in range(200):
                x = rng.standard_normal(5)
                l2 = np.linalg.norm(x)
                assert k1 * norm(x) <= l2 * (1 + 1e-12)
                assert l2 <= k2 * norm(x) * (1 + 1e-12)

    def test_pair_growth_tight_and_valid(self):
        rng = np.random.default_rng(4)
        kinds = [Norm.l1(), Norm.l2(), Norm.linf()]
        for na in kinds:
            for nb in kinds:
                c = pair_growth_constant(na, nb, 3)
                ratios = []
                for _ in range(2000):
                    x = rng.standard_normal(3)
                    ratios.append(na(x) / nb(x))
                assert min(ratios) >= c * (1 - 1e-12)
                assert min(ratios) <= c * 1.05  # tight up to sampling slack


class TestGeneralizedEigh:
    def test_reduces_both_forms_and_matches_scipy(self):
        from scipy.linalg import eigh
        rng = np.random.default_rng(8)
        for d in range(1, 9):
            for _ in range(25):
                A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
                AtA = A.T @ A
                B = rng.standard_normal((d, d))
                Q = B @ B.T + 0.5 * np.eye(d)
                w, W = generalized_eigh(AtA, Q)
                scale = np.abs(w).max()
                assert np.abs(W.T @ Q @ W - np.eye(d)).max() <= 1e-12
                assert np.abs(W.T @ AtA @ W - np.diag(w)).max() <= 1e-12 * scale
                assert np.abs(w - eigh(AtA, Q, eigvals_only=True)).max() <= 1e-13 * scale

    def test_pair_growth_is_smallest_eigenvalue(self):
        # min ||x||_a / ||x||_b over x is attained at the first generalized eigenvector
        Qa = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        Qb = np.diag([1.0, 4.0, 0.25])
        c = pair_growth_constant(Norm.mahalanobis(Qa), Norm.mahalanobis(Qb), 3)
        x = generalized_eigh(Qa, Qb)[1][:, 0]
        assert Norm.mahalanobis(Qa)(x) / Norm.mahalanobis(Qb)(x) == pytest.approx(c, rel=1e-13)

    def test_rejects_indefinite_q(self):
        with pytest.raises(np.linalg.LinAlgError):
            generalized_eigh(np.eye(2), np.diag([1.0, -1.0]))


class TestMirrorMaps:
    def test_euclidean_identity(self):
        m = euclidean_map()
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(m.grad(x), x)
        assert m.m == m.M == 1.0

    def test_bregman_examples(self):
        m = euclidean_map()
        assert bregman_divergence(m, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
        assert bregman_divergence(m, [0.3, -0.7], [0.3, -0.7]) == 0.0

    def test_entropy_is_kl(self):
        m = entropy_map(0.01)
        x = np.array([0.5, 0.5])
        y = np.array([0.25, 0.75])
        kl = float(np.sum(x * np.log(x / y)))
        assert bregman_divergence(m, x, y) == pytest.approx(kl, abs=1e-12)

    def test_inverse_gradient(self):
        rng = np.random.default_rng(6)
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        for m in (euclidean_map(), mahalanobis_map(Q)):
            for _ in range(20):
                x = rng.standard_normal(2)
                np.testing.assert_allclose(m.inv_grad(m.grad(x)), x, atol=1e-10)
        ent = entropy_map(0.01)
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(ent.inv_grad(ent.grad(x)), x, atol=1e-12)

    def test_entropy_domain_guard(self):
        m = entropy_map(0.01)
        with pytest.raises(DomainError):
            m.grad(np.array([0.004, 0.996]))
        m.grad(np.array([0.006, 0.994]))  # above delta/2 is allowed

    def test_divergence_sandwich(self):
        rng = np.random.default_rng(7)
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        delta = 0.02
        cases = [
            (euclidean_map(), lambda: rng.standard_normal(2) * 3),
            (mahalanobis_map(Q), lambda: rng.standard_normal(2) * 3),
            (entropy_map(delta), lambda: _simplex_point(rng, 4, delta)),
        ]
        for mmap, sample in cases:
            for _ in range(300):
                x, y = sample(), sample()
                ok, worst = check_divergence_sandwich(mmap, x, y)
                assert ok, f"{mmap} violated sandwich by {worst}"

    def test_three_point_identity(self):
        rng = np.random.default_rng(8)
        Q = np.array([[2.0, 0.3], [0.3, 1.5]])
        for m in (euclidean_map(), mahalanobis_map(Q)):
            for _ in range(100):
                x, y, z = (rng.standard_normal(2) for _ in range(3))
                lhs = float((m.grad(x) - m.grad(y)) @ (x - z))
                rhs = (bregman_divergence(m, x, y) + bregman_divergence(m, z, x)
                       - bregman_divergence(m, z, y))
                assert lhs == pytest.approx(rhs, abs=1e-9)
        ent = entropy_map(0.01)
        for _ in range(100):
            x, y, z = (_simplex_point(rng, 3, 0.01) for _ in range(3))
            lhs = float((ent.grad(x) - ent.grad(y)) @ (x - z))
            rhs = (bregman_divergence(ent, x, y) + bregman_divergence(ent, z, x)
                   - bregman_divergence(ent, z, y))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_divergence_nonnegative(self):
        rng = np.random.default_rng(9)
        m = mahalanobis_map(np.diag([1.0, 4.0]))
        for _ in range(200):
            assert bregman_divergence(m, rng.standard_normal(2),
                                      rng.standard_normal(2)) >= -1e-12


def _simplex_point(rng, d, delta):
    w = rng.random(d) + 1e-3
    p = w / w.sum()
    return (1 - d * delta) * p + delta


class TestFeasibleSets:
    def test_membership_after_projection(self):
        rng = np.random.default_rng(10)
        emap = euclidean_map()
        sets = [
            FeasibleSet.box(np.array([-1.0, -1.0]), np.array([1.0, 2.0])),
            FeasibleSet.ball(np.array([0.5, 0.0]), 2.0),
            FeasibleSet.simplex(2, 0.05),
            FeasibleSet.halfspace(np.array([1.0, 1.0]), 1.0),
            FeasibleSet.hyperplane(np.array([1.0, -1.0]), 0.5),
        ]
        for s in sets:
            for _ in range(50):
                p = project_set(emap, s, rng.standard_normal(2) * 4)
                assert s.contains(p, tol=1e-8)

    def test_simplex_invariants(self):
        s = FeasibleSet.simplex(3, 0.01)
        assert s.contains([0.5, 0.3, 0.2])
        assert not s.contains([0.5, 0.5, 0.0])   # below delta
        assert not s.contains([0.5, 0.3, 0.3])   # sum != 1
        with pytest.raises(ValueError):
            FeasibleSet.simplex(3, 0.5)

    def test_diameters(self):
        assert FeasibleSet.ball(np.zeros(3), 2.0).diameter() == 4.0
        assert FeasibleSet.whole_space(2).diameter() == math.inf
        box = FeasibleSet.box(np.zeros(2), np.ones(2))
        assert box.diameter() == pytest.approx(math.sqrt(2.0))
        assert box.diameter(Norm.l1()) == pytest.approx(2.0)
        simp = FeasibleSet.simplex(2, 0.1)
        assert simp.diameter(Norm.l1()) == pytest.approx(2 * (1 - 2 * 0.1))
