import numpy as np
import pytest

from obd.costs import (
    InstanceSpec, adversary_step, generate_instance, make_composite,
    make_norm_tracking, make_quadratic,
)
from obd.geometry import Norm, euclidean_map
from obd.projection import project_set


class _ZeroCost:
    """Identically-zero convex cost anchored at a given minimizer."""

    smooth = True
    min_value = 0.0
    alpha = None
    is_indicator = False

    def __init__(self, v):
        self.minimizer = np.asarray(v, dtype=float)

    def __call__(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_identity_example(self):
        f = make_quadratic(np.eye(2), np.zeros(2))
        x = np.array([1.0, 1.0])
        assert f(x) == pytest.approx(2.0)
        np.testing.assert_allclose(f.grad(x), [2.0, 2.0])
        np.testing.assert_allclose(f.minimizer, [0.0, 0.0])

    def test_eig_cache_follows_fresh_forms(self):
        rng = np.random.default_rng(7)
        f = make_quadratic(rng.standard_normal((3, 3)) + 2 * np.eye(3), np.ones(3))
        for _ in range(50):
            B = rng.standard_normal((3, 3))
            # a temporary form, freed after the call: a later one may reuse
            # its address
            w, W = f.eig_in(B @ B.T + np.eye(3))
            Q = B @ B.T + np.eye(3)
            np.testing.assert_allclose(W.T @ Q @ W, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(W.T @ f.AtA @ W, np.diag(w), atol=1e-8)

    def test_diagonal_minimizer(self):
        f = make_quadratic(np.diag([2.0, 1.0]), [2.0, 1.0])
        np.testing.assert_allclose(f.minimizer, [1.0, 1.0])
        assert f(f.minimizer) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(11)
        f = make_quadratic(np.diag([3.0, 1.0]), rng.standard_normal(2))
        for _ in range(5):
            x = rng.standard_normal(2) * 2
            g, gfd = f.grad(x), fd_gradient(f, x)
            assert np.linalg.norm(g - gfd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))

    def test_rectangular_with_positive_min(self):
        # overdetermined least squares leaves a positive minimum value
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        f = make_quadratic(A, np.array([1.0, 1.0, 0.0]))
        assert f.min_value > 0.1
        assert f(f.minimizer) == pytest.approx(f.min_value)


class TestNormTracking:
    def test_l2_example(self):
        f = make_norm_tracking(np.zeros(2), Norm.l2())
        assert f([3.0, 4.0]) == pytest.approx(5.0)
        np.testing.assert_allclose(f.grad(np.array([3.0, 4.0])), [0.6, 0.8])
        np.testing.assert_allclose(f.grad(f.minimizer), [0.0, 0.0])
        assert f(f.minimizer) == 0.0

    def test_growth_bound_l1_tracking(self):
        # declared modulus keeps f(x) >= alpha*||x - v||_2 on heavy sampling
        f = make_norm_tracking(np.zeros(2), Norm.l1(), switching_norm=Norm.l2())
        assert f.alpha == pytest.approx(1.0)  # tight: ||u||_1 >= ||u||_2
        rng = np.random.default_rng(12)
        for _ in range(10000):
            x = rng.standard_normal(2) * 3
            assert f(x) >= f.alpha * np.linalg.norm(x) - 1e-12

    def test_scaled_alpha(self):
        f = make_norm_tracking(np.ones(3), Norm.l2(), scale=2.5)
        assert f.alpha == pytest.approx(2.5)

    def test_linf_tracking_alpha_valid(self):
        f = make_norm_tracking(np.zeros(3), Norm.linf(), switching_norm=Norm.l2())
        assert f.alpha == pytest.approx(1.0 / np.sqrt(3))
        rng = np.random.default_rng(13)
        for _ in range(5000):
            x = rng.standard_normal(3)
            assert f(x) >= f.alpha * np.linalg.norm(x) - 1e-12

    def test_subgradient_is_valid(self):
        rng = np.random.default_rng(14)
        for kind in (Norm.l1(), Norm.l2(), Norm.linf()):
            f = make_norm_tracking(rng.standard_normal(3), kind)
            for _ in range(200):
                x, y = rng.standard_normal(3), rng.standard_normal(3)
                g = f.grad(x)
                assert f(y) >= f(x) + g @ (y - x) - 1e-10


class TestComposite:
    def test_paper_style_example(self):
        g = make_norm_tracking(np.zeros(2), Norm.l1())
        h = make_quadratic(np.eye(2), np.zeros(2))
        f = make_composite(g, h)
        assert f(np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_zero_h_reduces_to_g(self):
        g = make_norm_tracking(np.array([0.5, -0.5]), Norm.l2())
        f = make_composite(g, _ZeroCost(g.minimizer))
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.standard_normal(2)
            assert f(x) == pytest.approx(g(x))

    def test_growth_inherited(self):
        g = make_norm_tracking(np.zeros(2), Norm.l1(), switching_norm=Norm.l1())
        h = make_quadratic(np.eye(2), np.zeros(2))
        f = make_composite(g, h)
        assert f.alpha == g.alpha == 1.0
        rng = np.random.default_rng(16)
        for _ in range(1000):
            x = rng.standard_normal(2)
            assert f(x) - f(f.minimizer) >= np.abs(x).sum() - 1e-10

    def test_minimizer_mismatch(self):
        g = make_norm_tracking(np.zeros(2), Norm.l1())
        h = make_quadratic(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            make_composite(g, h)

    def test_requires_polyhedral_g(self):
        h = make_quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            make_composite(h, h)


class TestAdversary:
    def test_sign_convention(self):
        f = adversary_step(np.zeros(3), 1)
        p = f.constraint.params
        assert p["b"] == -1.0 and p["a"][0] == 1.0  # non-negative coord -> -1
        f2 = adversary_step(np.array([0.0, -0.5, 0.0]), 2)
        assert f2.constraint.params["b"] == 1.0   # negative coord -> +1

    def test_round_bounds(self):
        with pytest.raises(ValueError):
            adversary_step(np.zeros(3), 4)
        with pytest.raises(ValueError):
            adversary_step(np.zeros(3), 0)

    def test_full_run_movement(self):
        # responder pays exactly 1 per round; offline pays ||(+-1,...)|| = 2
        d = 4
        emap = euclidean_map()
        x = np.zeros(d)
        total = 0.0
        target = np.zeros(d)
        for t in range(1, d + 1):
            f = adversary_step(x, t)
            nxt = project_set(emap, f.constraint, x)
            total += np.linalg.norm(nxt - x)
            target[t - 1] = f.constraint.params["b"]
            x = nxt
        assert total == 4.0
        assert np.linalg.norm(target) == 2.0


class TestInstanceGeneration:
    def test_deterministic(self):
        spec = InstanceSpec(d=3, T=4, family="quadratic", seed=99)
        a = generate_instance(spec)
        b = generate_instance(spec)
        for fa, fb in zip(a.costs, b.costs):
            np.testing.assert_array_equal(fa.A, fb.A)
            np.testing.assert_array_equal(fa.y, fb.y)

    def test_condition_number(self):
        spec = InstanceSpec(d=4, T=6, family="quadratic", seed=1, cond=10.0)
        inst = generate_instance(spec)
        for f in inst.costs:
            sv = np.linalg.svd(f.A, compute_uv=False)
            assert sv[0] / sv[-1] == pytest.approx(10.0, abs=1e-8)

    def test_target_diameter(self):
        spec = InstanceSpec(d=3, T=40, family="norm_tracking", seed=2, diameter=6.0)
        inst = generate_instance(spec)
        vs = np.stack([f.minimizer for f in inst.costs])
        dists = np.linalg.norm(vs[:, None, :] - vs[None, :, :], axis=2)
        assert dists.max() <= 6.0

    def test_generated_costs_convex_and_smooth(self):
        rng = np.random.default_rng(17)
        for family in ("quadratic", "norm_tracking", "composite"):
            spec = InstanceSpec(d=3, T=3, family=family, seed=5)
            inst = generate_instance(spec)
            for f in inst.costs:
                for _ in range(20):
                    x, y = rng.standard_normal(3) * 2, rng.standard_normal(3) * 2
                    lam = rng.random()
                    mid = lam * x + (1 - lam) * y
                    assert f(mid) <= lam * f(x) + (1 - lam) * f(y) + 1e-9
                if f.smooth:
                    for _ in range(5):
                        x = rng.standard_normal(3)
                        gfd = fd_gradient(f, x)
                        assert np.linalg.norm(f.grad(x) - gfd) <= \
                            1e-6 * (1 + np.linalg.norm(gfd))

    def test_hyperplane_chase_needs_T_le_d(self):
        with pytest.raises(ValueError):
            InstanceSpec(d=2, T=3, family="hyperplane_chase", seed=0)

    def test_spec_roundtrip_and_hash(self):
        spec = InstanceSpec(d=2, T=3, family="norm_tracking", seed=8,
                            tracking_scale=2.0, x0=(0.5, -0.5))
        again = InstanceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.hash() == spec.hash()

    def test_minimizer_outside_feasible_rejected(self):
        spec = InstanceSpec(d=2, T=5, family="norm_tracking", seed=3,
                            diameter=10.0, feasible_kind="ball",
                            feasible_radius=1.0)
        with pytest.raises(ValueError):
            generate_instance(spec)
