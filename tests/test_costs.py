import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obd.costs import (
    InstanceSpec, QuadraticCost, _quadratic_rounds, adversary_step, generate_instance,
    make_composite, make_norm_tracking, make_quadratic,
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

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(["quadratic", "composite"]), d=st.integers(1, 32),
           n=st.integers(1, 9), m=st.integers(1, 4), norm=st.sampled_from(["l1", "l2", "linf"]),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_rows_take_point_bits(self, family, d, n, m, norm, seed):
        # a row of a stack (n, d) or (m, n, d) is priced with the point's bits
        f = generate_instance(InstanceSpec(d=d, T=1, family=family, seed=seed,
                                           tracking_norm=norm)).costs[0]
        rng = np.random.default_rng(seed)
        X = 4.0 * rng.standard_normal((n, d))
        assert [v.hex() for v in f(X).tolist()] == [f(x).hex() for x in X]
        Z = 4.0 * rng.standard_normal((m, n, d))
        assert [[v.hex() for v in row] for row in f(Z).tolist()] == \
            [[v.hex() for v in f(Y).tolist()] for Y in Z]

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


def _parameters(f):
    """Every parameter a generated cost carries, as arrays and floats."""
    if isinstance(f, QuadraticCost):
        return [f.A, f.y, f.AtA, f.Aty, f.minimizer, f.min_value]
    if hasattr(f, "h"):  # composite
        return _parameters(f.h) + [f.g.minimizer, f.g.scale, f.g.alpha, f.min_value]
    return [f.minimizer, f.scale, f.alpha]


# SHA-256 of every generated cost's parameters over T in (1, 7, 50), on the
# whole space and on a ball.  These are the LAPACK/BLAS output of one build
# (numpy 2.4.6 with its bundled OpenBLAS, x86-64); another BLAS may round
# differently.
_PARAMETER_DIGESTS = {
    ("quadratic", 1): "a2a792ca26f318ecc339f1402463cdfee48ceff717c13726f2124a07ad639550",
    ("quadratic", 2): "8abe9ee045f2d2ad0359f2b7603ad1f9a9c1141c4c5cb96de43659e3309279be",
    ("quadratic", 3): "c70a64b7739cdc1d2fea4cb0d6ea2e581b8f410ff39814cb37b66805ee4491ca",
    ("quadratic", 5): "e16f66b275f9c1f9f25d5b681f487da9a7a2af173d42a02d6296bd4e8336b79b",
    ("quadratic", 8): "ab885f748fd2df7111f820e3468e08665cb49b75059ad89ebffe8853d18828cf",
    ("quadratic", 32): "e4495f833569608789dc42eb07795f63febd9dcb914d940ade693b7f7961c7d2",
    ("composite", 1): "cbdf7f9a04b5b2a42cbf8e069a5b2b353b60fd809ada3fa8099ae54f9cca4b35",
    ("composite", 2): "d99e69df2adb3c9bcaf007d15a0a0a1ac4a2f127b4de571670c03d99d57d72bb",
    ("composite", 3): "ac4bfbedc580195392a625d7a0cbf6b8d9910ecde66db7a15868456badab733c",
    ("composite", 5): "9a250fee8863dbcc7e1ae8f6398f53dc60c88e659c4425f6637b224536ff9ffb",
    ("composite", 8): "79c49ac1f7588601961ec98b1fc6eabb839f5f4e8c505bc7167f76a10346ce3c",
    ("composite", 32): "6db7dde70202de205cbd5a13865fe780ecde810f0696e500f397599c3e70011e",
    ("norm_tracking", 1): "22193d702a3169ccd7e21173e140a1fef98b4470e31f68f00c6c5053a7898418",
    ("norm_tracking", 2): "500a9b507aa3b42bdfa4d444cdb68cc8eb748805c911125e5ff4f8a3c358fd97",
    ("norm_tracking", 3): "2dc00507d38dae97f4909abaa688e7650b5529dcdcdd2ff8a6222f024a89f956",
    ("norm_tracking", 5): "27b38f0ccc66fe68b79d55f0920f450605bed5ed96ad834fd655bb926aca2b97",
    ("norm_tracking", 8): "ba290de80850bebda4220257a1ce03ac4d0a2b3bd93bf160fa36d4b4b1b21e65",
    ("norm_tracking", 32): "752a8794f89f38f5484e6b1682421ae27f80450f6113b1ea27a27c4b924467a6",
}


def _instances(family, d):
    for T in (1, 7, 50):
        for kind in ("whole", "ball"):
            yield generate_instance(InstanceSpec(d=d, T=T, family=family, seed=100 * d + T,
                                                 feasible_kind=kind, feasible_radius=5.0))


class TestInstanceGeneration:
    @pytest.mark.parametrize("family, d", sorted(_PARAMETER_DIGESTS))
    def test_generated_parameters_pinned(self, family, d):
        h = hashlib.sha256()
        for inst in _instances(family, d):
            for f in inst.costs:
                for a in _parameters(f):
                    h.update(np.asarray(a, dtype=float).tobytes())
        assert h.hexdigest() == _PARAMETER_DIGESTS[family, d]

    @pytest.mark.parametrize("family", ["quadratic", "composite"])
    @pytest.mark.parametrize("d", [1, 2, 5, 32])
    def test_rounds_match_the_single_constructor(self, family, d):
        # every round, built with the family's stacks, is bit for bit the
        # quadratic built alone from its A_t and y_t, and a view into them
        for inst in _instances(family, d):
            quadratics = [f.h if family == "composite" else f for f in inst.costs]
            for f in quadratics:
                alone = QuadraticCost(f.A, f.y)
                assert vars(alone).keys() == vars(f).keys()
                for a, b in zip(_parameters(alone), _parameters(f)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
                assert (alone.alpha, alone.smooth) == (f.alpha, f.smooth)
            for field in ("A", "y", "AtA", "Aty", "minimizer"):
                views = [getattr(f, field) for f in quadratics]
                assert views[0].base is not None
                assert all(v.base is views[0].base for v in views)

    def test_one_singular_round_rejects_the_stack(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 3, 3))
        A[2, :, 0] = A[2, :, 1]
        with pytest.raises(ValueError, match="A is rank deficient"):
            _quadratic_rounds(A, rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="A is rank deficient"):
            QuadraticCost(A[2], np.zeros(3))
        assert len(_quadratic_rounds(np.delete(A, 2, axis=0), np.zeros((4, 3)))) == 4

    def test_ill_conditioned_factors_reject_the_stack(self):
        # the generator's sigma is the rank check: cond >= 1e12 reads as rank
        # deficient, as the SVD of the product would
        for d in (2, 5):
            with pytest.raises(ValueError, match="A is rank deficient"):
                generate_instance(InstanceSpec(d=d, T=3, family="quadratic", seed=1,
                                               cond=1e12))
        sigma, V = np.geomspace(1.0, 1e13, 3), np.tile(np.eye(3), (2, 1, 1))
        with pytest.raises(ValueError, match="A is rank deficient"):
            _quadratic_rounds(V * sigma, np.zeros((2, 3)), (sigma, V))
        generate_instance(InstanceSpec(d=5, T=3, family="quadratic", seed=1, cond=1e11))

    @pytest.mark.parametrize("family", ["quadratic", "composite"])
    @pytest.mark.parametrize("d", [1, 2, 5, 32])
    @pytest.mark.parametrize("cond", [1.0, 10.0, 1e3])
    def test_generated_eigenbasis(self, family, d, cond):
        # each round's eig_in(None) is the generator's (sigma^2, V_t): an
        # orthonormal W with W'A'AW = diag(w) to rounding, w ascending, and
        # w within eigh's own error, eps ||A'A||, of eigh's eigenvalues
        inst = generate_instance(InstanceSpec(d=d, T=20, family=family, seed=d, cond=cond))
        for f in inst.costs:
            q = f.h if family == "composite" else f
            w, W = q.eig_in(None)
            assert np.all(np.diff(w) >= 0.0)
            np.testing.assert_allclose(W.T @ W, np.eye(d), rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(W.T @ q.AtA @ W, np.diag(w), rtol=0.0,
                                       atol=1e-14 * w.max())
            np.testing.assert_allclose(w, np.linalg.eigh(q.AtA)[0], rtol=0.0,
                                       atol=1e-12 * w.max())
            if cond <= 10.0:
                np.testing.assert_allclose(w, np.linalg.eigh(q.AtA)[0], rtol=1e-12)

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
