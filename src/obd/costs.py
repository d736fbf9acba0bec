"""Hitting-cost families, seeded instance generators, and the lower-bound adversary.

Cost objects expose ``__call__`` (the value at one point, or at each row of
a stack of points (..., d)), ``grad`` (gradient, or a subgradient where the
cost is nonsmooth), the minimizer ``v`` with its value, an optional
linear-growth modulus ``alpha`` (f(x) - f(v) >= alpha * ||x - v|| in the
switching norm), and a ``smooth`` flag.  The dual-balance stepper refuses
nonsmooth costs instead of silently substituting subgradients.

Instance generation is a pure function of an ``InstanceSpec``: the same spec
always produces bitwise-identical cost parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .geometry import (
    FeasibleSet, Norm, as_point, pair_growth_constant, L1, L2, LINF,
)


class CostFunction:
    """Convex hitting cost: value, (sub)gradient, minimizer, growth modulus."""

    minimizer: np.ndarray
    min_value: float
    alpha: Optional[float]
    smooth: bool
    is_indicator: bool = False

    def __call__(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return self.minimizer.shape[0]


class QuadraticCost(CostFunction):
    """f(x) = ||A x - y||_2^2 with full-rank A; minimizer solves A v = y."""

    def __init__(self, A, y):
        A = np.asarray(A, dtype=float)
        y = as_point(y, name="y")
        if A.ndim != 2 or A.shape[0] != y.shape[0]:
            raise ValueError(f"A has shape {A.shape}, incompatible with y of length {y.shape[0]}")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("A is rank deficient")
        self.A = A
        self.y = y
        self.AtA = A.T @ A
        self.Aty = A.T @ y
        if A.shape[0] == A.shape[1]:
            self.minimizer = np.linalg.solve(A, y)
        else:
            self.minimizer = np.linalg.lstsq(A, y, rcond=None)[0]
        self.min_value = float(self(self.minimizer))
        self.alpha = None
        self.smooth = True
        self._eig_cache: dict = {}

    def __call__(self, x):
        r = x @ self.A.T - self.y
        v = np.add.reduce(r * r, -1)
        return float(v) if r.ndim == 1 else v

    def grad(self, x):
        return 2.0 * (self.AtA @ x - self.Aty)

    def eig_in(self, Q: Optional[np.ndarray]):
        """Generalized eigendecomposition of (A'A, Q) cached per quadratic form.

        Returns (w, W) with W' Q W = I and W' A'A W = diag(w); Q=None means
        the identity.  Cached because the balance searches evaluate many
        points along the same curve; the key is Q's content, so a new Q
        never picks up the decomposition of an earlier one.
        """
        key = None if Q is None else (Q.shape, Q.tobytes())
        hit = self._eig_cache.get(key)
        if hit is not None:
            return hit
        from scipy.linalg import eigh
        if Q is None:
            w, W = np.linalg.eigh(self.AtA)
        else:
            w, W = eigh(self.AtA, Q)
        w = np.maximum(w, 0.0)
        self._eig_cache[key] = (w, W)
        return w, W


class NormTrackingCost(CostFunction):
    """f(x) = scale * ||x - v||_a; locally polyhedral tracking cost.

    ``alpha`` is scale times the largest c with ||u||_a >= c ||u||_sw, so the
    global growth bound f(x) - f(v) >= alpha * ||x - v||_sw holds in the
    switching norm (default l2).
    """

    def __init__(self, v, norm_a: Norm, scale: float = 1.0,
                 switching_norm: Optional[Norm] = None):
        self.minimizer = as_point(v, name="v")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.norm_a = norm_a
        self.scale = float(scale)
        sw = switching_norm or Norm.l2()
        self.alpha = self.scale * pair_growth_constant(norm_a, sw, self.minimizer.shape[0])
        self.min_value = 0.0
        self.smooth = False

    def __call__(self, x):
        return self.scale * self.norm_a(x - self.minimizer)

    def grad(self, x):
        u = x - self.minimizer
        kind = self.norm_a.kind
        if kind == L1:
            return self.scale * np.sign(u)
        if kind == LINF:
            g = np.zeros_like(u)
            if np.any(u != 0.0):
                i = int(np.argmax(np.abs(u)))
                g[i] = self.scale * math.copysign(1.0, u[i])
            return g
        n = self.norm_a(u)
        if n == 0.0:
            return np.zeros_like(u)
        return self.scale * (u if kind == L2 else self.norm_a.Q @ u) / n


class CompositeCost(CostFunction):
    """g + h with shared minimizer; inherits g's growth modulus.

    Requires g locally polyhedral (g.alpha set), h convex and non-negative
    with the same minimizer: then f(x) - f(v) >= g(x) - g(v).
    """

    def __init__(self, g: CostFunction, h: CostFunction):
        if g.alpha is None:
            raise ValueError("g must carry a growth modulus alpha")
        if h.min_value < -1e-12:
            raise ValueError("h must be non-negative")
        if np.linalg.norm(g.minimizer - h.minimizer) > 1e-9:
            raise ValueError("minimizer mismatch between g and h")
        self.g = g
        self.h = h
        self.minimizer = g.minimizer
        self.min_value = g.min_value + h.min_value
        self.alpha = g.alpha
        self.smooth = g.smooth and h.smooth

    def __call__(self, x):
        return self.g(x) + self.h(x)

    def grad(self, x):
        return self.g.grad(x) + self.h.grad(x)


class IndicatorCost(CostFunction):
    """Hard constraint cost: 0 on the set, +inf off it.

    Level-set balancing degenerates on indicators (the only sublevel set is
    the set itself), so the harness routes these rounds through direct set
    projection instead of the balance search.
    """

    is_indicator = True

    def __init__(self, constraint: FeasibleSet, anchor: Optional[np.ndarray] = None):
        self.constraint = constraint
        if anchor is None:
            anchor = _any_member(constraint)
        self.minimizer = as_point(anchor, name="anchor")
        if not constraint.contains(self.minimizer, tol=1e-9):
            raise ValueError("anchor must lie in the constraint set")
        self.min_value = 0.0
        self.alpha = None
        self.smooth = False

    def __call__(self, x):
        v = np.where(self.constraint.contains(x), 0.0, math.inf)
        return float(v) if v.ndim == 0 else v

    def grad(self, x):
        return np.zeros(self.dim)


def _any_member(s: FeasibleSet) -> np.ndarray:
    p = s.params
    if s.kind == "whole":
        return np.zeros(s.dim)
    if s.kind == "box":
        return 0.5 * (p["lo"] + p["hi"])
    if s.kind == "ball":
        return p["center"].copy()
    if s.kind == "simplex":
        return np.full(s.dim, 1.0 / s.dim)
    a, b = p["a"], p["b"]
    return (b / float(a @ a)) * a


# ---------------------------------------------------------------------------
# Factories matching the library surface
# ---------------------------------------------------------------------------

def make_quadratic(A, y) -> QuadraticCost:
    return QuadraticCost(A, y)


def make_norm_tracking(v, norm_a: Norm, scale: float = 1.0,
                       switching_norm: Optional[Norm] = None) -> NormTrackingCost:
    return NormTrackingCost(v, norm_a, scale=scale, switching_norm=switching_norm)


def make_composite(g: CostFunction, h: CostFunction) -> CompositeCost:
    return CompositeCost(g, h)


def adversary_step(x_prev, t: int) -> IndicatorCost:
    """Round-t cost of the hyperplane-chasing adversary (1-indexed rounds).

    Inspects coordinate t of the responder's current point: a negative
    coordinate draws the hyperplane x_t = +1, a non-negative one draws
    x_t = -1, forcing a unit move per round from the origin start.
    """
    x_prev = as_point(x_prev, name="x_prev")
    d = x_prev.shape[0]
    if not 1 <= t <= d:
        raise ValueError(f"round t={t} outside 1..{d}")
    a = np.zeros(d)
    a[t - 1] = 1.0
    target = 1.0 if x_prev[t - 1] < 0.0 else -1.0
    return IndicatorCost(FeasibleSet.hyperplane(a, target))


# ---------------------------------------------------------------------------
# Seeded instances
# ---------------------------------------------------------------------------

QUADRATIC = "quadratic"
NORM_TRACKING = "norm_tracking"
COMPOSITE = "composite"
HYPERPLANE_CHASE = "hyperplane_chase"

_FAMILIES = (QUADRATIC, NORM_TRACKING, COMPOSITE, HYPERPLANE_CHASE)
_NORM_KINDS = (L1, L2, LINF)


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic description of a benchmark instance.

    ``cond`` is the condition number of each random matrix A_t (quadratic and
    composite families); ``diameter`` bounds the target set the y_t / v_t are
    drawn from (a centered l2 ball of that diameter).  ``feasible_kind`` is
    ``whole``, ``ball`` (radius ``feasible_radius``, centered at the origin)
    or ``box`` ([-feasible_radius, feasible_radius]^d).
    """

    d: int
    T: int
    family: str
    seed: int
    cond: float = 10.0
    diameter: float = 10.0
    tracking_norm: str = L2
    tracking_scale: float = 1.0
    switching_norm: str = L2
    feasible_kind: str = "whole"
    feasible_radius: float = 0.0
    x0: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.d < 1 or self.T < 1:
            raise ValueError("d and T must be >= 1")
        if self.cond < 1.0:
            raise ValueError("cond must be >= 1")
        if self.diameter <= 0.0:
            raise ValueError("diameter must be positive")
        if self.tracking_norm not in _NORM_KINDS:
            raise ValueError(f"tracking_norm must be one of {_NORM_KINDS}")
        if self.switching_norm not in _NORM_KINDS:
            raise ValueError(f"switching_norm must be one of {_NORM_KINDS}")
        if self.feasible_kind not in ("whole", "ball", "box"):
            raise ValueError("feasible_kind must be whole, ball or box")
        if self.family == HYPERPLANE_CHASE and self.T > self.d:
            raise ValueError("hyperplane_chase requires T <= d")

    def to_dict(self) -> dict:
        out = asdict(self)
        if out["x0"] is not None:
            out["x0"] = list(out["x0"])
        return out

    @staticmethod
    def from_dict(data: dict) -> "InstanceSpec":
        data = dict(data)
        if data.get("x0") is not None:
            data["x0"] = tuple(float(v) for v in data["x0"])
        return InstanceSpec(**data)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


class Instance:
    """A run-ready instance: costs, feasible set, switching norm, start point.

    ``cost_at(t, x_prev)`` reveals the round-t cost; static families ignore
    ``x_prev``, the hyperplane-chasing adversary inspects it.
    """

    def __init__(self, spec: InstanceSpec, costs: Optional[list],
                 feasible: FeasibleSet, switching_norm: Norm,
                 x0: np.ndarray, alpha: Optional[float]):
        self.spec = spec
        self.costs = costs
        self.feasible = feasible
        self.switching_norm = switching_norm
        self.x0 = x0
        self.alpha = alpha

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def T(self) -> int:
        return self.spec.T

    @property
    def adaptive(self) -> bool:
        return self.costs is None

    def cost_at(self, t: int, x_prev: np.ndarray) -> CostFunction:
        if self.adaptive:
            return adversary_step(x_prev, t)
        return self.costs[t - 1]


def _canonical_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def _uniform_in_ball(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    u = rng.standard_normal(d)
    n = np.linalg.norm(u)
    if n == 0.0:
        u, n = np.ones(d), math.sqrt(d)
    r = radius * rng.random() ** (1.0 / d)
    return (r / n) * u


def _random_conditioned(rng: np.random.Generator, d: int, cond: float) -> np.ndarray:
    """A = U diag(sigma) V' with seeded orthogonal factors and singular values
    log-spaced in [1, cond]; for d = 1 the matrix is the 1x1 identity."""
    if d == 1:
        return np.ones((1, 1))
    u = _canonical_orthogonal(rng, d)
    v = _canonical_orthogonal(rng, d)
    sigma = np.geomspace(1.0, cond, d)
    return (u * sigma) @ v.T


def _feasible_from_spec(spec: InstanceSpec) -> FeasibleSet:
    if spec.feasible_kind == "whole":
        return FeasibleSet.whole_space(spec.d)
    if spec.feasible_radius <= 0.0:
        raise ValueError("feasible_radius must be positive for ball/box feasible sets")
    if spec.feasible_kind == "ball":
        return FeasibleSet.ball(np.zeros(spec.d), spec.feasible_radius)
    r = spec.feasible_radius
    return FeasibleSet.box(np.full(spec.d, -r), np.full(spec.d, r))


def generate_instance(spec: InstanceSpec) -> Instance:
    """Materialize the instance described by ``spec`` (deterministic in seed)."""
    rng = np.random.default_rng(spec.seed)
    d, T = spec.d, spec.T
    feasible = _feasible_from_spec(spec)
    sw = Norm(spec.switching_norm)
    x0 = np.zeros(d) if spec.x0 is None else as_point(spec.x0, dim=d, name="x0")
    if not feasible.contains(x0):
        raise ValueError("x0 lies outside the feasible set")

    if spec.family == HYPERPLANE_CHASE:
        return Instance(spec, None, feasible, sw, x0, alpha=None)

    radius = 0.5 * spec.diameter
    costs: list[CostFunction] = []
    for _ in range(T):
        if spec.family == QUADRATIC:
            A = _random_conditioned(rng, d, spec.cond)
            y = _uniform_in_ball(rng, d, radius)
            cost: CostFunction = QuadraticCost(A, y)
        elif spec.family == NORM_TRACKING:
            v = _uniform_in_ball(rng, d, radius)
            cost = NormTrackingCost(v, Norm(spec.tracking_norm),
                                    scale=spec.tracking_scale, switching_norm=sw)
        else:  # composite: polyhedral tracking part plus aligned quadratic
            v = _uniform_in_ball(rng, d, radius)
            g = NormTrackingCost(v, Norm(spec.tracking_norm),
                                 scale=spec.tracking_scale, switching_norm=sw)
            A = _random_conditioned(rng, d, spec.cond)
            h = QuadraticCost(A, A @ v)
            cost = CompositeCost(g, h)
        if not feasible.contains(cost.minimizer):
            raise ValueError(
                "generated minimizer falls outside the feasible set; enlarge "
                "feasible_radius (needs at least diameter/2)")
        costs.append(cost)
    alpha = costs[0].alpha if spec.family in (NORM_TRACKING, COMPOSITE) else None
    return Instance(spec, costs, feasible, sw, x0, alpha)
