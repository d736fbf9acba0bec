"""Norms, dual norms, mirror maps, Bregman divergences and simple convex sets.

Everything downstream (level-set projections, balanced-descent steps, offline
comparators) is phrased in terms of the objects defined here:

* ``Norm``            -- one of l1 / l2 / linf / mahalanobis(Q), with its dual.
* ``MirrorMap``       -- a potential Phi with gradient, inverse gradient and
                         the strong-convexity / smoothness moduli (m, M)
                         measured in a declared norm, so that
                         (m/2)*||x-y||^2 <= D_Phi(x,y) <= (M/2)*||x-y||^2.
* ``FeasibleSet``     -- box, ball, simplex interior, halfspace, hyperplane or
                         the whole space; membership tests only (projections
                         live in ``obd.projection``).

All vectors are plain 1-D float64 ``numpy`` arrays; norms and membership
tests also take a stack of points (..., d) and treat each row exactly as
that point alone.  Objects here are immutable after construction and safe to
share across worker processes.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


class DomainError(ValueError):
    """Point outside the domain of a potential (e.g. entropy off the simplex)."""


class SingularMatrixError(ValueError):
    """Matrix required to be positive definite / full rank is not."""


def as_point(x, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {a.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

L1 = "l1"
L2 = "l2"
LINF = "linf"
MAHALANOBIS = "mahalanobis"


class Norm:
    """A norm on R^d together with its dual.

    Supported kinds: ``l1``, ``l2``, ``linf`` and ``mahalanobis`` with a
    symmetric positive definite matrix Q (||x||_Q = sqrt(x' Q x)).  The
    Mahalanobis constructor factors Q once (Cholesky) so evaluation and dual
    evaluation are O(d^2); singular Q is rejected there, not at call time.
    """

    def __init__(self, kind: str, Q: Optional[np.ndarray] = None):
        if kind not in (L1, L2, LINF, MAHALANOBIS):
            raise ValueError(f"unknown norm kind {kind!r}")
        self.kind = kind
        self.Q = None
        self._chol = None  # lower triangular L with Q = L L'
        if kind == MAHALANOBIS:
            if Q is None:
                raise ValueError("mahalanobis norm requires Q")
            Q = np.asarray(Q, dtype=float)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise SingularMatrixError(f"Q must be square, got {Q.shape}")
            if not np.allclose(Q, Q.T, atol=1e-10):
                raise SingularMatrixError("Q must be symmetric")
            try:
                self._chol = np.linalg.cholesky(Q)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError("Q is not positive definite") from exc
            self.Q = Q
        elif Q is not None:
            raise ValueError(f"norm kind {kind!r} takes no matrix")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def l1() -> "Norm":
        return Norm(L1)

    @staticmethod
    def l2() -> "Norm":
        return Norm(L2)

    @staticmethod
    def linf() -> "Norm":
        return Norm(LINF)

    @staticmethod
    def mahalanobis(Q) -> "Norm":
        return Norm(MAHALANOBIS, np.asarray(Q, dtype=float))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """||x|| as a float for one point, or each row's norm for a stack (..., d).

        The reduction runs along the last axis either way, so a row of a
        stack and the same point alone give the same bits.  Mahalanobis maps
        by the Cholesky factor with ``einsum``: BLAS rounds a matrix-vector
        and a matrix-matrix product differently.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == L1:
            n = np.add.reduce(np.abs(x), -1)
        elif self.kind == LINF:
            n = np.abs(x).max(-1, initial=0.0)
        else:
            u = x if self.kind == L2 else np.einsum("...i,ij->...j", x, self._chol)
            n = np.add.reduce(u * u, -1)
            return math.sqrt(n) if x.ndim == 1 else np.sqrt(n)
        return float(n) if x.ndim == 1 else n

    def dual_value(self, z) -> float:
        """Value of the dual norm ||z||_* = max_{||x|| <= 1} <z, x>."""
        z = np.asarray(z, dtype=float)
        if self.kind == L2:
            return float(np.linalg.norm(z))
        if self.kind == L1:
            return float(np.abs(z).max()) if z.size else 0.0
        if self.kind == LINF:
            return float(np.abs(z).sum())
        # ||z||_{Q^{-1}} = ||L^{-1} z||_2 with Q = L L'
        w = solve_triangular(self._chol, z, lower=True)
        return float(np.linalg.norm(w))

    def dual(self) -> "Norm":
        """The dual norm as a Norm object (l1 <-> linf, l2 and Q self-paired)."""
        if self.kind == L2:
            return Norm.l2()
        if self.kind == L1:
            return Norm.linf()
        if self.kind == LINF:
            return Norm.l1()
        return Norm.mahalanobis(np.linalg.inv(self.Q))

    def unit_ball_sample(self, rng: np.random.Generator, d: int) -> np.ndarray:
        """A random point on the unit sphere of this norm (for sampling checks)."""
        u = rng.standard_normal(d)
        n = self(u)
        if n == 0.0:
            u = np.ones(d)
            n = self(u)
        return u / n

    def eigen_range(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of Q for mahalanobis norms."""
        if self.kind != MAHALANOBIS:
            raise ValueError("eigen_range only defined for mahalanobis norms")
        ev = np.linalg.eigvalsh(self.Q)
        return float(ev[0]), float(ev[-1])

    def __repr__(self) -> str:
        if self.kind == MAHALANOBIS:
            return f"Norm(mahalanobis, d={self.Q.shape[0]})"
        return f"Norm({self.kind})"


def norm_equivalence_constants(norm: Norm, d: int) -> tuple[float, float]:
    """Tight constants (k1, k2) with k1*||x|| <= ||x||_2 <= k2*||x||.

    l1: (1/sqrt(d), 1); linf: (1, sqrt(d)); l2: (1, 1);
    mahalanobis(Q): (1/sqrt(lambda_max(Q)), 1/sqrt(lambda_min(Q))), the unique
    constants making the displayed inequality tight.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if norm.kind == L2:
        return 1.0, 1.0
    if norm.kind == L1:
        return 1.0 / math.sqrt(d), 1.0
    if norm.kind == LINF:
        return 1.0, math.sqrt(d)
    lo, hi = norm.eigen_range()
    return 1.0 / math.sqrt(hi), 1.0 / math.sqrt(lo)


def pair_growth_constant(norm_a: Norm, norm_b: Norm, d: int) -> float:
    """Largest c with ||x||_a >= c * ||x||_b for all x in R^d.

    Exact for any pair of l1/l2/linf; for pairs involving a mahalanobis norm
    the value is composed through l2 and is a valid (possibly conservative)
    lower bound.
    """
    exact = {
        (L1, L1): 1.0, (L2, L2): 1.0, (LINF, LINF): 1.0,
        (L1, L2): 1.0, (L1, LINF): 1.0,
        (L2, L1): 1.0 / math.sqrt(d), (L2, LINF): 1.0,
        (LINF, L1): 1.0 / d, (LINF, L2): 1.0 / math.sqrt(d),
    }
    key = (norm_a.kind, norm_b.kind)
    if key in exact:
        return exact[key]
    if norm_a.kind == MAHALANOBIS and norm_b.kind == MAHALANOBIS:
        # min x'Qx / x'Px = smallest generalized eigenvalue of (Q, P)
        from scipy.linalg import eigh
        lam = eigh(norm_a.Q, norm_b.Q, eigvals_only=True)
        return float(math.sqrt(max(lam[0], 0.0)))
    # chain through l2: ||x||_a >= c_a ||x||_2 and ||x||_2 >= c_2b ||x||_b
    def vs_l2_lower(n: Norm) -> float:
        if n.kind == MAHALANOBIS:
            return math.sqrt(n.eigen_range()[0])
        return pair_growth_constant(n, Norm.l2(), d)

    def l2_vs_lower(n: Norm) -> float:
        if n.kind == MAHALANOBIS:
            return 1.0 / math.sqrt(n.eigen_range()[1])
        return pair_growth_constant(Norm.l2(), n, d)

    return vs_l2_lower(norm_a) * l2_vs_lower(norm_b)


# ---------------------------------------------------------------------------
# Mirror maps
# ---------------------------------------------------------------------------

class MirrorMap:
    """Potential Phi with gradient map, inverse gradient and (m, M) moduli.

    ``m`` and ``M`` are measured in ``norm``:
        (m/2)*||x-y||^2 <= D_Phi(x, y) <= (M/2)*||x-y||^2
    on the feasible region the map is intended for.
    """

    def __init__(self, name: str, phi: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray],
                 inv_grad: Callable[[np.ndarray], np.ndarray],
                 m: float, M: float, norm: Norm,
                 domain_check: Optional[Callable[[np.ndarray], None]] = None,
                 Q: Optional[np.ndarray] = None):
        if m <= 0 or M < m:
            raise ValueError(f"need 0 < m <= M, got m={m}, M={M}")
        self.name = name
        self._phi = phi
        self._grad = grad
        self._inv_grad = inv_grad
        self.m = float(m)
        self.M = float(M)
        self.norm = norm
        self._domain_check = domain_check
        self.Q = Q  # quadratic-form matrix, None unless Phi(x) = x'Qx/2

    @property
    def kappa(self) -> float:
        return self.M / self.m

    def check_domain(self, x: np.ndarray, name: str = "x") -> None:
        if self._domain_check is not None:
            self._domain_check(x)

    def phi(self, x) -> float:
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        return float(self._phi(x))

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        return self._grad(x)

    def inv_grad(self, z) -> np.ndarray:
        return self._inv_grad(np.asarray(z, dtype=float))

    def __repr__(self) -> str:
        return f"MirrorMap({self.name}, m={self.m:g}, M={self.M:g})"


def euclidean_map() -> MirrorMap:
    """Phi(x) = ||x||_2^2 / 2: identity gradient, m = M = 1 in the l2 norm."""
    return MirrorMap(
        "euclidean",
        phi=lambda x: 0.5 * float(x @ x),
        grad=lambda x: x.copy(),
        inv_grad=lambda z: z.copy(),
        m=1.0, M=1.0, norm=Norm.l2(),
    )


def mahalanobis_map(Q) -> MirrorMap:
    """Phi(x) = x'Qx / 2: gradient Qx, m = M = 1 in the Q-weighted norm."""
    norm = Norm.mahalanobis(Q)
    Qm = norm.Q
    factor = cho_factor(Qm)
    return MirrorMap(
        "mahalanobis",
        phi=lambda x: 0.5 * float(x @ (Qm @ x)),
        grad=lambda x: Qm @ x,
        inv_grad=lambda z: cho_solve(factor, z),
        m=1.0, M=1.0, norm=norm, Q=Qm,
    )


def entropy_map(delta: float) -> MirrorMap:
    """Negative entropy Phi(x) = sum_i x_i ln x_i on the delta-interior simplex.

    Gradient ln(x) + 1; Bregman divergence is the KL divergence on the
    simplex.  Declared moduli in the l1 norm: m = 1/(2 ln 2) from Pinsker,
    M = 1/(delta ln 2) from the reverse Pinsker bound on {x_i >= delta}.
    Points with any coordinate below delta/2 are rejected rather than
    clamped: silent clamping would corrupt divergence audits.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    guard = 0.5 * delta

    def domain_check(x: np.ndarray) -> None:
        if x.size and float(x.min()) < guard:
            raise DomainError(
                f"entropy map rejects coordinates below delta/2 = {guard:g} "
                f"(min coordinate {x.min():g})")

    return MirrorMap(
        "entropy",
        phi=lambda x: float(np.sum(x * np.log(x))),
        grad=lambda x: np.log(x) + 1.0,
        inv_grad=lambda z: np.exp(z - 1.0),
        m=1.0 / (2.0 * math.log(2.0)),
        M=1.0 / (delta * math.log(2.0)),
        norm=Norm.l1(),
        domain_check=domain_check,
    )


def bregman_divergence(mirror_map: MirrorMap, x, y) -> float:
    """D_Phi(x, y) = Phi(x) - Phi(y) - <grad Phi(y), x - y>; >= 0 by convexity."""
    x = as_point(x, name="x")
    y = as_point(y, dim=x.shape[0], name="y")
    return mirror_map.phi(x) - mirror_map.phi(y) - float(mirror_map.grad(y) @ (x - y))


def check_divergence_sandwich(mirror_map: MirrorMap, x, y,
                              slack: float = 1e-9) -> tuple[bool, float]:
    """Check (m/2)||x-y||^2 <= D_Phi(x,y) <= (M/2)||x-y||^2 for one pair.

    Returns (ok, worst signed violation); the predicate Theorem-style audits
    evaluate on sampled feasible pairs.
    """
    n2 = mirror_map.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2
    div = bregman_divergence(mirror_map, x, y)
    lo_violation = 0.5 * mirror_map.m * n2 - div
    hi_violation = div - 0.5 * mirror_map.M * n2
    worst = max(lo_violation, hi_violation)
    return worst <= slack * max(1.0, n2), worst


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

BOX = "box"
BALL = "ball"
SIMPLEX = "simplex"
HALFSPACE = "halfspace"
HYPERPLANE = "hyperplane"
WHOLE = "whole"


class FeasibleSet:
    """A simple convex feasible region; use the factory staticmethods."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params

    @staticmethod
    def whole_space(d: int) -> "FeasibleSet":
        return FeasibleSet(WHOLE, d=int(d))

    @staticmethod
    def box(lo, hi) -> "FeasibleSet":
        lo = as_point(lo, name="lo")
        hi = as_point(hi, dim=lo.shape[0], name="hi")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        return FeasibleSet(BOX, lo=lo, hi=hi, d=lo.shape[0])

    @staticmethod
    def ball(center, radius: float, norm: Optional[Norm] = None) -> "FeasibleSet":
        center = as_point(center, name="center")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return FeasibleSet(BALL, center=center, radius=float(radius),
                           norm=norm or Norm.l2(), d=center.shape[0])

    @staticmethod
    def simplex(d: int, delta: float) -> "FeasibleSet":
        if d < 1:
            raise ValueError("d must be >= 1")
        if not 0.0 < delta < 1.0 / d:
            raise ValueError(f"need 0 < delta < 1/d, got delta={delta}, d={d}")
        return FeasibleSet(SIMPLEX, delta=float(delta), d=int(d))

    @staticmethod
    def halfspace(a, b: float) -> "FeasibleSet":
        """{x : <a, x> <= b}."""
        a = as_point(a, name="a")
        if np.all(a == 0.0):
            raise ValueError("halfspace normal must be nonzero")
        return FeasibleSet(HALFSPACE, a=a, b=float(b), d=a.shape[0])

    @staticmethod
    def hyperplane(a, b: float) -> "FeasibleSet":
        """{x : <a, x> = b}."""
        a = as_point(a, name="a")
        if np.all(a == 0.0):
            raise ValueError("hyperplane normal must be nonzero")
        return FeasibleSet(HYPERPLANE, a=a, b=float(b), d=a.shape[0])

    @property
    def dim(self) -> int:
        return self.params["d"]

    def contains(self, x, tol: float = 1e-9):
        """Membership up to ``tol``: a bool for one point, a row mask for a
        stack (..., d).  Each row is tested with that point's own arithmetic."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == WHOLE:
            return True if x.ndim == 1 else np.ones(x.shape[:-1], dtype=bool)
        if self.kind == BOX:
            inside = np.all((x >= p["lo"] - tol) & (x <= p["hi"] + tol), axis=-1)
        elif self.kind == BALL:
            inside = p["norm"](x - p["center"]) <= p["radius"] + tol
        elif self.kind == SIMPLEX:
            inside = (abs(np.add.reduce(x, -1) - 1.0) <= tol) \
                & np.all(x >= p["delta"] - tol, axis=-1)
        elif self.kind == HALFSPACE:
            inside = np.add.reduce(x * p["a"], -1) <= p["b"] + tol
        else:
            inside = abs(np.add.reduce(x * p["a"], -1) - p["b"]) <= tol * (1.0 + abs(p["b"]))
        return bool(inside) if x.ndim == 1 else inside

    def diameter(self, norm: Optional[Norm] = None) -> float:
        """Diameter in ``norm`` (default l2); inf for unbounded kinds.

        Exact for box/simplex in any supported norm and for balls whose norm
        matches; ball diameters in a different norm use equivalence constants
        and may be conservative.
        """
        norm = norm or Norm.l2()
        p = self.params
        if self.kind in (WHOLE, HALFSPACE, HYPERPLANE):
            return math.inf
        if self.kind == BOX:
            return norm(p["hi"] - p["lo"])
        if self.kind == BALL:
            if norm.kind == p["norm"].kind and (
                    norm.kind != MAHALANOBIS or np.array_equal(norm.Q, p["norm"].Q)):
                return 2.0 * p["radius"]
            c = pair_growth_constant(p["norm"], norm, self.dim)
            return 2.0 * p["radius"] / c
        # delta-interior simplex: extreme points put 1-(d-1)*delta on one axis
        d, delta = self.dim, p["delta"]
        span = 1.0 - d * delta
        e = np.zeros(d)
        e[0], e[-1] = span, -span
        return norm(e)

    def __repr__(self) -> str:
        return f"FeasibleSet({self.kind})"
