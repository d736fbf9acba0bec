"""Bregman projections onto cost sublevel sets and onto simple convex sets.

The central operation is ``project_sublevel``: minimize D_Phi(x, x_prev)
subject to f(x) <= l over the feasible set.  It is one scalar root in the
multiplier eta of the level constraint -- f evaluated at

    x(eta) = argmin_x  D_Phi(x, x_prev) + eta * f(x)

is non-increasing in eta, so the eta with f(x(eta)) = l brackets cleanly.
``_multiplier_root`` finds it with Brent's method; the balanced-descent
steppers of ``obd.algorithms`` find their balanced points with the same root.
Each x(eta) comes from ``solve_regularized``: exact for structured cases
(quadratic costs under quadratic-form maps or the entropy map on the simplex,
norm-tracking costs under the Euclidean map), otherwise proximal gradient with
backtracking (smooth costs, or a tracking norm plus a smooth part) or
subgradient descent with diminishing steps (other nonsmooth costs).

Everything here is stateless given its inputs; warm starts are passed
explicitly by callers, never kept in module state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .geometry import (
    BALL, BOX, HALFSPACE, HYPERPLANE, L1, L2, LINF, MAHALANOBIS, SIMPLEX, WHOLE,
    FeasibleSet, MirrorMap, Norm,
)
from .costs import CompositeCost, CostFunction, NormTrackingCost, QuadraticCost

ETA_CAP = 2.0 ** 60


class InfeasibleLevel(ValueError):
    """Requested level lies below the minimum of the cost."""


class NonConvergence(RuntimeError):
    """Inner solver failed to reach its tolerance within the iteration budget."""


@dataclass
class ProjectionResult:
    """Outcome of a sublevel-set projection.

    ``eta`` is the recovered multiplier of the level constraint, so that for
    smooth costs grad Phi(x) = grad Phi(x_prev) - eta * grad f(x) at interior
    solutions.  ``active`` is False when x_prev already satisfied the level,
    in which case eta = 0 and x is x_prev.
    """

    x: np.ndarray
    eta: float
    active: bool
    iterations: int
    residual: float
    converged: bool = True
    note: str = ""


# ---------------------------------------------------------------------------
# Closed-form Euclidean projections onto simple sets
# ---------------------------------------------------------------------------

def _simplex_project_shifted(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of y onto {x : sum x = total, x >= 0} (sort method)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, y.size + 1)
    cond = u - css / idx > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    tau = css[k - 1] / k
    return np.maximum(y - tau, 0.0)


def _l1_ball_project(u: np.ndarray, radius: float) -> np.ndarray:
    if np.abs(u).sum() <= radius:
        return u.copy()
    if radius <= 0.0:
        return np.zeros_like(u)
    mag = _simplex_project_shifted(np.abs(u), radius)
    return np.sign(u) * mag


def _ellipsoid_project(x: np.ndarray, center: np.ndarray, Q: np.ndarray,
                       radius: float) -> np.ndarray:
    """Euclidean projection onto {y : ||y - center||_Q <= radius}."""
    z = x - center
    if float(z @ (Q @ z)) <= radius * radius:
        return x.copy()
    q, V = np.linalg.eigh(Q)
    w = V.T @ z

    def excess(mu: float) -> float:
        s = w / (1.0 + mu * q)
        return float(np.sum(q * s * s)) - radius * radius

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise NonConvergence("ellipsoid projection bracket blew up")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s = w / (1.0 + hi * q)
    return center + V @ s


def _euclidean_project(constraint: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """argmin_{y in set} ||y - x||_2."""
    p = constraint.params
    if constraint.kind == WHOLE:
        return x.copy()
    if constraint.kind == BOX:
        return np.clip(x, p["lo"], p["hi"])
    if constraint.kind == HYPERPLANE:
        a, b = p["a"], p["b"]
        return x - ((float(a @ x) - b) / float(a @ a)) * a
    if constraint.kind == HALFSPACE:
        a, b = p["a"], p["b"]
        viol = float(a @ x) - b
        if viol <= 0.0:
            return x.copy()
        return x - (viol / float(a @ a)) * a
    if constraint.kind == SIMPLEX:
        delta, d = p["delta"], constraint.dim
        # substitute w = x - delta: standard simplex with mass 1 - d*delta
        w = _simplex_project_shifted(x - delta, 1.0 - d * delta)
        return w + delta
    # ball
    c, r, norm = p["center"], p["radius"], p["norm"]
    u = x - c
    if norm.kind == L2:
        n = float(np.linalg.norm(u))
        if n <= r:
            return x.copy()
        return c + (r / n) * u
    if norm.kind == LINF:
        return c + np.clip(u, -r, r)
    if norm.kind == L1:
        return c + _l1_ball_project(u, r)
    return _ellipsoid_project(x, c, norm.Q, r)


def _entropy_simplex_project(x: np.ndarray, delta: float) -> np.ndarray:
    """KL projection onto {sum = 1, x_i >= delta}: x -> max(delta, c*x)."""
    d = x.size

    def total(c: float) -> float:
        return float(np.maximum(delta, c * x).sum())

    hi = 1.0
    while total(hi) < 1.0:
        hi *= 2.0
        if hi > 1e18:
            raise NonConvergence("entropy projection scale blew up")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    out = np.maximum(delta, hi * x)
    return out / out.sum()


def project_set(mirror_map: MirrorMap, constraint: FeasibleSet, x) -> np.ndarray:
    """Bregman projection argmin_{y in set} D_Phi(y, x).

    Closed forms cover the Euclidean map on every supported set, the
    quadratic-form (Mahalanobis) map on affine sets / matching balls /
    diagonal boxes, and the entropy map on the simplex interior.  Remaining
    pairs fall back to projected gradient on the divergence objective.
    """
    x = np.asarray(x, dtype=float)
    if constraint.contains(x, tol=0.0):
        return x.copy()
    if mirror_map.name == "euclidean":
        return _euclidean_project(constraint, x)
    if mirror_map.name == "entropy" and constraint.kind == SIMPLEX:
        return _entropy_simplex_project(x, constraint.params["delta"])
    if mirror_map.Q is not None:
        Q = mirror_map.Q
        p = constraint.params
        if constraint.kind in (HYPERPLANE, HALFSPACE):
            a, b = p["a"], p["b"]
            viol = float(a @ x) - b
            if constraint.kind == HALFSPACE and viol <= 0.0:
                return x.copy()
            Qinv_a = np.linalg.solve(Q, a)
            return x - (viol / float(a @ Qinv_a)) * Qinv_a
        if constraint.kind == BALL and p["norm"].kind == MAHALANOBIS \
                and np.array_equal(p["norm"].Q, Q):
            u = x - p["center"]
            n = p["norm"](u)
            if n <= p["radius"]:
                return x.copy()
            return p["center"] + (p["radius"] / n) * u
        if constraint.kind == BOX and np.count_nonzero(Q - np.diag(np.diag(Q))) == 0:
            return np.clip(x, p["lo"], p["hi"])
    return _bregman_project_pgd(mirror_map, constraint, x)


def _bregman_project_pgd(mirror_map: MirrorMap, constraint: FeasibleSet,
                         x: np.ndarray, tol: float = 1e-10,
                         max_iter: int = 10000) -> np.ndarray:
    gx = mirror_map.grad(x)
    start = _safe_domain_start(mirror_map, constraint, x)

    def value_grad(y):
        return (mirror_map.phi(y) - float(gx @ y),
                mirror_map.grad(y) - gx)

    y, _, _ = _prox_gradient(value_grad, lambda z, _: _euclidean_project(constraint, z),
                             start, tol, max_iter)
    return y


def _safe_domain_start(mirror_map: MirrorMap, constraint: FeasibleSet,
                       x: np.ndarray) -> np.ndarray:
    y = _euclidean_project(constraint, x)
    try:
        mirror_map.check_domain(y)
    except Exception:
        from .costs import _any_member
        y = _any_member(constraint)
    return y


# ---------------------------------------------------------------------------
# Inner solvers
# ---------------------------------------------------------------------------

def _prox_gradient(value_grad: Callable, prox: Callable, x0: np.ndarray,
                   tol: float, max_iter: int):
    """Proximal gradient with backtracking; returns (x, iterations, residual).

    ``prox(y, step)`` maps the gradient step y of length ``step`` to the next
    iterate: the Euclidean projection onto the feasible set for smooth
    problems, or the prox of step times the nonsmooth part.  The curvature
    estimate never shrinks: a shrinking one let the line search's rounding
    slack accept estimates below the true constant, and on composite costs
    the iterates then bounced far above the tolerance.  Residual is the step
    length scaled by the curvature estimate, the proximal-gradient
    stationarity measure.
    """
    x = x0.copy()
    fx, gx = value_grad(x)
    lip = 1.0
    residual = math.inf
    for it in range(1, max_iter + 1):
        while True:
            cand = prox(x - gx / lip, 1.0 / lip)
            diff = cand - x
            sq = float(diff @ diff)
            fc, gc = value_grad(cand)
            if fc <= fx + float(gx @ diff) + 0.5 * lip * sq + 1e-15 * (1 + abs(fx)):
                break
            lip *= 2.0
            if lip > 1e18:
                raise NonConvergence("backtracking line search failed")
        residual = lip * math.sqrt(sq)
        x, fx, gx = cand, fc, gc
        if residual <= tol * (1.0 + float(np.linalg.norm(x))):
            return x, it, residual
    return x, max_iter, residual


def _subgradient_descent(value_grad: Callable, project: Callable, x0: np.ndarray,
                         max_iter: int):
    """Projected subgradient with c/sqrt(k) steps and best-iterate tracking."""
    x = project(x0.copy())
    best_x, best_f = x, value_grad(x)[0]
    g0 = value_grad(x)[1]
    c = 0.5 * (1.0 + float(np.linalg.norm(x0))) / (1.0 + float(np.linalg.norm(g0)))
    for k in range(1, max_iter + 1):
        _, g = value_grad(x)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            return x, k
        x = project(x - (c / math.sqrt(k)) * g)
        f = value_grad(x)[0]
        if f < best_f:
            best_x, best_f = x, f
    return best_x, max_iter


def _prox_tracking(u: np.ndarray, thr: float, norm: Norm) -> np.ndarray:
    """prox of thr*||.|| evaluated at u: u minus its Euclidean projection
    onto the dual-norm ball of radius thr."""
    if thr <= 0.0:
        return u.copy()
    if norm.kind == L2:
        n = float(np.linalg.norm(u))
        if n <= thr:
            return np.zeros_like(u)
        return (1.0 - thr / n) * u
    if norm.kind == L1:
        return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)
    if norm.kind == LINF:
        return u - _l1_ball_project(u, thr)
    return u - _ellipsoid_project(u, np.zeros_like(u), np.linalg.inv(norm.Q), thr)


def _entropy_simplex_regularized(f: QuadraticCost, eta: float,
                                 x_prev: np.ndarray, delta: float,
                                 tol: float = 1e-12,
                                 max_iter: int = 60) -> Optional[np.ndarray]:
    """KKT Newton solve of min D_ent(x, x_prev) + eta*f(x) on the simplex.

    Solves the stationarity system ln x - ln x_prev + eta*grad f(x) + nu*1 = 0
    with sum x = 1; returns None when the delta bounds turn active (the
    caller falls back to projected gradient) or Newton fails to settle.
    """
    d = x_prev.size
    x = x_prev.copy()
    nu = 0.0
    log_prev = np.log(x_prev)
    H = 2.0 * eta * f.AtA
    for _ in range(max_iter):
        g = np.log(x) - log_prev + eta * f.grad(x) + nu
        r2 = float(x.sum()) - 1.0
        res = math.sqrt(float(g @ g) + r2 * r2)
        if res <= tol * (1.0 + eta):
            break
        J = np.zeros((d + 1, d + 1))
        J[:d, :d] = np.diag(1.0 / x) + H
        J[:d, d] = 1.0
        J[d, :d] = 1.0
        try:
            step = np.linalg.solve(J, -np.concatenate([g, [r2]]))
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        while t > 1e-12 and np.min(x + t * step[:d]) <= 0.25 * delta:
            t *= 0.5
        x = x + t * step[:d]
        nu += t * step[d]
        if t <= 1e-12:
            return None
    else:
        return None
    if np.min(x) < delta - 1e-12:
        return None  # delta bound active: needs the inequality-aware path
    return x


def _quad_regularized_solve(mirror_map: MirrorMap, f: QuadraticCost,
                            eta: float, x_prev: np.ndarray) -> np.ndarray:
    """Exact unconstrained minimizer of D_Phi(x, x_prev) + eta*f(x) for
    quadratic-form maps, via the cached generalized eigendecomposition."""
    w, W = f.eig_in(mirror_map.Q)
    if mirror_map.Q is None:
        zp = W.T @ x_prev
        b1 = W.T @ f.Aty
    else:
        zp = W.T @ (mirror_map.Q @ x_prev)
        b1 = W.T @ f.Aty
    z = (zp + 2.0 * eta * b1) / (1.0 + 2.0 * eta * w)
    return W @ z


def solve_regularized(mirror_map: MirrorMap, f: CostFunction, eta: float,
                      x_prev, feasible: FeasibleSet,
                      x_init: Optional[np.ndarray] = None,
                      tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """Minimize D_Phi(x, x_prev) + eta * f(x) over the feasible set.

    f evaluated at the result is non-increasing in eta and the divergence
    from x_prev non-decreasing, which is what ``_multiplier_root`` relies on
    for ``project_sublevel`` and the balanced-descent steppers.
    """
    x, _, _ = _solve_regularized_full(mirror_map, f, eta, np.asarray(x_prev, dtype=float),
                                      feasible, x_init, tol, max_iter)
    return x


def _solve_regularized_full(mirror_map: MirrorMap, f: CostFunction, eta: float,
                            x_prev: np.ndarray, feasible: FeasibleSet,
                            x_init: Optional[np.ndarray] = None,
                            tol: float = 1e-10, max_iter: int = 10000):
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if eta == 0.0:
        return project_set(mirror_map, feasible, x_prev), 0, 0.0

    whole = feasible.kind == WHOLE
    # structured exact solves
    if isinstance(f, QuadraticCost) and (mirror_map.Q is not None or
                                         mirror_map.name == "euclidean"):
        x = _quad_regularized_solve(mirror_map, f, eta, x_prev)
        if whole or feasible.contains(x):
            return x, 1, 0.0
    if isinstance(f, QuadraticCost) and mirror_map.name == "entropy" \
            and feasible.kind == SIMPLEX:
        x = _entropy_simplex_regularized(f, eta, x_prev, feasible.params["delta"])
        if x is not None:
            return x, 1, 0.0
    if isinstance(f, NormTrackingCost) and mirror_map.name == "euclidean":
        x = f.minimizer + _prox_tracking(x_prev - f.minimizer, eta * f.scale, f.norm_a)
        if whole or feasible.contains(x):
            return x, 1, 0.0

    gx_prev = mirror_map.grad(x_prev)
    start = x_init if x_init is not None else _safe_domain_start(mirror_map, feasible, x_prev)

    # proximal gradient when the nonsmooth part is a tracking norm
    prox_part = None
    smooth_cost: Optional[CostFunction] = f if f.smooth else None
    if isinstance(f, NormTrackingCost) and mirror_map.name == "euclidean":
        prox_part, smooth_cost = f, None
    elif isinstance(f, CompositeCost) and isinstance(f.g, NormTrackingCost) \
            and f.h.smooth and mirror_map.name == "euclidean":
        prox_part, smooth_cost = f.g, f.h

    if prox_part is not None:
        v, s, norm_a = prox_part.minimizer, prox_part.scale, prox_part.norm_a

        def smooth_value_grad(x):
            val = 0.5 * float((x - x_prev) @ (x - x_prev))
            g = x - x_prev
            if smooth_cost is not None:
                val += eta * smooth_cost(x)
                g = g + eta * smooth_cost.grad(x)
            return val, g

        def prox_project(y, step):
            z = v + _prox_tracking(y - v, eta * s * step, norm_a)
            return z if whole else _euclidean_project(feasible, z)

        return _prox_gradient(smooth_value_grad, prox_project, start, tol, max_iter)

    if f.smooth:
        def value_grad(x):
            return (mirror_map.phi(x) - float(gx_prev @ x) + eta * f(x),
                    mirror_map.grad(x) - gx_prev + eta * f.grad(x))

        return _prox_gradient(value_grad, lambda z, _: _euclidean_project(feasible, z),
                              start, tol, max_iter)

    # nonsmooth without usable prox structure: diminishing-step subgradient
    def value_subgrad(x):
        return (mirror_map.phi(x) - float(gx_prev @ x) + eta * f(x),
                mirror_map.grad(x) - gx_prev + eta * f.grad(x))

    x, it = _subgradient_descent(value_subgrad,
                                 lambda z: _euclidean_project(feasible, z),
                                 start, min(max_iter, 4000))
    return x, it, math.nan


# ---------------------------------------------------------------------------
# Multiplier root and sublevel-set projection
# ---------------------------------------------------------------------------

def _multiplier_root(mirror_map: MirrorMap, f: CostFunction, x_prev: np.ndarray,
                     feasible: FeasibleSet, balance: Callable, inner_tol: float,
                     max_inner: int, warm: Optional[np.ndarray] = None):
    """Solve balance(x(eta)) = 0 over eta > 0, given balance(x(0)) < 0.

    The bracket's upper end doubles from eta = 1 until the sign changes (hard
    cap ETA_CAP), then Brent's method runs to machine precision in eta.  The
    first iterative inner solve starts from ``warm``, each later one from the
    previous solution.  Returns (eta, x) of smallest |balance| seen, ties
    going to the larger eta, and the number of regularized solves made.
    """
    points: dict = {}  # eta -> (balance, x)

    def g(eta: float) -> float:
        nonlocal warm
        if eta not in points:
            x, _, _ = _solve_regularized_full(mirror_map, f, eta, x_prev, feasible,
                                              x_init=warm, tol=inner_tol,
                                              max_iter=max_inner)
            warm = x
            points[eta] = (balance(x), x)
        return points[eta][0]

    lo, hi = 0.0, 1.0
    while g(hi) < 0.0 and hi < ETA_CAP:
        lo, hi = hi, 2.0 * hi
    if g(lo) < 0.0 < g(hi):
        brentq(g, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
               maxiter=100, disp=False)
    eta = min(points, key=lambda e: (abs(points[e][0]), -e))
    return eta, points[eta][1], len(points)


def project_sublevel(mirror_map: MirrorMap, f: CostFunction, l: float, x_prev,
                     feasible: Optional[FeasibleSet] = None,
                     level_tol: float = 1e-8, max_inner: int = 10000,
                     warm_x: Optional[np.ndarray] = None) -> ProjectionResult:
    """Bregman-project x_prev onto {x : f(x) <= l} intersected with the set.

    Finds the multiplier eta of the level constraint with f(x(eta)) = l as
    one ``_multiplier_root``; ``iterations`` counts its regularized solves.
    The result is converged when the level residual is at most
    level_tol * max(1, l); a level out of reach within eta <= 2**60 raises
    NonConvergence.  Tracking costs under the Euclidean map project in
    closed form.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if feasible is None:
        feasible = FeasibleSet.whole_space(x_prev.shape[0])
    if f.is_indicator:
        raise ValueError("indicator costs have no level structure; use project_set")
    if l < f.min_value - 1e-12 * max(1.0, abs(f.min_value)):
        raise InfeasibleLevel(f"level {l} below minimum value {f.min_value}")
    fx = f(x_prev)
    if fx <= l:
        return ProjectionResult(x=x_prev.copy(), eta=0.0, active=False,
                                iterations=0, residual=0.0)

    tol_abs = level_tol * max(1.0, abs(l))

    # closed-form: tracking cost under the Euclidean map on the whole space
    if isinstance(f, NormTrackingCost) and mirror_map.name == "euclidean":
        rho = l / f.scale
        v = f.minimizer
        kind = f.norm_a.kind
        if kind == L2:
            u = x_prev - v
            n = float(np.linalg.norm(u))
            x = v + (rho / n) * u
            eta = (n - rho) / f.scale
        elif kind == LINF:
            x = v + np.clip(x_prev - v, -rho, rho)
            eta = float(np.abs(x_prev - x).sum()) / f.scale
        elif kind == L1:
            x = v + _l1_ball_project(x_prev - v, rho)
            moved = np.abs(x_prev - x)
            eta = float(moved.max()) / f.scale
        else:
            x = _ellipsoid_project(x_prev, v, f.norm_a.Q, rho)
            g = f.grad(x)
            gn = float(g @ g)
            eta = float((x_prev - x) @ g) / gn if gn > 0 else 0.0
        if feasible.kind == WHOLE or feasible.contains(x):
            return ProjectionResult(x=x, eta=eta, active=True, iterations=1,
                                    residual=abs(f(x) - l))

    eta, x, solves = _multiplier_root(mirror_map, f, x_prev, feasible,
                                      lambda y: l - f(y), min(1e-10, 1e-2 * tol_abs),
                                      max_inner, warm_x)
    excess = f(x) - l
    if excess > tol_abs and eta >= ETA_CAP:
        raise NonConvergence(f"level {l} unreachable: multiplier bracket exceeded "
                             f"2**60 (reached f = {f(x):.6g})")
    residual = abs(excess)
    converged = residual <= tol_abs
    return ProjectionResult(x=x, eta=eta, active=True, iterations=solves,
                            residual=residual, converged=converged,
                            note="" if converged else "level residual above tolerance")
