"""Bregman projections onto cost sublevel sets and onto simple convex sets.

The central operation is ``project_sublevel``: minimize D_Phi(x, x_prev)
subject to f(x) <= l over the feasible set.  It is one scalar root in the
multiplier eta of the level constraint -- f evaluated at

    x(eta) = argmin_x  D_Phi(x, x_prev) + eta * f(x)

is non-increasing in eta, so the eta with f(x(eta)) = l brackets cleanly.
``_multiplier_root`` finds it with Brent's method; the balanced-descent
steppers of ``obd.algorithms`` find their balanced points with the same root.
Each x(eta) comes from ``solve_regularized``: a closed form where one exists
(quadratic costs under quadratic-form maps, norm-tracking costs under the
Euclidean map) and lands in the set, a KKT Newton solve for quadratic costs
under the entropy map on the simplex, and otherwise the damped-Newton barrier
solve of ``obd.offline`` on the one-row form of its trajectory problem.  Pairs
none of these covers raise ValueError; there is no first-order fallback.  The
scalars of the ellipsoid and entropy-simplex projections are Brent roots too.

Everything here is stateless given its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    BALL, BOX, HALFSPACE, HYPERPLANE, L1, L2, LINF, MAHALANOBIS, SIMPLEX, WHOLE,
    FeasibleSet, MirrorMap, Norm,
)
from .costs import CostFunction, NormTrackingCost, QuadraticCost
from .offline import _TrajectoryProblem, _interior, _solve

ETA_CAP = 2.0 ** 60
# Brent's method (``_brent``) run to machine precision in its root
_BRENT = dict(xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=100)


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

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e18:
            raise NonConvergence("ellipsoid projection bracket blew up")
    mu = _brent(excess, lo, hi, **_BRENT) if excess(lo) > 0.0 else lo
    return center + V @ (w / (1.0 + mu * q))


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
        n = norm(u)
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
    def excess(c: float) -> float:
        return float(np.maximum(delta, c * x).sum()) - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e18:
            raise NonConvergence("entropy projection scale blew up")
    c = _brent(excess, lo, hi, **_BRENT) if excess(lo) < 0.0 else lo
    out = np.maximum(delta, c * x)
    return out / out.sum()


def project_set(mirror_map: MirrorMap, constraint: FeasibleSet, x) -> np.ndarray:
    """Bregman projection argmin_{y in set} D_Phi(y, x).

    Closed forms cover the Euclidean map on every supported set, the
    quadratic-form (Mahalanobis) map on affine sets / matching balls /
    diagonal boxes, and the entropy map on the simplex interior.  Other
    pairs raise ValueError.
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
    kind = f"{constraint.params['norm'].kind} ball" if constraint.kind == BALL \
        else constraint.kind
    raise ValueError(f"no closed-form projection onto a {kind} under the "
                     f"{mirror_map.name} map")


def _prox_tracking(u: np.ndarray, thr: float, norm: Norm) -> np.ndarray:
    """prox of thr*||.|| evaluated at u: u minus its Euclidean projection
    onto the dual-norm ball of radius thr."""
    if thr <= 0.0:
        return u.copy()
    if norm.kind == L2:
        n = norm(u)
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
                                 max_iter: int = 60) -> np.ndarray:
    """KKT Newton solve of min D_ent(x, x_prev) + eta*f(x) on the simplex.

    Solves the stationarity system ln x - ln x_prev + eta*grad f(x) + nu*1 = 0
    with sum x = 1; raises NonConvergence when Newton fails to settle or a
    bound x_i >= delta turns active, which this system leaves out.
    """
    d = x_prev.size
    x = x_prev.copy()
    nu = 0.0
    log_prev = np.log(x_prev)
    H = 2.0 * eta * f.AtA
    t = 1.0
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
        step = np.linalg.solve(J, -np.concatenate([g, [r2]]))
        t = 1.0
        while t > 1e-12 and np.min(x + t * step[:d]) <= 0.25 * delta:
            t *= 0.5
        if t <= 1e-12:
            break
        x = x + t * step[:d]
        nu += t * step[d]
    if np.min(x) < delta - 1e-12 or t <= 1e-12:
        raise NonConvergence(f"entropy x(eta) at eta = {eta:g}: the bound x_i >= "
                             f"delta = {delta:g} turns active")
    if res > tol * (1.0 + eta):
        raise NonConvergence(f"entropy x(eta) at eta = {eta:g}: Newton stopped at "
                             f"KKT residual {res:.3g}")
    return x


def _quad_regularized_solve(mirror_map: MirrorMap, f: QuadraticCost,
                            eta: float, x_prev: np.ndarray) -> np.ndarray:
    """Exact unconstrained minimizer of D_Phi(x, x_prev) + eta*f(x) for
    quadratic-form maps, via the cached generalized eigendecomposition."""
    w, W = f.eig_in(mirror_map.Q)
    zp = W.T @ (x_prev if mirror_map.Q is None else mirror_map.Q @ x_prev)
    return W @ ((zp + 2.0 * eta * (W.T @ f.Aty)) / (1.0 + 2.0 * eta * w))


def solve_regularized(mirror_map: MirrorMap, f: CostFunction, eta: float,
                      x_prev, feasible: FeasibleSet) -> np.ndarray:
    """x(eta): minimize D_Phi(x, x_prev) + eta * f(x) over the feasible set.

    eta = 0 is the Bregman projection of x_prev (``project_set``).  Quadratic
    costs under a quadratic-form map and tracking costs under the Euclidean
    map have closed forms, used when they land in the set; quadratic costs
    under the entropy map on the simplex take a KKT Newton solve.  Every
    other case under the Euclidean or a Mahalanobis map is one
    ``offline._solve`` of the one-row ``offline._TrajectoryProblem`` with the
    map's Q (the identity for the Euclidean map) and eta: quadratic, tracking
    or composite costs on the whole space, a box, or an l2 or Mahalanobis ball;
    x(0) replaces its result where x(0) has a closed form and the lower
    objective.  Other sets and maps raise ValueError.

    f evaluated at the result is non-increasing in eta and the divergence
    from x_prev non-decreasing, which is what ``_multiplier_root`` relies on
    for ``project_sublevel`` and the balanced-descent steppers.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if eta == 0.0:
        return project_set(mirror_map, feasible, x_prev)
    if mirror_map.name == "entropy" and isinstance(f, QuadraticCost) \
            and feasible.kind == SIMPLEX:
        return _entropy_simplex_regularized(f, eta, x_prev, feasible.params["delta"])
    euclidean = mirror_map.name == "euclidean"
    if not euclidean and mirror_map.Q is None:
        raise ValueError(f"x(eta) under the {mirror_map.name} map needs a quadratic "
                         "cost on the simplex")
    x = None
    if isinstance(f, QuadraticCost):
        x = _quad_regularized_solve(mirror_map, f, eta, x_prev)
    elif isinstance(f, NormTrackingCost) and euclidean:
        x = f.minimizer + _prox_tracking(x_prev - f.minimizer, eta * f.scale, f.norm_a)
    if x is not None and feasible.contains(x):
        return x
    Q = np.eye(x_prev.shape[0]) if euclidean else mirror_map.Q
    problem = _TrajectoryProblem([f], x_prev, None, feasible, Q=Q, eta=eta)
    X, _, _, _ = _solve(problem, _interior(feasible, x_prev[None]))
    # the barrier stops short of each active face by about its weight over the
    # pull there: where x(eta) stays at x(0) on the boundary, x(0) is exact
    try:
        pinned = project_set(mirror_map, feasible, x_prev)[None]
    except ValueError:  # no closed-form x(0) for this map and set
        return X[0]
    return min((X, pinned), key=lambda Y: sum(problem.exact_parts(Y)))[0]


# ---------------------------------------------------------------------------
# Multiplier root and sublevel-set projection
# ---------------------------------------------------------------------------

def _brent(f: Callable[[float], float], xpre: float, xcur: float, xtol: float,
           rtol: float, maxiter: int) -> float:
    """Brent's root of f between xpre and xcur, where f changes sign.

    The iteration of scipy's ``brentq`` (its ``brentq.c``), which evaluates
    the same sequence of points; it returns its last point, without a word,
    when maxiter iterations run out.  A NaN value raises ValueError.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        good = False  # bisect, unless interpolation takes a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            good = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    return xcur


def _multiplier_root(mirror_map: MirrorMap, f: CostFunction, x_prev: np.ndarray,
                     feasible: FeasibleSet, balance: Callable):
    """Solve balance(x(eta)) = 0 over eta > 0, given balance(x(0)) < 0.

    The bracket's upper end doubles from eta = 1 until the sign changes (hard
    cap ETA_CAP), then Brent's method runs to machine precision in eta.
    Returns (eta, x) of smallest |balance| seen, ties going to the larger
    eta, and the number of regularized solves made.
    """
    points: dict = {}  # eta -> (balance, x)

    def g(eta: float) -> float:
        if eta not in points:
            x = solve_regularized(mirror_map, f, eta, x_prev, feasible)
            points[eta] = (balance(x), x)
        return points[eta][0]

    lo, hi = 0.0, 1.0
    while g(hi) < 0.0 and hi < ETA_CAP:
        lo, hi = hi, 2.0 * hi
    if g(lo) < 0.0 < g(hi):
        _brent(g, lo, hi, **_BRENT)
    eta = min(points, key=lambda e: (abs(points[e][0]), -e))
    return eta, points[eta][1], len(points)


def project_sublevel(mirror_map: MirrorMap, f: CostFunction, l: float, x_prev,
                     feasible: Optional[FeasibleSet] = None,
                     level_tol: float = 1e-8) -> ProjectionResult:
    """Bregman-project x_prev onto {x : f(x) <= l} intersected with the set.

    Finds the multiplier eta of the level constraint with f(x(eta)) = l as
    one ``_multiplier_root`` over ``solve_regularized``; ``iterations``
    counts its regularized solves.  The result is converged when the level
    residual is at most level_tol * max(1, l); a level out of reach within
    eta <= 2**60 raises NonConvergence.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if feasible is None:
        feasible = FeasibleSet.whole_space(x_prev.shape[0])
    if f.is_indicator:
        raise ValueError("indicator costs have no level structure; use project_set")
    if l < f.min_value - 1e-12 * max(1.0, abs(f.min_value)):
        raise InfeasibleLevel(f"level {l} below minimum value {f.min_value}")
    if f(x_prev) <= l:
        return ProjectionResult(x=x_prev.copy(), eta=0.0, active=False,
                                iterations=0, residual=0.0)

    tol_abs = level_tol * max(1.0, abs(l))
    eta, x, solves = _multiplier_root(mirror_map, f, x_prev, feasible,
                                      lambda y: l - f(y))
    excess = f(x) - l
    if excess > tol_abs and eta >= ETA_CAP:
        raise NonConvergence(f"level {l} unreachable: multiplier bracket exceeded "
                             f"2**60 (reached f = {f(x):.6g})")
    residual = abs(excess)
    converged = residual <= tol_abs
    return ProjectionResult(x=x, eta=eta, active=True, iterations=solves,
                            residual=residual, converged=converged,
                            note="" if converged else "level residual above tolerance")
