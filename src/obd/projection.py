"""Bregman projections onto cost sublevel sets and onto simple convex sets.

``project_sublevel`` minimizes D_Phi(x, x_prev) subject to f(x) <= l over the
feasible set.  It is one scalar root in the multiplier eta of the level
constraint: f at x(eta) = argmin_x D_Phi(x, x_prev) + eta * f(x) is
non-increasing in eta, so ``_multiplier_root`` finds the eta with
f(x(eta)) = l by Newton's method kept inside a bracket; the balanced-descent
steppers of ``obd.algorithms`` find their balanced points with the same
root.  The root runs along a ``_Path``, built once per (map, cost, x_prev,
set), which prices the two balance sides and their slopes in eta in closed
form where it can, and otherwise builds x(eta) as ``solve_regularized``
describes and takes secant steps.

Each geometric step is written once: ``project_set`` holds one closed-form
block for every quadratic-form map, the Euclidean map as Q = I; the tracking
prox is Moreau's u minus a projection onto a dual-norm ball; and the
multiplier and the ellipsoid and entropy-simplex scales are each one
``_bracketed_root``.  Everything here is stateless given its inputs; a path
lives for one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    BALL, BOX, HALFSPACE, HYPERPLANE, L1, L2, LINF, SIMPLEX, WHOLE, FeasibleSet,
    MirrorMap, Norm, euclidean_map,
)
from .costs import CostFunction, NormTrackingCost, QuadraticCost
from .offline import _TrajectoryProblem, _interior, _solve

ETA_CAP = 2.0 ** 60
# the last bracket end the ellipsoid and entropy-simplex scalars try
_SCALE_CAP = 2.0 ** 59
# the root's stop: a step or bracket within this of its point
_RTOL = 4.0 * np.finfo(float).eps
_EUCLIDEAN = euclidean_map()


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


def _ellipsoid_project(x: np.ndarray, center: np.ndarray, Q: np.ndarray,
                       radius: float) -> np.ndarray:
    """Euclidean projection onto {y : ||y - center||_Q <= radius}: y(mu) =
    center + (I + mu Q)^-1 (x - center), with mu the ``_bracketed_root`` of
    radius^2 - ||y(mu) - center||_Q^2 in Q's eigenbasis."""
    z = x - center
    if float(z @ (Q @ z)) <= radius * radius:
        return x.copy()
    q, V = np.linalg.eigh(Q)
    w = V.T @ z

    def shortfall(mu: float) -> tuple[float, None]:
        s = w / (1.0 + mu * q)
        return radius * radius - float(np.sum(q * s * s)), None

    mu = _bracketed_root(shortfall, _SCALE_CAP, "ellipsoid projection bracket blew up")[0]
    return center + V @ (w / (1.0 + mu * q))


def _euclidean_project(constraint: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """argmin_{y in set} ||y - x||_2 on the sets that only the Euclidean map
    projects onto in closed form: the simplex and the l1, linf and
    Mahalanobis balls."""
    p = constraint.params
    if constraint.kind == SIMPLEX:
        delta, d = p["delta"], constraint.dim
        # substitute w = x - delta: standard simplex with mass 1 - d*delta
        w = _simplex_project_shifted(x - delta, 1.0 - d * delta)
        return w + delta
    c, r, norm = p["center"], p["radius"], p["norm"]
    if norm.kind == LINF:
        return c + np.clip(x - c, -r, r)
    if norm.kind == L1:
        u = x - c
        if np.abs(u).sum() <= r:
            return x.copy()
        return c + np.sign(u) * _simplex_project_shifted(np.abs(u), r) if r > 0.0 \
            else c.copy()
    return _ellipsoid_project(x, c, norm.Q, r)


def _entropy_simplex_project(x: np.ndarray, delta: float) -> np.ndarray:
    """KL projection onto {sum = 1, x_i >= delta}: x -> max(delta, c*x)."""
    def excess(c: float) -> tuple[float, None]:
        return float(np.maximum(delta, c * x).sum()) - 1.0, None

    c = _bracketed_root(excess, _SCALE_CAP, "entropy projection scale blew up")[0]
    out = np.maximum(delta, c * x)
    return out / out.sum()


def project_set(mirror_map: MirrorMap, constraint: FeasibleSet, x) -> np.ndarray:
    """Bregman projection argmin_{y in set} D_Phi(y, x).

    One block serves every quadratic-form map Phi(x) = x'Qx/2, the Euclidean
    map as Q = I: an affine set steps along Q^-1 a, a ball in the map's own
    norm scales radially, and a box is clipped when Q is diagonal.  The
    Euclidean map also projects onto the simplex and the other balls
    (``_euclidean_project``), and the entropy map onto the simplex interior.
    Other pairs raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if constraint.contains(x, tol=0.0):
        return x.copy()
    if mirror_map.name == "entropy" and constraint.kind == SIMPLEX:
        return _entropy_simplex_project(x, constraint.params["delta"])
    euclidean, Q, p = mirror_map.name == "euclidean", mirror_map.Q, constraint.params
    if euclidean or Q is not None:
        if constraint.kind == WHOLE:
            return x.copy()
        if constraint.kind in (HYPERPLANE, HALFSPACE):
            a, b = p["a"], p["b"]
            viol = float(a @ x) - b
            if constraint.kind == HALFSPACE and viol <= 0.0:
                return x.copy()
            Qinv_a = a if euclidean else np.linalg.solve(Q, a)
            return x - (viol / float(a @ Qinv_a)) * Qinv_a
        if constraint.kind == BALL and p["norm"] == mirror_map.norm:
            u = x - p["center"]
            n = p["norm"](u)
            if n <= p["radius"]:
                return x.copy()
            return p["center"] + (p["radius"] / n) * u
        if constraint.kind == BOX and (euclidean or not np.any(Q - np.diag(np.diag(Q)))):
            return np.clip(x, p["lo"], p["hi"])
        if euclidean:
            return _euclidean_project(constraint, x)
    kind = f"{p['norm'].kind} ball" if constraint.kind == BALL else constraint.kind
    raise ValueError(f"no closed-form projection onto a {kind} under the "
                     f"{mirror_map.name} map")


def _prox_tracking(u: np.ndarray, thr: float, norm: Norm,
                   n: Optional[float] = None) -> np.ndarray:
    """prox of thr*||.|| evaluated at u, by Moreau's decomposition: u minus
    its Euclidean projection onto the radius-thr ball of the dual norm.  l2
    keeps its own (1 - thr/||u||) u, which rounds differently; ``n`` is
    ||u||_2 when the caller has it."""
    if thr <= 0.0:
        return u.copy()
    if norm.kind == L2:
        n = norm(u) if n is None else n
        if n <= thr:
            return np.zeros_like(u)
        return (1.0 - thr / n) * u
    return u - project_set(_EUCLIDEAN, FeasibleSet.ball(np.zeros_like(u), thr, norm.dual()), u)


def _entropy_simplex_regularized(f: QuadraticCost, eta: float,
                                 x_prev: np.ndarray, delta: float) -> np.ndarray:
    """KKT Newton solve of min D_ent(x, x_prev) + eta*f(x) on the simplex.

    Solves the stationarity system ln x - ln x_prev + eta*grad f(x) + nu*1 = 0
    with sum x = 1, to a KKT residual of 1e-12 * (1 + eta) in at most 60
    Newton steps; raises NonConvergence when Newton fails to settle or a
    bound x_i >= delta turns active, which this system leaves out.
    """
    tol = 1e-12
    d = x_prev.size
    x = x_prev.copy()
    nu = 0.0
    log_prev = np.log(x_prev)
    H = 2.0 * eta * f.AtA
    t = 1.0
    for _ in range(60):
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


class _Path:
    """x(eta) = argmin_x D_Phi(x, x_prev) + eta * f(x) over the set, for one
    (map, cost, x_prev, set).

    ``point(eta)`` builds x(eta) and says whether its solve converged, keeping
    every point it builds.  ``sides(eta)`` gives the two sides of a balance at
    x(eta): the move ||x(eta) - x_prev|| in the map's norm and the hit
    f(x(eta)).  On the whole space they have closed forms that build no point:

    * a quadratic under a quadratic-form map, in the eigenbasis (w, W) of
      ``f.eig_in(Q)``, where z = W'Q x and W'QW = I make the move the l2 norm
      of z(eta) - z_prev (``_quadratic_sides``; one d x d product per eta);
    * an l2 tracking cost s||x - v|| under the Euclidean map: with
      u = x_prev - v, the move is min(eta s, ||u||) and f = s max(||u|| - eta s, 0).

    Everywhere else ``sides`` prices the built point.  ``hit_prev`` is f(x_prev);
    for l2 tracking it shares ||u|| with the closed form and every prox.
    """

    def __init__(self, mirror_map: MirrorMap, f: CostFunction, x_prev: np.ndarray,
                 feasible: FeasibleSet):
        self.mirror_map, self.f, self.x_prev, self.feasible = mirror_map, f, x_prev, feasible
        self._points: dict = {}  # eta -> (x, converged)
        self._sides = None
        self._eig = None
        self._track = None  # (u, ||u||_2) of an l2 tracking cost under the Euclidean map
        euclidean = mirror_map.name == "euclidean"
        whole = feasible.kind == WHOLE
        if isinstance(f, QuadraticCost) and (euclidean or mirror_map.Q is not None):
            Q = mirror_map.Q
            w, W = f.eig_in(Q)
            zp, b = W.T @ (x_prev if Q is None else Q @ x_prev), W.T @ f.Aty
            self._eig = (w, W, zp, b)
            if whole:
                self._sides = _quadratic_sides(w, zp, b, f.A @ W, f.y)
        elif isinstance(f, NormTrackingCost) and euclidean and f.norm_a.kind == L2:
            u = x_prev - f.minimizer
            n, s = f.norm_a(u), f.scale
            self._track = (u, n)
            if whole:
                self._sides = lambda eta: (min(eta * s, n), s * max(n - eta * s, 0.0),
                                       *((s, -s * s) if eta * s < n else (0.0, 0.0)))
        self.hit_prev = f(x_prev) if self._track is None else f.scale * self._track[1]
        self.in_logs = whole and self._eig is not None  # sides go as powers of eta

    def dist_to_minimizer(self) -> float:
        """||x_prev - v|| in the map's norm, v the cost's minimizer."""
        if self._track is not None:  # the map's norm is l2
            return self._track[1]
        return self.mirror_map.norm(self.x_prev - self.f.minimizer)

    def sides(self, eta: float) -> tuple:
        """(move, hit) at x(eta) and their slopes in eta, which are None where
        the point is built."""
        if self._sides is not None:
            return self._sides(eta)
        x = self.point(eta)[0]
        return self.mirror_map.norm(x - self.x_prev), self.f(x), None, None

    def point(self, eta: float) -> tuple[np.ndarray, bool]:
        """x(eta), and whether the Newton solve behind it converged."""
        if eta not in self._points:
            self._points[eta] = self._build(eta)
        return self._points[eta]

    def _build(self, eta: float) -> tuple[np.ndarray, bool]:
        mirror_map, f, x_prev, feasible = self.mirror_map, self.f, self.x_prev, self.feasible
        if eta < 0.0:
            raise ValueError("eta must be >= 0")
        if eta == 0.0:
            return project_set(mirror_map, feasible, x_prev), True
        if mirror_map.name == "entropy" and isinstance(f, QuadraticCost) \
                and feasible.kind == SIMPLEX:
            return _entropy_simplex_regularized(f, eta, x_prev,
                                                feasible.params["delta"]), True
        euclidean = mirror_map.name == "euclidean"
        if not euclidean and mirror_map.Q is None:
            raise ValueError(f"x(eta) under the {mirror_map.name} map needs a quadratic "
                             "cost on the simplex")
        x = None
        if self._eig is not None:
            w, W, zp, b = self._eig
            x = W @ ((zp + 2.0 * eta * b) / (1.0 + 2.0 * eta * w))
        elif isinstance(f, NormTrackingCost) and euclidean:
            u, n = self._track or (x_prev - f.minimizer, None)
            x = f.minimizer + _prox_tracking(u, eta * f.scale, f.norm_a, n)
        if x is not None and feasible.contains(x):
            return x, True
        Q = np.eye(x_prev.shape[0]) if euclidean else mirror_map.Q
        problem = _TrajectoryProblem([f], x_prev, None, feasible, Q=Q, eta=eta)
        X, _, converged = _solve(problem, _interior(feasible, x_prev[None]))
        # the barrier stops short of each active face by about its weight over the
        # pull there: where x(eta) stays at x(0) on the boundary, x(0) is exact
        try:
            pinned = project_set(mirror_map, feasible, x_prev)[None]
        except ValueError:  # no closed-form x(0) for this map and set
            return X[0], converged
        return min((X, pinned), key=lambda Y: sum(problem.exact_parts(Y)))[0], converged


def _quadratic_sides(w: np.ndarray, zp: np.ndarray, b: np.ndarray, AW: np.ndarray,
                     y: np.ndarray):
    """(move, hit) as functions of eta for a quadratic's x(eta) = W z(eta),
    z(eta) = (z_prev + 2 eta b) / (1 + 2 eta w) with b = W'A'y (``_Path``).

    z(eta) - z_prev = 2 eta c / (1 + 2 eta w) with c = b - w z_prev, whose l2
    norm is the move, and A x(eta) - y = (AW z_prev - y) + AW (z(eta) - z_prev),
    whose squared norm is the hit.  The hit multiplies by AW itself rather
    than reading f off the eigenvalues w: W'A'AW is diagonal only up to the
    eigensolver's backward error, which would move f by about eps * cond(A)^2
    relative to f at the built point.

    Their slopes follow from d/d eta z(eta) = step / (eta (1 + 2 eta w)), with
    step = z(eta) - z_prev, which is 2c at eta = 0: one more product by AW.
    """
    c, r_prev = b - w * zp, AW.dot(zp) - y

    def sides(eta: float) -> tuple[float, float, float, float]:
        if eta == 0.0:
            return (0.0, float(r_prev.dot(r_prev)), 2.0 * math.sqrt(c.dot(c)),
                    4.0 * float(r_prev.dot(AW.dot(c))))
        step = c / (w + 0.5 / eta)  # z(eta) - z_prev
        r = AW.dot(step)
        r += r_prev
        slope = step / (eta + 2.0 * eta * eta * w)
        move = math.sqrt(step.dot(step))
        return move, float(r.dot(r)), step.dot(slope) / move, 2.0 * float(r.dot(AW.dot(slope)))

    return sides


def solve_regularized(mirror_map: MirrorMap, f: CostFunction, eta: float,
                      x_prev, feasible: FeasibleSet) -> np.ndarray:
    """x(eta): minimize D_Phi(x, x_prev) + eta * f(x) over the feasible set.

    One point of a one-off ``_Path``.  eta = 0 is the Bregman projection of
    x_prev (``project_set``).  Quadratic costs under a quadratic-form map
    (x = W (z_prev + 2 eta W'A'y) / (1 + 2 eta w) in the eigenbasis of
    ``QuadraticCost.eig_in``) and tracking costs under the Euclidean map (a
    prox of the tracking norm) have closed forms, used when they land in the
    set; quadratic costs under the entropy map on the simplex take a KKT
    Newton solve.  Every other case under the Euclidean or a Mahalanobis map
    is one ``offline._solve`` of the one-row ``offline._TrajectoryProblem``
    with the map's Q (the identity for the Euclidean map) and eta: quadratic,
    tracking or composite costs on the whole space, a box, or an l2 or
    Mahalanobis ball; x(0) replaces its result where x(0) has a closed form
    and the lower objective.  Other sets and maps raise ValueError.

    f evaluated at the result is non-increasing in eta and the divergence
    from x_prev non-decreasing, which is what ``_multiplier_root`` relies on
    for ``project_sublevel`` and the balanced-descent steppers.
    """
    return _Path(mirror_map, f, np.asarray(x_prev, dtype=float), feasible).point(eta)[0]


# ---------------------------------------------------------------------------
# Multiplier root and sublevel-set projection
# ---------------------------------------------------------------------------

def _bracketed_root(g: Callable[[float], tuple], cap: float,
                    blowup: Optional[str] = None) -> tuple[float, dict]:
    """Root of a non-decreasing g over [0, inf), g(x) = (value, slope or None):
    Newton's method kept inside a bracket (``rtsafe``, Numerical Recipes
    9.4) from x = 0, a secant through the last two points standing in for a
    slope that is None.  A step that leaves the bracket, or that is not half
    the step before last, gives way to doubling the upper end from 1 up to
    ``cap`` while no value is positive, else to bisection, geometric once the
    lower end is positive.  It stops on a zero, a step or bracket within 4 eps
    of its point, or 100 values.  Returns the point of least |g| it evaluated,
    ties going to the larger, and every value (point -> g).  NaN raises
    ValueError; g still negative at the cap raises NonConvergence(blowup)
    when ``blowup`` is given and otherwise returns as above."""
    values: dict = {}
    lo, hi, x = 0.0, math.inf, 0.0
    last = step = before = math.inf  # the last point; the last two steps
    for _ in range(100):
        gx, slope = g(x)
        if math.isnan(gx):
            raise ValueError(f"the function value at x={x} is NaN")
        values[x] = gx
        if gx >= 0.0:
            hi = x
        else:
            lo = x
        if gx == 0.0 or lo >= cap or hi < math.inf and hi - lo <= _RTOL * hi:
            break
        secant = slope is None
        if secant and last != math.inf:
            slope = (gx - values[last]) / (x - last)
        new = x - gx / slope if slope else math.nan
        if abs(new - x) <= _RTOL * x:
            if not secant:
                break
            new = x - math.copysign(_RTOL * x, gx)  # a secant's stop needs a sign change
        if not lo < new < hi or hi < math.inf and abs(new - x) > 0.5 * abs(before):
            new = min(2.0 * lo or 1.0, cap) if hi == math.inf \
                else math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        last, before, step, x = x, step, new - x, min(new, cap)
    if blowup is not None and lo >= cap:
        raise NonConvergence(blowup)
    return min(values, key=lambda x: (abs(values[x]), -x)), values


def _multiplier_root(path: _Path, balance: Callable[[float], tuple]):
    """Solve balance(eta) = 0 over eta > 0, given balance(0) < 0, where
    balance prices x(eta) of ``path`` as (value, slope in eta or None): one
    ``_bracketed_root`` capped at ETA_CAP.  Returns its eta, the point x(eta)
    with whether its solve converged, and the number of balance evaluations."""
    eta, values = _bracketed_root(balance, ETA_CAP)
    return (eta, *path.point(eta), len(values))


def project_sublevel(mirror_map: MirrorMap, f: CostFunction, l: float, x_prev,
                     feasible: Optional[FeasibleSet] = None,
                     level_tol: float = 1e-8) -> ProjectionResult:
    """Bregman-project x_prev onto {x : f(x) <= l} intersected with the set.

    Finds the multiplier eta of the level constraint with f(x(eta)) = l as
    one ``_multiplier_root`` over the hit of a ``_Path``; ``iterations``
    counts its evaluations.  The result is converged when the level residual
    of the built point is at most level_tol * max(1, l) and the solve behind
    that point converged; a level out of reach within eta <= 2**60 raises
    NonConvergence.
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
    path = _Path(mirror_map, f, x_prev, feasible)

    def shortfall(eta):
        hit, dhit = path.sides(eta)[1::2]
        return l - hit, None if dhit is None else -dhit

    eta, x, solved, evals = _multiplier_root(path, shortfall)
    excess = f(x) - l
    if excess > tol_abs and eta >= ETA_CAP:
        raise NonConvergence(f"level {l} unreachable: multiplier bracket exceeded "
                             f"2**60 (reached f = {f(x):.6g})")
    residual = abs(excess)
    converged = residual <= tol_abs and solved
    note = "" if converged else ("level residual above tolerance" if residual > tol_abs
                                 else "x(eta) solve did not converge")
    return ProjectionResult(x=x, eta=eta, active=True, iterations=evals,
                            residual=residual, converged=converged, note=note)
