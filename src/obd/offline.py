"""Offline comparators: dynamic optimum, movement-budgeted optimum, static play,
and a discretized dynamic-programming oracle for cross-validation.

The joint problem min_X sum_t f_t(x_t) + w*||x_t - x_{t-1}|| is solved by
smoothing every nonsmooth term u -> sqrt(u^2 + eps^2) - eps and running
accelerated projected gradient (FISTA with backtracking and restarts),
finished by damped Newton steps where the Hessian is available, over a
decreasing schedule eps in {1e-2, 1e-4, 1e-6}.  The reported costs are the
exact, unsmoothed ones of the last stage's trajectory.  The movement-budgeted
variant bisects the multiplier lambda in the penalized weight w = 1 + lambda,
using that total movement is non-increasing in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CompositeCost, CostFunction, NormTrackingCost, QuadraticCost
from .geometry import (
    BALL, BOX, L1, L2, LINF, MAHALANOBIS, WHOLE,
    FeasibleSet, Norm,
)
from .projection import _project_rows

EPS_SCHEDULE = (1e-2, 1e-4, 1e-6)


@dataclass
class OfflineSolution:
    """A comparator trajectory with its exact (unsmoothed) accounting."""

    trajectory: np.ndarray  # (T, d)
    total_hit: float
    total_move: float
    objective: float
    lam: float = 0.0
    converged: bool = True
    note: str = ""
    uncertainty: float = 0.0

    @property
    def T(self) -> int:
        return self.trajectory.shape[0]


# ---------------------------------------------------------------------------
# Vectorized objective machinery
# ---------------------------------------------------------------------------

def _switch_value_grad(diffs: np.ndarray, norm: Norm, eps: float):
    """Smoothed switching terms for each row of ``diffs``: (values, gradients)."""
    if norm.kind == L2:
        r = np.sqrt((diffs * diffs).sum(axis=1) + eps * eps)
        return r - eps, diffs / r[:, None]
    if norm.kind == L1:
        r = np.sqrt(diffs * diffs + eps * eps)
        return (r - eps).sum(axis=1), diffs / r
    if norm.kind == LINF:
        z = np.concatenate([diffs, -diffs], axis=1) / eps
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        s = ez.sum(axis=1, keepdims=True)
        d = diffs.shape[1]
        vals = eps * (zmax[:, 0] + np.log(s[:, 0]) - math.log(2 * d))
        p = ez / s
        return np.maximum(vals, 0.0), p[:, :d] - p[:, d:]
    Q = norm.Q
    qd = diffs @ Q
    r = np.sqrt((qd * diffs).sum(axis=1) + eps * eps)
    return r - eps, qd / r[:, None]


def _switch_values_exact(diffs: np.ndarray, norm: Norm) -> np.ndarray:
    if norm.kind == L2:
        return np.sqrt(np.sum(diffs * diffs, axis=1))
    if norm.kind == L1:
        return np.sum(np.abs(diffs), axis=1)
    if norm.kind == LINF:
        return np.max(np.abs(diffs), axis=1) if diffs.size else np.zeros(0)
    qd = diffs @ norm.Q
    return np.sqrt(np.maximum(np.sum(qd * diffs, axis=1), 0.0))


def _batch_hit_evaluator(costs: Sequence[CostFunction]) -> Callable:
    """Build value-and-gradient over the whole trajectory, vectorizing across
    rounds when the instance is homogeneous (all-quadratic or all-tracking)."""
    if all(isinstance(f, QuadraticCost) for f in costs):
        A = np.stack([f.A for f in costs])
        Y = np.stack([f.y for f in costs])

        def quad(X: np.ndarray, eps: float):
            res = np.einsum("tij,tj->ti", A, X) - Y
            vals = (res * res).sum()
            grads = 2.0 * np.einsum("tji,tj->ti", A, res)
            return float(vals), grads

        return quad
    if all(isinstance(f, NormTrackingCost) and f.norm_a.kind == L2 for f in costs):
        V = np.stack([f.minimizer for f in costs])
        s = np.array([f.scale for f in costs])

        def track(X: np.ndarray, eps: float):
            u = X - V
            r = np.sqrt((u * u).sum(axis=1) + eps * eps)
            return float((s * (r - eps)).sum()), (s / r)[:, None] * u

        return track
    if all(isinstance(f, CompositeCost) for f in costs):
        left = _batch_hit_evaluator([f.g for f in costs])
        right = _batch_hit_evaluator([f.h for f in costs])

        def comp(X: np.ndarray, eps: float):
            v1, g1 = left(X, eps)
            v2, g2 = right(X, eps)
            return v1 + v2, g1 + g2

        return comp

    def generic(X: np.ndarray, eps: float):
        total = 0.0
        grads = np.empty_like(X)
        for t, f in enumerate(costs):
            v, g = f.smoothed_value_grad(X[t], eps)
            total += v
            grads[t] = g
        return total, grads

    return generic


class _TrajectoryProblem:
    def __init__(self, costs, x0, norm: Norm, feasible: FeasibleSet,
                 move_weight: float):
        self.costs = list(costs)
        self.x0 = np.asarray(x0, dtype=float)
        self.norm = norm
        self.feasible = feasible
        self.w = float(move_weight)
        self.T = len(self.costs)
        self.d = self.x0.shape[0]
        self.hit_eval = _batch_hit_evaluator(self.costs)

    def diffs(self, X: np.ndarray) -> np.ndarray:
        D = np.empty_like(X)
        D[0] = X[0] - self.x0
        np.subtract(X[1:], X[:-1], out=D[1:])
        return D

    def smoothed_value_grad(self, X: np.ndarray, eps: float):
        hit, grad = self.hit_eval(X, eps)
        svals, sgrads = _switch_value_grad(self.diffs(X), self.norm, eps)
        grad = grad + self.w * sgrads
        grad[:-1] -= self.w * sgrads[1:]
        return hit + self.w * float(svals.sum()), grad

    def exact_parts(self, X: np.ndarray):
        hit = sum(f(X[t]) for t, f in enumerate(self.costs))
        move = float(_switch_values_exact(self.diffs(X), self.norm).sum())
        return float(hit), move

    def exact_value(self, X: np.ndarray) -> float:
        hit, move = self.exact_parts(X)
        return hit + self.w * move

    def project(self, X: np.ndarray) -> np.ndarray:
        if self.feasible.kind == WHOLE:
            return X
        return _project_rows(self.feasible, X)


def _fista(problem: _TrajectoryProblem, X0: np.ndarray, eps: float,
           tol: float, max_iter: int, stall_window: int = 60):
    """Monotone FISTA with backtracking and restart; returns (X, residual).

    Stops on the projected-gradient residual or when the objective stalls
    (no relative progress over ``stall_window`` iterations), as it does on
    the smoothing plateau near kinks; the Newton refine and the next, smaller
    eps continue from there.
    """
    X = problem.project(X0.copy())
    Z = X.copy()
    theta = 1.0
    fX, _ = problem.smoothed_value_grad(X, eps)
    lip = 1.0
    residual = math.inf
    stall_best, stall_count = fX, 0
    for _ in range(max_iter):
        fZ, gZ = problem.smoothed_value_grad(Z, eps)
        while True:
            Xn = problem.project(Z - gZ / lip)
            diff = Xn - Z
            sq = float((diff * diff).sum())
            fXn, _ = problem.smoothed_value_grad(Xn, eps)
            if fXn <= fZ + float((gZ * diff).sum()) + 0.5 * lip * sq \
                    + 1e-12 * (1.0 + abs(fZ)):
                break
            lip *= 2.0
            if lip > 1e18:
                raise RuntimeError("offline line search failed")
        residual = lip * math.sqrt(sq)
        if fXn > fX:  # restart momentum on objective increase
            Z, theta = X.copy(), 1.0
            lip = max(lip * 0.5, 1e-10)
            continue
        theta_n = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        Z = Xn + ((theta - 1.0) / theta_n) * (Xn - X)
        X, fX, theta = Xn, fXn, theta_n
        if residual <= tol * (1.0 + abs(fX)):
            break
        if fX < stall_best - 1e-13 * (1.0 + abs(stall_best)):
            stall_best, stall_count = fX, 0
        else:
            stall_count += 1
            if stall_count >= stall_window:
                break
        lip = max(lip * 0.9, 1e-10)
    return X, residual


def _rows_inside(feasible: FeasibleSet, X: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether every row of X lies in the set; vectorized for boxes and l2 balls."""
    p = feasible.params
    if feasible.kind == WHOLE:
        return True
    if feasible.kind == BOX:
        return bool(np.all(X >= p["lo"] - tol) and np.all(X <= p["hi"] + tol))
    if feasible.kind == BALL and p["norm"].kind == L2:
        return bool(np.all(np.linalg.norm(X - p["center"], axis=1) <= p["radius"] + tol))
    return all(feasible.contains(row, tol=tol) for row in X)


def _switch_hessian(u: np.ndarray, norm: Norm, eps: float) -> Optional[np.ndarray]:
    d = u.shape[0]
    if norm.kind == L2:
        r = math.sqrt(float(u @ u) + eps * eps)
        return np.eye(d) / r - np.outer(u, u) / r ** 3
    if norm.kind == L1:
        return np.diag(eps * eps / np.power(u * u + eps * eps, 1.5))
    if norm.kind == MAHALANOBIS:
        Q = norm.Q
        qu = Q @ u
        r = math.sqrt(float(u @ qu) + eps * eps)
        return Q / r - np.outer(qu, qu) / r ** 3
    return None


def _hit_hessian(f: CostFunction, x: np.ndarray, eps: float) -> Optional[np.ndarray]:
    if isinstance(f, QuadraticCost):
        return 2.0 * f.AtA
    if isinstance(f, NormTrackingCost):
        h = _switch_hessian(x - f.minimizer, f.norm_a, eps)
        return None if h is None else f.scale * h
    if isinstance(f, CompositeCost):
        hg = _hit_hessian(f.g, x, eps)
        hh = _hit_hessian(f.h, x, eps)
        if hg is None or hh is None:
            return None
        return hg + hh
    return None


def _newton_supported(problem: _TrajectoryProblem) -> bool:
    if problem.norm.kind == LINF:
        return False
    probe = problem.x0
    return all(_hit_hessian(f, probe, 1.0) is not None for f in problem.costs)


def _newton_refine(problem: _TrajectoryProblem, X: np.ndarray, eps: float,
                   target: float, max_steps: int = 30) -> tuple[np.ndarray, float]:
    """Finish a smoothing stage with damped Newton steps (block tridiagonal
    Hessian); the 1/eps curvature of the smoothed switching terms makes pure
    first-order convergence impractically slow at the final stage."""
    from scipy.linalg import solve_banded

    T, d = X.shape
    n = T * d
    bw = 2 * d - 1  # block-tridiagonal bandwidth
    A_idx, B_idx = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")

    F, g = problem.smoothed_value_grad(X, eps)
    residual = float(np.linalg.norm(g))
    eye = np.eye(d)
    for _ in range(max_steps):
        if residual <= target:
            break
        diffs = problem.diffs(X)
        ridge = 1e-10 * (1.0 + abs(F))
        ab = np.zeros((2 * bw + 1, n))
        for t in range(T):
            block = _hit_hessian(problem.costs[t], X[t], eps) + ridge * eye
            S = problem.w * _switch_hessian(diffs[t], problem.norm, eps)
            block = block + S
            if t + 1 < T:
                dn = diffs[t + 1]
                Sn = problem.w * _switch_hessian(dn, problem.norm, eps)
                block = block + Sn
                # coupling blocks between rounds t and t+1
                ab[bw + A_idx - B_idx - d, (t + 1) * d + B_idx] += -Sn
                ab[bw + A_idx - B_idx + d, t * d + B_idx] += -Sn
            ab[bw + A_idx - B_idx, t * d + B_idx] += block
        delta = solve_banded((bw, bw), ab, -g.ravel()).reshape(T, d)
        slope = float(np.sum(g * delta))
        if not np.all(np.isfinite(delta)) or slope >= 0.0:
            break
        step, accepted = 1.0, False
        while step > 1e-10:
            Xn = X + step * delta
            if _rows_inside(problem.feasible, Xn):
                Fn, gn = problem.smoothed_value_grad(Xn, eps)
                if Fn <= F + 1e-4 * step * slope:
                    X, F, g = Xn, Fn, gn
                    residual = float(np.linalg.norm(g))
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    return X, residual


def _initial_trajectory(problem: _TrajectoryProblem) -> np.ndarray:
    rows = []
    for f in problem.costs:
        v = getattr(f, "minimizer", None)
        rows.append(problem.x0 if v is None else v)
    return np.stack(rows)


def _solve_weighted(problem: _TrajectoryProblem,
                    X0: Optional[np.ndarray] = None,
                    eps_schedule: Sequence[float] = EPS_SCHEDULE,
                    tol: float = 1e-6, max_iter: int = 2500):
    X = problem.project(X0.copy() if X0 is not None else
                        _initial_trajectory(problem))
    residual = math.inf
    newton = _newton_supported(problem)
    for eps in eps_schedule:
        # early stages only need accuracy commensurate with their smoothing
        stage_tol = max(tol, 0.02 * eps) if eps != eps_schedule[-1] else tol
        budget = max_iter // 5 if newton else max_iter
        X, residual = _fista(problem, X, eps, stage_tol, budget)
        if newton:
            obj, _ = problem.smoothed_value_grad(X, eps)
            X, residual = _newton_refine(problem, X, eps,
                                         0.3 * stage_tol * (1.0 + abs(obj)))
    return X, residual


def _first_order_ok(residual: float, objective: float) -> bool:
    return residual <= 1e-5 * (1.0 + abs(objective))


def offline_opt(costs: Sequence[CostFunction], x0, feasible: Optional[FeasibleSet] = None,
                norm: Optional[Norm] = None, tol: float = 1e-6,
                max_iter: int = 2500) -> OfflineSolution:
    """Dynamic offline optimum of sum_t f_t(x_t) + ||x_t - x_{t-1}||."""
    x0 = np.asarray(x0, dtype=float)
    norm = norm or Norm.l2()
    feasible = feasible or FeasibleSet.whole_space(x0.shape[0])
    problem = _TrajectoryProblem(costs, x0, norm, feasible, 1.0)
    X, residual = _solve_weighted(problem, tol=tol, max_iter=max_iter)
    hit, move = problem.exact_parts(X)
    converged = _first_order_ok(residual, hit + move)
    notes = [] if converged else ["first-order residual above tolerance"]
    # Where staying put or jumping to every minimizer is optimal, the solve
    # can land slightly above it; never report more than these trajectories.
    for name, Y in (("stay at x0", np.tile(x0, (len(costs), 1))),
                    ("jump to minimizers", np.stack([f.minimizer for f in costs]))):
        if _rows_inside(feasible, Y, tol=0.0):
            hit_y, move_y = problem.exact_parts(Y)
            if hit_y + move_y < hit + move:
                X, hit, move = Y, hit_y, move_y
                notes.append(f"{name} trajectory beat the solve")
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move,
                           objective=hit + move, lam=0.0, converged=converged,
                           note="; ".join(notes))


def offline_opt_constrained(costs: Sequence[CostFunction], x0, L: float,
                            feasible: Optional[FeasibleSet] = None,
                            norm: Optional[Norm] = None, tol: float = 1e-6,
                            max_iter: int = 2500, window: float = 1e-4,
                            base: Optional[OfflineSolution] = None) -> OfflineSolution:
    """Offline optimum under total movement budget L.

    Movement of the penalized problem min sum f + (1+lambda) sum ||dx|| is
    non-increasing in lambda, so lambda is bisected until the movement lands
    in [L*(1-window), L]; lambda = 0 when the budget does not bind.  A
    precomputed unconstrained solution may be supplied as ``base``.
    """
    if L < 0.0:
        raise ValueError("movement budget L must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    norm = norm or Norm.l2()
    feasible = feasible or FeasibleSet.whole_space(x0.shape[0])
    if L <= 1e-12:
        X = np.tile(x0, (len(costs), 1))
        hit = float(sum(f(X[t]) for t, f in enumerate(costs)))
        return OfflineSolution(trajectory=X, total_hit=hit, total_move=0.0,
                               objective=hit, lam=math.inf,
                               note="zero movement budget: pinned at the start")
    if base is None:
        base = offline_opt(costs, x0, feasible, norm, tol=tol, max_iter=max_iter)
    if base.total_move <= L * (1.0 + 1e-9) + 1e-12:
        return base

    def solve(lam: float, warm):
        problem = _TrajectoryProblem(costs, x0, norm, feasible, 1.0 + lam)
        # warm-started re-solves skip the coarsest smoothing stage
        X, _ = _solve_weighted(problem, X0=warm, eps_schedule=EPS_SCHEDULE[1:],
                               tol=tol, max_iter=max_iter)
        hit, move = problem.exact_parts(X)
        return X, hit, move

    lam_hi, warm = 1.0, base.trajectory
    X_hi, hit_hi, move_hi = solve(lam_hi, warm)
    doublings = 0
    while move_hi > L:
        lam_hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise RuntimeError("movement does not fall below the budget")
        X_hi, hit_hi, move_hi = solve(lam_hi, X_hi)
    lam_lo = lam_hi / 2.0 if doublings else 0.0
    best = (X_hi, hit_hi, move_hi, lam_hi)  # feasible side: movement <= L
    lo_side = (base.trajectory, base.total_hit, base.total_move)
    converged = move_hi >= L * (1.0 - window)
    if not converged:
        # movement(lam) is monotone; false-position with bisection guard
        move_lo = base.total_move if lam_lo == 0.0 else math.inf
        for _ in range(100):
            span = lam_hi - lam_lo
            if math.isfinite(move_lo) and move_lo > L >= move_hi and move_lo > move_hi:
                frac = (move_lo - L) / (move_lo - move_hi)
                lam = lam_lo + span * min(0.95, max(0.05, frac))
            else:
                lam = lam_lo + 0.5 * span
            X, hit, move = solve(lam, best[0])
            if move > L:
                lam_lo, move_lo = lam, move
                lo_side = (X, hit, move)
            else:
                lam_hi, move_hi = lam, move
                if move > best[2]:
                    best = (X, hit, move, lam)
            if L * (1.0 - window) <= best[2] <= L:
                converged = True
                break
            if span <= 1e-11 * max(1.0, lam_hi):
                break
    if not converged and lo_side[2] > L:
        # polyhedral face: movement jumps in lambda, but the optimal set at
        # the critical multiplier is convex, so interpolate along the segment
        # between the two sides until the movement meets the budget
        problem1 = _TrajectoryProblem(costs, x0, norm, feasible, 1.0)
        X_in, X_out = best[0], lo_side[0]
        theta_lo, theta_hi = 0.0, 1.0
        for _ in range(80):
            theta = 0.5 * (theta_lo + theta_hi)
            Xc = (1.0 - theta) * X_in + theta * X_out
            _, move = problem1.exact_parts(Xc)
            if move > L:
                theta_hi = theta
            else:
                theta_lo = theta
        Xc = (1.0 - theta_lo) * X_in + theta_lo * X_out
        hit, move = problem1.exact_parts(Xc)
        if move > best[2]:
            best = (Xc, hit, move, best[3])
        converged = L * (1.0 - window) <= best[2] <= L
    X, hit, move, lam = best
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move,
                           objective=hit + move, lam=lam, converged=converged,
                           note="" if converged else
                           "movement window not reached (budget nearly slack)")


class _SummedCost:
    """Stand-in cost for the static problem: the sum of all rounds."""

    def __init__(self, costs):
        self.costs = list(costs)
        self._batch = _batch_hit_evaluator(self.costs)

    def __call__(self, x):
        return float(sum(f(x) for f in self.costs))

    def smoothed_value_grad(self, x, eps):
        total, grads = self._batch(np.tile(x, (len(self.costs), 1)), eps)
        return total, grads.sum(axis=0)


def static_opt(costs: Sequence[CostFunction], x0,
               feasible: Optional[FeasibleSet] = None,
               norm: Optional[Norm] = None, tol: float = 1e-6,
               max_iter: int = 2500) -> OfflineSolution:
    """Best single point: min_x ||x - x0|| + sum_t f_t(x), held for all rounds."""
    x0 = np.asarray(x0, dtype=float)
    norm = norm or Norm.l2()
    feasible = feasible or FeasibleSet.whole_space(x0.shape[0])
    summed = _SummedCost(costs)
    problem = _TrajectoryProblem([summed], x0, norm, feasible, 1.0)
    X0 = np.stack([np.mean([f.minimizer for f in costs], axis=0)
                   if all(hasattr(f, "minimizer") for f in costs) else x0])
    X, residual = _solve_weighted(problem, X0=X0, tol=tol, max_iter=max_iter)
    x_star = X[0]
    hit = float(sum(f(x_star) for f in costs))
    move = norm(x_star - x0)
    converged = _first_order_ok(residual, hit + move)
    return OfflineSolution(trajectory=np.tile(x_star, (len(costs), 1)),
                           total_hit=hit, total_move=move, objective=hit + move,
                           converged=converged)


# ---------------------------------------------------------------------------
# Discretized dynamic-programming oracle
# ---------------------------------------------------------------------------

@dataclass
class GridSpec:
    """Axis-aligned grid: ``points`` samples per axis over [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray
    points: int

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("grid requires lo <= hi of matching shape")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    def mesh(self) -> np.ndarray:
        axes = [np.linspace(self.lo[i], self.hi[i], self.points)
                for i in range(self.d)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def cell_diagonal(self, norm: Norm) -> float:
        return norm((self.hi - self.lo) / (self.points - 1))


def auto_grid(costs: Sequence[CostFunction], x0, points: int = 21,
              margin: float = 1.0) -> GridSpec:
    """Bounding box of the anchors (minimizers and x0), padded by ``margin``."""
    anchors = [np.asarray(x0, dtype=float)]
    anchors += [f.minimizer for f in costs if hasattr(f, "minimizer")]
    arr = np.stack(anchors)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    pad = margin * (1.0 + (hi - lo))
    return GridSpec(lo - pad, hi + pad, points)


def _pairwise_norm(a: np.ndarray, b: np.ndarray, norm: Norm) -> np.ndarray:
    if norm.kind == MAHALANOBIS:
        a, b = a @ norm._chol, b @ norm._chol
    if norm.kind in (L2, MAHALANOBIS):
        sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.sqrt(np.maximum(sq, 0.0))
    out = np.empty((a.shape[0], b.shape[0]))
    chunk = max(1, 4_000_000 // max(1, b.shape[0] * a.shape[1]))
    for i in range(0, a.shape[0], chunk):
        diff = a[i:i + chunk, None, :] - b[None, :, :]
        if norm.kind == L1:
            out[i:i + chunk] = np.sum(np.abs(diff), axis=2)
        else:
            out[i:i + chunk] = np.max(np.abs(diff), axis=2)
    return out


def _batch_cost_values(f: CostFunction, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, QuadraticCost):
        res = pts @ f.A.T - f.y
        return np.sum(res * res, axis=1)
    if isinstance(f, NormTrackingCost):
        return f.scale * _switch_values_exact(pts - f.minimizer, f.norm_a)
    if isinstance(f, CompositeCost):
        return _batch_cost_values(f.g, pts) + _batch_cost_values(f.h, pts)
    return np.array([f(p) for p in pts])


def _dp_solve(costs, x0, norm: Norm, point_sets, move_weight: float,
              feasible: Optional[FeasibleSet]):
    T = len(costs)
    if feasible is not None and feasible.kind != WHOLE:
        point_sets = [pts[[feasible.contains(p) for p in pts]] for pts in point_sets]
        if any(len(p) == 0 for p in point_sets):
            raise ValueError("grid does not intersect the feasible set")
    values = [_batch_cost_values(f, pts) for f, pts in zip(costs, point_sets)]
    V = values[T - 1].copy()
    choices = []
    for t in range(T - 2, -1, -1):
        D = _pairwise_norm(point_sets[t], point_sets[t + 1], norm)
        total = move_weight * D + V[None, :]
        idx = np.argmin(total, axis=1)
        choices.append(idx)
        V = values[t] + total[np.arange(len(point_sets[t])), idx]
    choices.reverse()
    d0 = _pairwise_norm(np.asarray(x0, dtype=float)[None, :], point_sets[0], norm)[0]
    start = int(np.argmin(move_weight * d0 + V))
    obj = float(move_weight * d0[start] + V[start])
    traj_idx = [start]
    for t in range(T - 1):
        traj_idx.append(int(choices[t][traj_idx[-1]]))
    X = np.stack([point_sets[t][traj_idx[t]] for t in range(T)])
    return X, obj


def grid_dp_oracle(costs: Sequence[CostFunction], x0,
                   grid: Optional[GridSpec] = None,
                   norm: Optional[Norm] = None,
                   feasible: Optional[FeasibleSet] = None,
                   refine: int = 2, refine_factor: int = 4,
                   move_weight: float = 1.0,
                   cap: int = 300000) -> OfflineSolution:
    """Exact dynamic program over a discretized state space (d <= 2, short T).

    After the first pass the grid zooms twice around the incumbent trajectory
    (refine_factor x resolution within +-2 cells per round), taming
    discretization bias.  The reported objective carries the final cell
    diagonal as its uncertainty tag.
    """
    x0 = np.asarray(x0, dtype=float)
    norm = norm or Norm.l2()
    if grid is None:
        grid = auto_grid(costs, x0)
    T, d = len(costs), grid.d
    if d > 2 or T > 8:
        raise ValueError("oracle is restricted to d <= 2 and T <= 8")
    if grid.points ** d > cap:
        raise ValueError("state-space size cap exceeded")

    pts = grid.mesh()
    point_sets = [pts] * T
    X, obj = _dp_solve(costs, x0, norm, point_sets, move_weight, feasible)
    span = grid.hi - grid.lo
    diag = grid.cell_diagonal(norm)
    zoom_n = 101 if d == 1 else 51
    half = span / 8.0  # wide first zoom: valleys can alias the coarse pass
    for _ in range(refine):
        point_sets = []
        for t in range(T):
            g = GridSpec(X[t] - half, X[t] + half, zoom_n)
            if g.points ** d > cap:
                raise ValueError("state-space size cap exceeded")
            point_sets.append(g.mesh())
        X_new, obj_new = _dp_solve(costs, x0, norm, point_sets, move_weight, feasible)
        if obj_new <= obj:
            X, obj = X_new, obj_new
        diag = norm(2.0 * half / (zoom_n - 1))
        half = half / refine_factor
    hit = float(sum(f(X[t]) for t, f in enumerate(costs)))
    diffs = X - np.vstack([x0[None, :], X[:-1]])
    move = float(_switch_values_exact(diffs, norm).sum())
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move,
                           objective=hit + move_weight * move,
                           uncertainty=diag,
                           note=f"grid oracle, +-{diag:.3g} cell diagonal")
