"""Offline comparators: dynamic optimum, movement-budgeted optimum, static play,
and a discretized dynamic-programming oracle for cross-validation.

All three comparators are one damped-Newton path-following solve
(``_solve``) of min_X sum_t f_t(x_t) + ||x_t - x_{t-1}|| over the feasible
set.  Nonsmooth norms are smoothed (Nesterov, Smooth minimization of
non-smooth functions, 2005) and the set enters as a log barrier (Boyd &
Vandenberghe, Convex Optimization, 11.2); stages lower the smoothing and the
barrier weight together.  The Hessian is block tridiagonal in the rounds, so
each Newton step is one banded Cholesky factorization.  ``static_opt`` ties
every round to one point; ``offline_opt_constrained`` adds a barrier row on
an upper bound of the movement, so the exact movement never exceeds L.  The
reported costs are the exact, unsmoothed ones.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .costs import CompositeCost, CostFunction, NormTrackingCost, QuadraticCost
from .geometry import (
    BALL, BOX, L1, L2, LINF, MAHALANOBIS, WHOLE,
    FeasibleSet, Norm,
)

log = logging.getLogger("obd")


@dataclass
class OfflineSolution:
    """A comparator trajectory with its exact (unsmoothed) accounting.

    ``iterations`` counts Newton steps; ``converged`` says whether the last
    stage met its Newton-decrement test (and a binding budget its window).
    """

    trajectory: np.ndarray  # (T, d)
    total_hit: float
    total_move: float
    objective: float
    lam: float = 0.0
    converged: bool = True
    note: str = ""
    uncertainty: float = 0.0
    iterations: int = 0


# ---------------------------------------------------------------------------
# Smoothed objective, barriers and the Newton solve
# ---------------------------------------------------------------------------

def _smoothed_norm(U: np.ndarray, norm: Norm, eps: float):
    """Row-wise (values, gradients, Hessians) of the eps-smoothed ``norm``.

    sqrt(||u||^2 + eps^2) - eps for l2 and Mahalanobis, the same per
    coordinate for l1, and eps * log-sum-exp of +-u/eps, shifted to vanish
    at 0, for linf.  Each lies below the norm by at most eps (l2 and
    Mahalanobis), d * eps (l1) or log(2d) * eps (linf).
    """
    m, d = U.shape
    diag = np.arange(d)
    if norm.kind == L1:
        r = np.sqrt(U * U + eps * eps)
        H = np.zeros((m, d, d))
        H[:, diag, diag] = eps * eps / r ** 3
        return (r - eps).sum(axis=1), U / r, H
    if norm.kind == LINF:
        Z = np.concatenate([U, -U], axis=1) / eps
        zmax = Z.max(axis=1, keepdims=True)
        E = np.exp(Z - zmax)
        s = E.sum(axis=1, keepdims=True)
        P = E / s
        G = P[:, :d] - P[:, d:]
        H = -G[:, :, None] * G[:, None, :]
        H[:, diag, diag] += P[:, :d] + P[:, d:]
        vals = eps * (zmax[:, 0] + np.log(s[:, 0]) - math.log(2 * d))
        return vals, G, H / eps
    Q = np.eye(d) if norm.kind == L2 else norm.Q
    QU = U if norm.kind == L2 else U @ Q
    r = np.sqrt((QU * U).sum(axis=1) + eps * eps)
    G = QU / r[:, None]
    H = (Q[None] - G[:, :, None] * G[:, None, :]) / r[:, None, None]
    return r - eps, G, H


def _switch_values_exact(diffs: np.ndarray, norm: Norm) -> np.ndarray:
    if norm.kind == L2:
        return np.sqrt(np.sum(diffs * diffs, axis=1))
    if norm.kind == L1:
        return np.sum(np.abs(diffs), axis=1)
    if norm.kind == LINF:
        return np.max(np.abs(diffs), axis=1) if diffs.size else np.zeros(0)
    qd = diffs @ norm.Q
    return np.sqrt(np.maximum(np.sum(qd * diffs, axis=1), 0.0))


def _hit_terms(costs: Sequence[CostFunction]):
    """(X, eps) -> (total value, row gradients, row Hessians) of the smoothed
    hitting costs, vectorized over the rounds of one cost family."""
    if all(isinstance(f, QuadraticCost) for f in costs):
        A = np.stack([f.A for f in costs])
        Y = np.stack([f.y for f in costs])
        H = 2.0 * np.stack([f.AtA for f in costs])

        def quad(X: np.ndarray, eps: float):
            res = np.einsum("tij,tj->ti", A, X) - Y
            return float((res * res).sum()), 2.0 * np.einsum("tji,tj->ti", A, res), H

        return quad
    if all(isinstance(f, NormTrackingCost) for f in costs):
        norm = costs[0].norm_a
        if any(f.norm_a.kind != norm.kind or not np.array_equal(f.norm_a.Q, norm.Q)
               for f in costs):
            raise ValueError("the Newton solve needs one tracking norm for all rounds")
        V = np.stack([f.minimizer for f in costs])
        s = np.array([f.scale for f in costs])

        def track(X: np.ndarray, eps: float):
            vals, G, H = _smoothed_norm(X - V, norm, eps)
            return float(s @ vals), s[:, None] * G, s[:, None, None] * H

        return track
    if all(isinstance(f, CompositeCost) for f in costs):
        g, h = _hit_terms([f.g for f in costs]), _hit_terms([f.h for f in costs])
        return lambda X, eps: tuple(a + b for a, b in zip(g(X, eps), h(X, eps)))
    raise ValueError("the Newton solve needs quadratic, norm-tracking or composite "
                     "costs, one family for all rounds")


def _set_barrier(feasible: FeasibleSet):
    """X -> (value, row gradients, row Hessians) of the set's log barrier,
    with value inf outside its interior; None for the whole space."""
    p = feasible.params
    if feasible.kind == WHOLE:
        return None
    if feasible.kind == BOX:
        lo, hi = p["lo"], p["hi"]

        def box(X: np.ndarray):
            a, b = X - lo, hi - X
            if a.min() <= 0.0 or b.min() <= 0.0:
                return math.inf, None, None
            d = X.shape[1]
            H = np.zeros((X.shape[0], d, d))
            H[:, np.arange(d), np.arange(d)] = 1.0 / (a * a) + 1.0 / (b * b)
            return -float(np.log(a).sum() + np.log(b).sum()), 1.0 / b - 1.0 / a, H

        return box
    if feasible.kind == BALL and p["norm"].kind in (L2, MAHALANOBIS):
        c, r2 = p["center"], p["radius"] ** 2
        Q = np.eye(c.shape[0]) if p["norm"].kind == L2 else p["norm"].Q

        def ball(X: np.ndarray):
            U = X - c
            QU = U @ Q
            s = r2 - (QU * U).sum(axis=1)
            if s.min() <= 0.0:
                return math.inf, None, None
            G = 2.0 * QU / s[:, None]
            H = 2.0 * Q[None] / s[:, None, None] + G[:, :, None] * G[:, None, :]
            return -float(np.log(s).sum()), G, H

        return ball
    kind = f"{p['norm'].kind} ball" if feasible.kind == BALL else feasible.kind
    raise ValueError(f"the Newton solve supports boxes and l2 or Mahalanobis balls, not a {kind}")


def _interior(feasible: FeasibleSet, X: np.ndarray) -> np.ndarray:
    """X with every row pulled strictly inside the set, where the barrier is finite."""
    p = feasible.params
    if feasible.kind == BOX:
        pad = 1e-3 * (p["hi"] - p["lo"])
        return np.clip(X, p["lo"] + pad, p["hi"] - pad)
    if feasible.kind == BALL:
        U = X - p["center"]
        n = np.maximum([p["norm"](u) for u in U], 1e-300)
        return p["center"] + np.minimum(1.0, (1.0 - 1e-3) * p["radius"] / n)[:, None] * U
    return X


class _TrajectoryProblem:
    """Smoothed, barrier-weighted objective over X (rows x d), and its Newton step.

    ``tied`` is static play: one row, its hitting terms summed over the
    rounds.  ``budget`` L adds the barrier row -mu * log(L - sum_t m_t), m_t
    the smoothed norm of x_t - x_{t-1} plus its largest gap, an upper bound
    on the norm; its multiplier mu / slack is ``lam``.
    """

    def __init__(self, costs: Sequence[CostFunction], x0, norm: Optional[Norm],
                 feasible: Optional[FeasibleSet], tied: bool = False,
                 budget: Optional[float] = None):
        self.costs = list(costs)
        self.x0 = np.asarray(x0, dtype=float)
        self.T, self.d = len(self.costs), self.x0.shape[0]
        d = self.d
        self.norm = norm or Norm.l2()
        self.feasible = feasible or FeasibleSet.whole_space(d)
        self.tied, self.budget = tied, budget
        self.rows = 1 if tied else self.T
        self.hit = _hit_terms(self.costs)
        self.barrier = _set_barrier(self.feasible)
        self.gap = self.rows * {L1: d, LINF: math.log(2 * d)}.get(self.norm.kind, 1.0)
        # the block-tridiagonal Hessian's lower triangle in LAPACK band storage:
        # entry (i, j), i >= j, of the matrix sits at row i - j, column j
        self.bw = min(2 * d - 1, self.rows * d - 1)
        a, b = self._lower = np.tril_indices(d)
        starts = d * np.arange(self.rows)[:, None]
        self._diag_at = tuple(np.broadcast_arrays(a - b, starts + b))
        a, b = (ix.ravel() for ix in np.indices((d, d)))
        self._off_at = tuple(np.broadcast_arrays(d + a - b, starts[:-1] + b))

    def diffs(self, X: np.ndarray) -> np.ndarray:
        return np.diff(X, axis=0, prepend=self.x0[None])

    def movement(self, X: np.ndarray) -> float:
        return float(_switch_values_exact(self.diffs(X), self.norm).sum())

    def exact_parts(self, X: np.ndarray):
        rows = np.broadcast_to(X, (self.T, self.d))
        return float(sum(f(rows[t]) for t, f in enumerate(self.costs))), self.movement(X)

    def evaluate(self, X: np.ndarray, eps: float, mu: float):
        """(F, gradient, diagonal blocks, off-diagonal blocks, rank-one column,
        budget multiplier); F is inf outside the barriers' domain."""
        F, grad, D = self.hit(np.broadcast_to(X, (self.T, self.d)), eps)
        if self.tied:
            grad, D = grad.sum(axis=0, keepdims=True), D.sum(axis=0, keepdims=True)
        vals, sg, sH = _smoothed_norm(self.diffs(X), self.norm, eps)
        F += float(vals.sum())
        w, q, lam = 1.0, None, 0.0
        move_grad = sg.copy()
        move_grad[:-1] -= sg[1:]
        if self.budget is not None:
            slack = self.budget - float(vals.sum()) - self.gap * eps
            if slack <= 0.0:
                return (math.inf,) * 6
            lam = mu / slack
            F -= mu * math.log(slack)
            w = 1.0 + lam
            q = (math.sqrt(mu) / slack) * move_grad
        grad = grad + w * move_grad
        D = D + w * sH
        D[:-1] += w * sH[1:]
        if self.barrier is not None:
            bv, bg, bH = self.barrier(X)
            if not math.isfinite(bv):
                return (math.inf,) * 6
            F += mu * bv
            grad = grad + mu * bg
            D = D + mu * bH
        return F, grad, D, -w * sH[1:], q, lam

    def newton_step(self, F: float, grad, D, C, q) -> np.ndarray:
        """Solve (H + ridge) step = -grad by banded Cholesky, the rank-one
        budget term by Sherman-Morrison; raises LinAlgError if H is not
        positive definite."""
        band = np.zeros((self.bw + 1, self.rows * self.d))
        band[self._diag_at] = D[:, self._lower[0], self._lower[1]]
        band[self._off_at] = C.transpose(0, 2, 1).reshape(len(C), self.d * self.d)
        band[0] += 1e-12 * (1.0 + abs(F)) + 1e-13 * float(np.abs(band).max())
        # the lower form: OpenBLAS threads the upper one, which crawls on a busy host
        factor = (cholesky_banded(band, lower=True), True)
        step = -cho_solve_banded(factor, grad.ravel())
        if q is not None:
            q = q.ravel()
            z = cho_solve_banded(factor, q)
            step -= z * (float(q @ step) / (1.0 + float(q @ z)))
        return step.reshape(grad.shape)


def _solve(problem, X: np.ndarray):
    """Damped Newton path following from the interior point X.

    Stage k = 2, ..., 10 smooths with eps = 10^-min(k, 8) under barrier
    weight mu = 10^-k * (1 + |F(X)|), for at most 200 Armijo-damped steps,
    until the Newton decrement is at most 1e-13 * (1 + |F|).  The last two
    stages only lower mu: each barrier costs about mu, and stopping at mu =
    1e-8 * (1 + |F(X)|) left budgeted solves up to 3e-8 relative higher.  The
    step that passes the decrement test is still taken.  A stage whose
    smoothing leaves X outside the budget is skipped.  ``problem`` provides
    ``exact_parts``, ``evaluate`` and ``newton_step``.  Returns (X, steps,
    whether the last stage ended on the decrement, lam).
    """
    scale = 1.0 + abs(sum(problem.exact_parts(X)))
    steps, done, lam = 0, False, 0.0
    for k in range(2, 11):
        eps, mu = 10.0 ** -min(k, 8), 10.0 ** -k * scale
        F, grad, D, C, q, lam = problem.evaluate(X, eps, mu)
        done = False
        if not math.isfinite(F):
            continue
        for _ in range(200):
            try:
                step = problem.newton_step(F, grad, D, C, q)
            except LinAlgError:
                break
            slope = float((grad * step).sum())
            done = -slope <= 1e-13 * (1.0 + abs(F))
            if done:
                X = X + step  # already solved, and inside the barriers' Dikin ellipsoid
                break
            if not math.isfinite(slope):
                break
            t = 1.0
            while t > 1e-12:
                trial = problem.evaluate(X + t * step, eps, mu)
                if trial[0] <= F + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            X = X + t * step
            F, grad, D, C, q, lam = trial
            steps += 1
    return X, steps, done, lam


def _solution(label: str, problem: _TrajectoryProblem, X: np.ndarray, steps: int,
              converged: bool, started: float, **fields) -> OfflineSolution:
    """The exact accounting of X, logged at debug level as one line."""
    hit, move = problem.exact_parts(X)
    log.debug("offline %s: T=%d d=%d steps=%d converged=%s %.3fs", label, problem.T,
              problem.d, steps, converged, time.perf_counter() - started)
    return OfflineSolution(trajectory=np.broadcast_to(X, (problem.T, problem.d)).copy(),
                           total_hit=hit, total_move=move, objective=hit + move,
                           converged=converged, iterations=steps, **fields)


def offline_opt(costs: Sequence[CostFunction], x0, feasible: Optional[FeasibleSet] = None,
                norm: Optional[Norm] = None) -> OfflineSolution:
    """Dynamic offline optimum of sum_t f_t(x_t) + ||x_t - x_{t-1}||."""
    started = time.perf_counter()
    problem = _TrajectoryProblem(costs, x0, norm, feasible)
    minimizers = np.stack([f.minimizer for f in costs])
    X, steps, converged, _ = _solve(problem, _interior(problem.feasible, minimizers))
    notes = []
    # Where staying put or jumping to every minimizer is optimal, the solve
    # can land slightly above it; never report more than these trajectories.
    for name, Y in (("stay at x0", np.tile(problem.x0, (problem.T, 1))),
                    ("jump to minimizers", minimizers)):
        if _inside(problem.feasible, Y, 0.0).all() \
                and sum(problem.exact_parts(Y)) < sum(problem.exact_parts(X)):
            X = Y
            notes.append(f"{name} trajectory beat the solve")
    return _solution("opt", problem, X, steps, converged, started, note="; ".join(notes))


def offline_opt_constrained(costs: Sequence[CostFunction], x0, L: float,
                            feasible: Optional[FeasibleSet] = None,
                            norm: Optional[Norm] = None,
                            base: Optional[OfflineSolution] = None) -> OfflineSolution:
    """Offline optimum under total movement budget L.

    ``base`` is the unconstrained optimum (solved here when not given); it is
    returned when its movement fits the budget.  Otherwise one budgeted solve
    starts from base shrunk toward x0 to half the budget.  Where the costs
    are flat along a face, the barrier can stop well inside the budget; the
    objective is convex on the segment to base and least at base, so moving
    along that segment until the movement meets L never raises it.
    """
    if L < 0.0:
        raise ValueError("movement budget L must be >= 0")
    started = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)
    if L <= 1e-12:
        X = np.tile(x0, (len(costs), 1))
        hit = float(sum(f(X[t]) for t, f in enumerate(costs)))
        return OfflineSolution(trajectory=X, total_hit=hit, total_move=0.0,
                               objective=hit, lam=math.inf,
                               note="zero movement budget: pinned at the start")
    if base is None:
        base = offline_opt(costs, x0, feasible, norm)
    if base.total_move <= L * (1.0 + 1e-9) + 1e-12:
        return base
    problem = _TrajectoryProblem(costs, x0, norm, feasible, budget=L)
    Y = _interior(problem.feasible, base.trajectory)
    start = x0 + (0.5 * L / max(problem.movement(Y), L)) * (Y - x0)
    X, steps, converged, lam = _solve(problem, start)
    note = ""
    if problem.movement(X) < L * (1.0 - 1e-4):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if problem.movement(X + mid * (base.trajectory - X)) <= L:
                lo = mid
            else:
                hi = mid
        X = X + lo * (base.trajectory - X)
        note = "moved along a flat face to the budget"
    converged = converged and L * (1.0 - 1e-4) <= problem.movement(X) <= L
    return _solution("opt_L", problem, X, steps, converged, started, lam=lam, note=note)


def static_opt(costs: Sequence[CostFunction], x0,
               feasible: Optional[FeasibleSet] = None,
               norm: Optional[Norm] = None) -> OfflineSolution:
    """Best single point: min_x ||x - x0|| + sum_t f_t(x), held for all rounds."""
    started = time.perf_counter()
    problem = _TrajectoryProblem(costs, x0, norm, feasible, tied=True)
    mean = np.mean([f.minimizer for f in costs], axis=0)[None]
    X, steps, converged, _ = _solve(problem, _interior(problem.feasible, mean))
    return _solution("static", problem, X, steps, converged, started)


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


# matrix entries per block of a DP transition: the block's buffers stay in cache
_BLOCK = 1 << 17


def _min_plus(a: np.ndarray, b: np.ndarray, norm: Norm, w: float,
              V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row minima over j of w * ||a_i - b_j|| + V_j, and their argmins.

    The rows of ``a`` go in blocks of about ``_BLOCK`` entries, each built in
    one buffer and updated in place, so no len(a) x len(b) matrix is formed.
    l2 and Mahalanobis distances are sqrt(max((|a_i|^2 + |b_j|^2) - 2 a_i.b_j, 0)),
    Mahalanobis after mapping both sides by the Cholesky factor of Q.
    """
    if norm.kind == MAHALANOBIS:
        a, b = a @ norm._chol, b @ norm._chol
    gram = norm.kind in (L2, MAHALANOBIS)
    n, m = len(a), len(b)
    rows = min(n, max(1, _BLOCK // (m if gram else m * a.shape[1])))
    buf = np.empty((rows, m))
    if gram:
        aa, bb, bt = np.sum(a * a, axis=1), np.sum(b * b, axis=1), b.T
        cross = np.empty((rows, m))
    else:
        diff = np.empty((rows, m, a.shape[1]))
        reduce = np.sum if norm.kind == L1 else np.max
    minima, argmins = np.empty(n), np.empty(n, dtype=np.intp)
    for i in range(0, n, rows):
        k = min(rows, n - i)
        D = buf[:k]
        if gram:
            np.add(aa[i:i + k, None], bb[None, :], out=D)
            ab = np.matmul(a[i:i + k], bt, out=cross[:k])
            ab *= 2.0
            D -= ab
            np.maximum(D, 0.0, out=D)
            np.sqrt(D, out=D)
        else:
            u = diff[:k]
            np.subtract(a[i:i + k, None, :], b[None, :, :], out=u)
            np.abs(u, out=u)
            reduce(u, axis=2, out=D)
        D *= w
        D += V
        j = np.argmin(D, axis=1)
        argmins[i:i + k] = j
        minima[i:i + k] = D[np.arange(k), j]
    return minima, argmins


def _inside(feasible: FeasibleSet, pts: np.ndarray, tol: float) -> np.ndarray:
    """Row mask of ``feasible.contains(p, tol)`` over the rows p of pts.

    Boxes and l2 or Mahalanobis balls are tested all at once.  A ball row
    whose norm lies within rounding of the bound goes to ``contains`` itself,
    whose norm sums in another order; other sets go one row at a time.
    """
    p = feasible.params
    if feasible.kind == WHOLE:
        return np.ones(len(pts), dtype=bool)
    if feasible.kind == BOX:
        return np.all((pts >= p["lo"] - tol) & (pts <= p["hi"] + tol), axis=1)
    if feasible.kind == BALL and p["norm"].kind in (L2, MAHALANOBIS):
        U = pts - p["center"]
        if p["norm"].kind == MAHALANOBIS:
            U = U @ p["norm"]._chol
        r = np.linalg.norm(U, axis=1)
        bound = p["radius"] + tol
        mask = r <= bound
        near = np.flatnonzero(np.abs(r - bound) <= 1e-12 * bound)
        mask[near] = [feasible.contains(pts[i], tol) for i in near]
        return mask
    return np.array([feasible.contains(x, tol) for x in pts], dtype=bool)


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
    if feasible is not None:
        point_sets = [pts[_inside(feasible, pts, 1e-9)] for pts in point_sets]
        if any(len(p) == 0 for p in point_sets):
            raise ValueError("grid does not intersect the feasible set")
    values = [_batch_cost_values(f, pts) for f, pts in zip(costs, point_sets)]
    V = values[T - 1]
    choices = []
    for t in range(T - 2, -1, -1):
        best, idx = _min_plus(point_sets[t], point_sets[t + 1], norm, move_weight, V)
        choices.append(idx)
        V = values[t] + best
    choices.reverse()
    best, idx = _min_plus(np.asarray(x0, dtype=float)[None, :], point_sets[0], norm,
                          move_weight, V)
    obj = float(best[0])
    traj_idx = [int(idx[0])]
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

    After the first pass the grid zooms ``refine`` times around the incumbent
    trajectory (refine_factor x finer each time), taming discretization bias.
    Each DP transition is a min-plus step taken over cache-sized blocks of
    rows, so the distance matrix between two rounds' grids is never formed
    whole (a 51 x 51 zoom grid's would be 54 MB).  The reported
    objective carries the final cell diagonal as its uncertainty tag; one
    debug line per solve gives T, d, the largest grid per round, the passes
    and the seconds.
    """
    started = time.perf_counter()
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
    log.debug("offline oracle: T=%d d=%d points=%d passes=%d %.3fs", T, d,
              max(grid.points ** d, zoom_n ** d if refine else 0), 1 + refine,
              time.perf_counter() - started)
    hit = float(sum(f(X[t]) for t, f in enumerate(costs)))
    diffs = X - np.vstack([x0[None, :], X[:-1]])
    move = float(_switch_values_exact(diffs, norm).sum())
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move,
                           objective=hit + move_weight * move,
                           uncertainty=diag,
                           note=f"grid oracle, +-{diag:.3g} cell diagonal")
