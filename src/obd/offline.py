"""Offline comparators: dynamic optimum, movement-budgeted optimum, static play,
and a discretized dynamic-programming oracle for cross-validation.

A problem's costs are described once (``_cost_parts``), as stacked quadratic
and norm-tracking parts that both solvers read.  ``offline_opt`` and
``static_opt`` are one damped-Newton path-following solve (``_solve``) of
min_X sum_t f_t(x_t) + ||x_t - x_{t-1}|| over the feasible set, nonsmooth
norms smoothed (Nesterov, Smooth minimization of non-smooth functions, 2005)
and the set a log barrier (Boyd & Vandenberghe, Convex Optimization, 11.2);
each Newton step is one banded Cholesky factorization.  ``static_opt`` ties
every round to one point.  Both report through one driver (``_guarded``):
never more than a candidate inside the set (staying at x0 and jumping to
every minimizer; holding x0 and holding each round's minimizer), and not
converged when a candidate beats the solve by more than 1e-6 relative.  A
jump that its dual point proves optimal takes no solve.  A binding movement
budget (``offline_opt_constrained``) is a cone QP with no smoothing, solved
by a primal-dual interior-point method (``_BudgetProgram``; Vandenberghe,
The CVXOPT linear and quadratic cone program solvers, 2010).  The reported
costs are the exact, unsmoothed ones.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import operator
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy
from numpy.linalg import LinAlgError
from numpy.lib.stride_tricks import sliding_window_view

from .costs import (
    CompositeCost, CostFunction, NormTrackingCost, QuadraticCost, quadratic_value,
)
from .geometry import (
    BALL, BOX, L1, L2, LINF, MAHALANOBIS, WHOLE,
    FeasibleSet, Norm,
)

log = logging.getLogger("obd")


@dataclass
class OfflineSolution:
    """A comparator trajectory with its exact (unsmoothed) accounting.

    ``iterations`` counts Newton steps; ``converged`` is False when the last
    stage missed its Newton-decrement test, or when a candidate trajectory
    beat the solve's end point by more than 1e-6 relative.  A jump to the
    minimizers certified optimal by its dual point takes no solve:
    ``iterations`` 0, ``converged`` True.  A binding ``OPT(L)`` counts
    interior-point iterations instead, one banded factorization each (its
    start takes one more), and is converged when its duality gap closed; its
    ``lam`` is the budget row's dual variable (0 for a budget that does not
    bind, inf for a zero budget).
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

@functools.lru_cache(maxsize=None)
def _eye(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _smoothed_norm(U: np.ndarray, norm: Norm, eps: float):
    """Row-wise values of the eps-smoothed ``norm``, and a function that
    returns their (gradients, Hessians).

    sqrt(||u||^2 + eps^2) - eps for l2 and Mahalanobis, the same per
    coordinate for l1, and eps * log-sum-exp of +-u/eps, shifted to vanish
    at 0, for linf.  Each lies below the norm by at most eps (l2 and
    Mahalanobis), d * eps (l1) or log(2d) * eps (linf).
    """
    m, d = U.shape
    if norm.kind == L1:
        r = np.sqrt(U * U + eps * eps)

        def l1():
            H = np.zeros((m, d, d))
            H[:, np.arange(d), np.arange(d)] = eps * eps / r ** 3
            return U / r, H

        return (r - eps).sum(axis=1), l1
    if norm.kind == LINF:
        Z = np.concatenate([U, -U], axis=1) / eps
        zmax = Z.max(axis=1, keepdims=True)
        E = np.exp(Z - zmax)
        s = E.sum(axis=1, keepdims=True)

        def linf():
            P = E / s
            G = P[:, :d] - P[:, d:]
            H = -G[:, :, None] * G[:, None, :]
            H[:, np.arange(d), np.arange(d)] += P[:, :d] + P[:, d:]
            return G, H / eps

        return eps * (zmax[:, 0] + np.log(s[:, 0]) - math.log(2 * d)), linf
    QU = U if norm.kind == L2 else U @ norm.Q
    r = np.sqrt((QU * U).sum(axis=1) + eps * eps)

    def quadratic_form():
        Q = _eye(d) if norm.kind == L2 else norm.Q
        G = QU / r[:, None]
        return G, (Q[None] - G[:, :, None] * G[:, None, :]) / r[:, None, None]

    return r - eps, quadratic_form


def _cost_parts(costs: Sequence[CostFunction]) -> list:
    """The rounds' costs stacked into the parts both solvers read: ("quadratic",
    A, Y, A'A, A'y) for ||A_t x - y_t||^2, ("tracking", norm, V, s) for s_t
    ||x - v_t||, a composite's two in order; ValueError for mixed families or
    tracking norms that differ by round."""
    if all(isinstance(f, QuadraticCost) for f in costs):
        return [("quadratic",) + tuple(np.stack([getattr(f, name) for f in costs])
                                       for name in ("A", "y", "AtA", "Aty"))]
    if all(isinstance(f, NormTrackingCost) for f in costs):
        norm = costs[0].norm_a
        if any(f.norm_a != norm for f in costs):
            raise ValueError("the offline solves need one tracking norm for all rounds")
        return [("tracking", norm, np.stack([f.minimizer for f in costs]),
                 np.array([f.scale for f in costs]))]
    if all(isinstance(f, CompositeCost) for f in costs):
        return _cost_parts([f.g for f in costs]) + _cost_parts([f.h for f in costs])
    raise ValueError("the offline solves need quadratic, norm-tracking or composite "
                     "costs, one family for all rounds")


def _part_terms(part):
    """A cost part's smoothed hitting costs at the rows X, (X, eps) -> (total,
    a function returning the row gradients and Hessians); and its exact price,
    R -> each round's cost at its row of R, with that round's own call's bits."""
    if part[0] == "quadratic":
        A, Y, H = part[1], part[2], 2.0 * part[3]

        def quad(X: np.ndarray, eps: float):
            res = np.einsum("tij,tj->ti", A, X) - Y
            return float((res * res).sum()), lambda: (
                2.0 * np.einsum("tji,tj->ti", A, res), H)

        return quad, lambda R: quadratic_value(A, Y, R)
    _, norm, V, s = part

    def track(X: np.ndarray, eps: float):
        vals, derivs = _smoothed_norm(X - V, norm, eps)

        def scaled():
            G, H = derivs()
            return s[:, None] * G, s[:, None, None] * H

        return float(s @ vals), scaled

    return track, lambda R: s * norm(R - V)


_total = functools.partial(functools.reduce, operator.add)  # left to right, first term as is


def _set_barrier(feasible: FeasibleSet):
    """X -> (value, a function returning the row gradients and row Hessians)
    of the set's log barrier, with value inf (and no function) outside its
    interior; None for the whole space."""
    p = feasible.params
    if feasible.kind == WHOLE:
        return None
    if feasible.kind == BOX:
        lo, hi = p["lo"], p["hi"]

        def box(X: np.ndarray):
            a, b = X - lo, hi - X
            if a.min() <= 0.0 or b.min() <= 0.0:
                return math.inf, None

            def derivs():
                d = X.shape[1]
                H = np.zeros((X.shape[0], d, d))
                H[:, np.arange(d), np.arange(d)] = 1.0 / (a * a) + 1.0 / (b * b)
                return 1.0 / b - 1.0 / a, H

            return -float(np.log(a).sum() + np.log(b).sum()), derivs

        return box
    if feasible.kind == BALL and p["norm"].kind in (L2, MAHALANOBIS):
        c, r2 = p["center"], p["radius"] ** 2
        Q = _eye(c.shape[0]) if p["norm"].kind == L2 else p["norm"].Q

        def ball(X: np.ndarray):
            U = X - c
            QU = U @ Q
            s = r2 - (QU * U).sum(axis=1)
            if s.min() <= 0.0:
                return math.inf, None

            def derivs():
                G = 2.0 * QU / s[:, None]
                return G, 2.0 * Q[None] / s[:, None, None] + G[:, :, None] * G[:, None, :]

            return -float(np.log(s).sum()), derivs

        return ball
    kind = f"{p['norm'].kind} ball" if feasible.kind == BALL else feasible.kind
    raise ValueError(f"the Newton solve supports boxes and l2 or Mahalanobis balls, not a {kind}")


def _interior(feasible: FeasibleSet, X: np.ndarray) -> np.ndarray:
    """X with every row pulled strictly inside the set, where the barrier is
    finite; a ball's rows are scaled by their norms, taken as one stack."""
    p = feasible.params
    if feasible.kind == BOX:
        pad = 1e-3 * (p["hi"] - p["lo"])
        return np.clip(X, p["lo"] + pad, p["hi"] - pad)
    if feasible.kind == BALL:
        U = X - p["center"]
        n = np.maximum(p["norm"](U), 1e-300)
        return p["center"] + np.minimum(1.0, (1.0 - 1e-3) * p["radius"] / n)[:, None] * U
    return X


@functools.lru_cache(maxsize=16)
def _band_index(rows: int, m: int) -> np.ndarray:
    """The index of the lower triangle of a block-tridiagonal matrix, rows
    blocks of size m, in LAPACK band storage: entry (i, j), i >= j, sits at
    row i - j of column j.  Column j = k m + b holds D_k[b:, b], row b of
    C_k, then zeros, so the band, stored column by column as LAPACK reads
    it, is this gather from the flat [D, C, 0] of the diagonal blocks D
    (rows, m, m) and the blocks C (rows - 1, m, m) above them, with
    min(2m - 1, rows m - 1) rows below the diagonal.  Cached, read-only:
    every solve of one shape gathers the same way."""
    bw = min(2 * m - 1, rows * m - 1)
    k, b, r = np.ix_(np.arange(rows), np.arange(m), np.arange(bw + 1))
    a, size = b + r, rows * m * m
    index = np.where(
        a < m, k * m * m + a * m + b,
        np.where((a < 2 * m) & (k < rows - 1), size + k * m * m + b * m + a - m,
                 2 * size - m * m)).reshape(rows * m, bw + 1)
    index.flags.writeable = False
    return index


class _TrajectoryProblem:
    """Smoothed, barrier-weighted objective over X (rows x d), and its Newton step.
    ``tied`` is static play: one row, its hitting terms summed over the rounds.

    With ``Q`` it is the one-row problem behind x(eta) in
    ``projection.solve_regularized``: one cost f, x0 = x_prev, the map's
    divergence 1/2 (x - x_prev)'Q(x - x_prev) as the movement term in place
    of the switching norm, and the hit term weighted by ``eta``.
    """

    def __init__(self, costs: Sequence[CostFunction], x0, norm: Optional[Norm],
                 feasible: Optional[FeasibleSet], tied: bool = False,
                 Q: Optional[np.ndarray] = None, eta: float = 1.0):
        self.x0 = np.asarray(x0, dtype=float)
        self.T, self.d = len(costs), self.x0.shape[0]
        self.norm = norm or Norm.l2()
        self.feasible = feasible or FeasibleSet.whole_space(self.d)
        self.tied, self.Q, self.eta = tied, Q, eta
        self.rows = 1 if tied else self.T
        self.parts = _cost_parts(costs)
        self._terms = [_part_terms(part) for part in self.parts]
        self.barrier = _set_barrier(self.feasible)
        # the block-tridiagonal Hessian's lower triangle in LAPACK band storage
        self._band_at = _band_index(self.rows, self.d)

    def hit(self, X: np.ndarray, eps: float):
        """``_part_terms``'s smoothed hitting costs, summed over the parts."""
        values, derivs = zip(*(smoothed(X, eps) for smoothed, _ in self._terms))
        return _total(values), lambda: tuple(map(_total, zip(*(f() for f in derivs))))

    def price(self, R: np.ndarray) -> np.ndarray:
        """``_part_terms``'s exact prices at R (..., T, d), summed over the parts."""
        return _total([price(R) for _, price in self._terms])

    def diffs(self, X: np.ndarray) -> np.ndarray:
        U = np.empty_like(X)
        np.subtract(X[:1], self.x0, out=U[:1])
        np.subtract(X[1:], X[:-1], out=U[1:])
        return U

    def moves(self, U: np.ndarray, eps: float):
        """Row values of the movement term at the moves U, and a function that
        returns their (gradients, Hessians): the eps-smoothed switching norm,
        or the divergence 1/2 u'Qu, which is smooth."""
        if self.Q is None:
            return _smoothed_norm(U, self.norm, eps)
        QU = U @ self.Q
        return 0.5 * (QU * U).sum(axis=1), lambda: (QU, self.Q[None])

    def movement(self, X: np.ndarray) -> float:
        U = self.diffs(X)
        return float((self.norm(U) if self.Q is None else self.moves(U, 0.0)[0]).sum())

    def exact_parts(self, X: np.ndarray):
        """(hit, move) of X, exact, the hit weighted by eta.  The rounds are
        priced as one stack, each with the bits of its own cost call, and
        summed in round order."""
        hits = self.price(np.broadcast_to(X, (self.T, self.d))).tolist()
        return self.eta * float(sum(hits)), self.movement(X)

    def terms(self, X: np.ndarray, eps: float, mu: float):
        """F and its terms' derivative functions; F is inf (and the terms None)
        outside the barriers' domain."""
        F, hit = self.hit(np.broadcast_to(X, (self.T, self.d)) if self.tied else X, eps)
        vals, move = self.moves(self.diffs(X), eps)
        F = self.eta * F + float(vals.sum())
        barrier = None
        if self.barrier is not None:
            bv, barrier = self.barrier(X)
            if not math.isfinite(bv):
                return math.inf, None
            F += mu * bv
        return F, (hit, move, barrier)

    def evaluate(self, X: np.ndarray, eps: float, mu: float, trial=None):
        """(F, gradient, diagonal blocks, off-diagonal blocks); F is inf outside
        the barriers' domain.  ``trial`` is ``terms``'s result at X, when
        already computed."""
        F, terms = trial or self.terms(X, eps, mu)
        if terms is None:
            return (math.inf,) * 4
        hit, move, barrier = terms
        grad, D = hit()
        if self.tied:
            grad, D = grad.sum(axis=0, keepdims=True), D.sum(axis=0, keepdims=True)
        if self.eta != 1.0:  # the x(eta) form; the comparators skip the product
            grad, D = self.eta * grad, self.eta * D
        sg, sH = move()
        move_grad = sg.copy()
        move_grad[:-1] -= sg[1:]
        grad = grad + move_grad
        D = D + sH
        D[:-1] += sH[1:]
        if barrier is not None:
            bg, bH = barrier()
            grad += mu * bg
            D += mu * bH
        return F, grad, D, -sH[1:]

    def newton_step(self, F: float, grad, D, C) -> np.ndarray:
        """Solve (H + ridge) step = -grad by banded Cholesky; raises LinAlgError
        if H is not positive definite and ValueError if H or grad is not
        finite."""
        band = _band(D, C, self._band_at)
        ridge = 1e-12 * (1.0 + abs(F)) + 1e-13 * float(np.abs(band).max())
        if not math.isfinite(ridge):  # so is the band, or F
            raise ValueError("array must not contain infs or NaNs")
        band[0] += ridge
        return -_solve_banded(_cholesky(band), grad.ravel()).reshape(grad.shape)


def _load_flapack():
    """scipy's LAPACK extension module, loaded without running the
    ``scipy.linalg`` package's ``__init__`` (about 0.25 s and 17 MB at import).

    The module is registered under its own name, so a later ``import
    scipy.linalg`` reuses it; there is no fallback if scipy's layout moves.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__}: no {name} in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def _band(D: np.ndarray, C: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The lower band of the block-tridiagonal matrix with diagonal blocks D
    and blocks C above them, gathered by ``_band_index``'s ``index``."""
    return np.take(np.concatenate((D.ravel(), C.ravel(), [0.0])), index).T


def _cholesky(band: np.ndarray) -> np.ndarray:
    """The lower banded Cholesky factor, computed in place of ``band``; raises
    LinAlgError if the matrix is not positive definite."""
    # the lower form: OpenBLAS threads the upper one, which crawls on a busy host
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return factor


def _solve_banded(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A solve with the lower banded Cholesky ``factor``; ValueError if rhs is
    not finite."""
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpbtrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrs")
    return x


def _solve(problem, X: np.ndarray, price: Optional[float] = None):
    """Damped Newton path following from the interior point X, whose exact
    objective is ``price`` when already known.

    Stage k = 2, ..., 10 smooths with eps = 10^-min(k, 8) under barrier
    weight mu = 10^-k * (1 + |F(X)|), for at most 200 Armijo-damped steps,
    until the Newton decrement is at most 1e-13 * (1 + |F|).  The last two
    stages only lower mu: each barrier costs about mu.  The step that passes
    the decrement test is still taken.  ``problem`` provides
    ``exact_parts``; ``terms``, the objective with its terms' derivative
    functions not yet called, which prices each Armijo trial; ``evaluate``,
    the objective with its derivatives, built from the accepted trial's
    terms; and ``newton_step``.  Returns (X, steps, whether the last stage
    ended on the decrement).
    """
    scale = 1.0 + abs(sum(problem.exact_parts(X)) if price is None else price)
    steps, done = 0, False
    for k in range(2, 11):
        eps, mu = 10.0 ** -min(k, 8), 10.0 ** -k * scale
        F, grad, D, C = problem.evaluate(X, eps, mu)
        done = False
        if not math.isfinite(F):  # outside the barriers' domain: nothing to step from
            continue
        for _ in range(200):
            try:
                step = problem.newton_step(F, grad, D, C)
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
                Y = X + t * step
                trial = problem.terms(Y, eps, mu)
                if trial[0] <= F + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            X = Y
            F, grad, D, C = problem.evaluate(X, eps, mu, trial)
            steps += 1
    return X, steps, done


def _solution(label: str, problem: _TrajectoryProblem, X: np.ndarray, parts, steps: int,
              converged: bool, started: float, **fields) -> OfflineSolution:
    """X with its exact accounting ``parts`` (hit, move), logged at debug
    level as one line."""
    log.debug("offline %s: T=%d d=%d steps=%d converged=%s %.3fs", label, problem.T,
              problem.d, steps, converged, time.perf_counter() - started)
    return OfflineSolution(trajectory=np.broadcast_to(X, (problem.T, problem.d)).copy(),
                           total_hit=parts[0], total_move=parts[1], objective=sum(parts),
                           converged=converged, iterations=steps, **fields)


def _jump_certified(problem: _TrajectoryProblem) -> bool:
    """Whether Lagrange duality (Boyd & Vandenberghe 5.5.3) proves the jump to
    every minimizer v_t optimal, for norm-tracking costs s_t ||x - v_t||_a
    under an l2 or Mahalanobis switching norm, the jump inside the set.

    Write the switching norm as max nu' u over ||nu||_* <= 1 and take nu_t its
    gradient at the jump's move u_t = v_t - v_{t-1} (v_0 = x_0), nu_{T+1} = 0.
    Where ||nu_t - nu_{t+1}||_a* <= s_t, round t's Lagrangian term is least at
    v_t, so OPT >= sum_t nu_t' u_t = sum_t ||u_t||, the jump's cost.  A zero
    move has no gradient, and l1 and linf have no unique one.
    """
    if problem.norm.kind not in (L2, MAHALANOBIS) or [p[0] for p in problem.parts] != ["tracking"]:
        return False
    _, norm_a, V, s = problem.parts[0]
    U = problem.diffs(V)
    n = problem.norm(U)
    if not n.all():
        return False
    nu = (U if problem.norm.kind == L2 else U @ problem.norm.Q) / n[:, None]
    nu[:-1] -= nu[1:]
    return bool((norm_a.dual()(nu) <= s * (1.0 - 1e-12)).all())


def _guarded(label: str, problem: _TrajectoryProblem, Y: np.ndarray, price: Optional[float],
             paths: dict, started: float) -> OfflineSolution:
    """``_solve`` from Y pulled inside the set (``price``, Y's exact objective,
    if known), reported as the cheapest of its end point and the candidates
    ``paths``, name: (trajectory in the set, exact parts); ties go to the
    solve.  Not converged if a candidate beats the end by over 1e-6 relative."""
    start = _interior(problem.feasible, Y)
    X, steps, converged = _solve(problem, start, price if np.array_equal(start, Y) else None)
    parts, notes = problem.exact_parts(X), []
    end = sum(parts)  # the solve's own end point, for the convergence test
    for name, (Y, Y_parts) in paths.items():
        if sum(Y_parts) < sum(parts):
            X, parts = Y, Y_parts
            notes.append(f"{name} trajectory beat the solve")
    converged = converged and end <= sum(parts) * (1.0 + 1e-6)
    return _solution(label, problem, X, parts, steps, converged, started, note="; ".join(notes))


def offline_opt(costs: Sequence[CostFunction], x0, feasible: Optional[FeasibleSet] = None,
                norm: Optional[Norm] = None) -> OfflineSolution:
    """Dynamic offline optimum of sum_t f_t(x_t) + ||x_t - x_{t-1}||.

    Staying at x0 and jumping to every minimizer are priced first.  A jump
    that ``_jump_certified`` proves optimal is returned without a solve;
    otherwise ``_guarded`` solves from the cheaper of the two when both lie in
    the set, else from the minimizers.
    """
    started = time.perf_counter()
    problem = _TrajectoryProblem(costs, x0, norm, feasible)
    minimizers = np.stack([f.minimizer for f in costs])
    paths = {name: (Y, problem.exact_parts(Y))
             for name, Y in (("stay at x0", np.tile(problem.x0, (problem.T, 1))),
                             ("jump to minimizers", minimizers))
             if problem.feasible.contains(Y, 0.0).all()}
    if "jump to minimizers" in paths and _jump_certified(problem):
        return _solution("opt", problem, minimizers, paths["jump to minimizers"][1], 0, True,
                         started, note="jump to minimizers trajectory certified optimal "
                                       "by its dual point")
    Y, price = minimizers, None
    if len(paths) == 2:  # the cheaper of the two, already priced
        Y, parts = min(paths.values(), key=lambda path: sum(path[1]))
        price = sum(parts)
    return _guarded("opt", problem, Y, price, paths, started)


# ---------------------------------------------------------------------------
# The movement budget: a primal-dual cone QP
# ---------------------------------------------------------------------------

def _jdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a'Jb along the last axis, J = diag(1, -1, ..., -1): a second-order cone
    {u : u_0 >= ||u_1||} is where u'Ju >= 0 and u_0 >= 0."""
    return 2.0 * a[..., 0] * b[..., 0] - np.einsum("...i,...i->...", a, b)


def _circ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cone product a o b = (a'b, a_0 b_1 + b_0 a_1) along the last axis."""
    out = a[..., :1] * b + b[..., :1] * a
    out[..., 0] = np.einsum("...i,...i->...", a, b)
    return out


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of matrices and vectors."""
    return np.einsum("...ij,...j->...i", M, v)


def _mtv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M'v for stacks of matrices and vectors."""
    return np.einsum("...ji,...j->...i", M, v)


@functools.lru_cache(maxsize=None)
def _soc_consts(p: int):
    """diag(0, 1, ..., 1), the signs of J X J and the diagonal of J, for
    cones of size p; read-only."""
    eye = np.eye(p)
    eye[0, 0] = 0.0
    j = -np.ones(p)
    j[0] = 1.0
    signs = np.outer(j, j)
    for a in (eye, signs, j):
        a.flags.writeable = False
    return eye, signs, j


def _nt_scaling(sz: np.ndarray) -> np.ndarray:
    """The Nesterov-Todd scalings of second-order cone points, s = sz[0] and
    z = sz[1], stacked along the middle axes: W and its inverse as sz's two
    halves, W symmetric with W z = W^-1 s (Vandenberghe 2010, section 4.3:
    W = beta (2vv' - J) with v'Jv = 1/2)."""
    n = np.sqrt(_jdot(sz, sz))
    bar = sz / n[..., None]
    bar[1, ..., 1:] *= -1.0  # J z-bar
    w = bar[0] + bar[1]
    w /= np.sqrt(2.0 + 2.0 * _jdot(bar[0], bar[1]))[..., None]
    eye, signs, _ = _soc_consts(sz.shape[-1])
    W = w[..., :, None] * (w / (1.0 + w[..., :1]))[..., None, :]
    W += eye
    W[..., 0, :] = w
    W[..., :, 0] = w
    beta = np.sqrt(n[0] / n[1])[..., None, None]
    out = np.empty((2,) + W.shape)
    np.multiply(W, beta, out=out[0])
    np.multiply(W, signs, out=out[1])
    out[1] /= beta
    return out


def _soc_worst(lj: np.ndarray, det: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each direction D relative to its cone point
    lam (of P(lam^-1/2) D in the cone's Jordan algebra), given lj = J lam /
    det and det = lam'J lam: lam + t D stays in the cone for every t below -1
    over a negative value."""
    u0 = np.einsum("...i,...i->...", lj, D)
    return u0 - np.sqrt(np.maximum(u0 * u0 - _jdot(D, D) / det, 0.0))


class _BudgetProgram:
    """OPT(L) as a cone QP, min 1/2 z'Pz + q'z + c subject to Gz + s = h with
    s in K, a product of nonnegative orthants and second-order cones, solved
    by a primal-dual interior-point method (``solve``).

    z holds one block b_t = (x_t, e_t) per round, e_t the epigraph bounds of
    the round's norms: the switching norm's of u = x_t - x_{t-1}, then each
    tracking norm's of u = x_t - v_t.  An l2 or Mahalanobis norm takes one
    bound sigma with (sigma, R u) in a cone, R'R its matrix (R the transposed
    Cholesky factor); linf one bound with the 2d rows -sigma <= u_i <= sigma;
    l1 one bound per coordinate.  The bounds weigh 1 (switching) or the cost's
    scale (tracking) in q, quadratics ||A x - y||^2 enter P and q, a ball is
    one cone (r, R(x - c)) per round and a box 2d rows.  Every round has the
    same rows G = [G_prev | G_cur], acting on (b_{t-1}, b_t), with its own
    right-hand side; the start x0 is folded into round 1's.  The cone rows of
    a round come first, then its linear rows.  The budget is one more row:
    the switching bounds sum to at most L.  Ordered round by round, the
    reduced KKT matrix P + G'W^-1 W^-T G is block tridiagonal, plus the
    budget row's rank-one term.
    """

    def __init__(self, problem: _TrajectoryProblem, L: float):
        T, d, norm = problem.T, problem.d, problem.norm
        width = lambda n: d if n.kind == L1 else 1  # noqa: E731
        m = d + width(norm) + sum(width(p[1]) for p in problem.parts if p[0] == "tracking")
        self.T, self.d, self.m, self.L = T, d, m, L
        self.P, self.q, self.const = None, np.zeros((T, m)), 0.0
        cones, rows = [], []  # (G, h) pairs: G (k, 2m), h (k,) or (T, k)
        free = [d]  # the next unused index of a block

        def epigraph(nrm: Norm, A: np.ndarray, c, weight) -> np.ndarray:
            """Bounds on ||A (b_{t-1}, b_t) - c_t||, weighing ``weight`` each in
            q; returns their slice of a block."""
            k = width(nrm)
            idx = slice(free[0], free[0] + k)
            free[0] += k
            self.q[:, idx] += np.reshape(weight, (-1, 1))
            E = np.zeros((k, 2 * m))
            E[:, m + idx.start:m + idx.stop] = _eye(k)
            if nrm.kind in (L2, MAHALANOBIS):
                R = _eye(d) if nrm.kind == L2 else nrm._chol.T
                cones.append((-np.vstack([E, R @ A]),
                              np.concatenate([np.zeros(np.shape(c)[:-1] + (1,)), -c @ R.T],
                                             axis=-1)))
            else:
                E = E if nrm.kind == L1 else np.repeat(E, d, axis=0)
                rows.extend([(A - E, c), (-A - E, -c)])
            return idx

        Ax = np.zeros((d, 2 * m))
        Ax[:, m:m + d] = _eye(d)
        self.budget = epigraph(norm, Ax - np.roll(Ax, -m, axis=1), np.zeros(d), 1.0)
        for part in problem.parts:
            if part[0] == "tracking":
                epigraph(part[1], Ax, part[2], part[3])
                continue
            _, _, Y, AtA, Aty = part  # ||A x - y||^2 = x'A'A x - 2 y'A x + y'y
            self.P = 2.0 * AtA if self.P is None else self.P + 2.0 * AtA
            self.q[:, :d] += -2.0 * Aty
            self.const += float(Y.ravel() @ Y.ravel())
        p = problem.feasible.params
        if problem.feasible.kind == BOX:
            rows.extend([(Ax, p["hi"]), (-Ax, -p["lo"])])
        elif problem.feasible.kind == BALL:
            R = _eye(d) if p["norm"].kind == L2 else p["norm"]._chol.T
            cones.append((-np.vstack([np.zeros(2 * m), R @ Ax]),
                          np.concatenate([[p["radius"]], -R @ p["center"]])))
        parts = cones + rows
        self.G = np.vstack([G for G, _ in parts])
        self.h = np.hstack([np.broadcast_to(h, (T, len(G))) for G, h in parts])
        self.h[0] -= self.G[:, :d] @ problem.x0
        # a linear row is a cone of size 1, {s : s >= 0}: a round's rows are at
        # most two stacks of equal cones, (count, size) each
        self.stacks = [(n, p) for n, p in ((len(cones), d + 1),
                                           (sum(len(G) for G, _ in rows), 1)) if n]
        ends = np.cumsum([n * p for n, p in self.stacks])
        self._spans = [(e - n * p, e, n, p) for e, (n, p) in zip(ends, self.stacks)]
        self.stack_G = [self.G[a:b].reshape(n, p, 2 * m) for a, b, n, p in self._spans]
        self.degree = T * sum(n for n, _ in self.stacks) + 1
        self.g = np.zeros((T, m))
        self.g[:, self.budget] = 1.0
        self.g = self.g.ravel()
        self._band_at = _band_index(T, m)

    def rows(self, Z: np.ndarray):
        """G z per round (T, rows) and the budget row's sum."""
        m = self.m
        pair = np.empty((self.T, 2 * m))
        pair[0, :m] = 0.0
        pair[1:, :m] = Z[:-1]
        pair[:, m:] = Z
        return pair @ self.G.T, float(Z[:, self.budget].sum())

    def cols(self, Y: np.ndarray, yb: float) -> np.ndarray:
        """G'y for y = (Y per round, yb on the budget row), as blocks (T, m)."""
        V = Y @ self.G
        m = self.m
        out = V[:, m:].copy()
        out[:-1] += V[1:, :m]
        out[:, self.budget] += yb
        return out

    def cones(self, Y: np.ndarray) -> list:
        """The stacks of rows Y (T, rows), as views (T, count, size)."""
        return [Y[:, a:b].reshape(self.T, n, p) for a, b, n, p in self._spans]

    def joined(self, stacks: list) -> np.ndarray:
        """Rows (T, rows) from stacks (T, count, size)."""
        return np.concatenate([V.reshape(self.T, -1) for V in stacks], axis=1)

    def factor(self, Wit: list, wb: float):
        """The banded Cholesky factor of P + G'W^-1 W^-T G over the rounds' rows,
        W^-T the stacks Wit, with the budget row's term u u', u = g / wb;
        returns a function solving the whole system by Sherman-Morrison, for
        right-hand sides (T, m)."""
        T, m = self.T, self.m
        S = [(V @ G).reshape(T, -1, 2 * m) for V, G in zip(Wit, self.stack_G)]
        S = S[0] if len(S) == 1 else np.concatenate(S, axis=1)
        M = np.ascontiguousarray(S.transpose(0, 2, 1)) @ S
        D = M[:, m:, m:]
        D[:-1] += M[1:, :m, :m]
        if self.P is not None:
            D[:, :self.d, :self.d] += self.P
        band = _band(D, M[1:, :m, m:], self._band_at)
        band[0] += 1e-13 * float(band[0].max())
        factor = _cholesky(band)
        u = self.g / wb
        v = dpbtrs(factor, u, lower=1)[0]
        den = 1.0 + float(u @ v)

        def solve(r: np.ndarray) -> np.ndarray:
            x = dpbtrs(factor, r.ravel(), lower=1)[0]
            x -= v * (float(u @ x) / den)
            return x.reshape(T, m)

        return solve

    def solve(self):
        """Mehrotra predictor-corrector steps under Nesterov-Todd scaling
        (Vandenberghe 2010, the cone QP solver ``coneqp``) from its default
        start, at most 50 of them, toward a duality gap s'z of 1e-12 * (1 +
        |objective|).

        An iterate counts when its primal residual is within 1e-8 of |h| and
        its dual residual within 1e-4 of |q|; the solve returns the counting
        iterate with the least gap.  The scaling is kept in the scaled space:
        after a step the new W is W~ W, W~ the scaling of the scaled pair,
        which stays far from its cones' boundaries.  The primal step comes
        from its own equation G dx + ds = -rz, so the primal residual does
        not grow.  The reduced system loses accuracy as the gap closes: at a
        cone's apex (a zero move) or an active row W^-T grows like
        1/sqrt(gap).  So once the relative gap is below 1e-8, or the dual
        residual shows the rounding (above 1e-10 of |q|), the corrector's
        solve takes one step of iterative refinement on the full KKT system
        (ECOS, Domahidi et al. 2013).  Where rounding still wins, the solve ends
        once a residual exceeds 100 times its bound, three iterations pass
        without a better iterate, or an iteration fails (a matrix not
        positive definite, a point that leaves a cone).  Returns (X, the
        budget row's multiplier, the iterations run, each one banded
        factorization after the start's, the relative gap, and whether that
        gap is within 1e-8, about the accuracy of the barrier solve this
        replaced).  When no iterate counts, it returns the last one, not
        converged.
        """
        T, d, P = self.T, self.d, self.P
        h, L = self.h, self.L
        tol, max_iterations = 1e-12, 50
        # the start: the KKT solution with W = I, s and z pushed into the cones
        solve = self.factor([np.broadcast_to(_eye(p), (T, n, p, p)) for n, p in self.stacks],
                            1.0)
        Z = solve(self.cols(h, L) - self.q)
        GZ, gb = self.rows(Z)
        S, sb = self._push(h - GZ, L - gb)
        Y, yb = self._push(GZ - h, gb - L)
        Ys = self.cones(Y)
        WW = [_nt_scaling(np.stack(sy)) for sy in zip(self.cones(S), Ys)]  # W, W^-T
        lam = [_mv(V[0], y) for V, y in zip(WW, Ys)]
        h_scale = 1.0 + math.sqrt(float((h * h).sum()) + L * L)
        q_scale = 1.0 + math.sqrt(float((self.q * self.q).sum()))
        best = None  # (X, lam, iteration, relative gap) of the best iterate
        for iteration in range(max_iterations + 1):
            GZ, gb = self.rows(Z)
            rx = self.cols(Y, yb)
            rx += self.q
            objective = float((self.q * Z).sum()) + self.const
            if P is not None:
                PZ = np.einsum("tij,tj->ti", P, Z[:, :d])
                rx[:, :d] += PZ
                objective += 0.5 * float((Z[:, :d] * PZ).sum())
            rz, rzb = GZ + S - h, gb + sb - L
            gap = (float((S * Y).sum()) + sb * yb) / (1.0 + abs(objective))
            # the residuals relative to the primal bound 1e-8 and the dual 1e-4
            dual = math.sqrt(float((rx * rx).sum())) / q_scale
            residual = max(math.sqrt(float((rz * rz).sum()) + rzb * rzb) / (1e-8 * h_scale),
                           dual / 1e-4)
            if residual <= 1.0 and (best is None or gap < best[3]):
                best = (Z[:, :d].copy(), yb, iteration, gap)
            if iteration == max_iterations or not math.isfinite(gap) or best is not None and (
                    best[3] <= tol or residual > 100.0 or iteration >= best[2] + 3):
                break
            mu = gap * (1.0 + abs(objective)) / self.degree
            wb, lb = math.sqrt(sb / yb), math.sqrt(sb * yb)
            det = [_jdot(v, v) for v in lam]
            lj = [v * (_soc_consts(v.shape[-1])[2] / e[..., None]) for v, e in zip(lam, det)]

            def kkt(bx, bz, bzb, bs, bb):
                """Solve P dx + G'dz = bx, G dx + ds = bz, lam o (W dz + W^-T ds)
                = bs; returns dx, the scaled W^-T ds and W dz stacked per cone
                stack, and the two on the budget row."""
                t, y = bz.copy(), np.empty_like(bz)
                us = []
                for (W, Wit), v, a, c, tk, yk in zip(WW, lam, lj, bs, self.cones(t),
                                                    self.cones(y)):
                    u0 = np.einsum("...i,...i->...", a, c)  # v o u = c
                    u = (c - u0[..., None] * v) / v[..., :1]
                    u[..., 0] = u0
                    us.append(u)
                    tk -= _mtv(W, u)
                    yk[...] = _mtv(Wit, _mv(Wit, tk))
                ub = bb / lb
                tb = bzb - wb * ub
                dZ = solve(bx + self.cols(y, tb / (wb * wb)))
                g, g_b = self.rows(dZ)
                g -= t
                dirs = []
                for (_, Wit), u, gk in zip(WW, us, self.cones(g)):
                    D = np.empty((2,) + u.shape)
                    D[1] = _mv(Wit, gk)
                    np.subtract(u, D[1], out=D[0])
                    dirs.append(D)
                dzb = (g_b - tb) / wb
                return dZ, dirs, (ub - dzb, dzb)

            def refined(bx, bz, bzb, bs, bb):
                """``kkt``, plus one correction solved from its residual."""
                dZ, dirs, db = kkt(bx, bz, bzb, bs, bb)
                ex = bx - self.cols(self.joined([_mtv(V[1], D[1]) for V, D in zip(WW, dirs)]),
                                    db[1] / wb)
                if P is not None:
                    ex[:, :d] -= np.einsum("tij,tj->ti", P, dZ[:, :d])
                g, g_b = self.rows(dZ)
                ez = bz - g - self.joined([_mtv(V[0], D[0]) for V, D in zip(WW, dirs)])
                cZ, cdirs, cb = kkt(ex, ez, bzb - g_b - wb * db[0],
                                    [c - _circ(v, D[0] + D[1]) for c, v, D in zip(bs, lam, dirs)],
                                    bb - lb * (db[0] + db[1]))
                return (dZ + cZ, [D + C for D, C in zip(dirs, cdirs)],
                        (db[0] + cb[0], db[1] + cb[1]))

            def worst(dirs, db) -> float:
                """The least eigenvalue of the directions relative to lam."""
                return min(min(float(_soc_worst(a, e, D).min()) for a, e, D in zip(lj, det, dirs)),
                           db[0] / lb, db[1] / lb)

            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    solve = self.factor([V[1] for V in WW], wb)
                    bs, bb = [-_circ(v, v) for v in lam], -lb * lb
                    dZ, dirs, db = kkt(-rx, -rz, -rzb, bs, bb)
                    sigma = (1.0 - min(1.0, -1.0 / min(worst(dirs, db), -1e-300))) ** 3
                    for c, D in zip(bs, dirs):
                        c -= _circ(D[0], D[1])
                        c[..., 0] += sigma * mu
                    bb += sigma * mu - db[0] * db[1]
                    dZ, dirs, db = (refined if gap <= 1e-8 or dual > 1e-10 else kkt)(
                        -rx, -rz, -rzb, bs, bb)
                    step = min(1.0, -0.99 / min(worst(dirs, db), -1e-300))
                    pairs = [v + step * D for v, D in zip(lam, dirs)]
                    WWt = [_nt_scaling(pair) for pair in pairs]
                    lam = [_mv(V[0], pair[1]) for V, pair in zip(WWt, pairs)]
            except (LinAlgError, FloatingPointError):
                iteration += 1
                break
            Z += step * dZ
            # W's growth on slack cones would swamp W' ds~ with rounding
            GdZ, g_b = self.rows(dZ)
            S -= step * (rz + GdZ)
            sb -= step * (rzb + g_b)
            for V, D, y in zip(WW, dirs, Ys):
                y += step * _mtv(V[1], D[1])
            yb += step * db[1] / wb
            WW = [Vt @ V for Vt, V in zip(WWt, WW)]
        if best is None:  # no iterate met the residual bounds: not converged
            return Z[:, :d].copy(), yb, iteration, gap, False
        X, multiplier, _, gap = best
        return X, multiplier, iteration, gap, bool(gap <= 1e-8)

    def _push(self, V: np.ndarray, vb: float):
        """V and vb, with e added times 1 - their least eigenvalue unless that
        is above 1e-8 of their norm (``coneqp``'s start)."""
        stacks = self.cones(V)
        low = min(vb, *(float((C[..., 0] - np.linalg.norm(C[..., 1:], axis=-1)).min())
                        for C in stacks))
        if low <= 1e-8 * max(1.0, math.sqrt(float((V * V).sum()) + vb * vb)):
            for C in stacks:
                C[..., 0] += 1.0 - low
            vb += 1.0 - low
        return V, vb


def _spend_budget(problem: _TrajectoryProblem, X: np.ndarray, B: np.ndarray,
                  L: float) -> np.ndarray:
    """The point that moves L on the segment from X to B, whose movement
    exceeds L: X itself first pulled toward x0 if rounding left it over L.

    Both are one bisection on a segment whose start moves at most L and whose
    end more.  The movement is convex along it, so the points within L are
    an interval from the start; the bisection keeps the furthest one found
    until it moves within 1e-13 L of L or the bracket cannot shrink further
    in floating point, so it always ends."""

    def bisect(A: np.ndarray, D: np.ndarray) -> np.ndarray:
        lo, hi, move = 0.0, 1.0, problem.movement(A)
        while L - move > 1e-13 * L and lo < (t := 0.5 * (lo + hi)) < hi:
            m = problem.movement(A + t * D)
            if m <= L:
                lo, move = t, m
            else:
                hi = t
        return A + lo * D

    if problem.movement(X) > L:  # every round at x0 moves 0
        X = bisect(np.broadcast_to(problem.x0, X.shape), X - problem.x0)
    return bisect(X, B - X)


def offline_opt_constrained(costs: Sequence[CostFunction], x0, L: float,
                            feasible: Optional[FeasibleSet] = None,
                            norm: Optional[Norm] = None,
                            base: Optional[OfflineSolution] = None) -> OfflineSolution:
    """Offline optimum under total movement budget L.

    ``base`` is the unconstrained optimum (solved here when not given); it is
    returned when its movement fits the budget, and L <= 1e-12 pins every
    round at x0.  Otherwise the budget binds: ``_BudgetProgram`` solves the
    problem's cost parts as a cone QP, so it takes exactly the inputs
    ``_TrajectoryProblem`` accepts, and ``_spend_budget`` then moves its point
    along the segment to ``base`` until the exact movement is within 1e-13
    relative of L and not above it.  The objective is convex on that segment
    and least at base, so this never raises it.  ``lam`` is the budget row's
    dual variable; ``iterations`` and ``converged`` are the cone solve's.
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
    problem = _TrajectoryProblem(costs, x0, norm, feasible)  # raises as the other solves do
    X, lam, iterations, gap, converged = _BudgetProgram(problem, L).solve()
    X = _spend_budget(problem, X, base.trajectory, L)
    hit, move = problem.exact_parts(X)
    log.debug("offline opt_L: T=%d d=%d pd_iterations=%d factorizations=%d gap=%.2e "
              "converged=%s %.3fs", problem.T, problem.d, iterations, iterations + 1, gap,
              converged, time.perf_counter() - started)
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move, objective=hit + move,
                           lam=lam, converged=converged, iterations=iterations)


def static_opt(costs: Sequence[CostFunction], x0,
               feasible: Optional[FeasibleSet] = None,
               norm: Optional[Norm] = None) -> OfflineSolution:
    """Best single point: min_x ||x - x0|| + sum_t f_t(x), held for all rounds.

    Holding x0 and holding each round's minimizer are ranked by
    ``_held_totals``; ``_guarded`` reports the solve from the minimizers' mean
    against the cheapest of them inside the set, priced exactly.
    """
    started = time.perf_counter()
    problem = _TrajectoryProblem(costs, x0, norm, feasible, tied=True)
    points = np.vstack([problem.x0[None]] + [f.minimizer[None] for f in costs])
    totals = problem.norm(points - problem.x0) + _held_totals(problem, points)
    totals[~problem.feasible.contains(points, 0.0)] = math.inf
    k = int(np.argmin(totals))
    paths = {} if totals[k] == math.inf else {f"hold {'x0' if k == 0 else f'minimizer {k}'}": (
        points[k:k + 1], problem.exact_parts(points[k:k + 1]))}
    return _guarded("static", problem, np.mean(points[1:], axis=0)[None], None, paths, started)


def _held_totals(problem: _TrajectoryProblem, points: np.ndarray) -> np.ndarray:
    """Each point's hitting cost summed over the rounds, the point held in all
    of them.  A quadratic part is one quadratic form, x' (sum_t A_t'A_t) x -
    2 x' sum_t A_t'y_t + sum_t ||y_t||^2, O(T d^2) in all; a tracking part
    prices every round as one stack, in chunks of about ``_CHUNK`` entries."""
    totals = np.zeros(len(points))
    rows = max(1, _CHUNK // points.size)
    for part, (_, price) in zip(problem.parts, problem._terms):
        if part[0] == "quadratic":
            _, _, Y, AtA, Aty = part
            totals += np.einsum("ki,ki->k", points @ AtA.sum(axis=0), points) \
                - 2.0 * (points @ Aty.sum(axis=0)) + float((Y * Y).sum())
        else:
            totals += np.concatenate([
                price(np.broadcast_to(P[:, None], (len(P), problem.T, problem.d))).sum(axis=1)
                for P in np.split(points, range(rows, len(points), rows))])
    return totals


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


def auto_grid(costs: Sequence[CostFunction], x0, points: int = 21) -> GridSpec:
    """Bounding box of the anchors (minimizers and x0), padded on each side
    by 1 plus its width."""
    anchors = [np.asarray(x0, dtype=float)]
    anchors += [f.minimizer for f in costs if hasattr(f, "minimizer")]
    arr = np.stack(anchors)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    pad = 1.0 + (hi - lo)
    return GridSpec(lo - pad, hi + pad, points)


# entries of a stacked buffer (2 MB), ``_transition``'s or static play's prices: a
# 51 x 51 zoom pass still takes each p_1 row of windows, 51^3 entries, in one chunk
_CHUNK = 2 ** 18


def _transition(norm: Norm, w: float, step: np.ndarray, offset: np.ndarray, n: int,
                V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_q w * ||step * (offset + p - q)|| + V[q] for every p in [0, n)^d, and
    the first argmin q, both in the flat (C) order of the window.

    On one lattice the distance depends on p - q alone, so a transition is a
    min-plus convolution with one table K over the (2n - 1)^d lags
    (Felzenszwalb & Huttenlocher, Distance Transforms of Sampled Functions,
    2012).  With K indexed by q - p + n - 1, p's row is the sliding window of
    K at n - 1 - p.  With d <= 2 each (p_1, p_2) is one row of windows; they
    go through one buffer of about ``_CHUNK`` entries, at least one row, a
    chunk of p_2 rows at a time.
    """
    d = len(step)
    lags = np.moveaxis(np.indices((2 * n - 1,) * d), 0, -1) - (n - 1)
    K = w * norm(step * (offset - lags))
    windows = sliding_window_view(K, (n,) * d)[(slice(None, None, -1),) * d]
    m = n ** (d - 1)  # rows of windows per p_1, one per p_2
    windows = windows.reshape((n, m) + (n,) * d)  # a view for d <= 2
    V = V.reshape((n,) * d)
    chunk = max(1, _CHUNK // V.size)
    buf = np.empty((min(chunk, m),) + V.shape)
    minima, argmins = np.empty((n, m)), np.empty((n, m), dtype=np.intp)
    for i in range(n):
        for j in range(0, m, chunk):
            W = windows[i, j:j + chunk]
            B = np.add(W, V, out=buf[:len(W)]).reshape(len(W), -1)
            best = B.argmin(axis=1)
            argmins[i, j:j + len(W)] = best
            minima[i, j:j + len(W)] = B[np.arange(len(W)), best]
    return minima.ravel(), argmins.ravel()


def _dp_solve(costs, x0, norm: Norm, origin, step, corners, n: int, move_weight: float,
              feasible: Optional[FeasibleSet]):
    """The cheapest path through the windows origin + step * (corners[t] + k),
    k in [0, n)^d, of one lattice, and its objective; a point outside the
    feasible set is priced inf."""
    T, d = corners.shape
    k = np.indices((n,) * d).reshape(d, -1).T
    point_sets = [origin + step * (c + k) for c in corners]
    values = [np.array(f(pts), dtype=float) for f, pts in zip(costs, point_sets)]
    if feasible is not None:
        for pts, v in zip(point_sets, values):
            inside = feasible.contains(pts, 1e-9)
            if not inside.any():
                raise ValueError("grid does not intersect the feasible set")
            v[~inside] = math.inf
    V = values[T - 1]
    choices = []
    for t in range(T - 2, -1, -1):
        best, idx = _transition(norm, move_weight, step, corners[t] - corners[t + 1], n, V)
        choices.append(idx)
        V = values[t] + best
    choices.reverse()
    row = move_weight * norm(x0 - point_sets[0]) + V
    traj_idx = [int(np.argmin(row))]
    for t in range(T - 1):
        traj_idx.append(int(choices[t][traj_idx[-1]]))
    X = np.stack([point_sets[t][traj_idx[t]] for t in range(T)])
    return X, float(row[traj_idx[0]])


def grid_dp_oracle(costs: Sequence[CostFunction], x0,
                   grid: Optional[GridSpec] = None,
                   norm: Optional[Norm] = None,
                   feasible: Optional[FeasibleSet] = None,
                   refine: int = 2,
                   move_weight: float = 1.0) -> OfflineSolution:
    """Exact dynamic program over a discretized state space (d <= 2, short T).

    After the first pass the grid zooms ``refine`` times around the incumbent
    trajectory (4x finer each time), taming discretization bias; a first grid
    of more than 300000 points raises ValueError.  Every pass lays each
    round's grid out as a window on one lattice: the first pass's grid is
    ``grid`` in every round, and a zoom pass's lattice has step 2 half /
    (zoom_n - 1) and origin x_0 - half, with round t's window the n^d
    lattice points nearest the box x_t +- half.  Each DP transition is then
    a min-plus convolution with one table of distances over the lattice
    offsets, which serves every norm.  A zoom pass that does not lower the
    objective is dropped.  The reported objective carries the cell diagonal
    of the pass it came from as its uncertainty tag; one debug line per solve
    gives T, d, the largest grid per round, the passes and the seconds.
    """
    started = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)
    norm = norm or Norm.l2()
    if grid is None:
        grid = auto_grid(costs, x0)
    T, d = len(costs), grid.d
    if d > 2 or T > 8:
        raise ValueError("oracle is restricted to d <= 2 and T <= 8")
    if grid.points ** d > 300000:
        raise ValueError("state-space size cap exceeded")

    span = grid.hi - grid.lo
    step = span / (grid.points - 1)
    X, obj = _dp_solve(costs, x0, norm, grid.lo, step, np.zeros((T, d)), grid.points,
                       move_weight, feasible)
    diag = norm(step)
    zoom_n = 101 if d == 1 else 51
    half = span / 8.0  # wide first zoom: valleys can alias the coarse pass
    for _ in range(refine):
        step = 2.0 * half / (zoom_n - 1)
        origin = X[0] - half
        corners = np.rint((X - half - origin) / np.where(step > 0.0, step, 1.0))
        X_new, obj_new = _dp_solve(costs, x0, norm, origin, step, corners, zoom_n,
                                   move_weight, feasible)
        if obj_new <= obj:
            X, obj, diag = X_new, obj_new, norm(step)
        half = half / 4.0
    log.debug("offline oracle: T=%d d=%d points=%d passes=%d %.3fs", T, d,
              max(grid.points ** d, zoom_n ** d if refine else 0), 1 + refine,
              time.perf_counter() - started)
    hit = float(sum(f(X[t]) for t, f in enumerate(costs)))
    diffs = X - np.vstack([x0[None, :], X[:-1]])
    move = float(norm(diffs).sum())
    return OfflineSolution(trajectory=X, total_hit=hit, total_move=move,
                           objective=hit + move_weight * move,
                           uncertainty=diag,
                           note=f"grid oracle, +-{diag:.3g} cell diagonal")
