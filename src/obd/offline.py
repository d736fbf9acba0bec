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
reported costs are the exact, unsmoothed ones.  ``offline_opt`` first prices
staying at x0 and jumping to every minimizer: a jump whose dual point proves
it optimal (Lagrange duality, ibid. 5.5.3) is returned without a solve, and
otherwise the solve starts from the cheaper of the two.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
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

    ``iterations`` counts Newton steps; ``converged`` says whether the last
    stage met its Newton-decrement test (and a binding budget its window).
    A jump to the minimizers certified optimal by its dual point takes no
    solve: ``iterations`` 0, ``converged`` True.
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


def _family_terms(costs: Sequence[CostFunction]):
    """One cost family's parameters, stacked once over the rounds, as two
    functions: (X, eps) -> (total value, a function returning the row
    gradients and row Hessians) of the smoothed hitting costs, vectorized
    over the rounds; and R -> each round's exact cost at its row of R, with
    the bits of that round's own cost call."""
    if all(isinstance(f, QuadraticCost) for f in costs):
        A = np.stack([f.A for f in costs])
        Y = np.stack([f.y for f in costs])
        H = 2.0 * np.stack([f.AtA for f in costs])

        def quad(X: np.ndarray, eps: float):
            res = np.einsum("tij,tj->ti", A, X) - Y
            return float((res * res).sum()), lambda: (
                2.0 * np.einsum("tji,tj->ti", A, res), H)

        return quad, lambda R: quadratic_value(A, Y, R)
    if all(isinstance(f, NormTrackingCost) for f in costs):
        norm = costs[0].norm_a
        if any(f.norm_a.kind != norm.kind or not np.array_equal(f.norm_a.Q, norm.Q)
               for f in costs):
            raise ValueError("the Newton solve needs one tracking norm for all rounds")
        V = np.stack([f.minimizer for f in costs])
        s = np.array([f.scale for f in costs])

        def track(X: np.ndarray, eps: float):
            vals, derivs = _smoothed_norm(X - V, norm, eps)

            def scaled():
                G, H = derivs()
                return s[:, None] * G, s[:, None, None] * H

            return float(s @ vals), scaled

        return track, lambda R: s * norm(R - V)
    if all(isinstance(f, CompositeCost) for f in costs):
        (g, g_price), (h, h_price) = (_family_terms([f.g for f in costs]),
                                      _family_terms([f.h for f in costs]))

        def composite(X: np.ndarray, eps: float):
            (gv, gd), (hv, hd) = g(X, eps), h(X, eps)
            return gv + hv, lambda: tuple(a + b for a, b in zip(gd(), hd()))

        return composite, lambda R: g_price(R) + h_price(R)
    raise ValueError("the Newton solve needs quadratic, norm-tracking or composite "
                     "costs, one family for all rounds")


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


class _TrajectoryProblem:
    """Smoothed, barrier-weighted objective over X (rows x d), and its Newton step.

    ``tied`` is static play: one row, its hitting terms summed over the
    rounds.  ``budget`` L adds the barrier row -mu * log(L - sum_t m_t), m_t
    the smoothed norm of x_t - x_{t-1} plus its largest gap, an upper bound
    on the norm; its multiplier mu / slack is ``lam``.

    With ``Q`` it is the one-row problem behind x(eta) in
    ``projection.solve_regularized``: one cost f, x0 = x_prev, the map's
    divergence 1/2 (x - x_prev)'Q(x - x_prev) as the movement term in place
    of the switching norm, and the hit term weighted by ``eta``.
    """

    def __init__(self, costs: Sequence[CostFunction], x0, norm: Optional[Norm],
                 feasible: Optional[FeasibleSet], tied: bool = False,
                 budget: Optional[float] = None, Q: Optional[np.ndarray] = None,
                 eta: float = 1.0):
        self.costs = list(costs)
        self.x0 = np.asarray(x0, dtype=float)
        self.T, self.d = len(self.costs), self.x0.shape[0]
        d = self.d
        self.norm = norm or Norm.l2()
        self.feasible = feasible or FeasibleSet.whole_space(d)
        self.tied, self.budget, self.Q, self.eta = tied, budget, Q, eta
        self.rows = 1 if tied else self.T
        self.hit, self.price = _family_terms(self.costs)
        # a norm-tracking family's (norm, minimizers, scales), for the jump certificate
        self.tracking = None
        if all(isinstance(f, NormTrackingCost) for f in self.costs):
            self.tracking = (self.costs[0].norm_a, np.stack([f.minimizer for f in self.costs]),
                             np.array([f.scale for f in self.costs]))
        self.barrier = _set_barrier(self.feasible)
        self.gap = self.rows * {L1: d, LINF: math.log(2 * d)}.get(self.norm.kind, 1.0)
        # the block-tridiagonal Hessian's lower triangle in LAPACK band storage:
        # entry (i, j), i >= j, of the matrix sits at row i - j of column j.
        # Column j = k d + b holds D_k[b:, b], row b of C_k, then zeros, so the
        # band, stored column by column as LAPACK reads it, is one gather from
        # the flat [D, C, 0].
        self.bw = min(2 * d - 1, self.rows * d - 1)
        k, b, r = np.ix_(np.arange(self.rows), np.arange(d), np.arange(self.bw + 1))
        a, size = b + r, self.rows * d * d
        self._band_at = np.where(
            a < d, k * d * d + a * d + b,
            np.where((a < 2 * d) & (k < self.rows - 1), size + k * d * d + b * d + a - d,
                     2 * size - d * d)).reshape(self.rows * d, self.bw + 1)

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
        slack = None
        if self.budget is not None:
            slack = self.budget - float(vals.sum()) - self.gap * eps
            if slack <= 0.0:
                return math.inf, None
            F -= mu * math.log(slack)
        barrier = None
        if self.barrier is not None:
            bv, barrier = self.barrier(X)
            if not math.isfinite(bv):
                return math.inf, None
            F += mu * bv
        return F, (hit, move, slack, barrier)

    def value(self, X: np.ndarray, eps: float, mu: float) -> float:
        """F alone, as ``evaluate`` computes it; inf outside the barriers' domain."""
        return self.terms(X, eps, mu)[0]

    def evaluate(self, X: np.ndarray, eps: float, mu: float, trial=None):
        """(F, gradient, diagonal blocks, off-diagonal blocks, rank-one column,
        budget multiplier); F is inf outside the barriers' domain.  ``trial``
        is ``terms``'s result at X, when already computed."""
        F, terms = trial or self.terms(X, eps, mu)
        if terms is None:
            return (math.inf,) * 6
        hit, move, slack, barrier = terms
        grad, D = hit()
        if self.tied:
            grad, D = grad.sum(axis=0, keepdims=True), D.sum(axis=0, keepdims=True)
        if self.eta != 1.0:  # the x(eta) form; the comparators skip the product
            grad, D = self.eta * grad, self.eta * D
        sg, sH = move()
        w, q, lam = 1.0, None, 0.0
        move_grad = sg.copy()
        move_grad[:-1] -= sg[1:]
        if slack is not None:
            lam = mu / slack
            w = 1.0 + lam
            q = (math.sqrt(mu) / slack) * move_grad
        grad = grad + w * move_grad
        D = D + w * sH
        D[:-1] += w * sH[1:]
        if barrier is not None:
            bg, bH = barrier()
            grad += mu * bg
            D += mu * bH
        return F, grad, D, -w * sH[1:], q, lam

    def newton_step(self, F: float, grad, D, C, q) -> np.ndarray:
        """Solve (H + ridge) step = -grad by banded Cholesky, the rank-one
        budget term by Sherman-Morrison; raises LinAlgError if H is not
        positive definite and ValueError if H, grad or q is not finite."""
        band = np.take(np.concatenate((D.ravel(), C.ravel(), [0.0])), self._band_at).T
        ridge = 1e-12 * (1.0 + abs(F)) + 1e-13 * float(np.abs(band).max())
        if not math.isfinite(ridge):  # so is the band, or F
            raise ValueError("array must not contain infs or NaNs")
        band[0] += ridge
        # the lower form: OpenBLAS threads the upper one, which crawls on a busy host
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise LinAlgError(f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        step = -_solve_banded(factor, grad.ravel())
        if q is not None:
            q = q.ravel()
            z = _solve_banded(factor, q)
            step -= z * (float(q @ step) / (1.0 + float(q @ z)))
        return step.reshape(grad.shape)


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
    stages only lower mu: each barrier costs about mu, and stopping at mu =
    1e-8 * (1 + |F(X)|) left budgeted solves up to 3e-8 relative higher.  The
    step that passes the decrement test is still taken.  A stage whose
    smoothing leaves X outside the budget is skipped.  ``problem`` provides
    ``exact_parts``; ``terms``, the objective with its terms' derivative
    functions not yet called, which prices each Armijo trial; ``evaluate``,
    the objective with its derivatives, built from the accepted trial's
    terms; and ``newton_step``.  Returns (X, steps, whether the last stage
    ended on the decrement, lam).
    """
    scale = 1.0 + abs(sum(problem.exact_parts(X)) if price is None else price)
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
                Y = X + t * step
                trial = problem.terms(Y, eps, mu)
                if trial[0] <= F + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            X = Y
            F, grad, D, C, q, lam = problem.evaluate(X, eps, mu, trial)
            steps += 1
    return X, steps, done, lam


def _solution(label: str, problem: _TrajectoryProblem, X: np.ndarray, parts, steps: int,
              converged: bool, started: float, **fields) -> OfflineSolution:
    """X with its exact accounting ``parts`` (hit, move), logged at debug
    level as one line."""
    hit, move = parts
    log.debug("offline %s: T=%d d=%d steps=%d converged=%s %.3fs", label, problem.T,
              problem.d, steps, converged, time.perf_counter() - started)
    return OfflineSolution(trajectory=np.broadcast_to(X, (problem.T, problem.d)).copy(),
                           total_hit=hit, total_move=move, objective=hit + move,
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
    if problem.tracking is None or problem.norm.kind not in (L2, MAHALANOBIS):
        return False
    norm_a, V, s = problem.tracking
    U = problem.diffs(V)
    n = problem.norm(U)
    if not n.all():
        return False
    nu = (U if problem.norm.kind == L2 else U @ problem.norm.Q) / n[:, None]
    nu[:-1] -= nu[1:]
    return bool((norm_a.dual()(nu) <= s * (1.0 - 1e-12)).all())


def offline_opt(costs: Sequence[CostFunction], x0, feasible: Optional[FeasibleSet] = None,
                norm: Optional[Norm] = None) -> OfflineSolution:
    """Dynamic offline optimum of sum_t f_t(x_t) + ||x_t - x_{t-1}||.

    Staying at x0 and jumping to every minimizer are priced first.  A jump
    that ``_jump_certified`` proves optimal is returned without a solve;
    otherwise the solve starts from the cheaper of the two when both lie in
    the set, else from the minimizers, and never reports more than either.
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
    if len(paths) == 2:
        Y, parts = min(paths.values(), key=lambda path: sum(path[1]))
        price = sum(parts)
    start = _interior(problem.feasible, Y)
    X, steps, converged, _ = _solve(problem, start,
                                    price if np.array_equal(start, Y) else None)
    parts, notes = problem.exact_parts(X), []
    # Where staying put or jumping to every minimizer is optimal, the solve
    # can land slightly above it; never report more than these trajectories.
    for name, (Y, Y_parts) in paths.items():
        if sum(Y_parts) < sum(parts):
            X, parts = Y, Y_parts
            notes.append(f"{name} trajectory beat the solve")
    return _solution("opt", problem, X, parts, steps, converged, started,
                     note="; ".join(notes))


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
    parts = problem.exact_parts(X)
    converged = converged and L * (1.0 - 1e-4) <= parts[1] <= L
    return _solution("opt_L", problem, X, parts, steps, converged, started, lam=lam,
                     note=note)


def static_opt(costs: Sequence[CostFunction], x0,
               feasible: Optional[FeasibleSet] = None,
               norm: Optional[Norm] = None) -> OfflineSolution:
    """Best single point: min_x ||x - x0|| + sum_t f_t(x), held for all rounds."""
    started = time.perf_counter()
    problem = _TrajectoryProblem(costs, x0, norm, feasible, tied=True)
    mean = np.mean([f.minimizer for f in costs], axis=0)[None]
    X, steps, converged, _ = _solve(problem, _interior(problem.feasible, mean))
    return _solution("static", problem, X, problem.exact_parts(X), steps, converged,
                     started)


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


def auto_grid(costs: Sequence[CostFunction], x0, points: int = 21,
              margin: float = 1.0) -> GridSpec:
    """Bounding box of the anchors (minimizers and x0), padded by ``margin``."""
    anchors = [np.asarray(x0, dtype=float)]
    anchors += [f.minimizer for f in costs if hasattr(f, "minimizer")]
    arr = np.stack(anchors)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    pad = margin * (1.0 + (hi - lo))
    return GridSpec(lo - pad, hi + pad, points)


# entries of ``_transition``'s buffer (2 MB): a 51 x 51 zoom pass still takes
# each p_1 row of windows, 51^3 entries, in one chunk
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
