"""Balanced-descent steppers, theorem-derived parameter choices, and baselines.

Both balance rules pick a point on the path x(eta) = argmin D_Phi(x, x_prev)
+ eta * f(x) over the feasible set, i.e. a level-set projection of x_prev
whose level constraint has multiplier eta:

* primal balance: x(eta) moves exactly beta * f(x(eta)) in the mirror map's
  norm (competitive-ratio setting, locally polyhedral costs);
* dual balance: the dual-space movement ||grad Phi(x(eta)) - grad Phi(x_prev)||_*
  equals cfg.eta * ||grad f(x(eta))||_* (regret setting, smooth costs).

Each is one bracketed scalar root in eta (``obd.projection._multiplier_root``,
the same one ``project_sublevel`` uses) along the step's x(eta) path
(``obd.projection._Path``).  The primal balance reads its two sides, the
move and f, from the path: in closed form, with their slopes in eta, for
quadratics under the Euclidean or a Mahalanobis map and for l2 tracking costs
under the Euclidean map, on the whole space, and otherwise from the built
point.  Its Newton steps are in eta for l2 tracking, whose gap is linear in
eta up to the minimizer, and in log eta for quadratics; built points take
secant steps.  x is built at the chosen eta, and a step is converged only if
the Newton solve behind that x (where there is one) converged too.  The
level sweeps of ``primal_balance_curve`` / ``dual_balance_curve`` check that
no crossing is missed.  Steppers are pure functions of (previous point,
revealed cost, config): replaying any suffix from a stored point reproduces
it bitwise.

``solve_regularized`` and ``project_sublevel`` are importable from here,
where ``obdbench/tracing.py`` looks them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .costs import CostFunction, IndicatorCost
from .geometry import FeasibleSet, MirrorMap, Norm, euclidean_map
from .projection import (  # noqa: F401  (solve_regularized: see above)
    _Path, _multiplier_root, project_set, project_sublevel, solve_regularized,
)


class BracketError(RuntimeError):
    """A search bracket is invalid; indicates an internal logic bug."""


class Branch(str, Enum):
    MOVE_TO_MINIMIZER = "move_to_minimizer"
    BALANCED = "balanced"
    SET_PROJECTION = "set_projection"
    BASELINE = "baseline"


@dataclass
class StepRecord:
    """One online round: chosen point, hitting cost, movement, level data,
    and how it was found (balance residual, convergence, balance evaluations
    along the x(eta) path)."""

    t: int
    x: np.ndarray
    hit: float
    move: float
    level: float
    eta_t: float
    branch: Branch
    residual: float = 0.0
    converged: bool = True
    iterations: int = 0

    def to_dict(self) -> dict:
        return {"t": self.t, "x": [float(v) for v in self.x], "hit": self.hit,
                "move": self.move, "level": self.level, "eta_t": self.eta_t,
                "branch": self.branch.value, "residual": self.residual,
                "converged": self.converged, "iterations": self.iterations}


@dataclass
class PrimalConfig:
    """Parameters of the primal-balance stepper; beta must lie in (0, 1)."""

    beta: float
    mirror_map: MirrorMap
    feasible: Optional[FeasibleSet] = None
    level_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass
class DualConfig:
    """Parameters of the dual-balance stepper; eta must be positive."""

    eta: float
    mirror_map: MirrorMap
    feasible: Optional[FeasibleSet] = None
    level_tol: float = 1e-6

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")


def _indicator_step(mirror_map: MirrorMap, norm: Norm, f: IndicatorCost,
                    x_prev: np.ndarray, t: int) -> StepRecord:
    x = project_set(mirror_map, f.constraint, x_prev)
    return StepRecord(t=t, x=x, hit=0.0, move=norm(x - x_prev), level=0.0,
                      eta_t=0.0, branch=Branch.SET_PROJECTION)


def primal_obd_step(x_prev, f: CostFunction, cfg: PrimalConfig,
                    t: int = 0) -> StepRecord:
    """One primal-balance round from ``x_prev`` against the revealed cost.

    Moves straight to the minimizer when it is closer than beta times its
    value; otherwise finds the multiplier eta at which x(eta) moves exactly
    beta times its hitting cost (see ``_multiplier_root``).  The step is
    converged when that balance holds to level_tol * max(1, f(x)).  Indicator
    costs bypass the balance search and are projected directly.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    norm = cfg.mirror_map.norm
    if f.is_indicator:
        return _indicator_step(cfg.mirror_map, norm, f, x_prev, t)

    feasible = cfg.feasible or FeasibleSet.whole_space(x_prev.shape[0])
    path = _Path(cfg.mirror_map, f, x_prev, feasible)
    fv = f.min_value
    fx = path.hit_prev
    if fx - fv <= 1e-12 * max(1.0, abs(fx)):
        # degenerate round: already at the minimum level, stay put
        return StepRecord(t=t, x=x_prev.copy(), hit=fx, move=0.0, level=fx,
                          eta_t=0.0, branch=Branch.MOVE_TO_MINIMIZER)

    dist_to_v = path.dist_to_minimizer()
    if dist_to_v < cfg.beta * fv:
        return StepRecord(t=t, x=f.minimizer.copy(), hit=fv, move=dist_to_v,
                          level=fv, eta_t=0.0, branch=Branch.MOVE_TO_MINIMIZER)

    def gap(eta):
        # Newton's step in eta, except on a quadratic's closed form, whose
        # sides go as powers of eta: there the step in log eta on
        # log(move / (beta hit)), passed on as the slope in eta that takes
        # the same step (move' at eta = 0, where that step has its limit)
        move, hit, dmove, dhit = path.sides(eta)
        g = move - cfg.beta * hit
        if dmove is None:
            return g, None
        if path.in_logs and eta == 0.0:
            return g, dmove
        if path.in_logs and move > 0.0 and hit > 0.0:
            h = math.log(move) - math.log(cfg.beta * hit)
            dh = eta * (dmove / move - dhit / hit)
            if h != 0.0 and dh > 0.0 and -h < 700.0 * dh:  # e^(-h/dh) stays finite
                return g, g / (-eta * math.expm1(-h / dh))
        return g, dmove - cfg.beta * dhit

    eta, x, solved, evals = _multiplier_root(path, gap)
    hit, move = f(x), norm(x - x_prev)
    residual = abs(move - cfg.beta * hit)
    return StepRecord(t=t, x=x, hit=hit, move=move, level=hit, eta_t=eta,
                      branch=Branch.BALANCED, residual=residual,
                      converged=solved and residual <= cfg.level_tol * max(1.0, hit),
                      iterations=evals)


def dual_obd_step(x_prev, f: CostFunction, cfg: DualConfig,
                  t: int = 0) -> StepRecord:
    """One dual-balance round; requires a smooth cost with known minimizer.

    Finds the multiplier eta at which the dual movement of x(eta) equals
    cfg.eta times its dual gradient norm: at eta = 0 the movement is zero,
    while toward the minimizer the gradient vanishes, so the balance changes
    sign in between (see ``_multiplier_root``).  The step is converged when
    the balance holds to level_tol relative.  When the direct solve at eta =
    cfg.eta does not balance, a dual gradient norm below 1e-12 at x_prev
    raises ValueError: the balance ratio degenerates at the minimizer.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    norm = cfg.mirror_map.norm
    if f.is_indicator:
        return _indicator_step(cfg.mirror_map, norm, f, x_prev, t)
    if not f.smooth:
        raise ValueError("dual balance requires a continuously differentiable cost")

    fv = f.min_value
    fx = f(x_prev)
    if fx - fv <= 1e-12 * max(1.0, abs(fx)):
        return StepRecord(t=t, x=x_prev.copy(), hit=fx, move=0.0, level=fx,
                          eta_t=0.0, branch=Branch.BALANCED)

    grad_phi_prev = cfg.mirror_map.grad(x_prev)

    def sides(x):
        return (norm.dual_value(cfg.mirror_map.grad(x) - grad_phi_prev),
                cfg.eta * norm.dual_value(f.grad(x)))

    def record(eta, x, solved, solves):
        lhs, rhs = sides(x)
        rel = abs(lhs - rhs) / max(lhs, rhs, 1e-30)
        return StepRecord(t=t, x=x, hit=f(x), move=norm(x - x_prev), level=f(x),
                          eta_t=eta, branch=Branch.BALANCED, residual=rel,
                          converged=solved and rel <= cfg.level_tol, iterations=solves)

    # With the constraint set inactive, stationarity makes the dual movement
    # of x(eta) exactly eta times the gradient norm, so the balanced point is
    # the regularized solve at eta = cfg.eta itself: try that first.
    feasible = cfg.feasible or FeasibleSet.whole_space(x_prev.shape[0])
    path = _Path(cfg.mirror_map, f, x_prev, feasible)
    rec = record(cfg.eta, *path.point(cfg.eta), 1)
    if rec.residual <= cfg.level_tol and rec.hit <= fx:
        return rec

    if norm.dual_value(f.grad(x_prev)) < 1e-12:
        raise ValueError("cost gradient below 1e-12 throughout the bracket")
    eta, x, solved, evals = _multiplier_root(
        path, lambda eta: (np.subtract(*sides(path.point(eta)[0])), None))
    return record(eta, x, solved, 1 + evals)


# ---------------------------------------------------------------------------
# Parameter selectors
# ---------------------------------------------------------------------------

class BetaChoice(NamedTuple):
    beta: float
    competitive_ratio: float
    gamma: float


class GeneralBetaChoice(NamedTuple):
    beta: float
    gamma: float


class EtaChoice(NamedTuple):
    eta: float
    regret_bound: float


def lemma_gamma(alpha: float, beta: float, kappa: float = 1.0) -> float:
    """gamma = (1/sqrt(kappa)) * sqrt(1 + (2/(alpha*beta))^2) - 2/(alpha*beta)."""
    r = 2.0 / (alpha * beta)
    return math.sqrt(1.0 + r * r) / math.sqrt(kappa) - r


def choose_beta(alpha: float) -> BetaChoice:
    """Balance parameter and competitive ratio for growth modulus alpha:
    beta = 1/2 + 1/(alpha + 2), ratio 3 + 8/alpha."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    beta = 0.5 + 1.0 / (alpha + 2.0)
    return BetaChoice(beta, 3.0 + 8.0 / alpha, lemma_gamma(alpha, beta))


def choose_beta_general(alpha: float, kappa: float) -> GeneralBetaChoice:
    """Admissible beta for a mirror map of condition number kappa = M/m.

    Requires alpha > 2*sqrt(kappa - 1); beta is the midpoint of the
    admissible interval (2*sqrt(kappa-1)/alpha, 1), where the potential
    decrease factor gamma is positive.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    threshold = 2.0 * math.sqrt(kappa - 1.0)
    if alpha <= threshold:
        raise ValueError(
            f"alpha must exceed 2*sqrt(kappa-1) = {threshold:g}, got {alpha}")
    lower = threshold / alpha
    beta = 0.5 * (lower + 1.0)
    gamma = lemma_gamma(alpha, beta, kappa)
    if gamma <= 0.0:
        raise BracketError("gamma not positive on the admissible interval")
    return GeneralBetaChoice(beta, gamma)


def choose_eta(G: float, L: float, m: float, T: int) -> EtaChoice:
    """Regret-optimal balance weight eta = sqrt(2*G*L*m/T) and its bound
    sqrt(2*G*L*T/m), the minimum over eta of G*L/eta + T*eta/(2m)."""
    if G <= 0 or L <= 0 or m <= 0 or T <= 0:
        raise ValueError("G, L, m, T must all be positive")
    return EtaChoice(math.sqrt(2.0 * G * L * m / T), math.sqrt(2.0 * G * L * T / m))


# ---------------------------------------------------------------------------
# Balance curves (continuity / bracket diagnostics)
# ---------------------------------------------------------------------------

def _level_sweep(x_prev: np.ndarray, f: CostFunction, cfg, num: int, lowest, side):
    """Sample (l, side(x_l, l)) at ``num`` levels from ``lowest(f(v), f(x_prev))``
    up to f(x_prev), x_l the projection of x_prev onto the l-sublevel set."""
    fv, fx = f.min_value, f(x_prev)
    ls = np.linspace(lowest(fv, fx), fx, num)
    return ls, np.asarray([
        side(project_sublevel(cfg.mirror_map, f, float(l), x_prev, cfg.feasible).x,
             float(l)) for l in ls])


def primal_balance_curve(x_prev, f: CostFunction, cfg: PrimalConfig,
                         num: int = 100):
    """Sample (l, movement(l) - beta*l) over the levels [f(v), f(x_prev)].

    A diagnostic for the balance search: the sampled curve should change
    sign once, in the cell that holds the level of ``primal_obd_step``.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    return _level_sweep(
        x_prev, f, cfg, num, lambda fv, fx: fv + 1e-9 * max(1.0, fx - fv),
        lambda x, l: cfg.mirror_map.norm(x - x_prev) - cfg.beta * l)


def dual_balance_curve(x_prev, f: CostFunction, cfg: DualConfig,
                       num: int = 100):
    """Sample (l, dual movement - eta * dual gradient norm) over the levels."""
    x_prev = np.asarray(x_prev, dtype=float)
    norm, gp = cfg.mirror_map.norm, cfg.mirror_map.grad(x_prev)
    return _level_sweep(
        x_prev, f, cfg, num, lambda fv, fx: fv + max(cfg.level_tol, 1e-12 * (fx - fv)),
        lambda x, l: norm.dual_value(cfg.mirror_map.grad(x) - gp)
        - cfg.eta * norm.dual_value(f.grad(x)))


# ---------------------------------------------------------------------------
# Online algorithms (uniform stepping interface) and baselines
# ---------------------------------------------------------------------------

class OnlineAlgorithm:
    """Sequential decision maker: ``start`` at x0, then ``step`` per round."""

    name = "base"

    def start(self, instance) -> None:
        self.x = instance.x0.copy()
        self.feasible = instance.feasible
        self.norm = instance.switching_norm

    def step(self, t: int, f: CostFunction) -> StepRecord:
        raise NotImplementedError

    def _finish(self, t: int, f: CostFunction, x_new: np.ndarray,
                branch: Branch = Branch.BASELINE) -> StepRecord:
        hit = 0.0 if f.is_indicator else f(x_new)
        rec = StepRecord(t=t, x=x_new, hit=hit, move=self.norm(x_new - self.x),
                         level=hit, eta_t=0.0, branch=branch)
        self.x = x_new
        return rec


class _BalancedStepper(OnlineAlgorithm):
    """Shared driver: balance is measured in the mirror map's norm, while the
    recorded movement uses the instance's switching norm (they coincide
    except in the norm-equivalence extension of the ratio guarantee)."""

    def __init__(self, cfg):
        self.cfg = cfg

    def start(self, instance) -> None:
        super().start(instance)
        self._cfg = replace(self.cfg, feasible=instance.feasible) \
            if self.cfg.feasible is None else self.cfg

    def _account(self, rec: StepRecord) -> StepRecord:
        if self._cfg.mirror_map.norm != self.norm:
            rec = replace(rec, move=self.norm(rec.x - self.x))
        self.x = rec.x
        return rec


class PrimalOBD(_BalancedStepper):
    name = "primal_obd"

    def step(self, t: int, f: CostFunction) -> StepRecord:
        return self._account(primal_obd_step(self.x, f, self._cfg, t=t))


class DualOBD(_BalancedStepper):
    name = "dual_obd"

    def step(self, t: int, f: CostFunction) -> StepRecord:
        return self._account(dual_obd_step(self.x, f, self._cfg, t=t))


class SetProjectionResponder(OnlineAlgorithm):
    """Plays the Bregman projection onto each revealed constraint set.

    Only meaningful on indicator-cost (constraint-chasing) instances; it is
    the responder the lower-bound construction is evaluated against.
    """

    name = "projection"

    def __init__(self, mirror_map: MirrorMap):
        self.mirror_map = mirror_map

    def step(self, t: int, f: CostFunction) -> StepRecord:
        if not f.is_indicator:
            raise ValueError("projection responder expects indicator costs")
        return self._finish(t, f, project_set(self.mirror_map, f.constraint, self.x),
                            Branch.SET_PROJECTION)


class Greedy(OnlineAlgorithm):
    """Jumps to the revealed minimizer every round."""

    name = "greedy"

    def step(self, t: int, f: CostFunction) -> StepRecord:
        return self._finish(t, f, f.minimizer.copy(), Branch.MOVE_TO_MINIMIZER)


class StaticPlay(OnlineAlgorithm):
    """Online static baseline: move to the first minimizer and stay."""

    name = "static_play"

    def step(self, t: int, f: CostFunction) -> StepRecord:
        x_new = f.minimizer.copy() if t == 1 else self.x.copy()
        return self._finish(t, f, x_new)


class OMD(OnlineAlgorithm):
    """Online mirror descent: dual step c/sqrt(t) on the previous round's
    gradient, then Bregman projection onto the feasible set."""

    name = "omd"

    def __init__(self, mirror_map: MirrorMap, c: float = 1.0):
        self.mirror_map = mirror_map
        self.c = c

    def start(self, instance) -> None:
        super().start(instance)
        self._prev: Optional[CostFunction] = None

    def step(self, t: int, f: CostFunction) -> StepRecord:
        if self._prev is None:
            x_new = self.x.copy()
        else:
            g = self._prev.grad(self.x)
            z = self.mirror_map.grad(self.x) - (self.c / math.sqrt(t)) * g
            y = self.mirror_map.inv_grad(z)
            x_new = project_set(self.mirror_map, self.feasible, y)
        self._prev = f
        return self._finish(t, f, x_new)


class OGD(OMD):
    """Online gradient descent: ``OMD`` under the Euclidean map, whose
    gradient maps are the identity and whose projection is the Euclidean one."""

    name = "ogd"

    def __init__(self, c: float = 1.0):
        super().__init__(euclidean_map(), c)
