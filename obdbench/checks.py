"""Checks on workload outputs, computed with the benchmark's own arithmetic.

The program's cost objects are read only for their parameters (A_t and y_t of
a quadratic, v_t and the scale of an l2 tracking cost).  Every value,
gradient, minimizer, total and bound below is evaluated here with plain
numpy, so a fault in the program's own accounting cannot hide itself.

Each check returns a list of failure messages; an empty list is a pass.
Switching cost is the l2 norm, the only switching norm the workloads use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

G_BALL = 10.0  # mirror-gradient bound of the Euclidean map on the radius-10 ball
M_STRONG = 1.0  # strong convexity of the Euclidean map


@dataclass
class Costs:
    """Round-by-round cost parameters: quadratic ||A x - y||^2 or s*||x - v||_2."""

    kind: str
    A: Optional[np.ndarray] = None  # (T, d, d)
    y: Optional[np.ndarray] = None  # (T, d)
    V: Optional[np.ndarray] = None  # (T, d)
    scale: float = 1.0

    @property
    def T(self) -> int:
        return (self.y if self.kind == "quadratic" else self.V).shape[0]

    def values(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "quadratic":
            res = np.einsum("tij,tj->ti", self.A, X) - self.y
            return np.einsum("ti,ti->t", res, res)
        return self.scale * np.linalg.norm(X - self.V, axis=1)

    def grads(self, X: np.ndarray) -> np.ndarray:
        if self.kind != "quadratic":
            raise ValueError("gradients are only taken of the smooth quadratics")
        res = np.einsum("tij,tj->ti", self.A, X) - self.y
        return 2.0 * np.einsum("tji,tj->ti", self.A, res)

    def minimizers(self) -> np.ndarray:
        if self.kind == "quadratic":
            return np.linalg.solve(self.A, self.y[:, :, None])[:, :, 0]
        return self.V.copy()


def costs_of(cost_objects) -> Costs:
    """Copy the parameters out of the program's cost objects."""
    fs = list(cost_objects)
    if all(hasattr(f, "A") and hasattr(f, "y") for f in fs):
        return Costs("quadratic", A=np.stack([np.array(f.A, dtype=float) for f in fs]),
                     y=np.stack([np.array(f.y, dtype=float) for f in fs]))
    scales = {float(f.scale) for f in fs}
    if len(scales) != 1 or any(f.norm_a.kind != "l2" for f in fs):
        raise ValueError("expected l2 tracking costs with one scale")
    return Costs("tracking", V=np.stack([np.array(f.minimizer, dtype=float) for f in fs]),
                 scale=scales.pop())


def moves(x0: np.ndarray, X: np.ndarray) -> np.ndarray:
    prev = np.vstack([np.asarray(x0, dtype=float)[None, :], X[:-1]])
    return np.linalg.norm(X - prev, axis=1)


def path_cost(costs: Costs, x0, X: np.ndarray) -> tuple[float, float]:
    """(total hitting cost, total movement) of trajectory X started at x0."""
    X = np.asarray(X, dtype=float)
    return float(costs.values(X).sum()), float(moves(x0, X).sum())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_total(own: float, reported: float, label: str, rel: float = 1e-9) -> list[str]:
    """The program's reported total equals the benchmark's own, to ``rel``."""
    if not math.isfinite(reported) or _rel(own, reported) > rel:
        return [f"{label}: reported {reported!r}, own evaluation {own!r}"]
    return []


def check_comparator(costs: Costs, x0, comparator: float,
                     online_total: Optional[float], label: str) -> list[str]:
    """A comparator objective lies below the online total and below two
    trajectories built here: staying at x0, and jumping to every minimizer.

    The slack is the offline solvers' own relative tolerance, 1e-6: where
    jumping is optimal (steep tracking costs), their smoothed solution lands
    a few 1e-8 above the jump trajectory.
    """
    x0 = np.asarray(x0, dtype=float)
    stay = sum(path_cost(costs, x0, np.tile(x0, (costs.T, 1))))
    jump = sum(path_cost(costs, x0, costs.minimizers()))
    out = []
    for name, other in (("online total", online_total), ("stay at x0", stay),
                        ("jump to minimizers", jump)):
        if other is not None and not comparator <= other * (1.0 + 1e-6):
            out.append(f"{label}: comparator {comparator!r} above {name} {other!r}")
    return out


def check_primal_balance(costs: Costs, x0, X: np.ndarray, balanced, beta: float,
                         label: str) -> list[str]:
    """Every balanced step moves beta times its hitting cost, to 1e-8*max(1, f)."""
    X = np.asarray(X, dtype=float)
    hit = costs.values(X)
    mv = moves(x0, X)
    out = []
    for t in np.nonzero(np.asarray(balanced, dtype=bool))[0]:
        if abs(mv[t] - beta * hit[t]) > 1e-8 * max(1.0, hit[t]):
            out.append(f"{label}: round {t + 1} unbalanced, move {mv[t]!r} vs "
                       f"beta*f = {beta * hit[t]!r}")
    return out


def check_dual_balance(costs: Costs, x0, X: np.ndarray, eta: float,
                       label: str) -> list[str]:
    """Every step that moves satisfies ||x_t - x_{t-1}|| = eta*||grad f_t(x_t)||
    to 1e-6 relative."""
    X = np.asarray(X, dtype=float)
    mv = moves(x0, X)
    pull = eta * np.linalg.norm(costs.grads(X), axis=1)
    out = []
    for t in np.nonzero(mv > 0.0)[0]:
        if abs(mv[t] - pull[t]) > 1e-6 * max(mv[t], pull[t]):
            out.append(f"{label}: round {t + 1} unbalanced in the dual, move "
                       f"{mv[t]!r} vs eta*||grad|| = {pull[t]!r}")
    return out


def check_ratio(online_total: float, opt: float, alpha: float, label: str) -> list[str]:
    """Theorem 1: cr <= 3 + 8/alpha, with 1e-3 slack."""
    bound = 3.0 + 8.0 / alpha
    cr = online_total / opt
    if not cr <= bound + 1e-3:
        return [f"{label}: cr {cr!r} above 3 + 8/alpha = {bound!r}"]
    return []


def check_oracle_gap(opt: float, oracle: float, label: str) -> list[str]:
    if not abs(opt - oracle) <= 1e-3 * abs(oracle):
        return [f"{label}: offline_opt {opt!r} vs grid oracle {oracle!r}"]
    return []


def regret_bound(L: float, T: int, eta: float) -> float:
    """sqrt(2GLT/m) for a positive budget, T*eta/(2m) for the zero budget."""
    if L > 0.0:
        return math.sqrt(2.0 * G_BALL * L * T / M_STRONG)
    return T * eta / (2.0 * M_STRONG)


def check_regret(regret: float, L: float, T: int, eta: float, label: str) -> list[str]:
    bound = regret_bound(L, T, eta)
    if not regret <= bound + 1e-4 * max(1.0, bound):
        return [f"{label}: regret {regret!r} above bound {bound!r} (L={L!r})"]
    return []


def check_budget(move: float, L: float, binds: bool, label: str) -> list[str]:
    """OPT(L) moves at most L(1 + 1e-9), and at least L(1 - 1e-4) when binding."""
    out = []
    if not move <= L * (1.0 + 1e-9):
        out.append(f"{label}: movement {move!r} over budget {L!r}")
    if binds and not move >= L * (1.0 - 1e-4):
        out.append(f"{label}: movement {move!r} short of the binding budget {L!r}")
    return out


def check_static(opt_diameter: float, static: float, label: str) -> list[str]:
    """OPT(D) can hold still, so it costs no more than the static optimum
    (within the 1e-6 relative accuracy of the two offline solves)."""
    if not opt_diameter <= static + 1e-6 * max(1.0, static):
        return [f"{label}: OPT(D) {opt_diameter!r} above static {static!r}"]
    return []
