"""Single-block minimizers for the inner coordinate sweeps.

Each inner event minimizes the augmented Lagrangian over one block while the
rest stay fixed. The node block reduces to ``f_i(x) + c^T x + (q/2)||x||^2``
over the node's set; the link blocks have exact closed forms. Inexact node
solves carry a monotone safeguard so every accepted step is a true descent
step on the block objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .problem import ProblemInstance


@dataclass
class XSubproblem:
    """Node-block data: minimize ``f_i(x) + linear^T x + (quad_weight/2)
    ||x||^2`` over the node's constraint set. ``quad_weight`` is positive
    whenever the penalty is positive and the node has a neighbor."""

    problem: ProblemInstance
    node: int
    linear: np.ndarray
    quad_weight: float

    def objective(self, x: np.ndarray) -> float:
        return (self.problem.node_value(self.node, x)
                + float(self.linear @ x)
                + 0.5 * self.quad_weight * float(x @ x))

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        return (self.problem.node_subgradient(self.node, x)
                + self.linear + self.quad_weight * x)


def solve_x_block(sub: XSubproblem, inner_budget: int = 50,
                  inner_tol: float | None = None,
                  warm_start: np.ndarray | None = None,
                  counters=None) -> np.ndarray:
    """Approximately minimize the node block.

    Quadratic node objectives ``w||x - a||^2`` are solved exactly: the
    regularized stationary point ``(2wa - c)/(2w + q)`` projected onto the
    node set is the constrained minimizer because the Hessian is isotropic.
    Composite objectives (smooth part plus an exactly proxable rest) use
    accelerated proximal gradient, which the added ``(q/2)||x||^2`` term
    makes strongly convex. Anything else runs projected subgradient (step
    ``c0/sqrt(k)``, ``c0 = 1/(q+1)``) from the warm start, keeping the best
    iterate. In every case the result never has a larger block objective
    than the warm start.
    """
    if inner_budget < 1:
        raise ValueError("inner_budget must be >= 1")
    prob, i = sub.problem, sub.node
    if warm_start is None:
        warm_start = prob.node_project(i, np.zeros(prob.dim))

    if prob.quadratic:
        w, a = prob.quad_coeff(i)
        denom = 2.0 * w + sub.quad_weight
        if denom > 0:
            x = prob.node_project(i, (2.0 * w * a - sub.linear) / denom)
            if counters is not None:
                counters.flops += 6 * prob.dim
            # Exact minimizer; the safeguard can still matter at the
            # boundary of floating point so keep it.
            if sub.objective(x) <= sub.objective(warm_start):
                return x
            return np.asarray(warm_start, dtype=float).copy()

    if prob.composite:
        return _solve_composite(sub, inner_budget, inner_tol, warm_start,
                                counters)

    x = np.asarray(warm_start, dtype=float).copy()
    best_x, best_f = x.copy(), sub.objective(x)
    c0 = 1.0 / (sub.quad_weight + 1.0)
    per_iter = (prob.subgrad_flops(i) + prob.value_flops(i) + 6 * prob.dim)
    for k in range(1, inner_budget + 1):
        g = sub.subgradient(x)
        x_new = prob.node_project(i, x - (c0 / np.sqrt(k)) * g)
        f_new = sub.objective(x_new)
        if f_new < best_f:
            best_f, best_x = f_new, x_new.copy()
        moved = float(np.linalg.norm(x_new - x))
        x = x_new
        if counters is not None:
            counters.flops += per_iter
        if inner_tol is not None and moved <= inner_tol:
            break
    return best_x


def _solve_composite(sub: XSubproblem, inner_budget: int,
                     inner_tol: float | None, warm_start: np.ndarray,
                     counters) -> np.ndarray:
    """Accelerated proximal gradient on the node block, warm started."""
    prob, i = sub.problem, sub.node
    lip = prob.node_smooth_lipschitz(i) + sub.quad_weight
    step = 1.0 / max(lip, 1e-12)
    x = np.asarray(warm_start, dtype=float).copy()
    x_prev = x.copy()
    t_acc = 1.0
    best_x, best_f = x.copy(), sub.objective(x)
    per_iter = (prob.subgrad_flops(i) + prob.value_flops(i) + 8 * prob.dim)
    for _ in range(inner_budget):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        y = x + ((t_acc - 1.0) / t_next) * (x - x_prev)
        grad = (prob.node_smooth_gradient(i, y) + sub.linear
                + sub.quad_weight * y)
        x_prev = x
        x = prob.node_prox(i, y - step * grad, step)
        t_acc = t_next
        f = sub.objective(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        if counters is not None:
            counters.flops += per_iter
        if inner_tol is not None and np.linalg.norm(x - x_prev) <= inner_tol:
            break
    return best_x


def y_closed_form_peredge(x_i: np.ndarray, y_ji: np.ndarray, mu: np.ndarray,
                          lam: np.ndarray, rho_lam: float, rho_mu: float,
                          sign: int) -> np.ndarray:
    """Exact link-block minimizer with separate penalties per constraint.

    Minimizes ``mu^T(x_i - y) + sign*lam^T(y - y_ji)
    + (rho_mu/2)||x_i - y||^2 + (rho_lam/2)||y - y_ji||^2``, giving

        y = (rho_mu * x_i + rho_lam * y_ji + mu - sign*lam)
            / (rho_mu + rho_lam),

    which with a common penalty ``rho`` is the midpoint form
    ``y_ji/2 + x_i/2 + (mu - sign*lam) / (2 rho)``. ``sign`` is the
    orientation sign of the link's consensus term (+1 when the owner has
    the smaller id).
    """
    denom = rho_lam + rho_mu
    if denom <= 0:
        raise DomainError(f"penalty sum must be positive, got {denom}")
    return (rho_mu * x_i + rho_lam * y_ji + mu - sign * lam) / denom


def solve_bg_block(problem: ProblemInstance, node: int, lam_bar: np.ndarray,
                   x_bar: np.ndarray, degree: int, rho: float,
                   inner_budget: int = 50, inner_tol: float | None = None,
                   warm_start: np.ndarray | None = None,
                   counters=None) -> np.ndarray:
    """Node block of the broadcast variant: minimize
    ``f_i(x) + (lam_bar - rho*x_bar)^T x + (rho*degree/2)||x||^2``
    over the node's set; same solver and safeguard as
    :func:`solve_x_block`."""
    sub = XSubproblem(problem, node, lam_bar - rho * x_bar,
                      rho * float(degree))
    return solve_x_block(sub, inner_budget, inner_tol, warm_start, counters)
