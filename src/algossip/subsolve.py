"""Single-block minimizers for the inner coordinate sweeps.

Each inner event minimizes the augmented Lagrangian over one block while the
rest stay fixed. The node block reduces to ``f_i(x) + c^T x + (q/2)||x||^2``
over the node's set; the link blocks have exact closed forms. Inexact node
solves never return a point with a larger block objective than the warm
start: the accelerated solver checks this once, at the end of the solve,
and the subgradient fallback keeps its best iterate.
"""

from __future__ import annotations

import math
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
                + float(self.linear.dot(x))
                + 0.5 * self.quad_weight * float(x.dot(x)))

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

    # Iterates are fresh arrays that are never written in place, so the
    # best one is kept by reference and copied once on return; the flop
    # counter is advanced once per solve.
    x = np.array(warm_start, dtype=float)
    best_x, best_f = x, sub.objective(x)
    c0 = 1.0 / (sub.quad_weight + 1.0)
    iters = 0
    for k in range(1, inner_budget + 1):
        g = sub.subgradient(x)
        x_new = prob.node_project(i, x - (c0 / math.sqrt(k)) * g)
        f_new = sub.objective(x_new)
        if f_new < best_f:
            best_f, best_x = f_new, x_new
        d = x_new - x
        x = x_new
        iters += 1
        if inner_tol is not None and math.sqrt(d.dot(d)) <= inner_tol:
            break
    if counters is not None:
        counters.flops += iters * (prob.subgrad_flops(i) + prob.value_flops(i)
                                   + 6 * prob.dim)
    return best_x.copy()


def _solve_composite(sub: XSubproblem, inner_budget: int,
                     inner_tol: float | None, warm_start: np.ndarray,
                     counters) -> np.ndarray:
    """Accelerated proximal gradient on the node block, warm started.

    The momentum is reset whenever the gradient restart test of O'Donoghue
    & Candes ("Adaptive restart for accelerated gradient schemes", 2015)
    fires, i.e. when the prox-gradient step ``y - x_new`` points along the
    step just taken. The loop stops on iterate movement ``<= inner_tol`` or
    on the budget; after a restart the movement is ``step * ||G||`` with
    ``G`` the prox-gradient mapping. The safeguard is one comparison at the
    end: the final iterate is returned when its block objective is no
    larger than the warm start's, otherwise a copy of the warm start."""
    prob, i = sub.problem, sub.node
    smooth_grad, prox = prob.node_smooth_gradient, prob.node_prox
    linear, q = sub.linear, sub.quad_weight
    step = 1.0 / max(prob.node_smooth_lipschitz(i) + q, 1e-12)
    # 0-d arrays: numpy would convert a float operand on every call
    q_arr, step_arr = np.array(q), np.array(step)
    x0 = np.array(warm_start, dtype=float)
    x = x0
    d = x - x  # the last step taken; the first step has no momentum
    t_acc = 1.0
    iters = 0
    for _ in range(inner_budget):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc ** 2))
        y = x + ((t_acc - 1.0) / t_next) * d
        grad = smooth_grad(i, y) + linear + q_arr * y
        x_new = prox(i, y - step_arr * grad, step)
        d = x_new - x
        x = x_new
        t_acc = 1.0 if (y - x).dot(d) > 0.0 else t_next
        iters += 1
        if inner_tol is not None and math.sqrt(d.dot(d)) <= inner_tol:
            break
    if counters is not None:
        # per iteration: gradient, prox, 8*dim of vector work and the
        # 3*dim restart test; per solve: two block objectives
        counters.flops += (iters * (prob.subgrad_flops(i) + 11 * prob.dim)
                           + 2 * prob.value_flops(i))
    if sub.objective(x) <= sub.objective(x0):
        return x
    return x0


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
