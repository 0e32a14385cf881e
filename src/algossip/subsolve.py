"""Single-block minimizers for the inner coordinate sweeps.

Each inner event minimizes the augmented Lagrangian over one block while the
rest stay fixed. The node block reduces to ``f_i(x) + c^T x + (q/2)||x||^2``
over the node's set; the link blocks have exact closed forms. Inexact node
solves never return a point with a larger block objective than the warm
start: the accelerated solver checks this once, at the end of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DomainError
from .problem import LogRegInstance, ProblemInstance


def _block_value(problem: ProblemInstance, i: int, linear: np.ndarray,
                 q: float, x: np.ndarray) -> float:
    return (problem.node_value(i, x) + float(linear.dot(x))
            + 0.5 * q * float(x.dot(x)))


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
        return _block_value(self.problem, self.node, self.linear,
                            self.quad_weight, x)


def solve_x_block(sub: XSubproblem, inner_budget: int = 50,
                  inner_tol: float | None = None,
                  warm_start: np.ndarray | None = None,
                  counters=None) -> np.ndarray:
    """Approximately minimize the node block.

    Quadratic node objectives ``w||x - a||^2`` are solved exactly: the
    regularized stationary point ``(2wa - c)/(2w + q)`` projected onto the
    node set is the constrained minimizer because the Hessian is isotropic.
    When ``2w + q = 0`` (a one-node network whose node has weight 0) the
    block objective is constant on the node set and the warm start is
    returned. The l1-logistic objectives use accelerated proximal gradient
    with constant momentum, which the added ``(q/2)||x||^2`` term makes
    linearly convergent (see :func:`_solve_composite`). In every case the
    result never has a larger block objective than the warm start.
    """
    return _solve_block(sub.problem, sub.node, sub.linear, sub.quad_weight,
                        inner_budget, inner_tol, warm_start, counters)


def _solve_block(prob: ProblemInstance, i: int, linear: np.ndarray,
                 q: float, inner_budget: int, inner_tol: float | None,
                 warm_start: np.ndarray | None, counters) -> np.ndarray:
    if inner_budget < 1:
        raise ValueError("inner_budget must be >= 1")
    if warm_start is None:
        warm_start = prob.node_project(i, np.zeros(prob.dim))

    if not prob.quadratic:
        return _solve_composite(prob, i, linear, q, inner_budget, inner_tol,
                                warm_start, counters)
    w, a = prob.quad_coeff(i)
    denom = 2.0 * w + q
    if denom <= 0:
        return np.array(warm_start, dtype=float)
    x = prob.node_project(i, (2.0 * w * a - linear) / denom)
    if counters is not None:
        counters.flops += 6 * prob.dim
    # Exact minimizer; the safeguard can still matter at the
    # boundary of floating point so keep it.
    if (_block_value(prob, i, linear, q, x)
            <= _block_value(prob, i, linear, q, warm_start)):
        return x
    return np.asarray(warm_start, dtype=float).copy()


def _solve_composite(prob: LogRegInstance, i: int, linear: np.ndarray,
                     q: float, inner_budget: int, inner_tol: float | None,
                     warm_start: np.ndarray, counters) -> np.ndarray:
    """Accelerated proximal gradient on an l1-logistic node block, warm
    started, with the constant momentum of a strongly convex objective.

    The block's smooth part ``f_i + c^T x + (q/2)||x||^2`` has gradient
    Lipschitz constant ``L = lip + q`` and strong convexity ``q``, so with
    step ``1/L`` the momentum is ``(sqrt(kappa) - 1)/(sqrt(kappa) + 1)``
    for ``kappa = L/q`` (V-FISTA: Beck, *First-Order Methods in
    Optimization*, 2017, section 10.7.7; Nesterov, *Introductory Lectures
    on Convex Optimization*, 2004, section 2.2). A node without neighbors
    has ``q = 0`` and runs the same loop without momentum. The loop stops
    on iterate movement ``<= inner_tol`` or on the budget. The safeguard
    is one comparison at the end: the final iterate is returned when its
    block objective is no larger than the warm start's, otherwise a copy
    of the warm start.

    Everything the loop reads is bound once per solve: the node's negated
    design and its step-scaled transpose, the step, the momentum and the
    l1 threshold. The prox-gradient point ``y - step*(grad f_i(y) + c +
    q*y)`` is formed as ``step*D^T expit(-D y) - step*c + (1 - step*q)*y``.
    """
    neg, design_t = prob.node_design(i)
    prox = prob.node_prox
    lip_q = prob.node_smooth_lipschitz(i) + q
    step = 1.0 / max(lip_q, 1e-12)
    momentum = 0.0
    if q > 0:
        root = math.sqrt(lip_q / q)
        momentum = 1.0 - 2.0 / (root + 1.0)  # (root - 1)/(root + 1)
    threshold = step * prob.lam_reg / prob.n_nodes
    scaled_t = step * design_t
    offset = step * linear
    # 0-d arrays: numpy would convert a float operand on every call
    shrink, momentum = np.array(1.0 - step * q), np.array(momentum)
    tol = -1.0 if inner_tol is None else inner_tol  # a norm is never below
    x0 = np.array(warm_start, dtype=float)
    x = y = x0
    for iters in range(1, inner_budget + 1):  # _solve_block checks >= 1
        u = scaled_t.dot(expit(neg.dot(y)))
        u -= offset
        u += shrink * y
        x_new = prox(i, u, step, threshold)
        d = x_new - x
        x = x_new
        if math.sqrt(d.dot(d)) <= tol:
            break
        y = x + momentum * d
    if counters is not None:
        # per iteration: gradient, prox and 8*dim of vector work; per
        # solve: the step-scaled design and linear term, two block
        # objectives
        counters.flops += (iters * (prob.subgrad_flops(i) + 8 * prob.dim)
                           + scaled_t.size + prob.dim
                           + 2 * prob.value_flops(i))
    if (_block_value(prob, i, linear, q, x)
            <= _block_value(prob, i, linear, q, x0)):
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

    The numerator is accumulated in place, left to right. ``sign`` is +-1,
    so subtracting or adding ``lam`` gives the bits of ``- sign*lam``
    (IEEE defines ``a - b`` as ``a + (-b)``).
    """
    denom = rho_lam + rho_mu
    if denom <= 0:
        raise DomainError(f"penalty sum must be positive, got {denom}")
    out = rho_mu * x_i
    out += rho_lam * y_ji
    out += mu
    if sign > 0:
        out -= lam
    else:
        out += lam
    out /= denom
    return out


def solve_bg_block(problem: ProblemInstance, node: int, lam_bar: np.ndarray,
                   x_bar: np.ndarray, degree: int, rho: float,
                   inner_budget: int = 50, inner_tol: float | None = None,
                   warm_start: np.ndarray | None = None,
                   counters=None) -> np.ndarray:
    """Node block of the broadcast variant: minimize
    ``f_i(x) + (lam_bar - rho*x_bar)^T x + (rho*degree/2)||x||^2``
    over the node's set; same solver and safeguard as
    :func:`solve_x_block`."""
    return _solve_block(problem, node, lam_bar - rho * x_bar,
                        rho * float(degree), inner_budget, inner_tol,
                        warm_start, counters)
