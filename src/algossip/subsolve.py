"""Single-block minimizers for the inner coordinate sweeps.

Each inner event minimizes the augmented Lagrangian over one block while the
rest stay fixed. The node block reduces to ``f_i(x) + c^T x + (q/2)||x||^2``
over the node's set; the link blocks have exact closed forms, bound once
per slot as one affine map per arc (:func:`y_closed_form_peredge`). Inexact
node solves never return a point with a larger block objective than the
warm start: the accelerated solver checks this once, at the end of the
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .problem import ProblemInstance


def _block_value(f: float, linear: np.ndarray, q: float,
                 x: np.ndarray) -> float:
    """The block objective at ``x``, given ``f = f_i(x)``."""
    return f + float(linear.dot(x)) + 0.5 * q * float(x.dot(x))


@dataclass
class XSubproblem:
    """Node-block data: minimize ``f_i(x) + linear^T x + (quad_weight/2)
    ||x||^2`` over the node's constraint set. ``quad_weight`` is positive
    whenever the penalty is positive and the node has a neighbor.

    ``value`` is ``f_i`` at the warm start of the next solve when the
    caller keeps it (``None``: each solve evaluates it). A solve given a
    value replaces it with ``f_i`` at the point it returns, so a caller
    that warm-starts each solve at the previous result, as the slot kernel
    does, evaluates ``f_i`` once per solve. ``loop`` holds what the
    l1-logistic solver binds on its first solve of this block and reuses
    while ``quad_weight`` stays the same (see :func:`_bind_composite`)."""

    problem: ProblemInstance
    node: int
    linear: np.ndarray
    quad_weight: float
    value: float | None = None
    loop: tuple | None = field(default=None, repr=False)


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
    result never has a larger block objective than the warm start: one
    block objective is evaluated per solve when ``sub.value`` holds the
    warm start's ``f_i``, two when it is ``None``.
    """
    if inner_budget < 1:
        raise ValueError("inner_budget must be >= 1")
    prob, i = sub.problem, sub.node
    if warm_start is None:
        warm_start = prob.node_project(i, np.zeros(prob.dim))
    if not prob.quadratic:
        return _solve_composite(sub, inner_budget, inner_tol, warm_start,
                                counters)
    w, a = prob.quad_coeff(i)
    denom = 2.0 * w + sub.quad_weight
    if denom <= 0:
        return np.array(warm_start, dtype=float)
    x = prob.node_project(i, (2.0 * w * a - sub.linear) / denom)
    if counters is not None:
        counters.flops += 6 * prob.dim
    # Exact minimizer; the safeguard can still matter at the
    # boundary of floating point so keep it.
    if _no_worse(sub, x, warm_start):
        return x
    return np.array(warm_start, dtype=float)


def _no_worse(sub: XSubproblem, x: np.ndarray, warm: np.ndarray) -> bool:
    """The safeguard: whether ``x``'s block objective is no larger than the
    warm start's. A cached ``sub.value`` is the warm start's ``f_i`` and is
    replaced by ``f_i`` at the point the solve keeps."""
    prob, i, linear, q = sub.problem, sub.node, sub.linear, sub.quad_weight
    f_x = prob.node_value(i, x)
    f_warm = sub.value
    cached = f_warm is not None
    if not cached:
        f_warm = prob.node_value(i, warm)
    keep = _block_value(f_x, linear, q, x) <= _block_value(f_warm, linear,
                                                            q, warm)
    if cached:
        sub.value = f_x if keep else f_warm
    return keep


def _bind_composite(sub: XSubproblem) -> tuple:
    """What the l1-logistic loop reads, for the block's ``quad_weight``.

    The prox-gradient point ``y - step*(grad f_i(y) + c + q*y)`` is
    ``step*D^T expit(-D y) + (1 - step*q)*y - step*c``, one product of the
    matrix ``[step*D^T | (1 - step*q)*I | -step*c]`` with the work vector
    ``[expit(-D y); y; 1]``. The matrix is Fortran-ordered so that its last
    column, the only part that depends on ``c``, is contiguous: each solve
    rewrites it. The loop writes ``expit(-D y)`` and ``y`` into views of
    the work vector. ``-step``, the momentum and the l1 threshold pair
    ``(t, -t)`` for ``node_prox`` are 0-d arrays, so numpy does not convert
    a float operand on every call. The sigmoid ``expit`` travels in the
    tuple too: scipy is imported here, on a logistic block's first solve,
    not when the package is.
    """
    from scipy.special import expit

    prob, i, q = sub.problem, sub.node, sub.quad_weight
    neg, design_t = prob.node_design(i)
    lip_q = prob.node_smooth_lipschitz(i) + q
    step = 1.0 / max(lip_q, 1e-12)
    momentum = 0.0
    if q > 0:
        root = math.sqrt(lip_q / q)
        momentum = 1.0 - 2.0 / (root + 1.0)  # (root - 1)/(root + 1)
    threshold = step * prob.lam_reg / prob.n_nodes
    samples, dim = neg.shape
    fused = np.zeros((dim, samples + dim + 1), order="F")
    fused[:, :samples] = step * design_t
    np.fill_diagonal(fused[:, samples:-1], 1.0 - step * q)
    work = np.zeros(samples + dim + 1)
    work[-1] = 1.0
    # flops: per iteration the gradient, the prox and 8*dim of vector work;
    # per binding the step-scaled design
    iter_flops = prob.subgrad_flops(i) + 8 * dim
    return (q, expit, neg, fused, fused[:, -1], np.array(-step), work,
            work[:samples], work[samples:-1], step,
            (np.array(threshold), np.array(-threshold)), np.array(momentum),
            iter_flops, prob.value_flops(i), design_t.size)


def _solve_composite(sub: XSubproblem, inner_budget: int,
                     inner_tol: float | None, warm_start: np.ndarray,
                     counters) -> np.ndarray:
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

    An iteration is one fused product for the prox-gradient point (see
    :func:`_bind_composite`, bound on the block's first solve at its
    quadratic weight), the prox, which works in place on that product,
    and the movement and momentum point, written into the work vector.
    """
    prob, i, loop = sub.problem, sub.node, sub.loop
    binding = loop is None or loop[0] != sub.quad_weight
    if binding:
        loop = sub.loop = _bind_composite(sub)
    (_, expit, neg, fused, last, neg_step, work, sigma, y, step, threshold,
     momentum, iter_flops, value_flops, bind_flops) = loop
    np.multiply(sub.linear, neg_step, out=last)
    prox = prob.node_prox
    tol = -1.0 if inner_tol is None else inner_tol  # a norm is never below
    x0 = np.array(warm_start, dtype=float)
    y[...] = x0
    x = x0
    for iters in range(1, inner_budget + 1):  # solve_x_block checks >= 1
        expit(neg.dot(y), out=sigma)
        x_new = prox(i, fused.dot(work), step, threshold)
        d = x_new - x
        x = x_new
        if math.sqrt(d.dot(d)) <= tol:
            break
        np.multiply(d, momentum, out=y)
        y += x  # x + momentum*d: addition commutes bit for bit
    if counters is not None:
        # per solve: the last column and one block objective, two without
        # a cached value
        counters.flops += (iters * iter_flops + prob.dim
                           + (1 + (sub.value is None)) * value_flops
                           + binding * bind_flops)
    if _no_worse(sub, x, x0):
        return x
    return x0


def y_closed_form_peredge(mu: np.ndarray, lam: np.ndarray, rho_lam, rho_mu,
                          sign) -> tuple[np.ndarray, np.ndarray]:
    """Exact link-block minimizers as affine maps, one per arc.

    An arc's link block minimizes ``mu^T(x_i - y) + sign*lam^T(y - y_ji)
    + (rho_mu/2)||x_i - y||^2 + (rho_lam/2)||y - y_ji||^2``, whose
    minimizer ``(rho_mu*x_i + rho_lam*y_ji + mu - sign*lam)/(rho_mu +
    rho_lam)`` is ``w_mu*x_i + w_lam*y_ji + c`` with ``w_mu = rho_mu/(rho_mu
    + rho_lam)``, ``w_lam = rho_lam/(rho_mu + rho_lam)`` and ``c = (mu -
    sign*lam)/(rho_mu + rho_lam)``; with a common penalty ``rho``, the
    midpoint form ``y_ji/2 + x_i/2 + (mu - sign*lam)/(2 rho)``. ``sign`` is
    the orientation sign of the link's consensus term (+1 when the owner
    has the smaller id).

    The arguments broadcast over leading arc axes: ``mu`` and ``lam`` have
    shape ``(..., m)``, the penalties and signs shape ``(...)``. Returns
    the weights ``[w_mu, w_lam, 1]``, shape ``(..., 3)``, and the operands,
    shape ``(..., 3, m)``, whose last row is ``c`` and whose first two rows
    a caller fills with ``x_i`` and ``y_ji``: an arc's weights times its
    operand is then the minimizer.
    """
    mu = np.asarray(mu, dtype=float)
    denom = np.asarray(rho_lam, dtype=float) + rho_mu
    if (denom <= 0).any():
        raise DomainError(f"penalty sum must be positive, got {denom.min()}")
    weights = np.stack([rho_mu / denom, rho_lam / denom,
                        np.ones_like(denom)], axis=-1)
    operands = np.zeros(mu.shape[:-1] + (3, mu.shape[-1]))
    operands[..., 2, :] = (mu - np.asarray(sign)[..., None] * lam) \
        / denom[..., None]
    return weights, operands


def solve_bg_block(problem: ProblemInstance, node: int, lam_bar: np.ndarray,
                   x_bar: np.ndarray, degree: int, rho: float,
                   inner_budget: int = 50, inner_tol: float | None = None,
                   warm_start: np.ndarray | None = None,
                   counters=None, sub: XSubproblem | None = None) -> np.ndarray:
    """Node block of the broadcast variant: minimize
    ``f_i(x) + (lam_bar - rho*x_bar)^T x + (rho*degree/2)||x||^2``
    over the node's set; same solver and safeguard as
    :func:`solve_x_block`. ``sub``, when given, is this node's block from
    earlier solves: this solve sets its linear term and quadratic weight
    and reuses and updates its cached ``value`` and bound loop data."""
    linear, quad = lam_bar - rho * x_bar, rho * float(degree)
    if sub is None:
        sub = XSubproblem(problem, node, linear, quad)
    else:
        sub.linear, sub.quad_weight = linear, quad
    return solve_x_block(sub, inner_budget, inner_tol, warm_start, counters)
