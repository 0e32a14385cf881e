"""Single-block minimizers for the inner coordinate sweeps.

Each inner event minimizes the augmented Lagrangian over one block while the
rest stay fixed. The node block reduces to ``f_i(x) + c^T x + (q/2)||x||^2``
over the node's set; the link blocks have exact closed forms, bound once
per slot as one affine map per arc (:func:`y_closed_form_peredge`). A node
solve never returns a point with a larger block objective than the warm
start (see :func:`solve_x_block` for how each family checks this).
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

    ``value`` is ``f_i`` at the warm start of the next solve. An
    l1-logistic block must hold it, and its solve replaces it with ``f_i``
    at the point it returns (the slot kernel warm-starts each solve at the
    previous result). A quadratic solve ignores it. ``loop`` holds what the
    solver binds on the block's first solve, at a ``quad_weight`` that must
    not change after: ``(2w*a, 2w + q)`` for a quadratic block,
    :func:`_bind_composite`'s tuple for an l1-logistic one."""

    problem: ProblemInstance
    node: int
    linear: np.ndarray
    quad_weight: float
    value: float | None = None
    loop: tuple | None = field(default=None, repr=False)


def solve_x_block(sub: XSubproblem, inner_budget: int,
                  inner_tol: float | None, warm_start: np.ndarray,
                  counters) -> np.ndarray:
    """Approximately minimize the node block.

    Quadratic node objectives ``w||x - a||^2`` are solved exactly: the
    block objective is ``((2w + q)/2)||x - x*||^2`` plus a constant, with
    ``x* = (2wa - c)/(2w + q)``, so the projection of ``x*`` onto the node
    set is the constrained minimizer, and a point has a smaller block
    objective than the warm start exactly when it lies closer to ``x*``.
    The solve keeps the projection when it does and otherwise returns the
    warm start, on a tie too; a NaN ``x*`` is never closer. Two objective
    values would differ far below their rounding near the minimizer.
    When ``2w + q = 0`` (a one-node network whose
    node has weight 0) the block objective is constant on the node set and
    the warm start is returned. The l1-logistic objectives use accelerated
    proximal gradient with constant momentum, which the added
    ``(q/2)||x||^2`` term makes linearly convergent (see
    :func:`_solve_composite`); its result never has a larger block
    objective than the warm start, at one ``f_i`` evaluation per solve.
    ``inner_budget`` is at least 1 (``run_outer`` checks it).
    """
    prob, i = sub.problem, sub.node
    if not prob.quadratic:
        return _solve_composite(sub, inner_budget, inner_tol, warm_start,
                                counters)
    if sub.loop is None:
        w, a = prob.quad_coeff(i)
        sub.loop = (2.0 * w * a, 2.0 * w + sub.quad_weight)
    scaled_target, denom = sub.loop
    if denom <= 0:
        return np.array(warm_start, dtype=float)
    star = (scaled_target - sub.linear) / denom
    x = prob.node_project(i, star)
    counters.flops += 6 * prob.dim
    d, e = x - star, warm_start - star
    if d.dot(d) < e.dot(e):
        return x
    return np.array(warm_start, dtype=float)


def _no_worse(sub: XSubproblem, x: np.ndarray, warm: np.ndarray) -> bool:
    """The l1-logistic safeguard: whether ``x``'s block objective is no
    larger than the warm start's. ``sub.value``, the warm start's ``f_i``,
    is replaced by ``f_i`` at the point the solve keeps."""
    linear, q, f_warm = sub.linear, sub.quad_weight, sub.value
    f_x = sub.problem.node_value(sub.node, x)
    keep = _block_value(f_x, linear, q, x) <= _block_value(f_warm, linear,
                                                            q, warm)
    sub.value = f_x if keep else f_warm
    return keep


def _bind_composite(sub: XSubproblem) -> tuple:
    """What the l1-logistic loop reads, at the block's ``quad_weight``.

    With the node's half design (``-D/2``, ``D^T/2`` and ``D^T 1/2``, from
    ``node_design``) the prox-gradient point ``y - step*(grad f_i(y) + c +
    q*y)`` is ``step*(D^T/2) tanh((-D/2) y) + (1 - step*q)*y + step*D^T
    1/2 - step*c``, one product of the matrix ``[step*D^T/2 | (1 -
    step*q)*I | step*D^T 1/2 | -step*c]`` with the work vector
    ``[tanh((-D/2) y); y; 1; 1]``. The matrix is Fortran-ordered so that
    its last column, the only part that depends on ``c``, is contiguous:
    each solve rewrites it. The loop writes ``tanh((-D/2) y)`` and ``y``
    into views of the work vector. ``-step``, the momentum and the l1
    threshold pair ``(t, -t)`` for ``node_prox`` are 0-d arrays, so numpy
    does not convert a float operand on every call.
    """
    prob, i, q = sub.problem, sub.node, sub.quad_weight
    neg_half, half_t, half_sum = prob.node_design(i)
    lip_q = prob.node_smooth_lipschitz(i) + q
    step = 1.0 / max(lip_q, 1e-12)
    momentum = 0.0
    if q > 0:
        root = math.sqrt(lip_q / q)
        momentum = 1.0 - 2.0 / (root + 1.0)  # (root - 1)/(root + 1)
    threshold = step * prob.lam_reg / prob.n_nodes
    samples, dim = neg_half.shape
    fused = np.zeros((dim, samples + dim + 2), order="F")
    fused[:, :samples] = step * half_t
    np.fill_diagonal(fused[:, samples:-2], 1.0 - step * q)
    fused[:, -2] = step * half_sum
    work = np.zeros(samples + dim + 2)
    work[-2:] = 1.0
    # flops: per iteration the gradient, the prox and 8*dim of vector work;
    # per binding the step-scaled design
    iter_flops = prob.subgrad_flops(i) + 8 * dim
    return (neg_half, fused, fused[:, -1], np.array(-step), work,
            work[:samples], work[samples:-2],
            (np.array(threshold), np.array(-threshold)), np.array(momentum),
            iter_flops, prob.value_flops(i), half_t.size)


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
    binding = loop is None
    if binding:
        loop = sub.loop = _bind_composite(sub)
    (neg_half, fused, last, neg_step, work, tanh, y, threshold, momentum,
     iter_flops, value_flops, bind_flops) = loop
    np.multiply(sub.linear, neg_step, out=last)
    prox = prob.node_prox
    tol = -1.0 if inner_tol is None else inner_tol  # a norm is never below
    x0 = np.array(warm_start, dtype=float)
    y[...] = x0
    x = x0
    for iters in range(1, inner_budget + 1):  # run_outer checks >= 1
        np.tanh(neg_half.dot(y), out=tanh)
        x_new = prox(i, fused.dot(work), threshold)
        d = x_new - x
        x = x_new
        if math.sqrt(d.dot(d)) <= tol:
            break
        np.multiply(d, momentum, out=y)
        y += x  # x + momentum*d: addition commutes bit for bit
    # per solve: the last column and one block objective
    counters.flops += (iters * iter_flops + prob.dim + value_flops
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


def solve_bg_block(sub: XSubproblem, lam_bar: np.ndarray,
                   x_bar: np.ndarray, rho: float, inner_budget: int,
                   inner_tol: float | None, warm_start: np.ndarray,
                   counters) -> np.ndarray:
    """Node block of the broadcast variant: minimize
    ``f_i(x) + (lam_bar - rho*x_bar)^T x + (rho*degree/2)||x||^2``
    over the node's set; same solver and safeguard as
    :func:`solve_x_block`. ``sub`` is this node's block, of quadratic
    weight ``rho*degree``; this solve sets its linear term and reuses what
    the block caches (see :class:`XSubproblem`)."""
    sub.linear = lam_bar - rho * x_bar
    return solve_x_block(sub, inner_budget, inner_tol, warm_start, counters)
