"""Primal-dual state machines for the gossip optimizers.

Three variants share a two-time-scale loop: a fast randomized Gauss-Seidel
sweep minimizes the augmented Lagrangian block by block (one block per slot
event), and a slow synchronous multiplier step moves the duals by the penalty
times the observed constraint violation. The pairwise variant keeps a link
variable per directed arc plus two dual vectors per arc; the multi-neighbor
variant shares that state but broadcasts all link variables of a node at
once; the broadcast variant (reliable links only) keeps a single aggregated
dual per node. Per-arc state lives in ``(num_arcs, m)`` arrays indexed by
the arc ids of :class:`~algossip.graph.Supergraph`. A run chooses its
multiplier step and penalty rule once, at its start (:func:`outer_step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, DomainError, KindError, NumericError
from .events import (Event, EventDistribution, EventKind, UniformStream,
                     Variant, event_distribution, sample_event,
                     sample_mg_event)
from .graph import FailureModel, Supergraph
from .metrics import MetricsLog, MetricsRow
from .problem import ProblemInstance, err_f, row_dots
from .subsolve import XSubproblem, solve_bg_block, solve_x_block, \
    y_closed_form_peredge


FEAS_TOL = 1e-9  # feasibility tolerance of every checkpoint


def default_inner_events(graph: Supergraph) -> int:
    """Default fast-scale budget per outer slot: ten expected visits per
    block (nodes plus arcs)."""
    return 10 * (graph.n + graph.num_arcs)


# --------------------------------------------------------------------------
# Penalty schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltySchedule:
    """Rule producing the penalty sequence across outer slots.

    Kinds: ``fixed`` (constant), ``power`` (``t**exponent + offset``),
    ``geometric`` (``coeff * base**t + offset``), and ``adaptive`` (per-dual
    penalties driven by constraint-violation progress). Every kind yields a
    positive, nondecreasing sequence.
    """

    kind: str
    params: tuple[float, ...]

    @classmethod
    def fixed(cls, rho: float) -> "PenaltySchedule":
        if rho <= 0:
            raise DomainError(f"fixed penalty must be positive, got {rho}")
        return cls("fixed", (float(rho),))

    @classmethod
    def power(cls, exponent: float, offset: float) -> "PenaltySchedule":
        if exponent < 0:
            raise DomainError("power exponent must be nonnegative")
        if offset <= 0:
            raise DomainError("power offset must be positive")
        return cls("power", (float(exponent), float(offset)))

    @classmethod
    def geometric(cls, coeff: float, base: float,
                  offset: float) -> "PenaltySchedule":
        if coeff < 0 or base < 1:
            raise DomainError("geometric schedule needs coeff >= 0, base >= 1")
        if coeff + offset <= 0:
            raise DomainError("geometric schedule must start positive")
        return cls("geometric", (float(coeff), float(base), float(offset)))

    @classmethod
    def adaptive(cls, kappa: float, sigma: float,
                 rho0: float) -> "PenaltySchedule":
        if not (0 < kappa < 1):
            raise DomainError(f"kappa must lie in (0, 1), got {kappa}")
        if sigma <= 1:
            raise DomainError(f"sigma must exceed 1, got {sigma}")
        if rho0 <= 0:
            raise DomainError(f"rho0 must be positive, got {rho0}")
        return cls("adaptive", (float(kappa), float(sigma), float(rho0)))


def penalty_at(schedule: PenaltySchedule, t: int) -> float:
    """Penalty at outer slot ``t`` (``inf`` where it overflows); raises
    :class:`KindError` for adaptive penalties, which are per dual."""
    if t < 0:
        raise DomainError(f"slot index must be nonnegative, got {t}")
    if schedule.kind == "fixed":
        return schedule.params[0]
    if schedule.kind == "power":
        exponent, offset = schedule.params
        return np.float64(t) ** exponent + offset
    if schedule.kind == "geometric":
        coeff, base, offset = schedule.params
        return coeff * np.float64(base) ** t + offset
    raise KindError(f"unknown schedule kind {schedule.kind!r}")


def update_adaptive(rho_prev, eps_prev, eps_cur, kappa: float,
                    sigma: float) -> np.ndarray:
    """Per-dual penalty adjustment, elementwise over arrays of penalties
    and their violations.

    Keeps a penalty where its violation decreased enough
    (``eps_cur <= kappa * eps_prev``) and multiplies it by ``sigma``
    elsewhere. The first outer step (no previous violations) keeps every
    penalty. ``kappa`` and ``sigma`` are those of
    :meth:`PenaltySchedule.adaptive`, which checks them.
    """
    if eps_prev is None:
        return rho_prev
    return np.where(eps_cur <= kappa * eps_prev, rho_prev, sigma * rho_prev)


# --------------------------------------------------------------------------
# Algorithm states
# --------------------------------------------------------------------------

class ALGState:
    """State of the pairwise / multi-neighbor gossip variants, in the
    arc-id layout of ``graph``.

    Node ``i`` owns its estimate ``x[i]`` and, for each outgoing arc id
    ``a`` (``graph.arc_src[a] == i``), the link variable ``y[a]`` and the
    duals ``mu[a]``, ``lam[a]``; the receiver ``j`` holds ``y_recv[a]``,
    its copy of the last value of ``y[a]`` it received. ``stale[a]``
    accumulates how far ``y[a]`` has drifted from that copy. All duals
    start at zero.

    Penalties come as a ``(2, num_arcs)`` array: row 0 holds each arc's
    tie-constraint (``mu``) penalty, row 1 its link-constraint (``lam``)
    penalty.

    ``node_dirty[i]`` and ``link_dirty[a]`` say whether an input of node
    block ``i`` or link block ``a`` may have changed since the block was
    last minimized; a clean block is not re-minimized, because an exact
    block minimization with unchanged inputs returns what it returned
    before. ``reset_movement()`` marks every block dirty.
    :func:`slot_kernel` calls it at every slot start, after the dual step
    and any penalty change; code that writes ``x``, ``y``, ``y_recv``,
    ``mu`` or ``lam`` directly must start a new slot before the next event.
    A slot's kernel writes the rows of these arrays in place, so they must
    not be replaced during the slot.
    """

    def __init__(self, problem: ProblemInstance, graph: Supergraph):
        self.problem = problem
        self.graph = graph
        m = problem.dim
        self.x = np.stack([problem.node_project(i, np.zeros(m))
                           for i in range(graph.n)])
        self.y = self.x[graph.arc_src]
        # Before any communication the receiver assumes the sender agrees
        # with its own initial value.
        self.y_recv = self.x[graph.arc_dst]
        self.mu = np.zeros((graph.num_arcs, m))
        self.lam = np.zeros((graph.num_arcs, m))
        self.stale = [float(np.linalg.norm(d)) for d in self.y - self.y_recv]
        self.t = 0
        self.reset_movement()

    def reset_movement(self) -> None:
        """Start a slot: no block re-minimized yet, every block dirty."""
        self.x_move = [np.inf] * self.graph.n
        self.y_move = [np.inf] * self.graph.num_arcs
        self.node_dirty = [True] * self.graph.n
        self.link_dirty = [True] * self.graph.num_arcs

    def max_dual_gap(self) -> float:
        """Largest disagreement between the two copies of a link dual."""
        # Row by row, as in constraint_violations.
        fwd = self.graph.edge_fwd
        gaps = self.lam[fwd] - self.lam[self.graph.arc_rev[fwd]]
        return max([0.0] + [float(np.linalg.norm(g)) for g in gaps])

    def lagrangian(self, pen) -> float:
        """Augmented Lagrangian of the cloned formulation (node, link, and
        tie terms; the orientation sign assigns + to the smaller node id).
        The terms are computed for all nodes, arcs and edges at once and
        accumulated one by one in node, arc and edge order: a vectorized
        sum rounds differently."""
        g, x, y, mu, lam = self.graph, self.x, self.y, self.mu, self.lam
        rho_mu, rho_lam = np.asarray(pen, dtype=float).tolist()
        diff = x[g.arc_src] - y
        fwd = g.edge_fwd
        rev = g.arc_rev[fwd]
        lam_y = row_dots(lam, y).tolist()
        total = sum(self.problem.node_values(x).tolist())
        for a, (mu_diff, sq) in enumerate(zip(
                row_dots(mu, diff, fresh=True).tolist(),
                row_dots(diff, fresh=True).tolist())):
            total += mu_diff
            total += 0.5 * rho_mu[a] * sq
        for a, b, sq in zip(fwd.tolist(), rev.tolist(),
                            row_dots(y[fwd] - y[rev], fresh=True).tolist()):
            total += lam_y[a] - lam_y[b]
            total += 0.5 * rho_lam[a] * sq
        return float(total)


class ALBGState:
    """State of the broadcast variant: per-node estimate ``x`` and per-node
    aggregated dual ``lam_bar``. Broadcasts are reliable, so each node's
    copy of a neighbor's last broadcast is that neighbor's current
    estimate, and ``x`` serves as both. The aggregated duals start at zero
    and always sum to zero across nodes (every multiplier increment
    telescopes). The penalty is one float."""

    def __init__(self, problem: ProblemInstance, graph: Supergraph):
        self.problem = problem
        self.graph = graph
        m = problem.dim
        self.x = np.stack([problem.node_project(i, np.zeros(m))
                           for i in range(graph.n)])
        self.lam_bar = np.zeros((graph.n, m))
        self.t = 0
        self.reset_movement()

    def reset_movement(self) -> None:
        self.x_move = [np.inf] * self.graph.n

    def neighbor_sum(self, i: int) -> np.ndarray:
        out = np.zeros(self.problem.dim)
        for j in self.graph.neighbors[i]:
            out += self.x[j]
        return out

    def max_dual_gap(self) -> float:
        """Not defined: the aggregated duals have no per-link copies."""
        return float("nan")

    def lagrangian(self, rho: float) -> float:
        """Augmented Lagrangian of the direct consensus formulation; the
        edge dual terms aggregate exactly into one inner product per
        node."""
        g, x, rho = self.graph, self.x, float(rho)
        fwd = g.edge_fwd
        total = sum(self.problem.node_values(x).tolist())
        total += float((self.lam_bar * x).sum())
        for sq in row_dots(x[g.arc_src[fwd]] - x[g.arc_dst[fwd]],
                           fresh=True).tolist():
            total += 0.5 * rho * sq
        return float(total)


@dataclass
class Counters:
    """Cumulative fast-scale counters for one run, including the node and
    link block minimizations skipped because the block was clean and the
    link block minimizations made."""

    k: int = 0
    transmissions: int = 0
    flops: int = 0
    node_skips: int = 0
    link_skips: int = 0
    link_solves: int = 0


# --------------------------------------------------------------------------
# Inner (fast-scale) kernel
# --------------------------------------------------------------------------

def slot_kernel(state, variant: Variant, pen, counters: Counters,
                inner_budget: int = 50, inner_tol: float | None = None,
                stop_tol: float | None = None):
    """Start a slot on ``state`` and return its per-event function.

    ``apply(ev)`` applies one slot outcome of ``variant`` at the slot's
    penalties ``pen`` and returns the running stop count: the number of
    ``x_move``, ``y_move`` and ``stale`` entries not below ``stop_tol``
    (a NaN is not below). The slot may end once it is zero; without a
    ``stop_tol`` it never is.

    Pairwise and multi-neighbor variants: a node tick re-minimizes that
    node's estimate; a successful transfer delivers the sender's link value
    and re-minimizes the receiver's link block; a broadcast (resolved into
    receivers by :func:`sample_mg_event`) does that for every receiver,
    whose link blocks are disjoint, so the joint update is an exact block
    minimization. Every message counts one transmission, delivered or not:
    one per pairwise transfer or void slot, the node's degree per broadcast
    or void broadcast. ``pen`` holds the per-arc ``mu`` and ``lam``
    penalties (see :class:`ALGState`). Broadcast variant: the node
    re-minimizes its block and broadcasts the new value to all neighbors
    (one transmission); ``pen`` is one float.

    Everything fixed for the slot is bound here once: the state's row
    views, each node's sum of out-arc tie duals, its row of out-arc tie
    penalties and its block subproblem (weighted by the penalty sum, and,
    for an l1-logistic node, holding ``f_i`` at the node's estimate,
    evaluated here and kept current by the solves), and each arc's link
    minimizer, three weights and an operand whose last row is
    fixed and whose first two a delivery fills (built by
    ``y_closed_form_peredge``, which raises :class:`DomainError` on a
    non-positive penalty sum). The samplers and block solvers are looked
    up on this module when called, the dual step once per run (outer_step).
    """
    variant = Variant(variant)
    g, problem = state.graph, state.problem
    state.reset_movement()
    # nothing is below -inf; a Python float keeps the flag arithmetic on
    # bools (numpy bools cannot be subtracted)
    tol = -math.inf if stop_tol is None else float(stop_tol)
    zero_below = 0.0 < tol
    x_move, x_rows = state.x_move, list(state.x)
    unsettled = sum(not v < tol for v in x_move)
    degrees = g.degrees.tolist()

    # f_i at x[i] per l1-logistic node, which code outside a slot may have
    # changed; the block solves keep it current (see XSubproblem.value)
    values = [None] * g.n if problem.quadratic else [
        problem.node_value(i, x_i) for i, x_i in enumerate(x_rows)]
    zero = np.zeros(problem.dim)

    if variant is Variant.ALBG:
        rho = float(pen)
        lam_bar_rows = list(state.lam_bar)
        subs = [XSubproblem(problem, i, zero, rho * float(d), values[i])
                for i, d in enumerate(degrees)]

        def apply_bg(ev: Event) -> int:
            nonlocal unsettled
            i = ev.node
            x_i = x_rows[i]
            new = solve_bg_block(subs[i], lam_bar_rows[i],
                                 state.neighbor_sum(i), rho, inner_budget,
                                 inner_tol, x_i, counters)
            d = new - x_i
            moved = math.sqrt(d.dot(d))
            x_i[...] = new
            unsettled += (x_move[i] < tol) - (moved < tol)
            x_move[i] = moved
            counters.transmissions += 1
            return unsettled
        return apply_bg

    y_move, stale = state.y_move, state.stale
    node_dirty, link_dirty = state.node_dirty, state.link_dirty
    unsettled += sum(not v < tol for v in y_move)
    unsettled += sum(not v < tol for v in stale)
    y_rows, y_recv_rows = list(state.y), list(state.y_recv)
    src_of, rev_of = g.src_of, g.rev_of
    pen = np.asarray(pen, dtype=float)
    # per arc: its link minimizer's weights and operand, and the operand's
    # two rows that each delivery fills with the owner's estimate and the
    # received value
    weights, operands = y_closed_form_peredge(state.mu, state.lam, pen[1],
                                              pen[0], g.arc_sign)
    links = list(zip(weights, operands, operands[:, 0], operands[:, 1]))
    # Python floats index and multiply faster than numpy scalars.
    rho_mu = pen[0].tolist()
    link_flops = 8 * problem.dim
    # per node: the sum of its out-arc mu, the row of their tie penalties
    # and its out-arc block of y, so that its linear term is ``mu_sum -
    # rho_row.dot(y_blk)``; its block subproblem (the penalty sum, in arc
    # order, is its quadratic weight) and a run of dirty flags for its links
    blocks = []
    for i in range(g.n):
        arcs = g.out_slice[i]
        quad = 0.0
        for r in rho_mu[arcs]:
            quad += r
        blocks.append((arcs, state.mu[arcs].sum(axis=0),
                       np.array(rho_mu[arcs]), state.y[arcs],
                       XSubproblem(problem, i, zero, quad, values[i]),
                       [True] * (arcs.stop - arcs.start)))
    X_UPDATE, Y_TRANSFER = EventKind.X_UPDATE, EventKind.Y_TRANSFER
    MG_BROADCAST = EventKind.MG_BROADCAST

    def x_update(i: int) -> None:
        nonlocal unsettled
        if not node_dirty[i]:
            unsettled += (x_move[i] < tol) - zero_below
            x_move[i] = 0.0
            counters.node_skips += 1
            return
        node_dirty[i] = False
        arcs, mu_sum, rho_row, y_blk, sub, dirty_run = blocks[i]
        sub.linear = mu_sum - rho_row.dot(y_blk)
        x_i = x_rows[i]
        new = solve_x_block(sub, inner_budget, inner_tol, x_i, counters)
        d = new - x_i
        moved = math.sqrt(d.dot(d))
        # A subnormal step can square to zero, and -0.0 == 0.0, so a zero
        # ``moved`` alone does not prove the block kept its value.
        if moved != 0.0 or new.tobytes() != x_i.tobytes():
            link_dirty[arcs] = dirty_run  # every link block of i reads x[i]
        x_i[...] = new
        unsettled += (x_move[i] < tol) - (moved < tol)
        x_move[i] = moved

    def deliver(inbound: int) -> None:
        """The receiver of arc ``inbound`` stores the incoming link value
        and re-minimizes its own link block toward the sender. When that
        block is clean, the receiver's copy already holds the bytes of
        ``y[inbound]`` (a change there would have dirtied the block) and
        nothing is done."""
        nonlocal unsettled
        out = rev_of[inbound]
        unsettled += (stale[inbound] < tol) - zero_below
        stale[inbound] = 0.0
        if not link_dirty[out]:
            unsettled += (y_move[out] < tol) - zero_below
            y_move[out] = 0.0
            counters.link_skips += 1
            return
        link_dirty[out] = False
        w, ops, ops_x, ops_y = links[out]
        y_recv_rows[inbound][...] = ops_y[...] = y_rows[inbound]
        owner = src_of[out]
        ops_x[...] = x_rows[owner]
        new = w.dot(ops)
        counters.link_solves += 1
        y_out = y_rows[out]
        d = new - y_out
        moved = math.sqrt(d.dot(d))
        if moved != 0.0 or new.tobytes() != y_out.tobytes():
            # the owner's node block reads y[out]; the sender's link block
            # reads the owner's next delivery of it
            node_dirty[owner] = True
            link_dirty[inbound] = True
        drift = stale[out]
        stale[out] = drift + moved
        y_out[...] = new
        unsettled += ((drift < tol) - (drift + moved < tol)
                      + (y_move[out] < tol) - (moved < tol))
        y_move[out] = moved
        counters.flops += link_flops

    if variant is Variant.ALG:
        def apply_alg(ev: Event) -> int:
            kind = ev.kind
            if kind is X_UPDATE:
                x_update(ev.node)
            elif kind is Y_TRANSFER:
                counters.transmissions += 1
                deliver(ev.arc)
            else:  # void
                counters.transmissions += 1
            return unsettled
        return apply_alg

    def apply_mg(ev: Event) -> int:
        kind = ev.kind
        if kind is X_UPDATE:
            x_update(ev.node)
        elif kind is MG_BROADCAST:
            counters.transmissions += degrees[ev.node]
            for a in ev.receivers:
                deliver(a)
        else:  # void
            counters.transmissions += degrees[ev.node]
        return unsettled
    return apply_mg


# --------------------------------------------------------------------------
# Dual (slow-scale) updates
# --------------------------------------------------------------------------

def constraint_violations(state: ALGState) -> np.ndarray:
    """Per-arc violation norms of the current state, as each node observes
    them locally: row 0 holds the tie violations ``||x_i - y_ij||``, row 1
    the link violations ``||y_ij - y_recv_ji||``, one column per arc id."""
    x, y, y_recv, g = state.x, state.y, state.y_recv, state.graph
    # Row by row: a norm over an axis can differ in the last bit, and
    # these values drive the adaptive penalties.
    return np.array([
        [float(np.linalg.norm(d)) for d in x[g.arc_src] - y],
        [float(np.linalg.norm(d)) for d in y - y_recv[g.arc_rev]],
    ])


def dual_update_alg(state: ALGState, pen) -> None:
    """Multiplier step at the primal values the slot ended on.

    Each arc's link dual moves by the penalty times the locally observable
    disagreement (own link value minus the last received copy of the
    partner's); each arc's tie dual moves by the penalty times the node-link
    gap. Advances the outer index.
    """
    x, y, y_recv, g = state.x, state.y, state.y_recv, state.graph
    rho_mu, rho_lam = np.asarray(pen, dtype=float)
    state.lam += (rho_lam * g.arc_sign)[:, None] * (y - y_recv[g.arc_rev])
    state.mu += rho_mu[:, None] * (x[g.arc_src] - y)
    state.t += 1


def dual_update_bg(state: ALBGState, rho: float) -> None:
    """Aggregated multiplier step: each node's dual moves by the penalty
    times (degree * own value - neighbor sum). The across-node dual sum
    stays zero because every pairwise difference telescopes."""
    x_bar = np.stack([state.neighbor_sum(i) for i in range(state.graph.n)])
    state.lam_bar += rho * (state.graph.degrees[:, None] * state.x - x_bar)
    state.t += 1


def lagrangian_eval(state, pen) -> float:
    """Evaluate the augmented Lagrangian of a state at the given penalties
    (a ``(2, num_arcs)`` array for the gossip variants, a float for the
    broadcast variant)."""
    return state.lagrangian(pen)


def outer_step(state, schedule: PenaltySchedule):
    """The run's multiplier step, chosen once from the state's variant and
    the schedule's kind. Returns slot 0's penalties and ``step``:
    ``step(pen)`` steps the duals at the finished slot's penalties ``pen``
    and returns the next slot's. Every dual gets :func:`penalty_at`, or,
    for an adaptive schedule (not albg's), ``rho0`` moved by
    :func:`update_adaptive` per arc for ties and per edge for links. The
    dual steps are looked up on this module here, once per run."""
    albg = isinstance(state, ALBGState)
    dual = dual_update_bg if albg else dual_update_alg
    full = float if albg else partial(np.full, (2, state.graph.num_arcs))
    if schedule.kind != "adaptive":
        def step(pen):
            dual(state, pen)
            return full(penalty_at(schedule, state.t))
        return full(penalty_at(schedule, 0)), step

    kappa, sigma, rho0 = schedule.params
    eps_prev, arc_rev = None, state.graph.arc_rev

    def step_adaptive(pen: np.ndarray) -> np.ndarray:
        nonlocal eps_prev
        eps = constraint_violations(state)  # the dual step writes no primal
        # one link penalty per edge, raised on either arc's violation
        eps[1] = np.maximum(eps[1], eps[1][arc_rev])
        dual(state, pen)
        pen, eps_prev = update_adaptive(pen, eps_prev, eps, kappa, sigma), eps
        return pen
    return full(rho0), step_adaptive


# --------------------------------------------------------------------------
# Run loops
# --------------------------------------------------------------------------

def run_inner(state, variant: Variant, graph: Supergraph,
              failures: FailureModel, dist: EventDistribution,
              pen, rng: np.random.Generator, counters: Counters,
              k_inner: int, inner_budget: int = 50,
              inner_tol: float | None = None,
              stop_tol: float | None = None,
              on_checkpoint=None, checkpoint_every: int = 0) -> int:
    """Run the fast-scale loop for one outer slot.

    Applies up to ``k_inner`` sampled events through one
    :func:`slot_kernel` (``k_inner = 0`` leaves the state unchanged). When
    ``stop_tol`` is given the loop also stops once every block has been
    re-minimized with movement below the tolerance and no link value has
    drifted from its receiver's copy by more than it. ``on_checkpoint()``
    is called after each event that brings ``counters.k`` to a multiple of
    ``checkpoint_every`` (0: never). Returns the number of events applied.
    The dual step then reads the primal values the slot ended on from the
    state itself: nothing writes them in between.
    """
    apply = slot_kernel(state, variant, pen, counters, inner_budget,
                        inner_tol, stop_tol)
    start = k = counters.k
    next_checkpoint = -1  # k never equals it
    if on_checkpoint is not None and checkpoint_every:
        next_checkpoint = (k // checkpoint_every + 1) * checkpoint_every
    end = k + k_inner
    broadcast = EventKind.MG_BROADCAST
    try:
        while k < end:
            ev = sample_event(dist, rng)
            if ev.kind is broadcast:
                ev = sample_mg_event(ev.node, graph, failures, rng)
            unsettled = apply(ev)
            k += 1
            if k == next_checkpoint:
                counters.k = k
                on_checkpoint()
                next_checkpoint += checkpoint_every
            if not unsettled:
                break
    finally:
        counters.k = k
    return k - start


def make_state(variant: Variant, problem: ProblemInstance,
               graph: Supergraph):
    if variant is Variant.ALBG:
        return ALBGState(problem, graph)
    return ALGState(problem, graph)


def check_variant(variant: str, schedule: PenaltySchedule,
                  reliable: bool) -> None:
    """Reject an algorithm (a :class:`Variant` or ``"ps"``) that cannot run
    with these penalties and links: the broadcast variant needs reliable
    links and has no per-dual adaptive penalties."""
    if variant == Variant.ALBG and not reliable:
        raise ConfigError("the broadcast variant requires reliable links "
                          "(success probability 1 on every arc)")
    if variant == Variant.ALBG and schedule.kind == "adaptive":
        raise ConfigError("per-dual adaptive penalties are not defined for "
                          "the aggregated-dual broadcast variant")


def run_outer(problem: ProblemInstance, graph: Supergraph, variant: Variant,
              schedule: PenaltySchedule, t_outer: int, k_inner: int,
              seed: int, failures: FailureModel | None = None,
              fstar: float | None = None,
              inner_budget: int = 50, inner_tol: float | None = None,
              inner_stop_tol: float | None = None,
              checkpoint_every: int = 100,
              counters: Counters | None = None) -> tuple[MetricsLog, object]:
    """Full two-time-scale run: alternate the fast-scale sweep and the
    multiplier step ``t_outer`` times, logging metrics at every outer
    boundary and every ``checkpoint_every`` inner events. Deterministic for
    a fixed seed. The run's totals accumulate into ``counters`` when one
    is given."""
    if t_outer < 0 or k_inner < 0:
        raise ConfigError("t_outer and k_inner must be nonnegative")
    if inner_budget < 1:
        raise ConfigError(f"inner_budget must be at least 1, got "
                          f"{inner_budget}")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be nonnegative, got "
                          f"{checkpoint_every}")
    if problem.n_nodes != graph.n:
        raise ConfigError(f"problem has {problem.n_nodes} nodes but the "
                          f"graph has {graph.n}")
    variant = Variant(variant)
    if failures is None:
        failures = FailureModel.always_on(graph)
    check_variant(variant, schedule, failures.reliable)

    rng = UniformStream(np.random.default_rng(seed))
    counters = counters if counters is not None else Counters()
    state = make_state(variant, problem, graph)
    dist = event_distribution(graph, failures, variant)
    log = MetricsLog()

    def checkpoint(pen) -> None:
        if not np.isfinite(state.x).all():
            raise NumericError(f"non-finite node estimate at k={counters.k}")
        err = float("nan") if fstar is None else err_f(problem, state.x, fstar)
        if fstar is not None and not math.isfinite(err):
            raise NumericError(f"non-finite err_f at k={counters.k}")
        # it reads every state array and penalty, so an overflow in any
        # of them shows here
        L_value = lagrangian_eval(state, pen)
        if not math.isfinite(L_value):
            raise NumericError(f"non-finite augmented Lagrangian at "
                               f"k={counters.k}")
        log.append(MetricsRow(
            t=state.t, k=counters.k, transmissions=counters.transmissions,
            flops=counters.flops, err_f=err, L_value=L_value,
            max_dual_gap=state.max_dual_gap(),
            feasible=problem.all_feasible(state.x, FEAS_TOL),
        ))

    pen, step = outer_step(state, schedule)
    checkpoint(pen)
    for t in range(t_outer):
        run_inner(state, variant, graph, failures, dist, pen, rng, counters,
                  k_inner, inner_budget, inner_tol, inner_stop_tol,
                  lambda: checkpoint(pen), checkpoint_every)
        if not np.isfinite(state.x).all():
            raise NumericError(f"non-finite node estimate at the end of "
                               f"slot {t} (k={counters.k})")
        next_pen = step(pen)
        checkpoint(pen)  # the finished slot, at its own penalties
        pen = next_pen
    return log, state
