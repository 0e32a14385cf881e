"""Primal-dual state machines for the gossip optimizers.

Three variants share a two-time-scale loop: a fast randomized Gauss-Seidel
sweep minimizes the augmented Lagrangian block by block (one block per slot
event), and a slow synchronous multiplier step moves the duals by the penalty
times the observed constraint violation. The pairwise variant keeps a link
variable per directed arc plus two dual vectors per arc; the multi-neighbor
variant shares that state but broadcasts all link variables of a node at
once; the broadcast variant (reliable links only) keeps a single aggregated
dual per node. Per-arc state lives in ``(num_arcs, m)`` arrays indexed by
the arc ids of :class:`~algossip.graph.Supergraph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, KindError, NumericError
from .events import (Event, EventDistribution, EventKind, Variant,
                     event_distribution, sample_event, sample_mg_event)
from .graph import FailureModel, Supergraph
from .metrics import MetricsLog, MetricsRow
from .problem import ProblemInstance, err_f
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
    """Penalty value at outer slot ``t`` for the non-adaptive kinds."""
    if t < 0:
        raise DomainError(f"slot index must be nonnegative, got {t}")
    if schedule.kind == "fixed":
        return schedule.params[0]
    if schedule.kind == "power":
        exponent, offset = schedule.params
        return float(t) ** exponent + offset
    if schedule.kind == "geometric":
        coeff, base, offset = schedule.params
        return coeff * base ** t + offset
    if schedule.kind == "adaptive":
        raise KindError("adaptive penalties are per-dual; query them through "
                        "update_adaptive")
    raise KindError(f"unknown schedule kind {schedule.kind!r}")


def update_adaptive(rho_prev, eps_prev, eps_cur, kappa: float,
                    sigma: float) -> np.ndarray:
    """Per-dual penalty adjustment, elementwise over arrays of penalties
    and their violations.

    Keeps a penalty where its violation decreased enough
    (``eps_cur <= kappa * eps_prev``) and multiplies it by ``sigma``
    elsewhere. The first outer step (no previous violations) keeps every
    penalty.
    """
    if not (0 < kappa < 1):
        raise DomainError(f"kappa must lie in (0, 1), got {kappa}")
    if sigma <= 1:
        raise DomainError(f"sigma must exceed 1, got {sigma}")
    rho_prev = np.asarray(rho_prev, dtype=float)
    if np.any(rho_prev <= 0):
        raise DomainError(f"penalties must be positive, got {rho_prev}")
    if eps_prev is None:
        return rho_prev
    eps_prev = np.asarray(eps_prev, dtype=float)
    if np.any(eps_prev < 0):
        raise DomainError("violations must be nonnegative")
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
        self.final = None

    def reset_movement(self) -> None:
        self.x_move = [np.inf] * self.graph.n
        self.y_move = [np.inf] * self.graph.num_arcs

    def converged(self, tol: float) -> bool:
        """Every block moved less than ``tol`` when last re-minimized and
        no link value has drifted from its receiver's copy by ``tol``."""
        return (max(self.x_move) < tol
                and max(self.y_move, default=0.0) < tol
                and max(self.stale, default=0.0) < tol)

    def snapshot_finals(self) -> None:
        self.final = (self.x.copy(), self.y.copy(), self.y_recv.copy())

    def max_dual_gap(self) -> float:
        """Largest disagreement between the two copies of a link dual."""
        # Row by row, as in constraint_violations.
        fwd = self.graph.edge_fwd
        gaps = self.lam[fwd] - self.lam[self.graph.arc_rev[fwd]]
        return max([0.0] + [float(np.linalg.norm(g)) for g in gaps])

    def lagrangian(self, pen) -> float:
        """Augmented Lagrangian of the cloned formulation (node, link, and
        tie terms; the orientation sign assigns + to the smaller node id),
        accumulated arc by arc: a vectorized sum rounds differently."""
        g, x, y, mu, lam = self.graph, self.x, self.y, self.mu, self.lam
        rho_mu, rho_lam = np.asarray(pen, dtype=float).tolist()
        total = sum(self.problem.node_value(i, x[i]) for i in range(g.n))
        for a, i in enumerate(g.arc_src.tolist()):
            diff = x[i] - y[a]
            total += float(mu[a] @ diff)
            total += 0.5 * rho_mu[a] * float(diff @ diff)
        fwd = g.edge_fwd
        for a, b in zip(fwd.tolist(), g.arc_rev[fwd].tolist()):
            total += float(lam[a] @ y[a]) - float(lam[b] @ y[b])
            gap = y[a] - y[b]
            total += 0.5 * rho_lam[a] * float(gap @ gap)
        return float(total)


class ALBGState:
    """State of the broadcast variant: per-node estimate, per-node
    aggregated dual, and each node's copy of its neighbors' last broadcast.
    The aggregated duals start at zero and always sum to zero across nodes
    (every multiplier increment telescopes). The penalty is one float."""

    def __init__(self, problem: ProblemInstance, graph: Supergraph):
        self.problem = problem
        self.graph = graph
        m = problem.dim
        self.x = np.stack([problem.node_project(i, np.zeros(m))
                           for i in range(graph.n)])
        # Copies as of the last broadcast; seeded during network setup.
        self.x_bcast = self.x.copy()
        self.lam_bar = np.zeros((graph.n, m))
        self.t = 0
        self.reset_movement()
        self.final = None

    def reset_movement(self) -> None:
        self.x_move = [np.inf] * self.graph.n

    def converged(self, tol: float) -> bool:
        """Every node moved less than ``tol`` when last re-minimized."""
        return max(self.x_move) < tol

    def neighbor_sum(self, i: int) -> np.ndarray:
        out = np.zeros(self.problem.dim)
        for j in self.graph.neighbors[i]:
            out += self.x_bcast[j]
        return out

    def snapshot_finals(self) -> None:
        # Broadcasts are reliable, so the final local values and the final
        # received copies coincide.
        self.final = (self.x.copy(),
                      np.stack([self.neighbor_sum(i)
                                for i in range(self.graph.n)]))

    def dual_sum(self) -> np.ndarray:
        return self.lam_bar.sum(axis=0)

    def max_dual_gap(self) -> float:
        """Not defined: the aggregated duals have no per-link copies."""
        return float("nan")

    def lagrangian(self, rho: float) -> float:
        """Augmented Lagrangian of the direct consensus formulation; the
        edge dual terms aggregate exactly into one inner product per
        node."""
        x, rho = self.x, float(rho)
        total = sum(self.problem.node_value(i, x[i])
                    for i in range(self.graph.n))
        total += float((self.lam_bar * x).sum())
        for (i, j) in self.graph.edges:
            diff = x[i] - x[j]
            total += 0.5 * rho * float(diff @ diff)
        return float(total)


@dataclass
class Counters:
    """Cumulative fast-scale counters for one run."""

    k: int = 0
    transmissions: int = 0
    flops: int = 0


# --------------------------------------------------------------------------
# Inner (fast-scale) steps
# --------------------------------------------------------------------------

def _update_x_block(state: ALGState, i: int, rho_mu, inner_budget: int,
                    inner_tol: float | None, counters: Counters) -> float:
    arcs = state.graph.out_slice[i]
    rho = rho_mu[arcs]
    terms = state.mu[arcs] - np.array(rho)[:, None] * state.y[arcs]
    # Summed one row at a time from zero, like a loop of +=: a reduction
    # over a single column would sum pairwise and round differently.
    linear = np.zeros(state.problem.dim)
    quad = 0.0
    for r, row in zip(rho, terms):
        linear += row
        quad += r
    sub = XSubproblem(state.problem, i, linear, quad)
    new = solve_x_block(sub, inner_budget, inner_tol, warm_start=state.x[i],
                        counters=counters)
    d = new - state.x[i]
    moved = math.sqrt(d.dot(d))
    state.x[i] = new
    state.x_move[i] = moved
    return moved


def _deliver_and_update(state: ALGState, inbound: int, rho_mu, rho_lam,
                        counters: Counters) -> float:
    """The receiver of arc ``inbound`` stores the incoming link value and
    re-minimizes its own link block toward the sender."""
    g = state.graph
    out = g.arc_rev[inbound]
    state.y_recv[inbound] = state.y[inbound]
    state.stale[inbound] = 0.0
    new = y_closed_form_peredge(
        state.x[g.arc_src[out]], state.y_recv[inbound],
        state.mu[out], state.lam[out], rho_lam[out], rho_mu[out],
        g.arc_sign[out],
    )
    d = new - state.y[out]
    moved = math.sqrt(d.dot(d))
    state.stale[out] += moved
    state.y[out] = new
    state.y_move[out] = moved
    counters.flops += 8 * state.problem.dim
    return moved


def inner_step_alg(state: ALGState, ev: Event, pen,
                   inner_budget: int = 50, inner_tol: float | None = None,
                   counters: Counters | None = None) -> float:
    """Apply one pairwise-gossip event; returns the block movement.

    A node tick re-minimizes that node's estimate; a successful transfer
    delivers the sender's link value and re-minimizes the receiver's link
    block; a void slot (failed transfer) changes nothing. Successful and
    failed transfers both count one transmission. ``pen`` holds the
    per-arc ``mu`` and ``lam`` penalties (see :class:`ALGState`).
    """
    counters = counters if counters is not None else Counters()
    rho_mu, rho_lam = pen
    if ev.kind is EventKind.X_UPDATE:
        return _update_x_block(state, ev.node, rho_mu, inner_budget,
                               inner_tol, counters)
    if ev.kind is EventKind.Y_TRANSFER:
        counters.transmissions += 1
        return _deliver_and_update(state, ev.arc, rho_mu, rho_lam, counters)
    if ev.kind is EventKind.VOID:
        counters.transmissions += 1
        return 0.0
    raise KindError(f"event {ev.kind} is not part of the pairwise variant")


def inner_step_mg(state: ALGState, ev: Event, pen,
                  inner_budget: int = 50, inner_tol: float | None = None,
                  counters: Counters | None = None) -> float:
    """Apply one multi-neighbor event.

    A broadcast sends every link variable of the node at once (one message
    per neighbor, all counted, delivered or not); each successful receiver
    applies the same link update as the pairwise variant. The touched link
    blocks are disjoint, so the joint update is an exact block minimization.
    """
    counters = counters if counters is not None else Counters()
    rho_mu, rho_lam = pen
    if ev.kind is EventKind.X_UPDATE:
        return _update_x_block(state, ev.node, rho_mu, inner_budget,
                               inner_tol, counters)
    if ev.kind is EventKind.MG_BROADCAST:
        if ev.receivers is None:
            raise KindError("broadcast tick must be resolved into receivers "
                            "before stepping (see sample_mg_event)")
        counters.transmissions += int(state.graph.degrees[ev.node])
        moved = 0.0
        for a in ev.receivers:
            moved = max(moved, _deliver_and_update(state, a, rho_mu, rho_lam,
                                                   counters))
        return moved
    if ev.kind is EventKind.VOID:
        counters.transmissions += int(state.graph.degrees[ev.node])
        return 0.0
    raise KindError(f"event {ev.kind} is not part of the multi-neighbor "
                    f"variant")


def step_bg(state: ALBGState, node: int, rho: float,
            inner_budget: int = 50, inner_tol: float | None = None,
            counters: Counters | None = None) -> float:
    """One broadcast-variant event: the node re-minimizes its block and
    broadcasts the new value to all neighbors (one transmission)."""
    counters = counters if counters is not None else Counters()
    x_bar = state.neighbor_sum(node)
    new = solve_bg_block(state.problem, node, state.lam_bar[node], x_bar,
                         int(state.graph.degrees[node]), rho,
                         inner_budget, inner_tol,
                         warm_start=state.x[node], counters=counters)
    d = new - state.x[node]
    moved = math.sqrt(d.dot(d))
    state.x[node] = new
    state.x_bcast[node] = new.copy()
    state.x_move[node] = moved
    counters.transmissions += 1
    return moved


# --------------------------------------------------------------------------
# Dual (slow-scale) updates
# --------------------------------------------------------------------------

def constraint_violations(state: ALGState) -> np.ndarray:
    """Per-arc violation norms at the last inner snapshot, as each node
    observes them locally: row 0 holds the tie violations
    ``||x_i - y_ij||``, row 1 the link violations ``||y_ij - y_recv_ji||``,
    one column per arc id."""
    if state.final is None:
        raise ValueError("run the inner loop before reading violations")
    x, y, y_recv = state.final
    g = state.graph
    # Row by row: a norm over an axis can differ in the last bit, and
    # these values drive the adaptive penalties.
    return np.array([
        [float(np.linalg.norm(d)) for d in x[g.arc_src] - y],
        [float(np.linalg.norm(d)) for d in y - y_recv[g.arc_rev]],
    ])


def dual_update_alg(state: ALGState, pen) -> None:
    """Multiplier step from the inner snapshot.

    Each arc's link dual moves by the penalty times the locally observable
    disagreement (own final link value minus the last received copy of the
    partner's); each arc's tie dual moves by the penalty times the node-link
    gap. Advances the outer index.
    """
    if state.final is None:
        raise ValueError("run the inner loop before the dual update")
    x, y, y_recv = state.final
    g = state.graph
    rho_mu, rho_lam = np.asarray(pen, dtype=float)
    state.lam += (rho_lam * g.arc_sign)[:, None] * (y - y_recv[g.arc_rev])
    state.mu += rho_mu[:, None] * (x[g.arc_src] - y)
    state.t += 1
    state.final = None


def dual_update_bg(state: ALBGState, rho: float) -> None:
    """Aggregated multiplier step: each node's dual moves by the penalty
    times (degree * own final value - final neighbor sum). The across-node
    dual sum stays zero because every pairwise difference telescopes."""
    if state.final is None:
        raise ValueError("run the inner loop before the dual update")
    x, x_bar = state.final
    state.lam_bar += rho * (state.graph.degrees[:, None] * x - x_bar)
    state.t += 1
    state.final = None


def lagrangian_eval(state, pen) -> float:
    """Evaluate the augmented Lagrangian of a state at the given penalties
    (a ``(2, num_arcs)`` array for the gossip variants, a float for the
    broadcast variant)."""
    return state.lagrangian(pen)


# --------------------------------------------------------------------------
# Run loops
# --------------------------------------------------------------------------

def _event_step(state, variant: Variant, graph: Supergraph,
                failures: FailureModel, dist: EventDistribution, pen,
                rng: np.random.Generator, counters: Counters,
                inner_budget: int, inner_tol: float | None):
    """The variant's per-event function: draw one slot outcome and apply
    it to ``state`` at the slot's penalties."""
    if variant is Variant.ALBG:
        rho = float(pen)
        return lambda: step_bg(state, sample_event(dist, rng).node, rho,
                               inner_budget, inner_tol, counters)
    # Python floats index and multiply faster than numpy scalars.
    pen = np.asarray(pen, dtype=float).tolist()
    if variant is Variant.ALG:
        return lambda: inner_step_alg(state, sample_event(dist, rng), pen,
                                      inner_budget, inner_tol, counters)
    if variant is not Variant.ALMG:
        raise ConfigError(f"unknown variant {variant}")

    def step():
        ev = sample_event(dist, rng)
        if ev.kind is EventKind.MG_BROADCAST:
            ev = sample_mg_event(ev.node, graph, failures, rng)
        inner_step_mg(state, ev, pen, inner_budget, inner_tol, counters)
    return step


def run_inner(state, variant: Variant, graph: Supergraph,
              failures: FailureModel, dist: EventDistribution,
              pen, rng: np.random.Generator, counters: Counters,
              k_inner: int, inner_budget: int = 50,
              inner_tol: float | None = None,
              stop_tol: float | None = None,
              on_event=None) -> int:
    """Run the fast-scale loop for one outer slot.

    Applies up to ``k_inner`` sampled events (``k_inner = 0`` leaves the
    state unchanged apart from the final snapshot). When ``stop_tol`` is
    given the loop also stops once every block has been re-minimized with
    movement below the tolerance and no link value has drifted from its
    receiver's copy by more than it. Records the final primal snapshot for
    the dual update and returns the number of events applied.
    """
    step = _event_step(state, variant, graph, failures, dist, pen, rng,
                       counters, inner_budget, inner_tol)
    state.reset_movement()
    applied = 0
    for _ in range(k_inner):
        step()
        counters.k += 1
        applied += 1
        if on_event is not None:
            on_event()
        if stop_tol is not None and state.converged(stop_tol):
            break
    state.snapshot_finals()
    return applied


def make_state(variant: Variant, problem: ProblemInstance,
               graph: Supergraph):
    if variant is Variant.ALBG:
        return ALBGState(problem, graph)
    return ALGState(problem, graph)


def run_outer(problem: ProblemInstance, graph: Supergraph, variant: Variant,
              schedule: PenaltySchedule, t_outer: int, k_inner: int,
              seed: int, failures: FailureModel | None = None,
              fstar: float | None = None,
              inner_budget: int = 50, inner_tol: float | None = None,
              inner_stop_tol: float | None = None,
              checkpoint_every: int = 100) -> tuple[MetricsLog, object]:
    """Full two-time-scale run: alternate the fast-scale sweep and the
    multiplier step ``t_outer`` times, logging metrics at every outer
    boundary and every ``checkpoint_every`` inner events. Deterministic for
    a fixed seed."""
    if t_outer < 0 or k_inner < 0:
        raise ConfigError("t_outer and k_inner must be nonnegative")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be nonnegative, got "
                          f"{checkpoint_every}")
    if problem.n_nodes != graph.n:
        raise ConfigError(f"problem has {problem.n_nodes} nodes but the "
                          f"graph has {graph.n}")
    variant = Variant(variant)
    if failures is None:
        failures = FailureModel.always_on(graph)
    if variant is Variant.ALBG and not failures.reliable:
        raise ConfigError("the broadcast variant requires reliable links "
                          "(success probability 1 on every arc)")
    if variant is Variant.ALBG and schedule.kind == "adaptive":
        raise ConfigError("per-dual adaptive penalties are not defined for "
                          "the aggregated-dual broadcast variant")

    rng = np.random.default_rng(seed)
    counters = Counters()
    state = make_state(variant, problem, graph)
    dist = event_distribution(graph, failures, variant)
    log = MetricsLog()

    def penalties(t: int):
        rho = penalty_at(schedule, t)
        if variant is Variant.ALBG:
            return rho
        return np.full((2, graph.num_arcs), rho)

    def checkpoint(pen) -> None:
        if not np.isfinite(state.x).all():
            raise NumericError(f"non-finite node estimate at k={counters.k}")
        err = float("nan") if fstar is None else err_f(problem, state.x, fstar)
        log.append(MetricsRow(
            t=state.t, k=counters.k, transmissions=counters.transmissions,
            flops=counters.flops, err_f=err,
            L_value=lagrangian_eval(state, pen),
            max_dual_gap=state.max_dual_gap(),
            feasible=problem.all_feasible(state.x, FEAS_TOL),
        ))

    adaptive = schedule.kind == "adaptive"
    if adaptive:
        kappa, sigma, rho0 = schedule.params
        pen = np.full((2, graph.num_arcs), rho0)
        eps_prev = None
    else:
        pen = penalties(0)
    checkpoint(pen)
    for t in range(t_outer):
        if not adaptive:
            pen = penalties(t)

        def on_event():
            if checkpoint_every and counters.k % checkpoint_every == 0:
                checkpoint(pen)

        run_inner(state, variant, graph, failures, dist, pen, rng, counters,
                  k_inner, inner_budget, inner_tol, inner_stop_tol, on_event)
        if not np.isfinite(state.x).all():
            raise NumericError(f"non-finite node estimate at the end of "
                               f"slot {t} (k={counters.k})")
        if variant is Variant.ALBG:
            dual_update_bg(state, pen)
        else:
            if adaptive:
                eps = constraint_violations(state)
            dual_update_alg(state, pen)
        checkpoint(pen)
        if adaptive:
            pen = update_adaptive(pen, eps_prev, eps, kappa, sigma)
            eps_prev = eps
    return log, state
