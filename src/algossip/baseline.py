"""Synchronous primal projected-subgradient baseline.

Each round every node averages its neighborhood's estimates with Metropolis
weights over the links realized that round, takes a fixed-size subgradient
step at the average, and projects onto its own set. Link failures are
symmetrized: a round's undirected edge is present iff a single Bernoulli
draw with the smaller of the two arc probabilities succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algo import FEAS_TOL, Counters
from .errors import ConfigError, NumericError
from .graph import Edge, FailureModel, Supergraph
from .metrics import MetricsLog, MetricsRow
from .problem import ProblemInstance, err_f


def metropolis_weights(n: int, realized_edges) -> np.ndarray:
    """Mixing matrix ``w_ij = 1 / (1 + max(d_i, d_j))`` on realized edges,
    with the leftover mass on the diagonal. Symmetric, doubly stochastic,
    and nonnegative on any undirected graph; an isolated node keeps weight
    one on itself."""
    w = np.zeros((n, n))
    deg = np.zeros(n, dtype=int)
    for i, j in realized_edges:
        deg[i] += 1
        deg[j] += 1
    for i, j in realized_edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


def realize_symmetric(graph: Supergraph, failures: FailureModel,
                      rng: np.random.Generator) -> list[Edge]:
    """One round's undirected edge set under symmetrized failures."""
    p, fwd = failures.p, graph.edge_fwd
    edges = []
    for e, a, b in zip(graph.edges, fwd.tolist(), graph.arc_rev[fwd].tolist()):
        q = min(p[a], p[b])
        if q >= 1.0 or rng.random() < q:
            edges.append(e)
    return edges


@dataclass
class PSState:
    """Per-node estimates, the fixed step size, the round counter, and the
    flops of one round's local steps (set once per run by ``run_ps``)."""

    x: np.ndarray
    alpha: float
    k: int = 0
    local_flops: int = 0


def ps_step(state: PSState, realized_edges, problem: ProblemInstance,
            counters=None, weights=None) -> None:
    """One synchronous round, in place.

    Every node sends its vector to each current neighbor (two transmissions
    per realized edge), forms the Metropolis average, steps along its own
    subgradient at the average, and projects onto its own set. A
    precomputed ``weights`` matrix skips the Metropolis rebuild (useful on
    static networks where the realized graph never changes).
    """
    n = problem.n_nodes
    w = metropolis_weights(n, realized_edges) if weights is None else weights
    mixed = w @ state.x
    state.x = problem.project(mixed - state.alpha * problem.subgradients(mixed))
    state.k += 1
    if counters is not None:
        counters.transmissions += 2 * len(realized_edges)
        counters.k += 1
        counters.flops += (state.local_flops
                           + 2 * problem.dim * 2 * len(realized_edges))


def run_ps(problem: ProblemInstance, graph: Supergraph,
           failures: FailureModel | None, alpha: float, rounds: int,
           seed: int, fstar: float | None = None,
           checkpoint_every: int = 1) -> tuple[MetricsLog, PSState]:
    """Run the baseline for a fixed number of rounds, logging like the
    gossip runners (slot column = round; no Lagrangian or dual gap)."""
    if alpha <= 0:
        raise ConfigError(f"step size must be positive, got {alpha}")
    if rounds < 0:
        raise ConfigError(f"rounds must be nonnegative, got {rounds}")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be nonnegative, got "
                          f"{checkpoint_every}")
    if problem.n_nodes != graph.n:
        raise ConfigError(f"problem has {problem.n_nodes} nodes but the "
                          f"graph has {graph.n}")
    if failures is None:
        failures = FailureModel.always_on(graph)
    rng = np.random.default_rng(seed)
    x0 = np.stack([problem.node_project(i, np.zeros(problem.dim))
                   for i in range(graph.n)])
    d = problem.dim
    state = PSState(x=x0, alpha=float(alpha), local_flops=sum(
        problem.subgrad_flops(i) + 4 * d for i in range(problem.n_nodes)))
    counters = Counters()
    log = MetricsLog()
    static_edges = list(graph.edges) if failures.reliable else None

    def checkpoint():
        if not np.isfinite(state.x).all():
            raise NumericError(f"non-finite estimate at round {state.k}")
        err = float("nan") if fstar is None else err_f(problem, state.x, fstar)
        if fstar is not None and not math.isfinite(err):
            raise NumericError(f"non-finite err_f at round {state.k}")
        log.append(MetricsRow(
            t=state.k, k=counters.k, transmissions=counters.transmissions,
            flops=counters.flops, err_f=err, L_value=float("nan"),
            max_dual_gap=float("nan"),
            feasible=problem.all_feasible(state.x, FEAS_TOL),
        ))

    static_w = (metropolis_weights(graph.n, static_edges)
                if static_edges is not None else None)
    checkpoint()
    for r in range(1, rounds + 1):
        realized = (static_edges if static_edges is not None
                    else realize_symmetric(graph, failures, rng))
        ps_step(state, realized, problem, counters, weights=static_w)
        if (checkpoint_every and r % checkpoint_every == 0) or r == rounds:
            checkpoint()
    return log, state

