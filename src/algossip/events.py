"""Asynchronous clock and event-ordering model.

Each primal block carries an independent Poisson clock; only the *order* of
ticks matters to the algorithms, so a fast-scale slot is simulated by drawing
the slot winner directly from the induced categorical distribution. For the
pairwise-gossip variant a selected transfer succeeds with its arc's
availability probability, otherwise the slot is void. For the multi-neighbor
variant a broadcast tick is resolved into the random subset of neighbors that
received it; for the broadcast variant every slot updates exactly one node
and no slot is ever void.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .graph import Arc, FailureModel, Supergraph


class Variant(str, Enum):
    """Algorithm families sharing the two-time-scale primal-dual loop."""

    ALG = "alg"      # pairwise unidirectional gossip
    ALMG = "almg"    # multi-neighbor broadcast gossip with failures
    ALBG = "albg"    # reliable broadcast gossip (static networks)


class EventKind(Enum):
    X_UPDATE = "x_update"
    Y_TRANSFER = "y_transfer"
    MG_BROADCAST = "mg_broadcast"
    BG_UPDATE = "bg_update"
    VOID = "void"


@dataclass(frozen=True)
class Event:
    """One fast-scale slot outcome.

    ``node`` identifies the updating/broadcasting node, ``arc`` the directed
    transfer for pairwise gossip, ``receivers`` the successful subset for a
    multi-neighbor broadcast. Void events carry the broadcaster's id when the
    failed attempt originated from a known node (multi-neighbor case).
    """

    kind: EventKind
    node: int | None = None
    arc: Arc | None = None
    receivers: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ClockModel:
    """Poisson clock rates per block.

    All rates default to equal (the standard asynchronous model). For the
    pairwise variant ``y_rates`` aligns with ``graph.arcs``; for the
    multi-neighbor variant it is per node (one broadcast clock each); the
    broadcast variant has only ``x_rates``.
    """

    variant: Variant
    x_rates: tuple[float, ...] | None = None
    y_rates: tuple[float, ...] | None = None

    def __post_init__(self):
        for rates in (self.x_rates, self.y_rates):
            if rates is not None and any(r <= 0 for r in rates):
                raise ValueError("clock rates must be positive")

    def resolved_x(self, n: int) -> np.ndarray:
        if self.x_rates is None:
            return np.ones(n)
        if len(self.x_rates) != n:
            raise ConfigError(f"x_rates must have length {n}")
        return np.asarray(self.x_rates, dtype=float)

    def resolved_y(self, count: int) -> np.ndarray:
        if self.y_rates is None:
            return np.ones(count)
        if len(self.y_rates) != count:
            raise ConfigError(f"y_rates must have length {count}")
        return np.asarray(self.y_rates, dtype=float)


class EventDistribution:
    """Categorical distribution over slot outcomes."""

    def __init__(self, outcomes: tuple[Event, ...], probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(outcomes),):
            raise ValueError("one probability per outcome required")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        self.outcomes = outcomes
        self.probs = probs
        # A list bisects faster than searchsorted on one scalar, with the
        # same index.
        self._cum = np.cumsum(probs).tolist()
        self._index = {ev: i for i, ev in enumerate(outcomes)}

    def prob(self, event: Event) -> float:
        """Probability of ``event``; 0 for outcomes not in the support."""
        i = self._index.get(event)
        return 0.0 if i is None else float(self.probs[i])

    def sample(self, rng: np.random.Generator) -> Event:
        return self.outcomes[bisect.bisect_right(self._cum, rng.random())]


def event_distribution(graph: Supergraph, failures: FailureModel,
                       clocks: ClockModel) -> EventDistribution:
    """Distribution of the slot winner for one fast-scale slot.

    Pairwise gossip: each x-clock wins with rate share; a winning y-clock on
    arc (i, j) yields a successful transfer with probability p_(i,j) and a
    void slot otherwise (the void outcome is present only when some arc can
    fail). Broadcast variant: one node update per slot, never void.
    Multi-neighbor variant: the distribution is over clock ticks; broadcast
    ticks carry ``receivers=None`` and are resolved by
    :func:`sample_mg_event`.
    """
    n = graph.n
    if clocks.variant is Variant.ALG:
        xr = clocks.resolved_x(n)
        yr = clocks.resolved_y(graph.num_arcs)
        total = xr.sum() + yr.sum()
        outcomes = [Event(EventKind.X_UPDATE, node=i) for i in range(n)]
        probs = list(xr / total)
        void_mass = 0.0
        for rate, arc in zip(yr, graph.arcs):
            p = failures.success_prob(arc)
            outcomes.append(Event(EventKind.Y_TRANSFER, arc=arc))
            probs.append(rate * p / total)
            void_mass += rate * (1.0 - p) / total
        if void_mass > 0.0:
            outcomes.append(Event(EventKind.VOID))
            probs.append(void_mass)
        return EventDistribution(tuple(outcomes), probs)

    if clocks.variant is Variant.ALMG:
        if not failures.spatially_independent:
            raise ConfigError("multi-neighbor gossip requires spatially "
                              "independent link failures")
        xr = clocks.resolved_x(n)
        yr = clocks.resolved_y(n)
        total = xr.sum() + yr.sum()
        outcomes = [Event(EventKind.X_UPDATE, node=i) for i in range(n)]
        probs = list(xr / total)
        for i in range(n):
            outcomes.append(Event(EventKind.MG_BROADCAST, node=i))
            probs.append(yr[i] / total)
        return EventDistribution(tuple(outcomes), probs)

    if clocks.variant is Variant.ALBG:
        xr = clocks.resolved_x(n)
        total = xr.sum()
        outcomes = tuple(Event(EventKind.BG_UPDATE, node=i) for i in range(n))
        return EventDistribution(outcomes, xr / total)

    raise ConfigError(f"unknown variant {clocks.variant}")


def sample_event(dist: EventDistribution, rng: np.random.Generator) -> Event:
    """One i.i.d. draw from ``dist``; deterministic for a fixed stream."""
    return dist.sample(rng)


def sample_mg_event(node: int, graph: Supergraph, failures: FailureModel,
                    rng: np.random.Generator) -> Event:
    """Resolve a multi-neighbor broadcast tick at ``node``.

    Every neighbor receives independently with the arc's success
    probability; an empty receiver subset maps to a void slot (which still
    consumed one broadcast attempt). On a connected graph with at least two
    nodes every node has a neighbor, so a broadcast always has candidates.
    """
    if not failures.spatially_independent:
        raise ConfigError("multi-neighbor gossip requires spatially "
                          "independent link failures")
    received = []
    for j in graph.neighbors[node]:
        if rng.random() < failures.success_prob((node, j)):
            received.append(j)
    if not received:
        return Event(EventKind.VOID, node=node)
    return Event(EventKind.MG_BROADCAST, node=node, receivers=tuple(received))
