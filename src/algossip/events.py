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
from itertools import chain

import numpy as np

from .graph import FailureModel, Supergraph


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

    ``node`` identifies the updating/broadcasting node, ``arc`` the arc id
    of a pairwise transfer, ``receivers`` the ids of the broadcaster's
    out-arcs that delivered a multi-neighbor broadcast. Void events carry
    the broadcaster's id when the failed attempt originated from a known
    node (multi-neighbor case).
    """

    kind: EventKind
    node: int | None = None
    arc: int | None = None
    receivers: tuple[int, ...] | None = None


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

    def sample(self, rng: np.random.Generator) -> Event:
        return self.outcomes[bisect.bisect_right(self._cum, rng.random())]


def event_distribution(graph: Supergraph, failures: FailureModel,
                       variant: Variant) -> EventDistribution:
    """Distribution of the slot winner for one fast-scale slot.

    Every block carries a unit-rate clock. Pairwise gossip: each of the
    ``n + num_arcs`` clocks wins with equal share; a winning clock on arc
    ``a`` yields a successful transfer with probability ``p[a]`` and a void
    slot otherwise (the void outcome is present only when some arc can
    fail). Broadcast variant: one node update per slot, never void.
    Multi-neighbor variant: the distribution is over the ``2n`` clock
    ticks; broadcast ticks carry ``receivers=None`` and are resolved by
    :func:`sample_mg_event`.
    """
    n = graph.n
    variant = Variant(variant)
    if variant is Variant.ALG:
        total = float(n + graph.num_arcs)
        outcomes = [Event(EventKind.X_UPDATE, node=i) for i in range(n)]
        probs = [1.0 / total] * n
        void_mass = 0.0
        for a, p in enumerate(failures.p):
            outcomes.append(Event(EventKind.Y_TRANSFER, arc=a))
            probs.append(p / total)
            void_mass += (1.0 - p) / total
        if void_mass > 0.0:
            outcomes.append(Event(EventKind.VOID))
            probs.append(void_mass)
        return EventDistribution(tuple(outcomes), probs)

    if variant is Variant.ALMG:
        outcomes = [Event(EventKind.X_UPDATE, node=i) for i in range(n)]
        outcomes += [Event(EventKind.MG_BROADCAST, node=i) for i in range(n)]
        return EventDistribution(tuple(outcomes), [1.0 / (2 * n)] * (2 * n))

    outcomes = tuple(Event(EventKind.BG_UPDATE, node=i) for i in range(n))
    return EventDistribution(outcomes, [1.0 / n] * n)


class UniformStream:
    """The doubles of successive ``rng.random()`` calls, drawn in blocks.

    ``random()`` returns exactly what successive scalar calls on ``rng``
    would: ``Generator.random(n)`` fills its array from the same bit
    stream, one double per draw. One call into numpy then serves
    ``BLOCK`` draws. The generator runs up to ``BLOCK - 1`` draws ahead of
    the stream, so nothing else may draw from it while the stream is in
    use.
    """

    BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(self.BLOCK).tolist(), None)
        self.random = chain.from_iterable(blocks).__next__


def sample_event(dist: EventDistribution, rng: np.random.Generator) -> Event:
    """One i.i.d. draw from ``dist``; deterministic for a fixed stream."""
    return dist.sample(rng)


def sample_mg_event(node: int, graph: Supergraph, failures: FailureModel,
                    rng: np.random.Generator) -> Event:
    """Resolve a multi-neighbor broadcast tick at ``node``.

    Every out-arc of ``node`` delivers independently with its success
    probability, drawn in arc-id order; an empty receiver subset maps to a
    void slot (which still consumed one broadcast attempt). On a connected
    graph with at least two nodes every node has a neighbor, so a broadcast
    always has candidates.
    """
    p, out = failures.p, graph.out_slice[node]
    received = []
    for a in range(out.start, out.stop):
        if rng.random() < p[a]:
            received.append(a)
    if not received:
        return Event(EventKind.VOID, node=node)
    return Event(EventKind.MG_BROADCAST, node=node, receivers=tuple(received))
