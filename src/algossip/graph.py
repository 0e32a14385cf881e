"""Communication supergraph and per-arc link availability.

The supergraph is the static set of all potentially usable links: a simple,
connected, undirected graph whose every edge {i, j} contributes two directed
arcs (i, j) and (j, i). Network realizations during a run are random directed
subgraphs of it, obtained by sampling each arc independently with its success
probability.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ConnectivityFailure, DomainError

Arc = tuple[int, int]
Edge = tuple[int, int]

MAX_CONNECT_RETRIES = 1000


class Supergraph:
    """Static topology over nodes ``0..n-1``.

    Parameters
    ----------
    n : int
        Number of nodes (at least 1).
    edges : iterable of (int, int)
        Undirected edges; pairs are canonicalized to ``(min, max)``,
        duplicates rejected, self-edges rejected.
    positions : ndarray of shape (n, 2), optional
        Node coordinates in the unit square, kept when the graph was built
        geometrically so that distance-based failure models can be derived.
    """

    def __init__(self, n: int, edges: Iterable[Edge], positions=None):
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        canon = []
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-edge ({i}, {j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        self.n = int(n)
        self.edges: tuple[Edge, ...] = tuple(sorted(canon))
        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            if positions.shape != (n, 2):
                raise ValueError(f"positions must have shape ({n}, 2)")
        self.positions = positions

        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(v)) for v in nbrs
        )
        self.degrees = np.array([len(v) for v in self.neighbors], dtype=int)
        # Both orientations of every edge, in sorted order.
        self.arcs: tuple[Arc, ...] = tuple(
            sorted([(i, j) for i, j in self.edges] + [(j, i) for i, j in self.edges])
        )
        # Arc-id layout: per-arc state lives in arrays indexed by position
        # in ``arcs``. Sorting makes node i's outgoing arcs the contiguous
        # run ``out_slice[i]``, ordered like ``neighbors[i]``.
        self.arc_id: dict[Arc, int] = {a: k for k, a in enumerate(self.arcs)}
        self.arc_src = np.array([i for i, _ in self.arcs], dtype=int)
        self.arc_dst = np.array([j for _, j in self.arcs], dtype=int)
        self.arc_rev = np.array([self.arc_id[(j, i)] for i, j in self.arcs],
                                dtype=int)
        # Orientation sign of each arc's consensus term: + when the owner
        # has the smaller id (any fixed assignment of signs per edge works).
        self.arc_sign = np.where(self.arc_src < self.arc_dst, 1, -1)
        # The same two columns as Python ints, for per-event lookups:
        # indexing a tuple is cheaper than indexing a numpy array.
        self.src_of: tuple[int, ...] = tuple(self.arc_src.tolist())
        self.rev_of: tuple[int, ...] = tuple(self.arc_rev.tolist())
        self.edge_fwd = np.array([self.arc_id[e] for e in self.edges],
                                 dtype=int)
        ends = np.cumsum(self.degrees)
        self.out_slice: tuple[slice, ...] = tuple(
            slice(int(e - d), int(e)) for e, d in zip(ends, self.degrees))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def is_connected(self) -> bool:
        """Breadth-first reachability of every node from node 0."""
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self.neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n

    def __repr__(self):
        return f"Supergraph(n={self.n}, edges={self.num_edges})"


def build_geometric(n: int, radius: float, seed: int,
                    max_retries: int = MAX_CONNECT_RETRIES) -> Supergraph:
    """Sample a connected random geometric graph on the unit square.

    Node positions are uniform on [0, 1]^2 and pairs closer than ``radius``
    are joined by an edge. Positions are resampled until the graph is
    connected, which preserves the geometric-graph distribution conditioned
    on connectivity.

    Raises
    ------
    ConnectivityFailure
        If no connected draw is found within ``max_retries`` attempts
        (the radius is too small for ``n``).
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        pos = rng.random((n, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        ii, jj = np.nonzero(np.triu(dist < radius, k=1))
        g = Supergraph(n, list(zip(ii.tolist(), jj.tolist())), positions=pos)
        if g.is_connected():
            return g
    raise ConnectivityFailure(
        f"no connected geometric graph with n={n}, radius={radius} "
        f"after {max_retries} attempts"
    )


def failure_prob(distance: float, radius: float, scale: float) -> float:
    """Distance-based link *failure* probability ``scale * d^2 / r^2``.

    Longer links fail more often; at the connection radius the failure
    probability approaches ``scale``. The corresponding arc success
    probability is one minus this value.
    """
    if not (0 < scale < 1):
        raise DomainError(f"scale must lie in (0, 1), got {scale}")
    if not (0 <= distance < radius):
        raise DomainError(
            f"distance must satisfy 0 <= d < radius, got d={distance}, r={radius}"
        )
    return scale * distance ** 2 / radius ** 2


class FailureModel:
    """Per-arc Bernoulli availability, i.i.d. across slots.

    ``p[a]`` is the success probability of arc id ``a`` of ``graph``, in
    (0, 1]; draws for different arcs and different slots are independent.
    The links are ``reliable`` when every probability is exactly 1.
    """

    def __init__(self, graph: Supergraph,
                 success: float | Sequence[float] = 1.0):
        if np.ndim(success) == 0:
            p = (float(success),) * graph.num_arcs
        else:
            p = tuple(float(v) for v in success)
            if len(p) != graph.num_arcs:
                raise ValueError(f"expected {graph.num_arcs} success "
                                 f"probabilities, got {len(p)}")
        for arc, pa in zip(graph.arcs, p):
            if not (0 < pa <= 1):
                raise ValueError(f"success probability for arc {arc} must be "
                                 f"in (0, 1], got {pa}")
        self.graph = graph
        self.p = p
        self.reliable = all(pa == 1.0 for pa in p)

    @classmethod
    def always_on(cls, graph: Supergraph) -> "FailureModel":
        return cls(graph, 1.0)

    @classmethod
    def uniform(cls, graph: Supergraph, p: float) -> "FailureModel":
        return cls(graph, p)

    @classmethod
    def from_distance(cls, graph: Supergraph, radius: float,
                      scale: float) -> "FailureModel":
        """Success probabilities ``1 - scale * d_ij^2 / r^2`` from positions.

        Both arcs of an edge get the same value, from one distance per
        edge: ``sqrt(d.dot(d))`` for the position difference ``d``, the
        same bits as ``np.linalg.norm(d)`` for either orientation."""
        pos = graph.positions
        if pos is None and graph.edges:
            raise ValueError("graph has no positions")
        p = [0.0] * graph.num_arcs
        for (i, j), a, b in zip(graph.edges, graph.edge_fwd.tolist(),
                                graph.arc_rev[graph.edge_fwd].tolist()):
            d = pos[i] - pos[j]
            p[a] = p[b] = 1.0 - failure_prob(math.sqrt(d.dot(d)), radius,
                                             scale)
        return cls(graph, p)


def network_text(graph: Supergraph, failures: FailureModel) -> str:
    """Graph + failure model as text: node count, then one line per edge
    ``i j p_ij p_ji``."""
    p, fwd = failures.p, graph.edge_fwd
    lines = [f"{graph.n}"]
    for (i, j), a, b in zip(graph.edges, fwd.tolist(),
                            graph.arc_rev[fwd].tolist()):
        lines.append(f"{i} {j} {p[a]:.17g} {p[b]:.17g}")
    return "\n".join(lines) + "\n"


def load_network(path) -> tuple[Supergraph, FailureModel]:
    """Read a network from a file holding its :func:`network_text`.

    Positions are not part of the format, so the returned graph has none.

    Raises
    ------
    ConnectivityFailure
        If the file's graph is not connected.
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not raw:
        raise ValueError(f"{path}: empty network file")
    n = int(raw[0])
    lines = []
    for ln in raw[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"{path}: malformed edge line {ln!r}")
        lines.append((int(parts[0]), int(parts[1]),
                      float(parts[2]), float(parts[3])))
    graph = Supergraph(n, [(i, j) for i, j, _, _ in lines])
    if not graph.is_connected():
        raise ConnectivityFailure(f"{path}: the network is not connected")
    p = [1.0] * graph.num_arcs
    for i, j, pij, pji in lines:
        p[graph.arc_id[(i, j)]] = pij
        p[graph.arc_id[(j, i)]] = pji
    return graph, FailureModel(graph, p)
