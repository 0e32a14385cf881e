"""Distributed convex optimization over unreliable gossip networks.

Primal-dual augmented-Lagrangian solvers (pairwise gossip, multi-neighbor
gossip, and reliable broadcast), a synchronous projected-subgradient
baseline with Metropolis mixing, and a reproducible experiment harness.
The names below are the library quickstart's; everything else is imported
from its submodule.
"""

from .algo import PenaltySchedule, run_outer
from .events import Variant
from .graph import FailureModel, build_geometric
from .problem import QuadConsensusInstance

__version__ = "0.1.0"
