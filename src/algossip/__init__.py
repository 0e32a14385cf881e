"""Distributed convex optimization over unreliable gossip networks.

Primal-dual augmented-Lagrangian solvers (pairwise gossip, multi-neighbor
gossip, and reliable broadcast), a synchronous projected-subgradient
baseline with Metropolis mixing, and a reproducible experiment harness.
"""

from .algo import (ALBGState, ALGState, Counters, PenaltySchedule,
                   constraint_violations, default_inner_events,
                   dual_update_alg, dual_update_bg, inner_step_alg,
                   inner_step_mg, lagrangian_eval, make_state, penalty_at,
                   run_inner, run_outer, step_bg, update_adaptive)
from .baseline import (PSState, metropolis_weights, realize_symmetric,
                       run_ps, ps_step)
from .errors import (AlgossipError, ConfigError, ConnectivityFailure,
                     DomainError, KindError, MismatchError, NonConvergence,
                     NumericError)
from .events import (ClockModel, Event, EventDistribution, EventKind,
                     Variant, event_distribution, sample_event,
                     sample_mg_event)
from .graph import (FailureModel, Supergraph, build_geometric, failure_prob,
                    load_network, save_network)
from .metrics import MetricsLog, MetricsRow
from .problem import (LogRegInstance, ProblemInstance, QuadConsensusInstance,
                      centralized_oracle, err_f, gen_logreg, instance_text,
                      load_instance, save_instance)
from .subsolve import (XSubproblem, solve_bg_block, solve_x_block,
                       y_closed_form_peredge)

__version__ = "0.1.0"
