"""Per-layer metrics of the traced run, one group per package module.

``install`` wraps the names the runner calls through, so each span sits at
a layer boundary; ``layer_metrics`` turns the span totals into the metrics
below. ``cli`` is a thin front end and ``errors`` does no work, so neither
is measured. A layer that does not run in a workload reports 0; the time
of such a layer is given as a share of the traced repeat, so that every
metric in seconds or microseconds is a real measurement on every workload.

Which end-to-end metric each layer should move, and where:

* ``graph``, ``harness`` build and reference times: ``setup_s`` on every
  workload; harness self time (writes): ``wall_s`` on ``static_albg_ps``,
  which makes the most harness calls.
* ``events``: ``wall_s`` and ``k_per_s`` on ``quad_almg_fail``; void slots
  drive ``tx_to_1e-3`` on ``desk_alg_fail``.
* ``subsolve`` and ``problem``: ``wall_s`` on ``desk_alg_fail`` and
  ``static_albg_ps``; flat on ``quad_almg_fail`` apart from link updates.
* ``algo``: ``wall_s`` and ``k_per_s`` on ``quad_almg_fail``; capped slots
  drive ``k_to_1e-3`` and ``tx_to_1e-3`` on ``desk_alg_fail``.
* ``metrics`` (checkpoint work): ``wall_s`` on ``static_albg_ps``.
* ``baseline``: ``wall_s`` on ``static_albg_ps`` only.
"""

from __future__ import annotations

import inspect

from algossip import algo, baseline, harness
from algossip.events import EventKind
from algossip.problem import (LogRegInstance, ProblemInstance,
                              QuadConsensusInstance)

LAYER_UNITS = {
    "graph.build_s": "s",
    "harness.build_s": "s",
    "harness.reference_s": "s",
    "harness.write_s": "s",
    "harness.oracle_hits": "count",
    "events.sample_calls": "count",
    "events.sample_s": "s",
    "events.mg_resolve_share": "share",
    "events.void_share": "share",
    "events.receivers_per_broadcast": "count",
    "subsolve.block_calls": "count",
    "subsolve.block_us": "us",
    "subsolve.block_self_s": "s",
    "subsolve.iters_per_solve": "count",
    "subsolve.bg_block_share": "share",
    "subsolve.link_calls": "count",
    "subsolve.link_share": "share",
    "problem.value_calls": "count",
    "problem.grad_calls": "count",
    "problem.prox_calls": "count",
    "problem.project_calls": "count",
    "problem.callback_s": "s",
    "problem.callback_us": "us",
    "algo.inner_self_us_per_event": "us",
    "algo.slots": "count",
    "algo.slots_capped": "count",
    "algo.capped_event_share": "share",
    "algo.dual_s": "s",
    "algo.state_build_s": "s",
    "metrics.checkpoints": "count",
    "metrics.checkpoint_s": "s",
    "metrics.checkpoint_share": "share",
    "baseline.rounds": "count",
    "baseline.share": "share",
    "trace.overhead": "share",
}

CALLBACKS = ("node_value", "global_value", "node_subgradient",
             "node_smooth_gradient", "node_smooth_lipschitz", "node_prox",
             "node_project", "quad_coeff")
HARNESS_ENTRIES = ("harness.run", "harness.sweep", "harness.compare",
                   "harness.oracle")
SOLVES = ("subsolve.solve_x_block", "subsolve.solve_bg_block")
CHECKPOINT = ("problem.err_f", "algo.lagrangian_eval", "problem.all_feasible",
              "algo.max_dual_gap")


def install(wrapped) -> dict:
    """Wrap every layer boundary; returns the outcome counts that the
    inspected spans fill in while the traced run goes."""
    counts = dict(voids=0, mg_ticks=0, receivers=0, events=0, capped=0,
                  capped_events=0)
    k_inner_of = inspect.signature(algo.run_inner)

    def on_sample(args, event):
        counts["voids"] += event.kind is EventKind.VOID

    def on_mg(args, event):
        counts["mg_ticks"] += 1
        if event.kind is EventKind.VOID:
            counts["voids"] += 1
        else:
            counts["receivers"] += len(event.receivers)

    def on_slot(args, applied):
        counts["events"] += applied
        if applied == k_inner_of.bind(*args).arguments["k_inner"]:
            counts["capped"] += 1
            counts["capped_events"] += applied

    for attr in ("run", "sweep", "compare", "oracle", "build_problem",
                 "build_graph", "reference_value", "resolve_fstar"):
        wrapped.wrap(harness, attr, f"harness.{attr}")
    wrapped.wrap(harness, "run_outer", "algo.run_outer")
    wrapped.wrap(harness, "run_ps", "baseline.run_ps")
    wrapped.wrap(algo, "run_inner", "algo.run_inner", on_slot)
    wrapped.wrap(algo, "sample_event", "events.sample_event", on_sample)
    wrapped.wrap(algo, "sample_mg_event", "events.sample_mg_event", on_mg)
    wrapped.wrap(algo, "event_distribution", "events.event_distribution")
    for attr in ("solve_x_block", "solve_bg_block", "y_closed_form_peredge"):
        wrapped.wrap(algo, attr, f"subsolve.{attr}")
    for attr in ("dual_update_alg", "dual_update_bg", "lagrangian_eval",
                 "make_state"):
        wrapped.wrap(algo, attr, f"algo.{attr}")
    wrapped.wrap(algo, "err_f", "problem.err_f")
    wrapped.wrap(baseline, "err_f", "problem.err_f")
    for attr in ("ps_step", "metropolis_weights"):
        wrapped.wrap(baseline, attr, f"baseline.{attr}")
    for cls in (LogRegInstance, QuadConsensusInstance):
        for attr in CALLBACKS:
            if hasattr(cls, attr):
                wrapped.wrap(cls, attr, f"problem.{attr}")
    wrapped.wrap(ProblemInstance, "all_feasible", "problem.all_feasible")
    wrapped.wrap(algo.ALGState, "max_dual_gap", "algo.max_dual_gap")
    return counts


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics from the span totals of one traced set-up and
    repeat; ``wall_s`` is the traced repeat's wall time."""
    n, total, own = tracer.count, tracer.total_s, tracer.self_s
    solves = sum(n(name) for name in SOLVES)
    callback_calls = sum(n(f"problem.{c}") for c in CALLBACKS)
    callback_s = sum(own(f"problem.{c}") for c in CALLBACKS)
    checkpoint_s = sum(total(name) for name in CHECKPOINT)
    sampled = n("events.sample_event")
    sample_s = total("events.sample_event") + total("events.sample_mg_event")
    return {
        "graph.build_s": _ratio(total("harness.build_graph"),
                                n("harness.build_graph")),
        "harness.build_s": _ratio(total("harness.build_problem"),
                                  n("harness.build_problem")),
        "harness.reference_s": _ratio(total("harness.reference_value"),
                                      n("harness.reference_value")),
        "harness.write_s": sum(own(name) for name in HARNESS_ENTRIES),
        "harness.oracle_hits": n("harness.resolve_fstar") - n(
            "harness.reference_value", parents={"harness.resolve_fstar"}),
        "events.sample_calls": sampled,
        "events.sample_s": sample_s,
        "events.mg_resolve_share": _ratio(total("events.sample_mg_event"),
                                          sample_s),
        "events.void_share": _ratio(counts["voids"], sampled),
        "events.receivers_per_broadcast": _ratio(counts["receivers"],
                                                 counts["mg_ticks"]),
        "subsolve.block_calls": solves,
        "subsolve.block_us": 1e6 * _ratio(
            sum(total(name) for name in SOLVES), solves),
        "subsolve.block_self_s": sum(own(name) for name in SOLVES),
        "subsolve.iters_per_solve": _ratio(
            n("problem.node_prox", parents=set(SOLVES)), solves),
        "subsolve.bg_block_share": _ratio(n("subsolve.solve_bg_block"),
                                          solves),
        "subsolve.link_calls": n("subsolve.y_closed_form_peredge"),
        "subsolve.link_share": _ratio(
            total("subsolve.y_closed_form_peredge"), wall_s),
        "problem.value_calls": (n("problem.node_value")
                                + n("problem.global_value")),
        "problem.grad_calls": (n("problem.node_subgradient")
                               + n("problem.node_smooth_gradient")),
        "problem.prox_calls": n("problem.node_prox"),
        "problem.project_calls": n("problem.node_project"),
        "problem.callback_s": callback_s,
        "problem.callback_us": 1e6 * _ratio(callback_s, callback_calls),
        "algo.inner_self_us_per_event": 1e6 * _ratio(
            own("algo.run_inner"), counts["events"]),
        "algo.slots": n("algo.run_inner"),
        "algo.slots_capped": counts["capped"],
        "algo.capped_event_share": _ratio(counts["capped_events"],
                                          counts["events"]),
        "algo.dual_s": (total("algo.dual_update_alg")
                        + total("algo.dual_update_bg")),
        "algo.state_build_s": (total("algo.make_state")
                               + total("events.event_distribution")),
        "metrics.checkpoints": n("problem.all_feasible"),
        "metrics.checkpoint_s": checkpoint_s,
        "metrics.checkpoint_share": _ratio(checkpoint_s, wall_s),
        "baseline.rounds": n("baseline.ps_step"),
        "baseline.share": _ratio(
            total("baseline.ps_step") + total("baseline.metropolis_weights",
                                              parents={"baseline.run_ps"}),
            wall_s),
    }
