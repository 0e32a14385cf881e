"""Property tests of the arc-id layout and the paper's invariants on random
connected geometric graphs with uneven degrees (2 to 7 nodes)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from algossip.algo import (Counters, PenaltySchedule, Variant,
                           dual_update_alg, dual_update_bg, lagrangian_eval,
                           make_state, run_inner, run_outer)
from algossip.events import ClockModel, event_distribution
from algossip.graph import FailureModel, build_geometric
from algossip.problem import QuadConsensusInstance

GRAPHS = st.builds(build_geometric, n=st.integers(2, 7),
                   radius=st.floats(0.5, 0.9), seed=st.integers(0, 10_000))
SEEDS = st.integers(0, 2**31 - 1)
GOSSIP = (Variant.ALG, Variant.ALMG)


def instance(graph, seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    targets = rng.normal(size=(graph.n, dim))
    return QuadConsensusInstance(targets, lo=np.full_like(targets, -0.8),
                                 hi=np.full_like(targets, 0.8))


def penalty(variant, graph, rho):
    if variant is Variant.ALBG:
        return rho
    return np.full((2, graph.num_arcs), rho)


def failures_for(variant, graph, p):
    if variant is Variant.ALBG:
        return FailureModel.always_on(graph)
    return FailureModel.uniform(graph, p)


@settings(max_examples=40, deadline=None)
@given(graph=GRAPHS)
def test_arc_layout_matches_arc_order(graph):
    assert [graph.arc_id[a] for a in graph.arcs] == list(range(graph.num_arcs))
    for a, (i, j) in enumerate(graph.arcs):
        assert (graph.arc_src[a], graph.arc_dst[a]) == (i, j)
        assert graph.arcs[graph.arc_rev[a]] == (j, i)
        assert graph.arc_sign[a] == -graph.arc_sign[graph.arc_rev[a]]
        assert graph.arc_sign[a] == (1 if i < j else -1)
    for i in range(graph.n):
        out = graph.arcs[graph.out_slice[i]]
        assert tuple(j for _, j in out) == graph.neighbors[i]
        assert all(src == i for src, _ in out)
    assert [graph.arcs[a] for a in graph.edge_fwd] == list(graph.edges)


@settings(max_examples=30, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(list(Variant)), seed=SEEDS,
       rho=st.floats(0.2, 4.0), p=st.floats(0.3, 1.0))
def test_every_event_descends(graph, variant, seed, rho, p):
    inst = instance(graph, seed)
    failures = failures_for(variant, graph, p)
    dist = event_distribution(graph, failures, ClockModel(variant))
    state = make_state(variant, inst, graph)
    rng = np.random.default_rng(seed)
    counters = Counters()
    for t in range(3):
        pen = penalty(variant, graph, rho * (1 + t))
        values = [lagrangian_eval(state, pen)]
        run_inner(state, variant, graph, failures, dist, pen, rng, counters,
                  200, on_event=lambda: values.append(
                      lagrangian_eval(state, pen)))
        scale = max(1.0, float(np.abs(values).max()))
        assert np.all(np.diff(values) <= 1e-12 * scale)
        if variant is Variant.ALBG:
            dual_update_bg(state, pen)
        else:
            dual_update_alg(state, pen)


@settings(max_examples=20, deadline=None)
@given(graph=GRAPHS, seed=SEEDS, rho=st.floats(0.2, 4.0))
def test_albg_duals_sum_to_zero(graph, seed, rho):
    inst = instance(graph, seed)
    failures = FailureModel.always_on(graph)
    dist = event_distribution(graph, failures, ClockModel(Variant.ALBG))
    state = make_state(Variant.ALBG, inst, graph)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        run_inner(state, Variant.ALBG, graph, failures, dist, rho, rng,
                  Counters(), 100)
        dual_update_bg(state, rho)
        assert np.abs(state.dual_sum()).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(GOSSIP), seed=SEEDS,
       rho=st.floats(0.5, 3.0))
def test_dual_copies_agree_after_tolerance_slots(graph, variant, seed, rho):
    inst = instance(graph, seed)
    failures = FailureModel.always_on(graph)
    dist = event_distribution(graph, failures, ClockModel(variant))
    state = make_state(variant, inst, graph)
    pen = penalty(variant, graph, rho)
    rng = np.random.default_rng(seed)
    cap = 200_000
    for _ in range(3):
        applied = run_inner(state, variant, graph, failures, dist, pen, rng,
                            Counters(), cap, stop_tol=1e-10)
        assert applied < cap  # the slot ended on the tolerance
        dual_update_alg(state, pen)
        assert state.max_dual_gap() <= 1e-8


@settings(max_examples=15, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(list(Variant)), seed=SEEDS,
       p=st.floats(0.3, 1.0))
def test_counters_never_decrease(graph, variant, seed, p):
    inst = instance(graph, seed)
    log, _ = run_outer(inst, graph, variant, PenaltySchedule.fixed(2.0),
                       t_outer=3, k_inner=60, seed=seed,
                       failures=failures_for(variant, graph, p),
                       checkpoint_every=7)
    assert len(log.rows) > 3
    for col in ("k", "transmissions", "flops"):
        values = log.column(col)
        assert all(b >= a for a, b in zip(values, values[1:]))
