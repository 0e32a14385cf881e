"""Property tests of the arc-id layout, the paper's invariants, the
dirty-block rule and the running stop count on random connected geometric
graphs with uneven degrees (2 to 7 nodes)."""

import copy
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from algossip import algo
from algossip.algo import (Counters, PenaltySchedule, Variant,
                           dual_update_alg, dual_update_bg, lagrangian_eval,
                           make_state, run_inner, run_outer, slot_kernel)
from algossip.events import (Event, EventKind, event_distribution,
                             sample_event, sample_mg_event)
from algossip.graph import FailureModel, build_geometric
from algossip.problem import LogRegInstance, QuadConsensusInstance

from test_problem import node_feasible
from test_subsolve import link_minimizer

GRAPHS = st.builds(build_geometric, n=st.integers(2, 7),
                   radius=st.floats(0.5, 0.9), seed=st.integers(0, 10_000))
SEEDS = st.integers(0, 2**31 - 1)
GOSSIP = (Variant.ALG, Variant.ALMG)


def instance(graph, seed, boxed=True):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    targets = rng.normal(size=(graph.n, dim))
    if not boxed:
        return QuadConsensusInstance(targets)
    return QuadConsensusInstance(targets, lo=np.full_like(targets, -0.8),
                                 hi=np.full_like(targets, 0.8))


def logreg_instance(graph, seed):
    """Three samples per node and small radii, so the ball and interval
    constraints are active and the FISTA node solves run."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(graph.n, 3, int(rng.integers(1, 4))))
    labels = rng.choice([-1.0, 1.0], size=(graph.n, 3))
    return LogRegInstance(features, labels, 0.3,
                          ball_sq=rng.uniform(0.01, 0.5, graph.n),
                          v_bound=rng.uniform(0.05, 0.5, graph.n))


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
    assert graph.src_of == tuple(graph.arc_src.tolist())
    assert graph.rev_of == tuple(graph.arc_rev.tolist())
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
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    rng = np.random.default_rng(seed)
    counters = Counters()
    for t in range(3):
        pen = penalty(variant, graph, rho * (1 + t))
        values = [lagrangian_eval(state, pen)]
        run_inner(state, variant, graph, failures, dist, pen, rng, counters,
                  200, on_checkpoint=lambda: values.append(
                      lagrangian_eval(state, pen)), checkpoint_every=1)
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
    dist = event_distribution(graph, failures, Variant.ALBG)
    state = make_state(Variant.ALBG, inst, graph)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        run_inner(state, Variant.ALBG, graph, failures, dist, rho, rng,
                  Counters(), 100)
        dual_update_bg(state, rho)
        assert np.abs(state.lam_bar.sum(axis=0)).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(GOSSIP), seed=SEEDS,
       rho=st.floats(0.5, 3.0))
def test_dual_copies_agree_after_tolerance_slots(graph, variant, seed, rho):
    inst = instance(graph, seed)
    failures = FailureModel.always_on(graph)
    dist = event_distribution(graph, failures, variant)
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


@settings(max_examples=15, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(list(Variant)), seed=SEEDS,
       rho=st.floats(0.2, 4.0), p=st.floats(0.3, 1.0))
def test_nodes_stay_feasible_after_every_event(graph, variant, seed, rho, p):
    failures = failures_for(variant, graph, p)
    dist = event_distribution(graph, failures, variant)
    for inst in (instance(graph, seed), logreg_instance(graph, seed)):
        state = make_state(variant, inst, graph)
        rng = np.random.default_rng(seed)

        def every_node_feasible():
            assert all(node_feasible(inst, i, state.x[i])
                       for i in range(graph.n))

        every_node_feasible()
        for t in range(2):
            pen = penalty(variant, graph, rho * (1 + t))
            run_inner(state, variant, graph, failures, dist, pen, rng,
                      Counters(), 100, inner_budget=5,
                      on_checkpoint=every_node_feasible, checkpoint_every=1)
            if variant is Variant.ALBG:
                dual_update_bg(state, pen)
            else:
                dual_update_alg(state, pen)


@contextmanager
def watched(state, counters):
    """Wrap the samplers and the node solver that ``run_inner`` calls
    through ``algo``. ``seen`` holds the last sampled event, the dirty
    flags when it was drawn, the node solves since then and the kernel's
    count of link solves (``counters.link_solves``) when it was drawn."""
    seen = {}
    names = ("sample_event", "sample_mg_event", "solve_x_block")
    originals = {name: getattr(algo, name) for name in names}

    def sampler(fn):
        def wrapper(*args):
            ev = fn(*args)
            seen.update(event=ev, solves=0, links=counters.link_solves,
                        node_dirty=list(state.node_dirty),
                        link_dirty=list(state.link_dirty))
            return ev
        return wrapper

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    algo.sample_event = sampler(originals["sample_event"])
    algo.sample_mg_event = sampler(originals["sample_mg_event"])
    algo.solve_x_block = counted(originals["solve_x_block"], "solves")
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(algo, name, fn)


def node_inputs(state, i, pen):
    """Everything node block i reads, the warm start included."""
    arcs = state.graph.out_slice[i]
    return (state.mu[arcs].tobytes(), state.y[arcs].tobytes(),
            pen[:, arcs].tobytes(), state.x[i].tobytes())


def link_inputs(state, out, pen):
    """Everything link block ``out`` reads: its owner's estimate, the
    sender's link value its next delivery copies, duals and penalties."""
    g = state.graph
    return (state.x[g.src_of[out]].tobytes(), state.y[g.rev_of[out]].tobytes(),
            state.mu[out].tobytes(), state.lam[out].tobytes(),
            pen[:, out].tobytes())


def resolved_node(state, i, pen):
    """Node i re-minimized from the current state, on a copy."""
    probe = copy.copy(state)
    probe.x = state.x.copy()
    # a new slot on the probe: fresh flag lists, on the probe only
    slot_kernel(probe, Variant.ALG, pen)(Event(EventKind.X_UPDATE, node=i))
    return probe.x[i]


def resolved_link(state, out, inbound, pen):
    """Link block ``out`` re-minimized from the current state: its arc's
    minimizer, built alone, applied to the owner's estimate and the
    receiver's copy, as the slot kernel applies it."""
    g = state.graph
    return link_minimizer(state.x[g.src_of[out]], state.y_recv[inbound],
                          state.mu[out], state.lam[out], pen[1, out],
                          pen[0, out], g.arc_sign[out])


def check_event(state, seen, pen, last, closed_form_nodes, counters):
    """A clean block was skipped, and only a clean one; a skipped block's
    inputs are those of its last minimization, and a closed-form block
    re-solved now keeps its value bit for bit."""
    g, ev = state.graph, seen["event"]
    if ev.kind is EventKind.X_UPDATE:
        i, dirty = ev.node, seen["node_dirty"][ev.node]
        assert seen["solves"] == dirty
        if dirty:
            last["node", i] = node_inputs(state, i, pen)
            return
        assert node_inputs(state, i, pen) == last["node", i]
        if closed_form_nodes:
            assert resolved_node(state, i, pen).tobytes() == \
                state.x[i].tobytes()
        return
    inbound = ([ev.arc] if ev.kind is EventKind.Y_TRANSFER
               else list(ev.receivers or ()))
    outs = [g.rev_of[a] for a in inbound]
    assert counters.link_solves - seen["links"] == \
        sum(seen["link_dirty"][o] for o in outs)
    for a, o in zip(inbound, outs):
        assert state.y_recv[a].tobytes() == state.y[a].tobytes()
        if seen["link_dirty"][o]:
            last["link", o] = link_inputs(state, o, pen)
            continue
        assert link_inputs(state, o, pen) == last["link", o]
        assert resolved_link(state, o, a, pen).tobytes() == \
            state.y[o].tobytes()


KINDS = ("quad", "quad_box", "logreg")


def dirty_instance(kind, graph, seed):
    if kind == "logreg":
        return logreg_instance(graph, seed)
    return instance(graph, seed, boxed=kind == "quad_box")


@settings(max_examples=30, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(GOSSIP),
       kind=st.sampled_from(KINDS), seed=SEEDS, rho=st.floats(0.2, 4.0),
       p=st.floats(0.3, 1.0))
def test_skipped_blocks_have_unchanged_inputs(graph, variant, kind, seed,
                                              rho, p):
    inst = dirty_instance(kind, graph, seed)
    failures = FailureModel.uniform(graph, p)
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    assert all(state.node_dirty) and all(state.link_dirty)
    rng = np.random.default_rng(seed)
    counters = Counters()
    with watched(state, counters) as seen:
        for t in range(3):
            pen = penalty(variant, graph, rho * (1 + t))
            last = {}
            run_inner(state, variant, graph, failures, dist, pen, rng,
                      counters, 150, inner_budget=5,
                      on_checkpoint=lambda: check_event(state, seen, pen,
                                                        last,
                                                        kind != "logreg",
                                                        counters),
                      checkpoint_every=1)
            dual_update_alg(state, pen)


def textbook_link(x, y_hat, mu, lam, rho_mu, rho_lam, owner, other):
    """The link-block minimizer as the paper writes it, and the scale its
    rounding error is relative to."""
    sign = 1 if owner < other else -1
    num = (rho_mu * x, rho_lam * y_hat, mu, -sign * lam)
    denom = rho_mu + rho_lam
    return sum(num) / denom, sum(np.abs(t) for t in num) / denom


@settings(max_examples=40, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(GOSSIP),
       kind=st.sampled_from(KINDS), seed=SEEDS, p=st.floats(0.3, 1.0))
def test_link_updates_match_the_textbook_closed_form(graph, variant, kind,
                                                     seed, p):
    """Random deliveries through the slot kernel, from random duals and
    link values at unequal per-arc penalties: after each event, every
    receiver's link value is ``(rho_mu x + rho_lam y_hat + mu - s lam)
    / (rho_mu + rho_lam)`` at the owner's estimate ``x`` and the value
    ``y_hat`` it received, to 1e-12 relative."""
    inst = dirty_instance(kind, graph, seed)
    failures = FailureModel.uniform(graph, p)
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    rng = np.random.default_rng(seed)
    for arr in (state.y, state.mu, state.lam):
        arr[...] = rng.normal(size=arr.shape)
    pen = rng.uniform(0.2, 5.0, size=(2, graph.num_arcs))
    apply = slot_kernel(state, variant, pen, Counters(), inner_budget=5)
    for _ in range(80):
        ev = sample_event(dist, rng)
        if ev.kind is EventKind.MG_BROADCAST:
            ev = sample_mg_event(ev.node, graph, failures, rng)
        apply(ev)
        inbound = ([ev.arc] if ev.kind is EventKind.Y_TRANSFER
                   else list(ev.receivers or ()))
        for a in inbound:
            out = graph.rev_of[a]
            owner, other = graph.arcs[out]
            want, scale = textbook_link(state.x[owner], state.y_recv[a],
                                        state.mu[out], state.lam[out],
                                        pen[0, out], pen[1, out], owner,
                                        other)
            assert np.all(np.abs(state.y[out] - want) <= 1e-12 * scale)


@settings(max_examples=20, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(GOSSIP),
       kind=st.sampled_from(KINDS), seed=SEEDS, k=st.integers(0, 80))
def test_reset_movement_marks_every_block_dirty(graph, variant, kind, seed,
                                                k):
    inst = dirty_instance(kind, graph, seed)
    failures = FailureModel.uniform(graph, 0.7)
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    rng = np.random.default_rng(seed)
    run_inner(state, variant, graph, failures, dist, penalty(variant, graph,
                                                             1.5),
              rng, Counters(), k, inner_budget=5)
    state.reset_movement()
    assert state.node_dirty == [True] * graph.n
    assert state.link_dirty == [True] * graph.num_arcs


def unsettled(state, tol):
    """Movement and drift entries not below ``tol``, counted from the
    state's lists (the broadcast state keeps only ``x_move``)."""
    values = (state.x_move + getattr(state, "y_move", [])
              + getattr(state, "stale", []))
    return sum(not v < tol for v in values)


@settings(max_examples=30, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(list(Variant)),
       kind=st.sampled_from(KINDS), seed=SEEDS, rho=st.floats(0.2, 4.0),
       p=st.floats(0.3, 1.0),
       stop_tol=st.sampled_from((1e-12, 1e-6, 1e-3, 0.1)))
def test_running_stop_count_matches_the_lists(graph, variant, kind, seed,
                                              rho, p, stop_tol):
    """The kernel's count equals the entries not below the tolerance after
    every event, also past its first zero, and ``run_inner`` ends the slot
    on the first event that brings it to zero (or on the cap)."""
    inst = dirty_instance(kind, graph, seed)
    failures = failures_for(variant, graph, p)
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    cap = 120
    for t in range(3):
        pen = penalty(variant, graph, rho * (1 + t))
        probe = copy.deepcopy(state)
        rng = np.random.default_rng(seed + t)
        apply = slot_kernel(probe, variant, pen, Counters(), 5, None,
                            stop_tol)
        implied = cap
        for n in range(1, cap + 1):
            ev = sample_event(dist, rng)
            if ev.kind is EventKind.MG_BROADCAST:
                ev = sample_mg_event(ev.node, graph, failures, rng)
            count = apply(ev)
            assert count == unsettled(probe, stop_tol)
            if count == 0:
                implied = min(implied, n)
        applied = run_inner(state, variant, graph, failures, dist, pen,
                            np.random.default_rng(seed + t), Counters(), cap,
                            inner_budget=5, stop_tol=stop_tol)
        assert applied == implied
        if variant is Variant.ALBG:
            dual_update_bg(state, pen)
        else:
            dual_update_alg(state, pen)


@contextmanager
def solved_blocks(state):
    """Wrap the node solvers that the kernel calls through ``algo``.
    Yields the node blocks (``XSubproblem``) the solves were given, by
    node; before each solve, the block's cached ``f_i`` must be that of
    the warm start, the node's current estimate."""
    blocks = {}
    originals = {name: getattr(algo, name)
                 for name in ("solve_x_block", "solve_bg_block")}

    def seen(sub):
        assert_cached(state, sub)
        blocks[sub.node] = sub

    def x_solver(sub, *args, **kwargs):
        seen(sub)
        return originals["solve_x_block"](sub, *args, **kwargs)

    def bg_solver(*args, sub=None, **kwargs):
        seen(sub)
        return originals["solve_bg_block"](*args, sub=sub, **kwargs)

    algo.solve_x_block, algo.solve_bg_block = x_solver, bg_solver
    try:
        yield blocks
    finally:
        for name, fn in originals.items():
            setattr(algo, name, fn)


def assert_cached(state, sub):
    i = sub.node
    want = state.problem.node_value(i, state.x[i])
    assert np.float64(sub.value).tobytes() == np.float64(want).tobytes()


@settings(max_examples=30, deadline=None)
@given(graph=GRAPHS, variant=st.sampled_from(list(Variant)),
       kind=st.sampled_from(KINDS), seed=SEEDS, rho=st.floats(0.2, 4.0),
       p=st.floats(0.3, 1.0))
def test_cached_node_values_follow_the_estimates(graph, variant, kind, seed,
                                                 rho, p):
    """Each node block's cached f_i equals ``node_value(i, x[i])`` bit for
    bit after every event, and estimates written between slots are picked
    up at the next slot start."""
    inst = dirty_instance(kind, graph, seed)
    failures = failures_for(variant, graph, p)
    dist = event_distribution(graph, failures, variant)
    state = make_state(variant, inst, graph)
    rng = np.random.default_rng(seed)
    with solved_blocks(state) as blocks:
        for t in range(3):
            pen = penalty(variant, graph, rho * (1 + t))
            blocks.clear()
            run_inner(state, variant, graph, failures, dist, pen, rng,
                      Counters(), 80, inner_budget=5,
                      on_checkpoint=lambda: [assert_cached(state, sub)
                                             for sub in blocks.values()],
                      checkpoint_every=1)
            assert blocks
            if variant is Variant.ALBG:
                dual_update_bg(state, pen)
            else:
                dual_update_alg(state, pen)
            # code outside a slot may write the estimates
            state.x[...] = inst.project(
                state.x + rng.normal(scale=0.3, size=state.x.shape))
