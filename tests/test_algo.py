import copy

import numpy as np
import pytest

from algossip.algo import (ALBGState, ALGState, Counters, PenaltySchedule,
                           constraint_violations, default_inner_events,
                           dual_update_alg, dual_update_bg, lagrangian_eval,
                           penalty_at, run_inner, run_outer, slot_kernel,
                           update_adaptive)
from algossip.errors import ConfigError, DomainError, KindError, \
    NumericError
from algossip.events import Event, EventKind, Variant, event_distribution
from algossip.graph import FailureModel, Supergraph
from algossip.problem import QuadConsensusInstance


def pen_of(graph, rho):
    """The same penalty on every arc's tie and link constraint."""
    return np.full((2, graph.num_arcs), rho)


def bg_update(node):
    return Event(EventKind.BG_UPDATE, node=node)


class TestPenaltySchedule:
    def test_power_schedule_start_value(self):
        sched = PenaltySchedule.power(1.3, 1.0)
        assert penalty_at(sched, 0) == pytest.approx(1.0)
        assert penalty_at(sched, 2) == pytest.approx(2 ** 1.3 + 1)

    def test_geometric_schedule_start_value(self):
        sched = PenaltySchedule.geometric(1.0, 1.15, 3.0)
        assert penalty_at(sched, 0) == pytest.approx(4.0)
        assert penalty_at(sched, 1) == pytest.approx(4.15)

    def test_fixed_schedule(self):
        sched = PenaltySchedule.fixed(2.0)
        assert penalty_at(sched, 0) == penalty_at(sched, 57) == 2.0

    def test_sequences_positive_and_nondecreasing(self):
        for sched in (PenaltySchedule.power(1.3, 1.0),
                      PenaltySchedule.geometric(1.0, 1.15, 3.0),
                      PenaltySchedule.fixed(0.7)):
            vals = [penalty_at(sched, t) for t in range(30)]
            assert all(v > 0 for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_adaptive_kind_is_not_directly_evaluable(self):
        sched = PenaltySchedule.adaptive(0.3, 1.2, 1.0)
        with pytest.raises(KindError):
            penalty_at(sched, 0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            PenaltySchedule.fixed(0.0)
        with pytest.raises(DomainError):
            PenaltySchedule.power(1.3, 0.0)
        with pytest.raises(DomainError):
            PenaltySchedule.adaptive(1.5, 1.2, 1.0)
        with pytest.raises(DomainError):
            penalty_at(PenaltySchedule.fixed(1.0), -1)


class TestUpdateAdaptive:
    def test_vanished_violation_keeps_penalty(self):
        assert update_adaptive(5.0, 1.0, 0.0, 0.3, 1.2) == 5.0

    def test_insufficient_decrease_grows_penalty(self):
        assert update_adaptive(1.0, 1.0, 0.5, 0.3, 1.2) == pytest.approx(1.2)

    def test_sufficient_decrease_keeps_penalty(self):
        assert update_adaptive(5.0, 1.0, 0.2, 0.3, 1.2) == 5.0

    def test_first_step_without_history(self):
        assert update_adaptive(2.0, None, 3.0, 0.3, 1.2) == 2.0


class TestLagrangian:
    def test_consensus_with_zero_duals_is_plain_objective(self, ring4_graph):
        inst = QuadConsensusInstance(np.tile([0.3, -0.7], (4, 1)))
        state = ALGState(inst, ring4_graph)
        xbar = np.array([1.1, 0.2])
        state.x[:] = xbar
        state.y[:] = xbar
        state.y_recv[:] = xbar
        val = lagrangian_eval(state, pen_of(ring4_graph, 3.0))
        assert val == pytest.approx(inst.global_value(xbar))

    def test_hand_evaluated_quadratic_terms(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [0.0]], weights=[0.0, 0.0])
        state = ALGState(inst, pair_graph)
        state.x[:] = 0.0
        state.y[pair_graph.arc_id[(0, 1)]] = 1.0
        state.y[pair_graph.arc_id[(1, 0)]] = 0.0
        # 0.5*2*(|0-1|^2 + |0-0|^2) + 0.5*2*|1-0|^2 = 1 + 1
        assert lagrangian_eval(state, pen_of(pair_graph, 2.0)) == \
            pytest.approx(2.0)

    def test_bg_aggregated_duals_match_edge_form(self, ring4_graph):
        rng = np.random.default_rng(7)
        inst = QuadConsensusInstance(rng.normal(size=(4, 2)))
        x = rng.normal(size=(4, 2))
        lam_edge = {e: rng.normal(size=2) for e in ring4_graph.edges}
        rho = 1.4
        direct = sum(inst.node_value(i, x[i]) for i in range(4))
        lam_bar = np.zeros((4, 2))
        for (i, j) in ring4_graph.edges:
            direct += float(lam_edge[(i, j)] @ (x[i] - x[j]))
            direct += 0.5 * rho * float((x[i] - x[j]) @ (x[i] - x[j]))
            lam_bar[i] += lam_edge[(i, j)]
            lam_bar[j] -= lam_edge[(i, j)]
        state = ALBGState(inst, ring4_graph)
        state.x[:] = x
        state.lam_bar[:] = lam_bar
        assert lagrangian_eval(state, rho) == pytest.approx(direct)


class TestInnerStepALG:
    def test_void_event_only_counts_a_transmission(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = ALGState(inst, pair_graph)
        before = copy.deepcopy((state.x, state.y, state.mu, state.lam))
        counters = Counters()
        slot_kernel(state, Variant.ALG, pen_of(pair_graph, 1.0),
                    counters)(Event(EventKind.VOID))
        assert counters.transmissions == 1
        np.testing.assert_array_equal(state.x, before[0])
        np.testing.assert_array_equal(state.y, before[1])

    def test_consensus_point_is_fixed(self, ring4_graph):
        # identical targets: zero subgradient at the consensus value
        inst = QuadConsensusInstance(np.tile([1.5, -0.5], (4, 1)))
        state = ALGState(inst, ring4_graph)
        xbar = np.array([1.5, -0.5])
        state.x[:] = xbar
        state.y[:] = xbar
        state.y_recv[:] = xbar
        pen = pen_of(ring4_graph, 2.0)
        arc_id = ring4_graph.arc_id
        apply = slot_kernel(state, Variant.ALG, pen)
        for ev in [Event(EventKind.X_UPDATE, node=2),
                   Event(EventKind.Y_TRANSFER, arc=arc_id[(0, 1)]),
                   Event(EventKind.Y_TRANSFER, arc=arc_id[(3, 2)])]:
            apply(ev)
        np.testing.assert_allclose(state.x, np.tile(xbar, (4, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(state.y, np.tile(xbar, (8, 1)),
                                   atol=1e-12)

    def test_descent_over_thousand_exact_steps(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = ALGState(inst, pair_graph)
        pen = pen_of(pair_graph, 1.0)
        failures = FailureModel.always_on(pair_graph)
        dist = event_distribution(pair_graph, failures,
                                  Variant.ALG)
        rng = np.random.default_rng(0)
        counters = Counters()
        values = [lagrangian_eval(state, pen)]
        run_inner(state, Variant.ALG, pair_graph, failures, dist, pen, rng,
                  counters, k_inner=1000,
                  on_checkpoint=lambda: values.append(
                      lagrangian_eval(state, pen)),
                  checkpoint_every=1)
        assert len(values) == 1001
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_transfer_updates_receiver_copy_and_block(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = ALGState(inst, pair_graph)
        a01, a10 = pair_graph.arc_id[(0, 1)], pair_graph.arc_id[(1, 0)]
        state.y[a01] = 0.7
        state.x[1] = np.array([2.0])
        counters = Counters()
        slot_kernel(state, Variant.ALG, pen_of(pair_graph, 1.0),
                    counters)(Event(EventKind.Y_TRANSFER, arc=a01))
        np.testing.assert_array_equal(state.y_recv[a01], [0.7])
        assert state.stale[a01] == 0.0
        # y_10 = y_01/2 + x_1/2 + (mu - sign(0-1)*lam)/(2 rho), duals zero
        assert state.y[a10][0] == pytest.approx(0.5 * 0.7 + 0.5 * 2.0)
        assert counters.transmissions == 1


class TestDualUpdateALG:
    def fresh_state(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        return ALGState(inst, pair_graph)

    def test_matching_values_leave_duals_unchanged(self, pair_graph):
        state = self.fresh_state(pair_graph)
        a01, a10 = pair_graph.arc_id[(0, 1)], pair_graph.arc_id[(1, 0)]
        # defaults: y equals the receiver copy only if x0(0) == x1(0)
        state.y[a01] = 0.4
        state.y_recv[a10] = 0.4
        state.x[0] = 0.4
        dual_update_alg(state, pen_of(pair_graph, 2.0))
        np.testing.assert_array_equal(state.lam[a01], [0.0])
        np.testing.assert_array_equal(state.mu[a01], [0.0])
        assert state.t == 1

    def test_forced_arithmetic_of_the_multiplier_step(self, pair_graph):
        state = self.fresh_state(pair_graph)
        a01, a10 = pair_graph.arc_id[(0, 1)], pair_graph.arc_id[(1, 0)]
        state.y[a01] = 1.0
        state.y_recv[a10] = 0.5
        state.x[0] = 1.0
        dual_update_alg(state, pen_of(pair_graph, 2.0))
        # sign(1-0) = +1: lam += 2 * (1 - 0.5)
        assert state.lam[a01][0] == pytest.approx(1.0)
        assert state.mu[a01][0] == pytest.approx(0.0)  # x == y


class TestInnerStepMG:
    def test_void_costs_degree_transmissions(self, path3_graph):
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        state = ALGState(inst, path3_graph)
        counters = Counters()
        slot_kernel(state, Variant.ALMG, pen_of(path3_graph, 1.0),
                    counters)(Event(EventKind.VOID, node=1))
        assert counters.transmissions == 2

    def test_full_broadcast_equals_sequential_transfers(self, path3_graph):
        rng = np.random.default_rng(3)
        inst = QuadConsensusInstance(rng.normal(size=(3, 2)))
        state_a = ALGState(inst, path3_graph)
        # desynchronize the link variables first
        for a in range(path3_graph.num_arcs):
            state_a.y[a] = rng.normal(size=2)
            state_a.mu[a] = rng.normal(size=2) * 0.1
        for a in path3_graph.edge_fwd:
            lam = rng.normal(size=2) * 0.1
            state_a.lam[a] = state_a.lam[path3_graph.arc_rev[a]] = lam
        state_b = copy.deepcopy(state_a)
        pen = pen_of(path3_graph, 1.3)
        out = (path3_graph.arc_id[(1, 0)], path3_graph.arc_id[(1, 2)])
        slot_kernel(state_a, Variant.ALMG, pen)(
            Event(EventKind.MG_BROADCAST, node=1, receivers=out))
        apply_b = slot_kernel(state_b, Variant.ALG, pen)
        for a in out:
            apply_b(Event(EventKind.Y_TRANSFER, arc=a))
        np.testing.assert_allclose(state_a.y, state_b.y, atol=1e-15)

    def test_single_neighbor_broadcast_reduces_to_pairwise(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state_a = ALGState(inst, pair_graph)
        a01 = pair_graph.arc_id[(0, 1)]
        state_a.y[a01] = 0.9
        state_b = copy.deepcopy(state_a)
        pen = pen_of(pair_graph, 1.0)
        slot_kernel(state_a, Variant.ALMG, pen)(
            Event(EventKind.MG_BROADCAST, node=0, receivers=(a01,)))
        slot_kernel(state_b, Variant.ALG, pen)(
            Event(EventKind.Y_TRANSFER, arc=a01))
        np.testing.assert_array_equal(state_a.y, state_b.y)


class TestBroadcastVariant:
    def test_block_assembly_stationarity(self, pair_graph):
        # node 0 solves min (x-0)^2 + (0 - rho*x1)^T x + (rho/2) x^2
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = ALBGState(inst, pair_graph)
        state.x[1] = np.array([2.0])
        slot_kernel(state, Variant.ALBG, 1.0)(bg_update(0))
        # stationarity: 2x - x1 + x = 0  =>  x = x1 / 3
        assert state.x[0][0] == pytest.approx(2.0 / 3.0)

    def test_fixed_point_at_consensus_with_zero_duals(self, ring4_graph):
        inst = QuadConsensusInstance(np.zeros((4, 1)), weights=[0.0] * 4)
        state = ALBGState(inst, ring4_graph)
        state.x[:] = 0.8
        apply = slot_kernel(state, Variant.ALBG, 2.0)
        for node in range(4):
            apply(bg_update(node))
        np.testing.assert_allclose(state.x, 0.8, atol=1e-12)

    def test_descent_along_exact_steps(self, ring4_graph):
        rng = np.random.default_rng(5)
        inst = QuadConsensusInstance(rng.normal(size=(4, 2)))
        state = ALBGState(inst, ring4_graph)
        rho = 1.0
        values = [lagrangian_eval(state, rho)]
        order = rng.integers(0, 4, size=400)
        apply = slot_kernel(state, Variant.ALBG, rho)
        for node in order:
            apply(bg_update(int(node)))
            values.append(lagrangian_eval(state, rho))
        assert np.all(np.diff(values) <= 1e-12)

    def test_dual_update_arithmetic_and_zero_sum(self, path3_graph):
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        state = ALBGState(inst, path3_graph)
        state.x[:] = np.array([[1.0], [1.0], [2.0]])
        # node 1: d=2, x=1, xbar=3  ->  increment 1*(2*1-3) = -1
        dual_update_bg(state, rho=1.0)
        assert state.lam_bar[1][0] == pytest.approx(-1.0)
        np.testing.assert_allclose(state.lam_bar.sum(axis=0), 0.0,
                                   atol=1e-12)
        assert state.t == 1

    def test_equal_estimates_leave_duals_unchanged(self, ring4_graph):
        inst = QuadConsensusInstance(np.zeros((4, 1)))
        state = ALBGState(inst, ring4_graph)
        state.x[:] = 0.3
        dual_update_bg(state, rho=2.0)
        np.testing.assert_array_equal(state.lam_bar, np.zeros((4, 1)))

    def test_dual_sum_stays_zero_across_random_runs(self, ring4_graph):
        rng = np.random.default_rng(11)
        inst = QuadConsensusInstance(rng.normal(size=(4, 2)))
        state = ALBGState(inst, ring4_graph)
        for _ in range(10):
            apply = slot_kernel(state, Variant.ALBG, 1.5)
            for node in rng.integers(0, 4, size=30):
                apply(bg_update(int(node)))
            dual_update_bg(state, rho=1.5)
            np.testing.assert_allclose(state.lam_bar.sum(axis=0), 0.0,
                                       atol=1e-10)


class TestRunInner:
    def test_zero_budget_is_identity_with_snapshot(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        failures = FailureModel.always_on(pair_graph)
        dist = event_distribution(pair_graph, failures,
                                  Variant.ALG)
        state = ALGState(inst, pair_graph)
        before = copy.deepcopy(state)
        applied = run_inner(state, Variant.ALG, pair_graph, failures, dist,
                            pen_of(pair_graph, 1.0),
                            np.random.default_rng(0), Counters(), k_inner=0)
        assert applied == 0
        # an empty slot writes none of the arrays the dual step reads
        for name in ("x", "y", "y_recv", "mu", "lam"):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(before, name))

    def test_converges_to_dense_inner_solution(self, path3_graph):
        # independent oracle: assemble the slot's quadratic in all blocks
        # and solve the linear stationarity system directly
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        rho = 1.7
        rng = np.random.default_rng(5)
        state = ALGState(inst, path3_graph)
        for a in range(path3_graph.num_arcs):
            state.mu[a] = rng.normal(size=1) * 0.3
        for a in path3_graph.edge_fwd:
            lam = rng.normal(size=1) * 0.3
            state.lam[a] = state.lam[path3_graph.arc_rev[a]] = lam

        arcs = list(path3_graph.arcs)
        idx = {a: 3 + t for t, a in enumerate(arcs)}
        mu = {a: state.mu[t] for t, a in enumerate(arcs)}
        lam = {a: state.lam[t] for t, a in enumerate(arcs)}
        dim = 3 + len(arcs)
        hess = np.zeros((dim, dim))
        lin = np.zeros(dim)
        for i in range(3):
            hess[i, i] += 2.0
            lin[i] -= 2.0 * inst.targets[i, 0]
        for a in arcs:
            i, y = a[0], idx[a]
            lin[i] += mu[a][0]
            lin[y] -= mu[a][0]
            hess[i, i] += rho
            hess[y, y] += rho
            hess[i, y] -= rho
            hess[y, i] -= rho
        for (i, j) in path3_graph.edges:
            yij, yji = idx[(i, j)], idx[(j, i)]
            lin[yij] += lam[(i, j)][0]
            lin[yji] -= lam[(j, i)][0]
            hess[yij, yij] += rho
            hess[yji, yji] += rho
            hess[yij, yji] -= rho
            hess[yji, yij] -= rho
        z_star = np.linalg.solve(hess, -lin)

        failures = FailureModel.always_on(path3_graph)
        dist = event_distribution(path3_graph, failures,
                                  Variant.ALG)
        run_inner(state, Variant.ALG, path3_graph, failures, dist,
                  pen_of(path3_graph, rho), np.random.default_rng(2),
                  Counters(), k_inner=50_000, stop_tol=1e-12)
        np.testing.assert_allclose(state.x.ravel(), z_star[:3], atol=1e-6)
        np.testing.assert_allclose(state.y.ravel(), z_star[3:], atol=1e-6)

    def test_checkpoints_fall_on_multiples_of_the_period(self, ring4_graph):
        inst = QuadConsensusInstance(np.arange(8.0).reshape(4, 2))
        failures = FailureModel.always_on(ring4_graph)
        dist = event_distribution(ring4_graph, failures, Variant.ALG)
        state = ALGState(inst, ring4_graph)
        counters = Counters(k=5)
        seen = []
        applied = run_inner(state, Variant.ALG, ring4_graph, failures, dist,
                            pen_of(ring4_graph, 1.0),
                            np.random.default_rng(0), counters, k_inner=30,
                            on_checkpoint=lambda: seen.append(counters.k),
                            checkpoint_every=7)
        assert applied == 30 and counters.k == 35
        assert seen == [7, 14, 21, 28, 35]

    def test_nan_movement_never_ends_a_slot(self, pair_graph, monkeypatch):
        from algossip import algo

        def nan_link(x_i, *args):
            return np.full_like(x_i, np.nan)

        monkeypatch.setattr(algo, "y_closed_form_peredge", nan_link)
        inst = QuadConsensusInstance([[0.0], [2.0]])
        failures = FailureModel.always_on(pair_graph)
        dist = event_distribution(pair_graph, failures, Variant.ALG)
        state = ALGState(inst, pair_graph)
        with np.errstate(invalid="ignore"):
            applied = run_inner(state, Variant.ALG, pair_graph, failures,
                                dist, pen_of(pair_graph, 1.0),
                                np.random.default_rng(0), Counters(),
                                k_inner=200, stop_tol=1e300)
        assert applied == 200
        assert np.isnan(state.y).all()

    def test_fixed_seed_reproduces_trajectory(self, ring4_graph):
        inst = QuadConsensusInstance(np.arange(8.0).reshape(4, 2))
        failures = FailureModel.uniform(ring4_graph, 0.8)
        dist = event_distribution(ring4_graph, failures,
                                  Variant.ALG)

        def once():
            state = ALGState(inst, ring4_graph)
            run_inner(state, Variant.ALG, ring4_graph, failures, dist,
                      pen_of(ring4_graph, 1.0), np.random.default_rng(17),
                      Counters(), k_inner=500)
            return state

        a, b = once(), once()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestDualConsistency:
    def test_copies_agree_on_static_network(self, ring4_graph):
        inst = QuadConsensusInstance(np.linspace(0, 3, 8).reshape(4, 2))
        failures = FailureModel.always_on(ring4_graph)
        dist = event_distribution(ring4_graph, failures,
                                  Variant.ALG)
        state = ALGState(inst, ring4_graph)
        rng = np.random.default_rng(9)
        counters = Counters()
        pen = pen_of(ring4_graph, 2.0)
        for _ in range(10):
            run_inner(state, Variant.ALG, ring4_graph, failures, dist, pen,
                      rng, counters, k_inner=100_000, stop_tol=1e-10)
            dual_update_alg(state, pen)
            assert state.max_dual_gap() <= 1e-8

    def test_violations_are_local_norms(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = ALGState(inst, pair_graph)
        a01, a10 = pair_graph.arc_id[(0, 1)], pair_graph.arc_id[(1, 0)]
        state.x[0] = 1.0
        state.y[a01] = 0.25
        state.y_recv[a10] = 0.75
        eps_mu, eps_lam = constraint_violations(state)
        assert eps_mu[a01] == pytest.approx(0.75)
        assert eps_lam[a01] == pytest.approx(0.5)


class TestRunOuter:
    def test_zero_outer_slots_logs_initial_row_only(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        log, state = run_outer(inst, pair_graph, Variant.ALG,
                               PenaltySchedule.fixed(1.0), t_outer=0,
                               k_inner=10, seed=0)
        assert len(log.rows) == 1
        assert log.rows[0].t == 0 and log.rows[0].k == 0

    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_estimate_names_the_slot(self, ring4_graph, variant,
                                                monkeypatch):
        from algossip import algo

        def runaway(*args, **kwargs):
            return np.full(2, np.inf)

        # no checkpoint inside a slot: only the end-of-slot check can fire
        monkeypatch.setattr(algo, "solve_x_block", runaway)
        monkeypatch.setattr(algo, "solve_bg_block", runaway)
        inst = QuadConsensusInstance(np.zeros((4, 2)))
        with pytest.raises(NumericError, match=r"slot 0 \(k=30\)"), \
                np.errstate(invalid="ignore"):
            run_outer(inst, ring4_graph, variant, PenaltySchedule.fixed(1.0),
                      t_outer=3, k_inner=30, seed=0, checkpoint_every=0)

    def test_broadcast_variant_converges_on_ring(self, ring4_graph):
        rng = np.random.default_rng(0)
        inst = QuadConsensusInstance(rng.normal(size=(4, 2)))
        x_star, f_star = inst.analytic_optimum()
        log, state = run_outer(inst, ring4_graph, Variant.ALBG,
                               PenaltySchedule.power(1.3, 1.0), t_outer=60,
                               k_inner=default_inner_events(ring4_graph),
                               seed=1, fstar=f_star, checkpoint_every=0)
        assert log.rows[-1].err_f < 1e-4
        spread = np.linalg.norm(state.x - state.x.mean(axis=0), axis=1)
        assert spread.max() < 1e-3

    def test_pairwise_and_broadcast_agree_with_oracle(self, ring4_graph):
        rng = np.random.default_rng(0)
        inst = QuadConsensusInstance(rng.normal(size=(4, 2)))
        x_star, f_star = inst.analytic_optimum()
        _, st_bg = run_outer(inst, ring4_graph, Variant.ALBG,
                             PenaltySchedule.fixed(2.0), t_outer=30,
                             k_inner=5000, seed=1, inner_stop_tol=1e-9)
        _, st_g = run_outer(inst, ring4_graph, Variant.ALG,
                            PenaltySchedule.fixed(2.0), t_outer=30,
                            k_inner=20_000, seed=1, inner_stop_tol=1e-9)
        assert np.abs(st_bg.x - st_g.x).max() < 1e-3
        assert np.abs(st_g.x - x_star).max() < 1e-3
        assert np.abs(st_bg.x - x_star).max() < 1e-3

    def test_feasibility_flag_and_projection_invariant(self, ring4_graph):
        rng = np.random.default_rng(2)
        inst = QuadConsensusInstance(rng.normal(size=(4, 1)),
                                     lo=np.full((4, 1), -0.5),
                                     hi=np.full((4, 1), 0.5))
        log, state = run_outer(inst, ring4_graph, Variant.ALG,
                               PenaltySchedule.fixed(2.0), t_outer=5,
                               k_inner=200, seed=3, checkpoint_every=25)
        for i in range(4):
            np.testing.assert_array_equal(
                state.x[i], inst.node_project(i, state.x[i]))
        assert all(r.feasible for r in log.rows)

    def test_identical_seed_gives_identical_logs(self, ring4_graph):
        inst = QuadConsensusInstance(np.arange(4.0).reshape(4, 1))
        failures = FailureModel.uniform(ring4_graph, 0.7)
        kw = dict(t_outer=8, k_inner=150, seed=5, failures=failures,
                  fstar=inst.analytic_optimum()[1], checkpoint_every=40)
        log1, _ = run_outer(inst, ring4_graph, Variant.ALG,
                            PenaltySchedule.power(1.3, 1.0), **kw)
        log2, _ = run_outer(inst, ring4_graph, Variant.ALG,
                            PenaltySchedule.power(1.3, 1.0), **kw)
        assert log1 == log2

    def test_adaptive_schedule_runs_and_converges(self, ring4_graph):
        rng = np.random.default_rng(4)
        inst = QuadConsensusInstance(rng.normal(size=(4, 1)))
        x_star, f_star = inst.analytic_optimum()
        log, _ = run_outer(inst, ring4_graph, Variant.ALG,
                           PenaltySchedule.adaptive(0.3, 1.2, 1.0),
                           t_outer=40, k_inner=20_000, seed=6, fstar=f_star,
                           inner_stop_tol=1e-9, checkpoint_every=0)
        assert log.rows[-1].err_f < 1e-6

    def test_config_validation(self, ring4_graph):
        inst = QuadConsensusInstance(np.zeros((4, 1)))
        failing = FailureModel.uniform(ring4_graph, 0.5)
        with pytest.raises(ConfigError):
            run_outer(inst, ring4_graph, Variant.ALBG,
                      PenaltySchedule.fixed(1.0), 1, 10, 0, failures=failing)
        with pytest.raises(ConfigError):
            run_outer(inst, ring4_graph, Variant.ALBG,
                      PenaltySchedule.adaptive(0.3, 1.2, 1.0), 1, 10, 0)
        small = QuadConsensusInstance(np.zeros((2, 1)))
        with pytest.raises(ConfigError):
            run_outer(small, ring4_graph, Variant.ALG,
                      PenaltySchedule.fixed(1.0), 1, 10, 0)

    @pytest.mark.parametrize("every", [-5, -1])
    def test_negative_checkpoint_every_is_rejected(self, ring4_graph, every):
        inst = QuadConsensusInstance(np.zeros((4, 1)))
        with pytest.raises(ConfigError, match="checkpoint_every"):
            run_outer(inst, ring4_graph, Variant.ALG,
                      PenaltySchedule.fixed(1.0), t_outer=1, k_inner=20,
                      seed=0, checkpoint_every=every)

    def test_counter_columns_are_nondecreasing(self, ring4_graph):
        inst = QuadConsensusInstance(np.arange(4.0).reshape(4, 1))
        log, _ = run_outer(inst, ring4_graph, Variant.ALMG,
                           PenaltySchedule.fixed(1.0), t_outer=5,
                           k_inner=100, seed=0,
                           failures=FailureModel.uniform(ring4_graph, 0.7),
                           checkpoint_every=10)
        for col in ("k", "transmissions", "flops"):
            vals = log.column(col)
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDiagnostics:
    def test_block_optimal_point_is_event_invariant(self, path3_graph):
        # run the sweep to (numerical) block optimality, then check every
        # event type leaves the state unchanged
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        failures = FailureModel.always_on(path3_graph)
        dist = event_distribution(path3_graph, failures,
                                  Variant.ALG)
        state = ALGState(inst, path3_graph)
        pen = pen_of(path3_graph, 1.5)
        run_inner(state, Variant.ALG, path3_graph, failures, dist, pen,
                  np.random.default_rng(1), Counters(), k_inner=100_000,
                  stop_tol=1e-13)
        x_before = state.x.copy()
        y_before = state.y.copy()
        events = [Event(EventKind.X_UPDATE, node=i) for i in range(3)]
        events += [Event(EventKind.Y_TRANSFER, arc=a)
                   for a in range(path3_graph.num_arcs)]
        apply = slot_kernel(state, Variant.ALG, pen)
        for ev in events:
            apply(ev)
        np.testing.assert_allclose(state.x, x_before, atol=1e-11)
        np.testing.assert_allclose(state.y, y_before, atol=1e-11)
