from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algossip.baseline import (PSState, metropolis_weights, ps_step,
                               realize_symmetric, run_ps)
from algossip.errors import ConfigError
from algossip.graph import FailureModel, Supergraph, build_geometric
from algossip.problem import QuadConsensusInstance


class TestMetropolisWeights:
    def test_isolated_node_keeps_unit_self_weight(self):
        w = metropolis_weights(3, [(0, 1)])
        assert w[2, 2] == 1.0
        assert w[2, 0] == w[2, 1] == 0.0

    def test_two_connected_nodes_split_evenly(self):
        w = metropolis_weights(2, [(0, 1)])
        assert w[0, 1] == w[1, 0] == pytest.approx(0.5)
        assert w[0, 0] == w[1, 1] == pytest.approx(0.5)

    def test_path_graph_weights(self):
        w = metropolis_weights(3, [(0, 1), (1, 2)])
        third = pytest.approx(1 / 3)
        assert w[0, 1] == third and w[1, 2] == third
        assert w[1, 1] == third
        assert w[0, 0] == w[2, 2] == pytest.approx(2 / 3)

    def test_exact_rational_arithmetic_small_graph(self):
        # recompute with exact fractions for the path graph
        w = metropolis_weights(3, [(0, 1), (1, 2)])
        exact = {
            (0, 1): Fraction(1, 3), (1, 2): Fraction(1, 3),
            (0, 0): Fraction(2, 3), (1, 1): Fraction(1, 3),
            (2, 2): Fraction(2, 3), (0, 2): Fraction(0),
        }
        for (i, j), frac in exact.items():
            assert w[i, j] == pytest.approx(float(frac), abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_doubly_stochastic_on_random_realized_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        w = metropolis_weights(n, edges)
        assert np.all(w >= -1e-12)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestPSStep:
    def test_common_unconstrained_optimum_is_fixed(self, pair_graph):
        # identical targets: zero subgradient at the shared optimum
        inst = QuadConsensusInstance([[1.2], [1.2]])
        state = PSState(x=np.array([[1.2], [1.2]]), alpha=0.1)
        ps_step(state, [(0, 1)], inst)
        np.testing.assert_allclose(state.x, 1.2, atol=1e-15)
        assert state.k == 1

    def test_empty_realized_graph_is_local_step(self, pair_graph):
        inst = QuadConsensusInstance([[0.0], [2.0]])
        state = PSState(x=np.array([[1.0], [1.0]]), alpha=0.25)
        ps_step(state, [], inst)
        # pure projected subgradient at each node: x - alpha * 2(x - a)
        assert state.x[0, 0] == pytest.approx(1.0 - 0.25 * 2.0)
        assert state.x[1, 0] == pytest.approx(1.0 + 0.25 * 2.0)

    def test_converges_on_two_node_consensus(self, pair_graph):
        # fixed-step baseline: the across-node mean contracts to the
        # optimum while each node settles at its O(alpha) offset
        # (here exactly -/+ 2*alpha around it)
        inst = QuadConsensusInstance([[0.0], [2.0]])
        failures = FailureModel.always_on(pair_graph)
        _, state = run_ps(inst, pair_graph, failures, alpha=0.1,
                          rounds=500, seed=0,
                          fstar=inst.analytic_optimum()[1],
                          checkpoint_every=100)
        assert state.x.mean() == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_allclose(state.x.ravel(), [0.8, 1.2], atol=1e-6)
        # a small step drives every node within 1e-3 of the optimum
        _, tight = run_ps(inst, pair_graph, failures, alpha=2e-4,
                          rounds=30_000, seed=0, checkpoint_every=0)
        assert np.abs(tight.x - 1.0).max() < 1e-3

    def test_transmission_accounting(self, path3_graph):
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        log, _ = run_ps(inst, path3_graph,
                        FailureModel.always_on(path3_graph), alpha=0.05,
                        rounds=10, seed=0, checkpoint_every=1)
        # 2 edges realized every round -> 4 sends per round
        assert log.rows[-1].transmissions == 40

    def test_running_best_error_is_nonincreasing(self, ring4_graph):
        rng = np.random.default_rng(3)
        inst = QuadConsensusInstance(rng.normal(size=(4, 1)))
        log, _ = run_ps(inst, ring4_graph,
                        FailureModel.uniform(ring4_graph, 0.8), alpha=0.05,
                        rounds=300, seed=1,
                        fstar=inst.analytic_optimum()[1],
                        checkpoint_every=10)
        errs = [r.err_f for r in log.rows]
        best = np.minimum.accumulate(errs)
        assert all(b <= a + 1e-15 for a, b in zip(errs, best))
        assert best[-1] < best[0]

    def test_symmetric_realization_uses_min_probability(self, pair_graph):
        failures = FailureModel(pair_graph, [1.0, 0.25])  # arcs (0, 1), (1, 0)
        rng = np.random.default_rng(1)
        n = 8000
        present = sum(len(realize_symmetric(pair_graph, failures, rng))
                      for _ in range(n))
        band = 3 * np.sqrt(0.25 * 0.75 / n)
        assert abs(present / n - 0.25) <= band


class TestRunPSInput:
    @pytest.mark.parametrize("kw, match", [
        (dict(checkpoint_every=-5), "checkpoint_every"),
        (dict(rounds=-3), "rounds"),
        (dict(alpha=0.0), "step size"),
        (dict(alpha=-0.1), "step size"),
    ])
    def test_bad_arguments_are_config_errors(self, path3_graph, kw, match):
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        args = dict(alpha=0.05, rounds=10, seed=0, checkpoint_every=1)
        with pytest.raises(ConfigError, match=match):
            run_ps(inst, path3_graph, None, **{**args, **kw})

    def test_flops_count_local_steps_and_sends(self, path3_graph):
        inst = QuadConsensusInstance([[0.0], [1.0], [3.0]])
        log, state = run_ps(inst, path3_graph, None, alpha=0.05, rounds=7,
                            seed=0, checkpoint_every=1)
        d = inst.dim
        local = sum(inst.subgrad_flops(i) + 4 * d for i in range(3))
        assert state.local_flops == local
        per_round = local + 2 * d * 2 * len(path3_graph.edges)
        assert log.column("flops") == [r * per_round for r in range(8)]


class TestAlphaSweep:
    def test_smaller_steps_reach_lower_floors(self, ring4_graph):
        rng = np.random.default_rng(0)
        inst = QuadConsensusInstance(rng.normal(size=(4, 1)))
        fstar = inst.analytic_optimum()[1]
        floors = []
        for alpha in (0.1, 0.01):
            log, _ = run_ps(inst, ring4_graph,
                            FailureModel.always_on(ring4_graph), alpha,
                            rounds=2000, seed=0, fstar=fstar,
                            checkpoint_every=10)
            floors.append(np.nanmin(log.column("err_f")))
        assert floors[1] < floors[0]
