import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algossip import graph
from algossip.errors import ConnectivityFailure, DomainError
from algossip.events import sample_mg_event
from algossip.graph import (FailureModel, Supergraph, build_geometric,
                            failure_prob, load_network, network_text)


def delivered(model, sender, receiver, rng) -> bool:
    """Whether one broadcast from ``sender`` reaches ``receiver`` (each arc
    is drawn independently with its success probability)."""
    ev = sample_mg_event(sender, model.graph, model, rng)
    return model.graph.arc_id[(sender, receiver)] in (ev.receivers or ())


def arc_distance(graph, i, j) -> float:
    """Euclidean distance between the positions of nodes ``i`` and ``j``."""
    return float(np.linalg.norm(graph.positions[i] - graph.positions[j]))


class TestSupergraph:
    def test_single_node_trivially_connected(self):
        g = build_geometric(1, 0.2, seed=0)
        assert g.n == 1
        assert g.num_edges == 0
        assert g.is_connected()

    def test_two_nodes_large_radius_forces_edge(self):
        # max distance on the unit square is sqrt(2) < 2
        g = build_geometric(2, 2.0, seed=3)
        assert g.edges == ((0, 1),)

    def test_generator_yields_spanning_structure(self):
        g = build_geometric(20, 0.35, seed=7)
        assert g.is_connected()
        assert g.num_edges >= 19  # connectivity needs at least a tree

    def test_arc_set_is_both_orientations(self):
        g = build_geometric(12, 0.5, seed=1)
        assert g.num_arcs == 2 * g.num_edges
        arcset = set(g.arcs)
        for i, j in g.edges:
            assert (i, j) in arcset and (j, i) in arcset

    def test_structural_invariants(self):
        g = build_geometric(15, 0.4, seed=5)
        assert all(i != j for i, j in g.edges)
        assert int(g.degrees.sum()) == 2 * g.num_edges
        for i in range(g.n):
            assert len(g.neighbors[i]) == g.degrees[i]
            for j in g.neighbors[i]:
                assert i in g.neighbors[j]

    def test_fixed_seed_is_reproducible(self):
        a = build_geometric(10, 0.45, seed=42)
        b = build_geometric(10, 0.45, seed=42)
        assert a.edges == b.edges
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_connectivity_failure_when_radius_too_small(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_CONNECT_RETRIES", 20)
        with pytest.raises(ConnectivityFailure, match="after 20 attempts"):
            build_geometric(30, 0.01, seed=0)

    def test_rejects_self_edges_and_duplicates(self):
        with pytest.raises(ValueError):
            Supergraph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Supergraph(3, [(0, 1), (1, 0)])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 15))
    def test_generated_graphs_always_pass_invariants(self, seed, n):
        g = build_geometric(n, 0.8, seed=seed)
        assert g.is_connected()
        assert int(g.degrees.sum()) == 2 * g.num_edges
        assert all(0 <= i < j < n for i, j in g.edges)


class TestFailureProb:
    def test_at_radius_limit_equals_scale(self):
        r = 0.35
        assert failure_prob(r * (1 - 1e-12), r, 0.5) == pytest.approx(0.5)

    def test_zero_distance_never_fails(self):
        assert failure_prob(0.0, 0.35, 0.5) == 0.0

    def test_midrange_value(self):
        r = 2.0
        assert failure_prob(r / np.sqrt(2), r, 0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("dist,radius,scale", [
        (0.4, 0.35, 0.5),   # distance beyond radius
        (0.35, 0.35, 0.5),  # distance at radius
        (0.1, 0.35, 0.0),   # scale at lower boundary
        (0.1, 0.35, 1.0),   # scale at upper boundary
    ])
    def test_domain_errors(self, dist, radius, scale):
        with pytest.raises(DomainError):
            failure_prob(dist, radius, scale)


class TestFailureModel:
    def test_always_on_has_all_arcs_available(self, ring4_graph, rng):
        model = FailureModel.always_on(ring4_graph)
        for i in range(ring4_graph.n):
            ev = sample_mg_event(i, ring4_graph, model, rng)
            assert tuple(ring4_graph.arc_dst[a] for a in ev.receivers) == \
                ring4_graph.neighbors[i]

    def test_success_probability_positive_required(self, pair_graph):
        with pytest.raises(ValueError):
            FailureModel(pair_graph, 0.0)
        with pytest.raises(ValueError):
            FailureModel(pair_graph, [0.5, -0.1])
        with pytest.raises(ValueError):
            FailureModel(pair_graph, [0.5])  # one value per arc id

    def test_reliable_iff_every_probability_is_one(self, pair_graph):
        assert FailureModel.always_on(pair_graph).reliable
        assert FailureModel.uniform(pair_graph, 1.0).reliable
        assert not FailureModel(pair_graph, [1.0, 0.9]).reliable

    def test_empirical_frequency_matches_probability(self, pair_graph):
        model = FailureModel.uniform(pair_graph, 0.5)
        rng = np.random.default_rng(77)
        hits = sum(delivered(model, 0, 1, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_asymmetric_probabilities_per_arc(self, pair_graph):
        model = FailureModel(pair_graph, [1.0, 0.5])  # arcs (0, 1), (1, 0)
        rng = np.random.default_rng(5)
        n = 4000
        up = down = 0
        for _ in range(n):
            up += delivered(model, 0, 1, rng)
            down += delivered(model, 1, 0, rng)
        assert up == n
        # three-sigma binomial band around one half
        band = 3 * np.sqrt(0.25 / n)
        assert abs(down / n - 0.5) <= band

    def test_three_sigma_band_for_general_p(self, path3_graph):
        model = FailureModel.uniform(path3_graph, 0.3)
        rng = np.random.default_rng(9)
        n = 4000
        hits = sum(delivered(model, 1, 2, rng) for _ in range(n))
        band = 3 * np.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) <= band

    def test_distance_based_model_matches_formula(self):
        g = build_geometric(8, 0.6, seed=11)
        model = FailureModel.from_distance(g, 0.6, 0.5)
        for arc in g.arcs:
            d = arc_distance(g, *arc)
            assert model.p[g.arc_id[arc]] == pytest.approx(
                1.0 - 0.5 * d ** 2 / 0.6 ** 2)
            assert model.p[g.arc_id[arc]] > 0

    def test_distance_based_model_has_the_bits_of_each_arc_distance(self):
        # one distance per edge serves both arcs
        g = build_geometric(12, 0.5, seed=5)
        model = FailureModel.from_distance(g, 0.5, 0.5)
        assert model.p == tuple(
            1.0 - failure_prob(arc_distance(g, *arc), 0.5, 0.5)
            for arc in g.arcs)
        with pytest.raises(ValueError, match="no positions"):
            FailureModel.from_distance(Supergraph(2, [(0, 1)]), 0.5, 0.5)


class TestNetworkIO:
    def test_round_trip(self, tmp_path):
        g = build_geometric(9, 0.5, seed=2)
        model = FailureModel.from_distance(g, 0.5, 0.5)
        path = tmp_path / "net.txt"
        path.write_text(network_text(g, model))
        g2, model2 = load_network(path)
        assert g2.n == g.n
        assert g2.edges == g.edges
        assert model2.p == model.p

    def test_always_on_mode_round_trips(self, tmp_path, ring4_graph):
        path = tmp_path / "net.txt"
        path.write_text(network_text(ring4_graph,
                                     FailureModel.always_on(ring4_graph)))
        _, model = load_network(path)
        assert model.reliable

    def test_disconnected_network_is_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("4\n0 1 1 1\n2 3 1 1\n")
        with pytest.raises(ConnectivityFailure):
            load_network(path)
