import numpy as np
import pytest
from scipy.stats import chisquare

from algossip.events import (Event, EventDistribution, EventKind,
                             UniformStream, Variant, event_distribution,
                             sample_event, sample_mg_event)
from algossip.graph import FailureModel, build_geometric


def prob(dist, event):
    """Probability of ``event`` under ``dist``; 0 outside the support."""
    return sum(float(q) for ev, q in zip(dist.outcomes, dist.probs)
               if ev == event)


class TestEventDistribution:
    def test_pair_no_failures_is_uniform_over_four_clocks(self, pair_graph):
        dist = event_distribution(pair_graph,
                                  FailureModel.always_on(pair_graph),
                                  Variant.ALG)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for i in range(2):
            assert prob(dist, Event(EventKind.X_UPDATE, node=i)) == 0.25
        for a in range(pair_graph.num_arcs):
            assert prob(dist, Event(EventKind.Y_TRANSFER, arc=a)) == 0.25
        assert prob(dist, Event(EventKind.VOID)) == 0.0

    def test_pair_with_one_failing_arc_splits_mass(self, pair_graph):
        a01, a10 = pair_graph.arc_id[(0, 1)], pair_graph.arc_id[(1, 0)]
        failures = FailureModel(pair_graph, [0.5, 1.0])
        assert failures.p[a01] == 0.5 and failures.p[a10] == 1.0
        dist = event_distribution(pair_graph, failures, Variant.ALG)
        assert prob(dist, Event(EventKind.Y_TRANSFER, arc=a01)) == \
            pytest.approx(1 / 8)
        assert prob(dist, Event(EventKind.Y_TRANSFER, arc=a10)) == \
            pytest.approx(1 / 4)
        assert prob(dist, Event(EventKind.VOID)) == pytest.approx(1 / 8)

    def test_void_absent_without_failures(self, ring4_graph):
        dist = event_distribution(ring4_graph,
                                  FailureModel.always_on(ring4_graph),
                                  Variant.ALG)
        assert all(ev.kind is not EventKind.VOID for ev in dist.outcomes)
        assert np.all(dist.probs > 0)

    def test_probabilities_sum_to_one_with_failures(self):
        g = build_geometric(10, 0.5, seed=4)
        failures = FailureModel.from_distance(g, 0.5, 0.5)
        dist = event_distribution(g, failures, Variant.ALG)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert np.all(dist.probs > 0)

    def test_bg_distribution_has_no_void_outcome(self, ring4_graph):
        dist = event_distribution(ring4_graph,
                                  FailureModel.always_on(ring4_graph),
                                  Variant.ALBG)
        assert len(dist.outcomes) == ring4_graph.n
        assert all(ev.kind is EventKind.BG_UPDATE for ev in dist.outcomes)
        assert prob(dist, Event(EventKind.VOID)) == 0.0
        np.testing.assert_allclose(dist.probs, 0.25)

    def test_mg_tick_distribution_over_two_clocks_per_node(self, path3_graph):
        dist = event_distribution(path3_graph,
                                  FailureModel.uniform(path3_graph, 0.7),
                                  Variant.ALMG)
        assert len(dist.outcomes) == 2 * path3_graph.n
        np.testing.assert_allclose(dist.probs, 1 / 6)


class TestSampling:
    def test_degenerate_distribution_always_returns_outcome(self, rng):
        only = Event(EventKind.X_UPDATE, node=0)
        dist = EventDistribution((only,), [1.0])
        assert all(sample_event(dist, rng) == only for _ in range(50))

    def test_fixed_seed_gives_identical_sequences(self, ring4_graph):
        dist = event_distribution(ring4_graph,
                                  FailureModel.uniform(ring4_graph, 0.8),
                                  Variant.ALG)
        seq1 = [sample_event(dist, np.random.default_rng(3))
                for _ in range(1)]
        a = np.random.default_rng(99)
        b = np.random.default_rng(99)
        assert [sample_event(dist, a) for _ in range(200)] == \
            [sample_event(dist, b) for _ in range(200)]
        assert seq1  # sanity: sampling works at all

    def test_pair_frequencies_within_one_percent(self, pair_graph):
        dist = event_distribution(pair_graph,
                                  FailureModel.always_on(pair_graph),
                                  Variant.ALG)
        rng = np.random.default_rng(2024)
        counts = {ev: 0 for ev in dist.outcomes}
        n = 100_000
        for _ in range(n):
            counts[sample_event(dist, rng)] += 1
        for ev in dist.outcomes:
            assert abs(counts[ev] / n - 0.25) <= 0.01

    @pytest.mark.parametrize("seed,cfg", [
        (11, "always_on"), (12, "uniform"), (13, "distance"),
    ])
    def test_chi_square_goodness_of_fit(self, seed, cfg):
        g = build_geometric(6, 0.7, seed=seed)
        if cfg == "always_on":
            failures = FailureModel.always_on(g)
        elif cfg == "uniform":
            failures = FailureModel.uniform(g, 0.6)
        else:
            failures = FailureModel.from_distance(g, 0.7, 0.5)
        dist = event_distribution(g, failures, Variant.ALG)
        index = {ev: i for i, ev in enumerate(dist.outcomes)}
        counts = np.zeros(len(dist.outcomes))
        rng = np.random.default_rng(seed + 1000)
        n = 100_000
        for _ in range(n):
            counts[index[sample_event(dist, rng)]] += 1
        _, pvalue = chisquare(counts, dist.probs * n)
        assert pvalue > 0.01


class TestMultiNeighborSampling:
    def test_reliable_links_deliver_to_all_neighbors(self, path3_graph, rng):
        ev = sample_mg_event(1, path3_graph,
                             FailureModel.always_on(path3_graph), rng)
        assert ev.kind is EventKind.MG_BROADCAST
        assert ev.receivers == (path3_graph.arc_id[(1, 0)],
                                path3_graph.arc_id[(1, 2)])

    def test_empty_subset_maps_to_void_with_source_node(self, path3_graph):
        failures = FailureModel.uniform(path3_graph, 0.5)
        rng = np.random.default_rng(0)
        kinds = set()
        for _ in range(200):
            ev = sample_mg_event(1, path3_graph, failures, rng)
            kinds.add(ev.kind)
            if ev.kind is EventKind.VOID:
                assert ev.node == 1
        assert EventKind.VOID in kinds

    def test_subset_size_distribution_for_degree_two(self, path3_graph):
        # independent halves: P(0 hits) = P(2 hits) = 1/4, P(1 hit) = 1/2
        failures = FailureModel.uniform(path3_graph, 0.5)
        rng = np.random.default_rng(31)
        n = 40_000
        sizes = np.zeros(3)
        for _ in range(n):
            ev = sample_mg_event(1, path3_graph, failures, rng)
            sizes[0 if ev.kind is EventKind.VOID else len(ev.receivers)] += 1
        np.testing.assert_allclose(sizes / n, [0.25, 0.5, 0.25], atol=0.01)


class TestUniformStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1])
    def test_yields_successive_scalar_draws(self, seed):
        """Across three refills, the stream returns the doubles that scalar
        ``random()`` calls on an identically seeded generator return."""
        stream = UniformStream(np.random.default_rng(seed))
        scalar = np.random.default_rng(seed)
        draws = 3 * UniformStream.BLOCK + 5
        got = [stream.random() for _ in range(draws)]
        want = [scalar.random() for _ in range(draws)]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_samplers_draw_the_same_events_from_it(self):
        graph = build_geometric(8, 0.6, seed=3)
        failures = FailureModel.uniform(graph, 0.6)
        dist = event_distribution(graph, failures, Variant.ALMG)
        events = []
        for rng in (np.random.default_rng(5),
                    UniformStream(np.random.default_rng(5))):
            drawn = []
            for _ in range(3000):  # about 10,000 draws: two refills
                ev = sample_event(dist, rng)
                if ev.kind is EventKind.MG_BROADCAST:
                    ev = sample_mg_event(ev.node, graph, failures, rng)
                drawn.append(ev)
            events.append(drawn)
        assert events[0] == events[1]
