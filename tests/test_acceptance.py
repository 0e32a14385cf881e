"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
runtime budget and prints a PASS line (run with ``pytest -s`` to see them
as they complete). The heavy classification-instance runs share
module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from algossip.algo import (Counters, PenaltySchedule, Variant,
                           default_inner_events, dual_update_alg,
                           dual_update_bg, lagrangian_eval, make_state,
                           penalty_at, run_inner, run_outer)
from algossip.baseline import metropolis_weights, run_ps
from algossip.events import Variant as EV, event_distribution, \
    sample_event
from algossip.graph import FailureModel, build_geometric
from algossip.metrics import MetricsLog
from algossip.problem import QuadConsensusInstance
from algossip import harness

from test_problem import gen_logreg
from test_subsolve import link_minimizer


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# --------------------------------------------------------------------------
# Shared desk-scale material
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_graph():
    return build_geometric(10, 0.45, seed=7)


@pytest.fixture(scope="module")
def desk_static(desk_graph):
    inst = gen_logreg(10, 10, 5, 0.1, seed=3)
    _, fstar = inst.reference_solution(max_iter=100_000)
    return inst, fstar


@pytest.fixture(scope="module")
def desk_failing(desk_graph):
    inst = gen_logreg(10, 10, 5, 0.1, seed=6)
    _, fstar = inst.reference_solution(max_iter=100_000)
    failures = FailureModel.from_distance(desk_graph, 0.45, 0.5)
    return inst, fstar, failures


def box_quad_instance():
    rng = np.random.default_rng(1)
    targets = rng.normal(0.5, 1.0, (5, 1))
    return QuadConsensusInstance(targets, lo=np.full((5, 1), -0.25),
                                 hi=np.full((5, 1), 0.75))


# --------------------------------------------------------------------------
# 1. Inner descent invariant
# --------------------------------------------------------------------------

def _ring4():
    from algossip.graph import Supergraph

    return Supergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_acceptance_1_inner_descent():
    start = time.monotonic()
    ring = _ring4()
    rng0 = np.random.default_rng(0)
    inst = QuadConsensusInstance(rng0.normal(size=(4, 2)))
    events_per_algo = 10_000

    for variant, failures in (
        (Variant.ALG, FailureModel.always_on(ring)),
        (Variant.ALMG, FailureModel.uniform(ring, 0.7)),
        (Variant.ALBG, FailureModel.always_on(ring)),
    ):
        dist = event_distribution(ring, failures, variant)
        state = make_state(variant, inst, ring)
        rng = np.random.default_rng(42)
        counters = Counters()
        total = 0
        for t in range(4):
            rho = 1.0 + 0.5 * t
            pen = (rho if variant is Variant.ALBG
                   else np.full((2, ring.num_arcs), rho))
            values = [lagrangian_eval(state, pen)]
            run_inner(state, variant, ring, failures, dist, pen, rng,
                      counters, k_inner=events_per_algo // 4,
                      on_checkpoint=lambda: values.append(
                          lagrangian_eval(state, pen)),
                      checkpoint_every=1)
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12), \
                f"{variant.value}: ascent of {diffs.max()} within slot {t}"
            total += len(values) - 1
            if variant is Variant.ALBG:
                dual_update_bg(state, pen)
            else:
                dual_update_alg(state, pen)
        assert total >= events_per_algo
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"3 x {events_per_algo} exact inner events all descend "
              f"(<= 1e-12), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Closed forms vs numeric oracle
# --------------------------------------------------------------------------

def _link_objective(y, x_i, y_ji, mu, lam, rho_lam, rho_mu, sign):
    return (mu @ (x_i - y) + sign * (lam @ (y - y_ji))
            + 0.5 * rho_mu * np.sum((x_i - y) ** 2)
            + 0.5 * rho_lam * np.sum((y - y_ji) ** 2))


def _vertex_oracle(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign):
    # three-point parabola vertex per coordinate (the objective is a
    # separable quadratic), independent of the algebraic closed form
    m = len(x_i)
    out = np.zeros(m)
    h = 0.7137
    for c in range(m):
        def phi(s):
            y = np.zeros(m)
            y[c] = s
            return _link_objective(y, x_i, y_ji, mu, lam, rho_lam, rho_mu,
                                   sign)
        lo, mid, hi = phi(-h), phi(0.0), phi(h)
        out[c] = h * (lo - hi) / (2.0 * (lo - 2.0 * mid + hi))
    return out


def test_acceptance_2_closed_forms_match_numeric_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(1000):
        m = int(rng.integers(1, 4))
        x_i, y_ji, mu, lam = rng.normal(size=(4, m))
        sign = int(rng.choice([-1, 1]))
        if trial % 2 == 0:
            # a common penalty on both constraints
            rho = float(rng.uniform(0.05, 4.0))
            got = link_minimizer(x_i, y_ji, mu, lam, rho, rho, sign)
            ref = _vertex_oracle(x_i, y_ji, mu, lam, rho, rho, sign)
        else:
            rho_lam = float(rng.uniform(0.05, 4.0))
            rho_mu = float(rng.uniform(0.05, 4.0))
            got = link_minimizer(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign)
            ref = _vertex_oracle(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign)
        worst = max(worst, float(np.abs(got - ref).max()))
        assert worst <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"1000 random link blocks match the vertex oracle to "
              f"{worst:.1e} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 3. Oracle equivalence on small instances
# --------------------------------------------------------------------------

def test_acceptance_3_all_algorithms_reach_analytic_optimum():
    start = time.monotonic()
    graph = build_geometric(5, 0.7, seed=3)
    inst = box_quad_instance()
    x_star, f_star = inst.analytic_optimum()
    failures = FailureModel.from_distance(graph, 0.7, 0.5)
    sched = PenaltySchedule.fixed(5.0)
    cap = 10 * default_inner_events(graph)

    errs = []
    for seed in range(20):
        log, st = run_outer(inst, graph, Variant.ALG, sched, t_outer=25,
                            k_inner=cap, seed=seed, failures=failures,
                            fstar=f_star, checkpoint_every=0,
                            inner_stop_tol=1e-8)
        errs.append(log.rows[-1].err_f)
        assert np.isfinite(log.rows[-1].err_f)
        spread = np.linalg.norm(st.x - st.x.mean(axis=0), axis=1).max()
        assert spread < 1e-2  # no diverging seed
    assert max(errs) < 1e-4, f"pairwise gossip worst err {max(errs):.2e}"

    for seed in range(3):
        log, _ = run_outer(inst, graph, Variant.ALMG, sched, t_outer=25,
                           k_inner=cap, seed=seed, failures=failures,
                           fstar=f_star, checkpoint_every=0,
                           inner_stop_tol=1e-8)
        assert log.rows[-1].err_f < 1e-4

    log, _ = run_outer(inst, graph, Variant.ALBG, sched, t_outer=25,
                       k_inner=cap, seed=0, fstar=f_star,
                       checkpoint_every=0, inner_stop_tol=1e-8)
    assert log.rows[-1].err_f < 1e-4

    ps_log, _ = run_ps(inst, graph, failures, alpha=1.5e-3, rounds=40_000,
                       seed=0, fstar=f_star, checkpoint_every=4000)
    assert ps_log.rows[-1].err_f < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"20 pairwise seeds (worst {max(errs):.1e}), multi-neighbor, "
              f"broadcast and baseline all below 1e-4 ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 4. Dual consistency
# --------------------------------------------------------------------------

def test_acceptance_4_dual_copy_agreement_and_zero_sum():
    start = time.monotonic()
    ring = _ring4()
    inst = QuadConsensusInstance(np.linspace(-1, 2, 8).reshape(4, 2))
    failures = FailureModel.always_on(ring)

    # pairwise gossip: the two copies of every link dual stay together
    dist = event_distribution(ring, failures, Variant.ALG)
    state = make_state(Variant.ALG, inst, ring)
    pen = np.full((2, ring.num_arcs), 2.0)
    rng = np.random.default_rng(11)
    counters = Counters()
    worst_gap = 0.0
    for t in range(50):
        run_inner(state, Variant.ALG, ring, failures, dist, pen, rng,
                  counters, k_inner=500_000, stop_tol=1e-10)
        dual_update_alg(state, pen)
        gap = state.max_dual_gap()
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8, f"dual copy gap {gap:.2e} after update {t}"

    # broadcast variant: aggregated duals always sum to zero
    dist_bg = event_distribution(ring, failures, Variant.ALBG)
    state_bg = make_state(Variant.ALBG, inst, ring)
    rng = np.random.default_rng(12)
    worst_sum = 0.0
    for t in range(50):
        run_inner(state_bg, Variant.ALBG, ring, failures, dist_bg, 1.5, rng,
                  counters, k_inner=100_000, stop_tol=1e-10)
        dual_update_bg(state_bg, 1.5)
        s = float(np.abs(state_bg.lam_bar.sum(axis=0)).max())
        worst_sum = max(worst_sum, s)
        assert s <= 1e-10
    elapsed = time.monotonic() - start
    report(4, f"50 outer updates: worst copy gap {worst_gap:.1e} <= 1e-8, "
              f"worst aggregated-dual sum {worst_sum:.1e} <= 1e-10 "
              f"({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 5. Desk-scale static comparison: broadcast gossip vs the baseline
# --------------------------------------------------------------------------

def test_acceptance_5_broadcast_beats_baseline_on_transmissions(
        desk_graph, desk_static):
    start = time.monotonic()
    inst, fstar = desk_static
    threshold = 1e-3

    crossings = []
    for seed in range(5):
        log, _ = run_outer(inst, desk_graph, Variant.ALBG,
                           PenaltySchedule.fixed(5.0), t_outer=25,
                           k_inner=100, seed=seed, fstar=fstar,
                           checkpoint_every=20, inner_budget=25,
                           inner_tol=1e-10)
        assert log.rows[-1].err_f <= threshold
        row = log.first_crossing(threshold)
        assert row is not None
        crossings.append(row.transmissions)
    tx_albg = float(np.median(crossings))

    # the baseline gets a step-size sweep and a generous budget; count its
    # transmissions to the same threshold (or a lower bound when it never
    # gets there)
    ps_rounds = 120_000
    tx_per_round = 2 * desk_graph.num_edges
    tx_ps = None
    for alpha in (1e-4, 2e-5):
        log, _ = run_ps(inst, desk_graph, None, alpha, ps_rounds, seed=0,
                        fstar=fstar, checkpoint_every=500)
        row = log.first_crossing(threshold)
        if row is not None:
            tx_ps = row.transmissions
            break
    bounded = tx_ps is None
    if bounded:
        tx_ps = ps_rounds * tx_per_round  # never crossed within budget
    ratio = tx_ps / tx_albg
    assert ratio >= 3.0, f"transmission ratio {ratio:.1f} < 3"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, f"broadcast gossip crosses {threshold:g} at median "
              f"{tx_albg:.0f} transmissions; baseline needs "
              f"{'>' if bounded else ''}{tx_ps} "
              f"(ratio {'>' if bounded else ''}{ratio:.0f}x, {elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 6. Desk-scale random-network runs
# --------------------------------------------------------------------------

def test_acceptance_6_gossip_variants_converge_under_failures(
        desk_graph, desk_failing):
    start = time.monotonic()
    inst, fstar, failures = desk_failing
    cap = 200 * default_inner_events(desk_graph)
    for variant, t_outer in ((Variant.ALG, 25), (Variant.ALMG, 20)):
        log, _ = run_outer(inst, desk_graph, variant,
                           PenaltySchedule.fixed(5.0), t_outer=t_outer,
                           k_inner=cap, seed=0, failures=failures,
                           fstar=fstar, checkpoint_every=2000,
                           inner_budget=25, inner_tol=1e-10,
                           inner_stop_tol=1e-6)
        final = log.rows[-1].err_f
        assert final <= 5e-3, f"{variant.value} err {final:.2e}"
        assert all(r.feasible for r in log.rows), \
            f"{variant.value}: infeasible checkpoint"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(6, f"pairwise and multi-neighbor gossip converge below 5e-3 "
              f"under asymmetric failures, feasible at every checkpoint "
              f"({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 7. Event-model distribution
# --------------------------------------------------------------------------

def test_acceptance_7_event_distribution_chi_square():
    start = time.monotonic()
    configs = []
    g1 = build_geometric(6, 0.7, seed=11)
    configs.append((g1, FailureModel.always_on(g1), 111))
    g2 = build_geometric(6, 0.7, seed=12)
    configs.append((g2, FailureModel.uniform(g2, 0.6), 222))
    g3 = build_geometric(8, 0.6, seed=13)
    configs.append((g3, FailureModel.from_distance(g3, 0.6, 0.5), 333))

    pvalues = []
    for graph, failures, seed in configs:
        dist = event_distribution(graph, failures, Variant.ALG)
        index = {ev: i for i, ev in enumerate(dist.outcomes)}
        counts = np.zeros(len(dist.outcomes))
        rng = np.random.default_rng(seed)
        n = 100_000
        for _ in range(n):
            counts[index[sample_event(dist, rng)]] += 1
        _, pvalue = chisquare(counts, dist.probs * n)
        pvalues.append(pvalue)
        assert pvalue > 0.01
    elapsed = time.monotonic() - start
    report(7, f"chi-square p-values {[f'{p:.3f}' for p in pvalues]} all "
              f"above 0.01 ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 8. Metropolis matrix properties
# --------------------------------------------------------------------------

def test_acceptance_8_metropolis_matrices():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        w = metropolis_weights(n, edges)
        assert np.all(w >= -1e-12)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    elapsed = time.monotonic() - start
    report(8, f"100 realized graphs: symmetric, doubly stochastic, "
              f"nonnegative to 1e-12 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 9. Determinism through the harness
# --------------------------------------------------------------------------

DETERMINISM_CONFIG = """
[problem]
kind = quad
nodes = 5
dim = 2
seed = 4
spread = 1.5

[graph]
radius = 0.8
seed = 6
failures = uniform
failure_p = 0.8

[algo]
name = alg
schedule = power
schedule_params = 1.3,1

[run]
t_outer = 6
k_inner = 300
seed = 3
checkpoint = 100
fstar = auto
"""


def test_acceptance_9_identical_config_identical_bytes(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(DETERMINISM_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    harness.run(str(cfg), out_dir=str(out1))
    harness.run(str(cfg), out_dir=str(out2))
    b1 = (out1 / "det_trace.csv").read_bytes()
    b2 = (out2 / "det_trace.csv").read_bytes()
    assert b1 == b2
    assert len(MetricsLog.from_csv(out1 / "det_trace.csv").rows) > 1
    elapsed = time.monotonic() - start
    report(9, f"two runs of the same config+seed wrote byte-identical "
              f"traces ({len(b1)} bytes, {elapsed:.1f}s)")
