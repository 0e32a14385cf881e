import numpy as np
import pytest

from algossip.errors import NonConvergence
from algossip.problem import (LogRegInstance, QuadConsensusInstance,
                              centralized_oracle, err_f, gen_logreg,
                              instance_text, load_instance, save_instance)

# Frozen reference for the desk-scale classification instance
# (5 nodes, 5 features, 5 samples/node, noise 0.1, seed 1), computed with
# the accelerated proximal reference solver and stable across budgets.
DESK_LOGREG_FSTAR = 13.852393714373704


def quad_two_nodes(**kw):
    return QuadConsensusInstance([[0.0], [2.0]], **kw)


class TestQuadConsensus:
    def test_global_value_is_plain_sum(self):
        inst = quad_two_nodes()
        assert inst.global_value(np.array([1.0])) == pytest.approx(2.0)

    def test_unconstrained_optimum_is_mean(self):
        x, f = quad_two_nodes().analytic_optimum()
        assert x == pytest.approx(1.0)
        assert f == pytest.approx(2.0)

    def test_box_constrained_optimum_clips_mean(self):
        inst = quad_two_nodes(lo=[[2.0], [2.0]], hi=[[3.0], [3.0]])
        x, f = inst.analytic_optimum()
        assert x == pytest.approx(2.0)
        assert f == pytest.approx(4.0)

    def test_value_at_optimum_matches_fstar(self):
        inst = quad_two_nodes()
        x, f = inst.analytic_optimum()
        assert inst.global_value(x) == pytest.approx(f, abs=1e-15)

    def test_projection_is_clipping(self):
        inst = quad_two_nodes(lo=[[0.0], [0.0]], hi=[[1.0], [1.5]])
        assert inst.node_project(1, np.array([9.0])) == pytest.approx(1.5)
        assert inst.node_project(0, np.array([-3.0])) == pytest.approx(0.0)


class TestLogRegInstance:
    def test_zero_data_value_is_log_two_per_sample(self):
        inst = LogRegInstance(np.zeros((2, 3, 2)), np.ones((2, 3)), 0.0,
                              [1.0, 1.0], [1.0, 1.0])
        got = inst.global_value(np.zeros(3))
        assert got == pytest.approx(2 * 3 * np.log(2))

    def test_labels_are_validated(self):
        with pytest.raises(ValueError):
            LogRegInstance(np.zeros((1, 2, 2)), np.zeros((1, 2)), 0.1,
                           [1.0], [1.0])

    def test_projection_ball_and_interval_are_independent(self):
        inst = LogRegInstance(np.zeros((1, 1, 2)), np.ones((1, 1)), 0.1,
                              [4.0], [0.5])
        z = inst.node_project(0, np.array([3.0, 4.0, 9.0]))
        assert float(z[:2] @ z[:2]) == pytest.approx(4.0)
        assert z[2] == pytest.approx(0.5)
        np.testing.assert_allclose(z[:2] / np.linalg.norm(z[:2]),
                                   np.array([3.0, 4.0]) / 5.0)

    def test_projector_idempotent(self):
        rng = np.random.default_rng(6)
        inst = gen_logreg(3, 4, 3, 0.1, seed=9)
        for _ in range(100):
            z = rng.normal(scale=3.0, size=inst.dim)
            once = inst.node_project(1, z)
            twice = inst.node_project(1, once)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_projector_nonexpansive_toward_feasible_points(self):
        rng = np.random.default_rng(16)
        inst = gen_logreg(3, 4, 3, 0.1, seed=9)
        for _ in range(50):
            probe = rng.normal(scale=3.0, size=inst.dim)
            inside = inst.node_project(0, rng.normal(size=inst.dim))
            proj = inst.node_project(0, probe)
            assert (np.linalg.norm(proj - inside)
                    <= np.linalg.norm(probe - inside) + 1e-12)

    def test_subgradient_inequality_on_random_pairs(self):
        rng = np.random.default_rng(2)
        inst = gen_logreg(4, 5, 4, 0.1, seed=3)
        for _ in range(1000):
            i = int(rng.integers(inst.n_nodes))
            x = rng.normal(scale=2.0, size=inst.dim)
            y = rng.normal(scale=2.0, size=inst.dim)
            gap = (inst.node_value(i, y) - inst.node_value(i, x)
                   - inst.node_subgradient(i, x) @ (y - x))
            assert gap >= -1e-9

    def test_midpoint_convexity_spot_checks(self):
        rng = np.random.default_rng(77)
        quad = QuadConsensusInstance(rng.normal(size=(3, 2)))
        logreg = gen_logreg(3, 4, 4, 0.1, seed=21)
        for inst in (quad, logreg):
            for _ in range(200):
                i = int(rng.integers(inst.n_nodes))
                x = rng.normal(scale=2.0, size=inst.dim)
                y = rng.normal(scale=2.0, size=inst.dim)
                mid = inst.node_value(i, 0.5 * (x + y))
                avg = 0.5 * (inst.node_value(i, x) + inst.node_value(i, y))
                assert mid <= avg + 1e-10

    def test_growth_along_random_rays(self):
        # coercive in the directions that matter: quadratic objectives grow
        # everywhere; the classification objective grows in any weight
        # direction through its l1 term (the offset is boxed by the
        # constraint set)
        rng = np.random.default_rng(78)
        quad = QuadConsensusInstance(rng.normal(size=(3, 2)))
        for _ in range(50):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            vals = [quad.node_value(0, t * d) for t in (10.0, 100.0, 1000.0)]
            assert vals[0] < vals[1] < vals[2]
        logreg = gen_logreg(3, 4, 4, 0.1, seed=21)
        for _ in range(50):
            d = np.zeros(logreg.dim)
            d[:-1] = rng.normal(size=logreg.dim - 1)
            d /= np.linalg.norm(d)
            vals = [logreg.node_value(0, t * d) for t in (10.0, 100.0, 1000.0)]
            assert vals[0] < vals[1] < vals[2]

    def test_gradient_matches_finite_differences_off_the_kink(self):
        rng = np.random.default_rng(14)
        inst = gen_logreg(3, 4, 5, 0.1, seed=8)
        h = 1e-6
        for _ in range(25):
            i = int(rng.integers(inst.n_nodes))
            x = rng.normal(size=inst.dim)
            x[:-1][np.abs(x[:-1]) < 0.1] = 0.25  # stay away from |w|=0
            g = inst.node_subgradient(i, x)
            for c in range(inst.dim):
                e = np.zeros(inst.dim)
                e[c] = h
                fd = (inst.node_value(i, x + e)
                      - inst.node_value(i, x - e)) / (2 * h)
                assert g[c] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestGenLogReg:
    def test_constant_positive_score_gives_all_positive_labels(self):
        inst = gen_logreg(3, 4, 5, noise_var=0.0, seed=0,
                          w_true=np.zeros(4), v_true=1.0)
        assert np.all(inst.labels == 1.0)

    def test_fixed_seed_reproduces_instance(self):
        a = gen_logreg(4, 6, 5, 0.1, seed=11)
        b = gen_logreg(4, 6, 5, 0.1, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.lam_reg == b.lam_reg
        np.testing.assert_array_equal(a.ball_sq, b.ball_sq)
        np.testing.assert_array_equal(a.v_bound, b.v_bound)

    def test_experiment_shaped_instance(self):
        inst = gen_logreg(20, 20, 5, 0.1, seed=42)
        assert inst.features.shape == (20, 5, 20)
        assert inst.dim == 21
        assert np.all(np.isin(inst.labels, (-1.0, 1.0)))
        assert np.all(inst.ball_sq > 0) and np.all(inst.v_bound > 0)
        zero_frac = float((inst.features == 0).mean())
        assert 0.5 <= zero_frac <= 0.7  # about 60 percent sparse
        assert inst.lam_reg == pytest.approx(0.5 * inst.meta["lambda_max"])

    def test_reference_point_is_interior(self):
        inst = gen_logreg(5, 5, 5, 0.1, seed=1)
        z, _ = inst.reference_solution()
        # radii were inflated around the unconstrained solve
        assert inst.is_feasible(z, tol=1e-9)


class TestCentralizedOracle:
    def test_unconstrained_quadratic(self):
        x, f = centralized_oracle(quad_two_nodes(), 10_000, step_scale=0.1)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert f == pytest.approx(2.0, abs=1e-10)

    def test_box_constrained_quadratic(self):
        inst = quad_two_nodes(lo=[[2.0], [2.0]], hi=[[3.0], [3.0]])
        x, f = centralized_oracle(inst, 10_000, step_scale=0.1)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert f == pytest.approx(4.0, abs=1e-8)

    def test_desk_logreg_agrees_with_frozen_reference(self):
        inst = gen_logreg(5, 5, 5, 0.1, seed=1)
        _, f_ref = inst.reference_solution(max_iter=20_000)
        assert f_ref == pytest.approx(DESK_LOGREG_FSTAR, abs=1e-9)
        _, f_ref2 = inst.reference_solution(max_iter=200_000)
        assert abs(f_ref - f_ref2) <= 1e-6  # stable across budgets
        with pytest.warns(NonConvergence):
            _, f_sub = centralized_oracle(inst, 2_000, step_scale=0.05)
        assert f_sub == pytest.approx(DESK_LOGREG_FSTAR, abs=5e-2)
        assert f_sub >= DESK_LOGREG_FSTAR - 1e-9  # feasible upper bound

    def test_best_value_sequence_reported(self):
        # the oracle returns the best iterate, never worse than the start;
        # a short budget legitimately warns about unfinished progress
        inst = quad_two_nodes()
        x0 = inst.project_intersection(np.zeros(1))
        with pytest.warns(NonConvergence):
            _, f = centralized_oracle(inst, 50, step_scale=0.1)
        assert f <= inst.global_value(x0)


class TestErrF:
    def test_zero_at_optimum(self):
        inst = quad_two_nodes()
        x, f = inst.analytic_optimum()
        assert err_f(inst, [x, x], f) == pytest.approx(0.0)

    def test_hand_computed_gap(self):
        inst = quad_two_nodes()
        assert err_f(inst, [np.zeros(1), np.zeros(1)], 2.0) == \
            pytest.approx(2.0)

    def test_mixed_estimates_average(self):
        inst = quad_two_nodes()
        x_star, f = inst.analytic_optimum()
        # one node at the optimum, one at cost f* + 2
        off = np.array([1.0 + np.sqrt(2) / np.sqrt(2)])  # cost 2 above f*
        assert inst.global_value(off) == pytest.approx(f + 2.0)
        assert err_f(inst, [x_star, off], f) == pytest.approx(1.0)


class TestSerialization:
    def test_quad_round_trip(self, tmp_path):
        inst = QuadConsensusInstance([[0.5, -1.0], [2.0, 0.25]],
                                     lo=[[-1, -2], [-1.5, -2]],
                                     hi=[[3, 4], [2.5, 4]],
                                     weights=[1.0, 0.5])
        path = tmp_path / "inst.txt"
        save_instance(path, inst)
        back = load_instance(path)
        np.testing.assert_array_equal(back.targets, inst.targets)
        np.testing.assert_array_equal(back.weights, inst.weights)
        np.testing.assert_array_equal(back.lo, inst.lo)
        np.testing.assert_array_equal(back.hi, inst.hi)
        assert instance_text(back) == instance_text(inst)

    def test_logreg_round_trip(self, tmp_path):
        inst = gen_logreg(3, 4, 2, 0.1, seed=5)
        path = tmp_path / "inst.txt"
        save_instance(path, inst)
        back = load_instance(path)
        np.testing.assert_array_equal(back.features, inst.features)
        np.testing.assert_array_equal(back.labels, inst.labels)
        assert back.lam_reg == inst.lam_reg
        np.testing.assert_array_equal(back.ball_sq, inst.ball_sq)
        np.testing.assert_array_equal(back.v_bound, inst.v_bound)
        assert back.meta == inst.meta
        assert instance_text(back) == instance_text(inst)
