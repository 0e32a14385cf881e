import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from algossip.algo import FEAS_TOL, PenaltySchedule, Variant, run_outer
from algossip.baseline import run_ps
from algossip.graph import Supergraph
from algossip.problem import (LogRegInstance, ProblemInstance,
                              QuadConsensusInstance, draw_logreg, err_f,
                              fit_logreg, instance_text, load_instance)

# Frozen reference for the desk-scale classification instance
# (5 nodes, 5 features, 5 samples/node, noise 0.1, seed 1), computed with
# the accelerated proximal reference solver and stable across budgets.
DESK_LOGREG_FSTAR = 13.852393714373704


def gen_logreg(n_nodes, dim, samples_per_node, noise_var, seed,
               sparsity=0.6, ref_budget=20000, w_true=None, v_true=None):
    """A synthetic sparse-classification instance: the harness's
    ``draw_logreg`` then ``fit_logreg``, without its one-class check."""
    return fit_logreg(*draw_logreg(n_nodes, dim, samples_per_node,
                                   noise_var, seed, sparsity, w_true,
                                   v_true), ref_budget)


def global_value(inst, x):
    """The sum of the node objectives at ``x``, in node order."""
    return sum(inst.node_value(i, x) for i in range(inst.n_nodes))


def node_feasible(inst, i, x, tol=1e-9):
    """Whether ``x`` lies within ``tol`` of node ``i``'s set."""
    return bool(np.linalg.norm(inst.node_project(i, x) - x) <= tol)


def quad_two_nodes(**kw):
    return QuadConsensusInstance([[0.0], [2.0]], **kw)


class TestQuadConsensus:
    def test_global_value_is_plain_sum(self):
        inst = quad_two_nodes()
        assert inst.values(np.array([[1.0]])).sum() == pytest.approx(2.0)

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
        assert global_value(inst, x) == pytest.approx(f, abs=1e-15)

    def test_projection_is_clipping(self):
        inst = quad_two_nodes(lo=[[0.0], [0.0]], hi=[[1.0], [1.5]])
        assert inst.node_project(1, np.array([9.0])) == pytest.approx(1.5)
        assert inst.node_project(0, np.array([-3.0])) == pytest.approx(0.0)


class TestLogRegInstance:
    def test_zero_data_value_is_log_two_per_sample(self):
        inst = LogRegInstance(np.zeros((2, 3, 2)), np.ones((2, 3)), 0.0,
                              [1.0, 1.0], [1.0, 1.0])
        got = global_value(inst, np.zeros(3))
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
        inst = gen_logreg(4, 5, 4, 0.1, seed=1)  # 8 of 16 labels positive
        for _ in range(1000):
            i = int(rng.integers(inst.n_nodes))
            x = rng.normal(scale=2.0, size=inst.dim)
            y = rng.normal(scale=2.0, size=inst.dim)
            gap = (inst.node_value(i, y) - inst.node_value(i, x)
                   - textbook_subgradient(inst, i, x) @ (y - x))
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
            g = textbook_subgradient(inst, i, x)
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

    @pytest.mark.parametrize("noise_var", [-0.1, math.nan, math.inf])
    def test_bad_noise_variance_is_rejected_before_drawing(self, noise_var,
                                                           monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a random number")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="noise_var"):
            gen_logreg(3, 2, 4, noise_var, 0)

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
        assert inst.all_feasible(z[None], tol=1e-9)


def projected_subgradient(inst, budget, step_scale):
    """Best value of centralized projected subgradient (step
    ``step_scale / sqrt(k)``) on the sum of the node objectives, projecting
    onto the intersection of the node sets by cyclic projections. Slow and
    inexact, but independent of the accelerated reference solver."""
    def project(x):
        for _ in range(50):
            before = x
            for i in range(inst.n_nodes):
                x = inst.node_project(i, x)
            if np.linalg.norm(x - before) <= 1e-10:
                break
        return x

    x = project(np.zeros(inst.dim))
    best = global_value(inst, x)
    for k in range(1, budget + 1):
        g = sum(textbook_subgradient(inst, i, x) for i in range(inst.n_nodes))
        x = project(x - (step_scale / np.sqrt(k)) * g)
        best = min(best, global_value(inst, x))
    return best


class TestCentralizedOracle:
    def test_desk_logreg_agrees_with_frozen_reference(self):
        inst = gen_logreg(5, 5, 5, 0.1, seed=1)
        _, f_ref = inst.reference_solution(max_iter=20_000)
        assert f_ref == pytest.approx(DESK_LOGREG_FSTAR, abs=1e-9)
        _, f_ref2 = inst.reference_solution(max_iter=200_000)
        assert abs(f_ref - f_ref2) <= 1e-6  # stable across budgets
        f_sub = projected_subgradient(inst, 2_000, step_scale=0.05)
        assert f_sub == pytest.approx(DESK_LOGREG_FSTAR, abs=5e-2)
        assert f_sub >= DESK_LOGREG_FSTAR - 1e-9  # feasible upper bound


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
        assert global_value(inst, off) == pytest.approx(f + 2.0)
        assert err_f(inst, [x_star, off], f) == pytest.approx(1.0)


class TestSerialization:
    def test_quad_round_trip(self, tmp_path):
        inst = QuadConsensusInstance([[0.5, -1.0], [2.0, 0.25]],
                                     lo=[[-1, -2], [-1.5, -2]],
                                     hi=[[3, 4], [2.5, 4]],
                                     weights=[1.0, 0.5])
        path = tmp_path / "inst.txt"
        path.write_text(instance_text(inst))
        back = load_instance(path)
        np.testing.assert_array_equal(back.targets, inst.targets)
        np.testing.assert_array_equal(back.weights, inst.weights)
        np.testing.assert_array_equal(back.lo, inst.lo)
        np.testing.assert_array_equal(back.hi, inst.hi)
        assert instance_text(back) == instance_text(inst)

    def test_logreg_round_trip(self, tmp_path):
        inst = gen_logreg(3, 4, 2, 0.1, seed=6)  # 4 of 6 labels positive
        path = tmp_path / "inst.txt"
        path.write_text(instance_text(inst))
        back = load_instance(path)
        np.testing.assert_array_equal(back.features, inst.features)
        np.testing.assert_array_equal(back.labels, inst.labels)
        assert back.lam_reg == inst.lam_reg
        np.testing.assert_array_equal(back.ball_sq, inst.ball_sq)
        np.testing.assert_array_equal(back.v_bound, inst.v_bound)
        assert back.meta == inst.meta
        assert instance_text(back) == instance_text(inst)


# --------------------------------------------------------------------------
# The logistic-regression callbacks against their textbook expressions
# --------------------------------------------------------------------------
# The callbacks are written for speed on tiny arrays; these references are
# the plain formulas they replace, and the results must agree bit for bit.

def textbook_design(inst, i):
    ones = np.ones((inst.n_samples, 1))
    return inst.labels[i][:, None] * np.concatenate([inst.features[i], ones],
                                                    axis=1)


def textbook_value(inst, i, x):
    d = textbook_design(inst, i)
    return float(np.logaddexp(0.0, -(d @ x)).sum()
                 + (inst.lam_reg / inst.n_nodes) * np.abs(x[:-1]).sum())


def textbook_smooth_gradient(inst, i, x):
    d = textbook_design(inst, i)
    return -(d.T @ expit(-(d @ x)))


def textbook_subgradient(inst, i, x):
    if isinstance(inst, QuadConsensusInstance):
        return 2.0 * inst.weights[i] * (x - inst.targets[i])
    g = textbook_smooth_gradient(inst, i, x)
    g[:-1] += (inst.lam_reg / inst.n_nodes) * np.sign(x[:-1])
    return g


def textbook_project(inst, i, x):
    out = np.asarray(x, dtype=float).copy()
    w = out[:-1]
    nrm_sq = float(w @ w)
    if nrm_sq > inst.ball_sq[i]:
        out[:-1] = w * np.sqrt(inst.ball_sq[i] / nrm_sq)
    out[-1] = np.clip(out[-1], -inst.v_bound[i], inst.v_bound[i])
    return out


def textbook_prox(inst, i, u, step):
    # soft-thresholding in the Moreau form u - P_[-t, t](u), which gives
    # +0.0 for every weight inside [-t, t]
    out = np.asarray(u, dtype=float).copy()
    thr = step * inst.lam_reg / inst.n_nodes
    out[:-1] = out[:-1] - np.clip(out[:-1], -thr, thr)
    return textbook_project(inst, i, out)


def sparse_instance():
    """Sparse features (whole zero columns, so some products sum to an
    exact zero) and small radii, so projections are active."""
    rng = np.random.default_rng(31)
    features = rng.normal(size=(3, 4, 5))
    features[rng.random(features.shape) < 0.5] = 0.0
    features[1, :, 2] = 0.0
    labels = rng.choice([-1.0, 1.0], size=(3, 4))
    return LogRegInstance(features, labels, 0.7, ball_sq=[0.5, 2.0, 0.05],
                          v_bound=[0.3, 1.0, 0.1])


SPARSE = sparse_instance()
ENTRY = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0]))


@st.composite
def callback_inputs(draw):
    """Node, point, prox step and prox input: the point may lie in or
    outside the ball and interval and may have exact zeros of either sign;
    the prox input puts some weights exactly on the threshold."""
    i = draw(st.integers(0, SPARSE.n_nodes - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = np.array(draw(st.lists(ENTRY, min_size=SPARSE.dim,
                               max_size=SPARSE.dim))) * scale
    step = draw(st.floats(1e-3, 2.0))
    thr = step * SPARSE.lam_reg / SPARSE.n_nodes
    u = x.copy()
    kinks = draw(st.lists(st.sampled_from([None, thr, -thr]),
                          min_size=SPARSE.dim - 1, max_size=SPARSE.dim - 1))
    for c, kink in enumerate(kinks):
        if kink is not None:
            u[c] = kink
    return i, x, step, u


def same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLogRegCallbacksBitForBit:
    @settings(max_examples=300, deadline=None)
    @given(args=callback_inputs(), as_list=st.booleans())
    def test_callbacks_match_textbook_expressions(self, args, as_list):
        i, x, step, u = args
        neg, design_t = SPARSE.node_design(i)
        every_node = np.repeat([x], SPARSE.n_nodes, axis=0)
        if as_list:
            x, u = x.tolist(), u.tolist()
        pairs = [
            (SPARSE.node_value(i, x), textbook_value(SPARSE, i, x)),
            # the node solver's gradient of the smooth part
            (-design_t.dot(expit(neg.dot(x))),
             textbook_smooth_gradient(SPARSE, i, x)),
            (SPARSE.subgradients(every_node)[i],
             textbook_subgradient(SPARSE, i, every_node[i])),
            (SPARSE.node_project(i, x), textbook_project(SPARSE, i, x)),
            # node_prox writes the array it is given: hand it a copy
            (SPARSE.node_prox(i, np.array(u, dtype=float), step),
             textbook_prox(SPARSE, i, u, step)),
        ]
        for got, want in pairs:
            assert same_bits(got, want), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(args=callback_inputs())
    def test_callbacks_leave_input_alone_and_return_fresh_arrays(self, args):
        i, x, step, u = args
        before = x.copy()
        first, second = SPARSE.node_project(i, x), SPARSE.node_project(i, x)
        assert same_bits(x, before)
        for out in (first, second):
            assert not np.shares_memory(out, x)
        assert not np.shares_memory(first, second)
        SPARSE.node_value(i, x)
        assert same_bits(x, before)
        # the prox works in place: it writes the array it is given and
        # returns it, whether it computes the threshold or is given it
        thr = step * SPARSE.lam_reg / SPARSE.n_nodes
        for threshold in (None, (np.array(thr), np.array(-thr))):
            v = u.copy()
            assert SPARSE.node_prox(i, v, step, threshold) is v
            assert same_bits(v, textbook_prox(SPARSE, i, u, step))


# --------------------------------------------------------------------------
# Whole-network callbacks against the per-node ones
# --------------------------------------------------------------------------
# Checkpoints and the ps baseline evaluate every node at once; each entry
# must carry the bits of the per-node callback it replaces, and each
# subgradient those of the textbook expression.

NEAR_TOL = [0.0, 0.5 * FEAS_TOL, FEAS_TOL, FEAS_TOL * (1 - 1e-6),
            FEAS_TOL * (1 + 1e-6), 2 * FEAS_TOL, 1.0]


@st.composite
def network_instances(draw):
    """A logreg instance (sparse features, one sample per node allowed,
    l1 weight zero or not) or a quad instance with or without boxes and
    with a zero-weight node."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        samples, features = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        feats = rng.normal(size=(n, samples, features))
        feats[rng.random(feats.shape) < 0.4] = 0.0
        labels = rng.choice([-1.0, 1.0], size=(n, samples))
        return LogRegInstance(feats, labels,
                              draw(st.sampled_from([0.0, 0.7])),
                              ball_sq=rng.uniform(0.05, 4.0, n),
                              v_bound=rng.uniform(0.1, 2.0, n))
    dim = draw(st.integers(1, 4))
    weights = rng.uniform(0.5, 2.0, n)
    weights[draw(st.integers(0, n - 1))] = 0.0
    lo = hi = None
    if draw(st.booleans()):
        lo = rng.uniform(-2.0, 0.0, (n, dim))
        hi = lo + rng.uniform(0.0, 3.0, (n, dim))
    return QuadConsensusInstance(rng.normal(size=(n, dim)), lo=lo, hi=hi,
                                 weights=weights)


def boundary_points(inst, nudge):
    """Points on the boundary of the tightest node set, then pushed out
    by ``nudge``: on the ball and the interval for logreg, on the box
    corners for quad (for an unboxed quad, the targets)."""
    if isinstance(inst, QuadConsensusInstance):
        if inst.lo is None:
            return inst.targets + nudge
        return np.stack([inst.lo.max(axis=0) - nudge,
                         inst.hi.min(axis=0) + nudge])
    on_ball = np.zeros((3, inst.dim))
    radius = np.sqrt(inst.ball_sq.min())
    on_ball[0, 0] = radius + nudge
    on_ball[1, :-1] = (radius + nudge) / np.sqrt(inst.dim - 1)
    vmax = inst.v_bound.min()
    on_ball[2, -1] = -vmax - nudge
    return on_ball


@st.composite
def network_points(draw, inst, rows=None):
    """Estimates anywhere, with exact zeros of either sign (the l1
    kinks), at three scales."""
    rows = rows or draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    flat = draw(st.lists(ENTRY, min_size=rows * inst.dim,
                         max_size=rows * inst.dim))
    return np.array(flat).reshape(rows, inst.dim) * scale


def old_err_f(inst, xs, fstar):
    """err_f as it was: one global value per estimate."""
    return float(np.mean([global_value(inst, x) - fstar for x in xs]))


def old_all_feasible(inst, xs, tol):
    """all_feasible as it was: one node_feasible call per (estimate, node)."""
    return all(node_feasible(inst, i, x, tol)
               for x in xs for i in range(inst.n_nodes))


class TestWholeNetworkCallbacks:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_entry_matches_the_per_node_callback(self, data):
        inst = data.draw(network_instances())
        X = data.draw(network_points(inst))
        values = inst.values(X)
        distances = inst.set_distances(X)
        assert values.shape == distances.shape == (inst.n_nodes, len(X))
        for i in range(inst.n_nodes):
            for j, x in enumerate(X):
                assert same_bits(values[i, j], inst.node_value(i, x))
                assert same_bits(distances[i, j], np.linalg.norm(
                    inst.node_project(i, x) - x))
        X = data.draw(network_points(inst, rows=inst.n_nodes))
        before = X.copy()
        subgradients, projections = inst.subgradients(X), inst.project(X)
        assert same_bits(X, before)
        for out in (subgradients, projections):
            assert not np.shares_memory(out, X)
        for i, x in enumerate(X):
            assert same_bits(subgradients[i],
                             textbook_subgradient(inst, i, x))
            assert same_bits(projections[i], inst.node_project(i, x))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), fstar=st.floats(-50.0, 50.0))
    def test_err_f_matches_the_per_estimate_sum(self, data, fstar):
        inst = data.draw(network_instances())
        X = data.draw(network_points(inst))
        assert same_bits(err_f(inst, X, fstar), old_err_f(inst, X, fstar))
        assert same_bits(err_f(inst, list(X), fstar),
                         old_err_f(inst, X, fstar))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), nudge=st.sampled_from(NEAR_TOL),
           sign=st.sampled_from([1.0, -1.0]))
    def test_all_feasible_matches_the_per_node_loop(self, data, nudge, sign):
        inst = data.draw(network_instances())
        points = np.concatenate([boundary_points(inst, sign * nudge),
                                 data.draw(network_points(inst)),
                                 np.zeros((1, inst.dim))])
        for X in [points, *points[:, None]]:
            assert inst.all_feasible(X, FEAS_TOL) == \
                old_all_feasible(inst, X, FEAS_TOL)

    def test_boundary_and_tolerance_cases_are_decided_as_before(self):
        # the cases the property test may miss, stated once by hand
        box = QuadConsensusInstance([[0.0], [1.0]], lo=[[0.0], [-1.0]],
                                    hi=[[1.0], [2.0]])
        logreg = LogRegInstance(np.ones((1, 2, 2)), np.ones((1, 2)), 0.1,
                                ball_sq=[2.0], v_bound=[0.5])
        cases = [(box, [1.0], True), (box, [0.0], True),
                 (box, [-FEAS_TOL], True), (box, [-2 * FEAS_TOL], False),
                 (logreg, [1.0, 1.0, 0.5], True),
                 (logreg, [1.0, 1.0, 0.5 + FEAS_TOL], True),
                 (logreg, [1.0, 1.0, -0.5 - 2 * FEAS_TOL], False),
                 (logreg, [2.0, 0.0, 0.0], False)]
        for inst, x, want in cases:
            xs = np.array([x])
            assert inst.all_feasible(xs, FEAS_TOL) is want
            assert old_all_feasible(inst, xs, FEAS_TOL) is want

    @pytest.mark.parametrize("family", [QuadConsensusInstance,
                                        LogRegInstance])
    def test_no_family_overrides_the_checkpoint_seam(self, family):
        assert "all_feasible" not in vars(family)
        assert "values" in vars(family) and "set_distances" in vars(family)

    @pytest.mark.parametrize("runner", ["alg", "ps"])
    def test_checkpoints_call_all_feasible_once_per_row(self, runner,
                                                        monkeypatch):
        calls = []
        seam = ProblemInstance.all_feasible

        def counted(self, xs, tol=1e-9):
            calls.append(tol)
            return seam(self, xs, tol)

        monkeypatch.setattr(ProblemInstance, "all_feasible", counted)
        inst = gen_logreg(3, 2, 2, 0.1, seed=4, ref_budget=200)
        graph = Supergraph(3, [(0, 1), (1, 2)])
        if runner == "ps":
            log, _ = run_ps(inst, graph, None, alpha=1e-2, rounds=25,
                            seed=0, fstar=1.0, checkpoint_every=4)
        else:
            log, _ = run_outer(inst, graph, Variant.ALG,
                               PenaltySchedule.fixed(1.0), t_outer=2,
                               k_inner=30, seed=0, fstar=1.0,
                               checkpoint_every=7)
        assert len(log.rows) > 3
        assert calls == [FEAS_TOL] * len(log.rows)
