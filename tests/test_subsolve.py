import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from algossip.algo import PenaltySchedule, Variant, run_outer
from algossip.errors import DomainError
from algossip.graph import build_geometric
from algossip.problem import LogRegInstance, QuadConsensusInstance
from algossip.subsolve import (XSubproblem, solve_bg_block, solve_x_block,
                               y_closed_form_peredge)
from test_problem import gen_logreg, node_feasible, textbook_smooth_gradient


def block_objective(sub, x):
    """The node block's objective ``f_i(x) + linear^T x + (q/2)||x||^2``."""
    return (sub.problem.node_value(sub.node, x) + sub.linear @ x
            + 0.5 * sub.quad_weight * (x @ x))


def link_objective(y, x_i, y_ji, mu, lam, rho_lam, rho_mu, sign):
    """The link-block quadratic, written directly from its definition."""
    return (mu @ (x_i - y) + sign * (lam @ (y - y_ji))
            + 0.5 * rho_mu * np.sum((x_i - y) ** 2)
            + 0.5 * rho_lam * np.sum((y - y_ji) ** 2))


def parabola_vertex_minimizer(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign):
    """Independent numeric oracle: the objective is a separable quadratic in
    y, so each coordinate's minimizer is the vertex of the parabola through
    three sampled points."""
    m = len(x_i)
    out = np.zeros(m)
    h = 0.7137  # arbitrary sampling offset
    for c in range(m):
        def phi(s):
            y = np.zeros(m)
            y[c] = s
            # other coordinates contribute only additive constants
            return link_objective(y, x_i, y_ji, mu, lam, rho_lam, rho_mu,
                                  sign)
        lo, mid, hi = phi(-h), phi(0.0), phi(h)
        out[c] = h * (lo - hi) / (2.0 * (lo - 2.0 * mid + hi))
    return out


def link_minimizer(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign):
    """The link-block minimizer: the arc's weights times its operand with
    ``x_i`` and ``y_ji`` written in, as the slot kernel applies them."""
    weights, operand = y_closed_form_peredge(mu, lam, rho_lam, rho_mu, sign)
    operand[:2] = x_i, y_ji
    return weights.dot(operand)


def y_common_penalty(x_i, y_ji, mu, lam, rho, sign):
    """The link-block minimizer with one penalty on both constraints."""
    return link_minimizer(x_i, y_ji, mu, lam, rho, rho, sign)


class TestYClosedForm:
    def test_midpoint_with_zero_duals(self):
        y = y_common_penalty(np.array([2.0]), np.array([4.0]), np.zeros(1),
                             np.zeros(1), rho=1.0, sign=1)
        assert y == pytest.approx(3.0)

    def test_dual_offset_term(self):
        y = y_common_penalty(np.zeros(1), np.zeros(1), np.array([1.0]),
                             np.zeros(1), rho=0.5, sign=1)
        assert y == pytest.approx(1.0)

    def test_mixed_duals_case(self):
        y = y_common_penalty(np.array([1.0]), np.array([0.0]),
                             np.array([0.2]), np.array([0.4]), rho=1.0,
                             sign=1)
        assert y == pytest.approx(0.4)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(DomainError):
            y_common_penalty(np.zeros(1), np.zeros(1), np.zeros(1),
                             np.zeros(1), rho=0.0, sign=1)

    def test_matches_scipy_minimizer_spot_checks(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x_i, y_ji, mu, lam = rng.normal(size=(4, 1))
            rho = float(rng.uniform(0.2, 3.0))
            sign = int(rng.choice([-1, 1]))
            got = y_common_penalty(x_i, y_ji, mu, lam, rho, sign)
            ref = minimize_scalar(
                lambda s: link_objective(np.array([s]), x_i, y_ji, mu, lam,
                                         rho, rho, sign),
                bounds=(-50, 50), method="bounded",
                options={"xatol": 1e-12},
            ).x
            # the bounded solver itself is only accurate to ~1e-7 here
            assert got[0] == pytest.approx(ref, abs=1e-6)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(21)
        x_i, y_ji, mu, lam = rng.normal(size=(4, 3))
        rho, sign = 1.3, -1
        y = y_common_penalty(x_i, y_ji, mu, lam, rho, sign)
        base = link_objective(y, x_i, y_ji, mu, lam, rho, rho, sign)
        for _ in range(100):
            delta = rng.normal(size=3)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert link_objective(y + delta, x_i, y_ji, mu, lam, rho, rho,
                                  sign) > base


class TestYClosedFormPerEdge:
    def test_reduces_to_common_penalty_form(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x_i, y_ji, mu, lam = rng.normal(size=(4, 2))
            rho = float(rng.uniform(0.1, 5.0))
            sign = int(rng.choice([-1, 1]))
            a = link_minimizer(x_i, y_ji, mu, lam, rho, rho, sign)
            b = 0.5 * y_ji + 0.5 * x_i + (mu - sign * lam) / (2.0 * rho)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_bits_of_the_plain_formula(self):
        """Each arc's weights and operand hold the bits of the plain
        expressions for ``w_mu``, ``w_lam`` and ``c``, and zeros in the
        rows a delivery fills, whether the arc is built alone or stacked
        with others, for either sign given as a Python or a numpy int."""
        rng = np.random.default_rng(9)
        for _ in range(500):
            arcs, m = rng.integers(1, 5, size=2).tolist()
            mu, lam = rng.normal(size=(2, arcs, m)) * 10.0 ** \
                rng.integers(-8, 8, size=(2, arcs, 1))
            rho_lam, rho_mu = rng.uniform(0.01, 50.0, size=(2, arcs))
            sign = rng.choice(np.array([-1, 1]), size=arcs)
            weights, operands = y_closed_form_peredge(mu, lam, rho_lam,
                                                      rho_mu, sign)
            assert weights.shape == (arcs, 3)
            assert operands.shape == (arcs, 3, m)
            for a in range(arcs):
                denom = rho_lam[a] + rho_mu[a]
                want_w = np.array([rho_mu[a] / denom, rho_lam[a] / denom,
                                   1.0])
                want_op = np.zeros((3, m))
                want_op[2] = (mu[a] - sign[a] * lam[a]) / denom
                assert weights[a].tobytes() == want_w.tobytes()
                assert operands[a].tobytes() == want_op.tobytes()
                for s in (sign[a], int(sign[a])):
                    alone = y_closed_form_peredge(
                        mu[a], lam[a], float(rho_lam[a]), float(rho_mu[a]),
                        s)
                    assert alone[0].tobytes() == want_w.tobytes()
                    assert alone[1].tobytes() == want_op.tobytes()

    def test_inputs_are_not_written(self):
        mu, lam = np.array([[0.25, 0.0]]), np.array([[-1.0, 4.0]])
        rho_lam, rho_mu = np.array([2.0]), np.array([3.0])
        for sign in (np.array([1]), np.array([-1])):
            args = (mu, lam, rho_lam, rho_mu, sign)
            before = [a.copy() for a in args]
            y_closed_form_peredge(*args)
            for a, b in zip(args, before):
                np.testing.assert_array_equal(a, b)

    def test_weighted_average_with_zero_duals(self):
        y = link_minimizer(np.array([0.0]), np.array([4.0]), np.zeros(1),
                           np.zeros(1), rho_lam=3.0, rho_mu=1.0, sign=1)
        assert y == pytest.approx(3.0)  # (1*0 + 3*4) / 4

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            x_i, y_ji, mu, lam = rng.normal(size=(4, m))
            rho_lam = float(rng.uniform(0.05, 4.0))
            rho_mu = float(rng.uniform(0.05, 4.0))
            sign = int(rng.choice([-1, 1]))
            got = link_minimizer(x_i, y_ji, mu, lam, rho_lam, rho_mu, sign)
            ref = parabola_vertex_minimizer(x_i, y_ji, mu, lam, rho_lam,
                                            rho_mu, sign)
            np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_rejects_nonpositive_penalty_sum(self):
        with pytest.raises(DomainError):
            y_closed_form_peredge(np.zeros(1), np.zeros(1), rho_lam=0.0,
                                  rho_mu=0.0, sign=1)
        # one arc among several is enough
        with pytest.raises(DomainError):
            y_closed_form_peredge(np.zeros((3, 2)), np.zeros((3, 2)),
                                  np.array([1.0, 0.5, 2.0]),
                                  np.array([1.0, -0.5, 2.0]),
                                  np.array([1, -1, 1]))


def scalar_quad(target, lo=None, hi=None, weight=1.0):
    box = (None, None) if lo is None else ([[lo]], [[hi]])
    return QuadConsensusInstance([[target]], lo=box[0], hi=box[1],
                                 weights=[weight])


def small_logreg():
    """A one-node logreg block with a ball and intercept bound, and the
    generator that drew it."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(1, 4, 2))
    labels = np.where(rng.random((1, 4)) < 0.5, -1.0, 1.0)
    return LogRegInstance(features, labels, 0.3, [4.0], [2.0]), rng


def random_block(prob, i, q, broadcast, rng):
    """A random node block of weight ``q`` and the solver for it: the
    pairwise variants' (``solve_x_block``) or, with ``broadcast``, the
    broadcast variant's (``solve_bg_block``, with a random degree)."""
    if not broadcast:
        sub = XSubproblem(prob, i, rng.normal(size=prob.dim), q)
        return sub, lambda budget, tol, start: solve_x_block(sub, budget,
                                                             tol, start)
    degree = int(rng.integers(1, 7))
    rho = q / degree
    lam_bar, x_bar = rng.normal(size=(2, prob.dim))
    sub = XSubproblem(prob, i, lam_bar - rho * x_bar, rho * float(degree))
    return sub, lambda budget, tol, start: solve_bg_block(
        prob, i, lam_bar, x_bar, degree, rho, budget, tol, start)


def check_safeguarded(prob, sub, x, warm, kept):
    """The node solver's contract: a feasible fresh array no worse than the
    warm start, which is left as it was."""
    np.testing.assert_array_equal(warm, kept)
    assert not np.shares_memory(x, warm)
    assert node_feasible(prob, 0, x)
    assert block_objective(sub, x) <= block_objective(sub, warm)


class TestSolveXBlock:
    def test_unconstrained_stationary_point(self):
        # f(x) = (x-1)^2 with linear -2x and (2/2) x^2: stationarity 4x = 4
        prob = scalar_quad(1.0)
        sub = XSubproblem(prob, 0, np.array([-2.0]), 2.0)
        x = solve_x_block(sub, warm_start=np.array([0.0]))
        assert x == pytest.approx(1.0, abs=1e-12)

    def test_interval_constraint_clips_to_boundary(self):
        prob = scalar_quad(1.0, lo=-0.5, hi=0.5)
        sub = XSubproblem(prob, 0, np.array([-2.0]), 2.0)
        x = solve_x_block(sub, warm_start=np.array([0.0]))
        assert x == pytest.approx(0.5, abs=1e-12)

    def test_zero_objective_with_cancelling_linear_term(self):
        # f == 0 and c == 0 leaves pure ||x||^2 minimization
        prob = scalar_quad(0.0, lo=0.25, hi=2.0, weight=0.0)
        sub = XSubproblem(prob, 0, np.zeros(1), 2.0)
        x = solve_x_block(sub, warm_start=np.array([1.0]))
        assert x == pytest.approx(0.25, abs=1e-12)  # projection of zero

    def test_quadratic_matches_analytic_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=3)
            c = rng.normal(size=3)
            q = float(rng.uniform(0.1, 4.0))
            prob = QuadConsensusInstance([a])
            sub = XSubproblem(prob, 0, c, q)
            x = solve_x_block(sub, warm_start=a.copy())
            np.testing.assert_allclose(x, (2 * a - c) / (2 + q), atol=1e-10)

    def test_monotone_safeguard_on_inexact_solves(self):
        # Starts at a converged minimizer too: from there a few steps can
        # come out worse by rounding alone, which the safeguard must catch.
        prob, rng = small_logreg()
        for trial in range(25):
            q = 0.0 if trial % 5 == 0 else float(rng.uniform(0.0, 3.0))
            warm = prob.node_project(0, rng.normal(size=3))
            lam_bar, x_bar = rng.normal(size=(2, 3))
            degree = int(rng.integers(1, 4))
            rho = q / degree
            x_sub = XSubproblem(prob, 0, rng.normal(size=3), q)
            bg_sub = XSubproblem(prob, 0, lam_bar - rho * x_bar,
                                 rho * degree)

            def x_solve(budget, start, tol=None):
                return solve_x_block(x_sub, budget, tol, start)

            def bg_solve(budget, start, tol=None):
                return solve_bg_block(prob, 0, lam_bar, x_bar, degree, rho,
                                      budget, tol, start)

            for sub, solve in ((x_sub, x_solve), (bg_sub, bg_solve)):
                star = solve(500, warm, 0.0)
                for budget, start in itertools.product((1, 2, 7, 25),
                                                       (warm, star)):
                    kept = start.copy()
                    x = solve(budget, start)
                    check_safeguarded(prob, sub, x, start, kept)

    @pytest.mark.parametrize("budget", [1, 3, 50])
    def test_composite_solve_evaluates_objective_twice(self, budget,
                                                       monkeypatch):
        prob, rng = small_logreg()
        calls = []
        value = prob.node_value

        def counted(i, x):
            calls.append(i)
            return value(i, x)

        monkeypatch.setattr(prob, "node_value", counted)
        warm = prob.node_project(0, rng.normal(size=3))
        sub = XSubproblem(prob, 0, rng.normal(size=3), 1.5)
        solve_x_block(sub, inner_budget=budget, warm_start=warm)
        assert len(calls) == 2
        calls.clear()
        solve_bg_block(prob, 0, rng.normal(size=3), rng.normal(size=3), 2,
                       0.75, inner_budget=budget, warm_start=warm)
        assert len(calls) == 2

    def test_composite_solve_reaches_stationary_point(self):
        prob, rng = small_logreg()
        for q in (0.0, 0.4, 3.0):
            c = rng.normal(size=3)
            sub = XSubproblem(prob, 0, c, q)
            x = solve_x_block(sub, inner_budget=2000, inner_tol=1e-13,
                              warm_start=prob.node_project(
                                  0, rng.normal(size=3)))
            # x is a fixed point of the prox-gradient map
            step = 1.0 / (prob.node_smooth_lipschitz(0) + q)
            grad = textbook_smooth_gradient(prob, 0, x) + c + q * x
            np.testing.assert_allclose(
                prob.node_prox(0, x - step * grad, step), x, atol=1e-9)

    def test_strongly_convex_blocks_converge_at_the_vfista_rate(self):
        # Random blocks on the two desk instances' nodes, cold started at
        # the projected zero, as every node's first solve is. With
        # kappa = (lip + q)/q, V-FISTA guarantees F(x_k) - F* <= (1 -
        # 1/sqrt(kappa))^k (F(x_0) - F* + (q/2)||x_0 - x*||^2) (Beck,
        # First-Order Methods in Optimization, Theorem 10.42), also with
        # the ball and interval active. The desk instances' sets are loose
        # (their runs never reach them); the tight copies shrink them so
        # that most solutions sit on the ball or the interval bound.
        rng = np.random.default_rng(0)
        loose = [gen_logreg(10, 10, 5, 0.1, seed) for seed in (3, 6)]
        tight = [LogRegInstance(p.features, p.labels, p.lam_reg,
                                0.01 * p.ball_sq, 0.05 * p.v_bound)
                 for p in loose]
        for probs, broadcast in itertools.product((loose, tight),
                                                  (False, True)):
            active = 0
            for trial in range(30):
                prob = probs[trial % 2]
                i = int(rng.integers(prob.n_nodes))
                q = float(rng.uniform(0.5, 30.0))
                sub, solve = random_block(prob, i, q, broadcast, rng)
                x0 = prob.node_project(i, np.zeros(prob.dim))
                star = solve(2000, 0.0, x0)
                w = star[:-1]
                active += bool(
                    w.dot(w) >= (1 - 1e-9) * prob.ball_sq[i]
                    or abs(star[-1]) >= (1 - 1e-9) * prob.v_bound[i])
                f_star = block_objective(sub, star)
                rate = 1.0 - math.sqrt(
                    q / (prob.node_smooth_lipschitz(i) + q))
                d = x0 - star
                start_gap = (block_objective(sub, x0) - f_star
                             + 0.5 * q * d.dot(d))
                slack = 1e-14 * abs(f_star)  # rounding in the objectives
                for k in (1, 3, 10, 25):
                    gap = block_objective(sub, solve(k, None, x0)) - f_star
                    assert gap <= rate ** k * start_gap + slack
                # the run's settings: within 1e-12 of the long solve, or
                # of what the rate promises after 25 iterations when that
                # is more (kappa near 10 from far away)
                gap = block_objective(sub, solve(25, 1e-10, x0)) - f_star
                assert abs(gap) <= max(1e-12 * abs(f_star),
                                       rate ** 25 * start_gap + slack)
            if probs is tight:
                assert active >= 20

    def test_kept_block_solves_like_fresh_blocks(self):
        # A block kept across solves, as the slot kernel keeps it, rewrites
        # its linear term and rebinds when its quadratic weight changes; a
        # stale bound term would show as a difference in the bits
        prob = gen_logreg(10, 10, 5, 0.1, 6)
        rng = np.random.default_rng(5)
        for i in range(prob.n_nodes):
            x = prob.node_project(i, rng.normal(size=prob.dim))
            kept = XSubproblem(prob, i, np.zeros(prob.dim), 2.0,
                               prob.node_value(i, x))
            for q in (2.0, 2.0, 2.0, 7.5, 7.5):
                c = rng.normal(size=prob.dim)
                fresh = solve_x_block(XSubproblem(prob, i, c, q), 25, 1e-10,
                                      x)
                kept.linear, kept.quad_weight = c, q
                got = solve_x_block(kept, 25, 1e-10, x)
                assert got.tobytes() == fresh.tobytes()
                assert kept.value == prob.node_value(i, got)
                x = got
            # the broadcast solver, given the kept block
            lam_bar, x_bar = rng.normal(size=(2, prob.dim))
            for rho in (0.5, 0.5, 1.25):
                fresh = solve_bg_block(prob, i, lam_bar, x_bar, 3, rho, 25,
                                       1e-10, x)
                got = solve_bg_block(prob, i, lam_bar, x_bar, 3, rho, 25,
                                     1e-10, x, sub=kept)
                assert got.tobytes() == fresh.tobytes()
                assert kept.value == prob.node_value(i, got)
                x = got
                lam_bar = lam_bar + rng.normal(size=prob.dim)

    def test_zero_denominator_returns_the_warm_start(self, monkeypatch):
        # 2w + q = 0 only for a one-node network whose node has weight 0:
        # the block objective is constant on the box, so no solver runs
        prob = QuadConsensusInstance([[1.0]], lo=[[0.5]], hi=[[2.0]],
                                     weights=[0.0])
        warm = np.array([1.5])
        calls = []
        monkeypatch.setattr(prob, "node_value",
                            lambda i, x: calls.append(i) or 0.0)
        x = solve_x_block(XSubproblem(prob, 0, np.zeros(1), 0.0),
                          warm_start=warm)
        assert x.tolist() == [1.5] and not np.shares_memory(x, warm)
        assert calls == []
        monkeypatch.undo()
        log, state = run_outer(prob, build_geometric(1, 0.5, 0), Variant.ALG,
                               PenaltySchedule.fixed(1.0), t_outer=3,
                               k_inner=20, seed=0)
        assert state.x.tolist() == [[0.5]]  # the projected zero start
        assert log.rows[-1].k == 60 and log.rows[-1].flops == 0

    def test_optimal_warm_start_returned_unchanged(self):
        prob = scalar_quad(1.0)
        sub = XSubproblem(prob, 0, np.array([-2.0]), 2.0)
        x = solve_x_block(sub, warm_start=np.array([1.0]))
        assert x == pytest.approx(1.0, abs=1e-14)


class TestSolveBGBlock:
    def test_stationary_point(self):
        prob = scalar_quad(1.0)
        x = solve_bg_block(prob, 0, lam_bar=np.zeros(1),
                           x_bar=np.array([1.0]), degree=1, rho=2.0,
                           warm_start=np.array([0.0]))
        assert x == pytest.approx(1.0, abs=1e-12)

    def test_cancelling_linear_term_projects_zero(self):
        prob = scalar_quad(0.0, lo=0.5, hi=3.0, weight=0.0)
        x_bar = np.array([2.0])
        x = solve_bg_block(prob, 0, lam_bar=1.5 * x_bar, x_bar=x_bar,
                           degree=1, rho=1.5, warm_start=np.array([1.0]))
        assert x == pytest.approx(0.5, abs=1e-12)
