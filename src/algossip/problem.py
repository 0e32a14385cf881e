"""Problem abstraction and concrete instances.

A problem is a sum of private convex node objectives, each with a private
closed convex constraint set, accessed only through per-node value,
subgradient, and projection callbacks. Two families are provided: an
l1-regularized logistic-regression instance (stacked weight/offset variable,
ball and interval constraints) and a quadratic-consensus instance whose
optimum is available in closed form, used as the desk-scale oracle.
"""

from __future__ import annotations

import abc
import json
import math
from typing import Sequence

import numpy as np
from scipy.special import expit

from .metrics import write_atomic


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _row_dots(D: np.ndarray) -> np.ndarray:
    """``d @ d`` for every row ``d`` along the last axis of ``D``.

    A stacked (1 x m) @ (m x 1) matmul makes the same BLAS dot call per row
    as ``d @ d`` or ``d.dot(d)`` on a contiguous 1-D row, so every entry has
    the same bits; a reduction such as ``(D * D).sum(-1)`` may round
    differently, and so does the BLAS dot of a strided row.
    """
    D = np.ascontiguousarray(D)
    return np.matmul(D[..., None, :], D[..., :, None])[..., 0, 0]


class ProblemInstance(abc.ABC):
    """Sum-of-private-objectives problem over a common decision vector.

    Subclasses expose the node objective ``f_i``, a subgradient of it, the
    Euclidean projection onto the node's constraint set, and the flop
    estimates ``value_flops(i)`` and ``subgrad_flops(i)`` of the first two.
    Instances are immutable after construction and all callbacks are pure.

    The node solver uses ``quad_coeff`` of a ``quadratic`` family (a closed
    form) and otherwise the composite callbacks ``node_smooth_gradient``,
    ``node_smooth_lipschitz`` and ``node_prox`` (accelerated proximal
    gradient), which return fresh arrays that it keeps without copying.

    Checkpoint metrics and the synchronous baseline call whole-network
    callbacks on a 2-D array ``X`` of estimates instead:

    * ``values(X)``: the ``(n_nodes, len(X))`` matrix of ``f_i(X[j])``;
    * ``set_distances(X)``: the ``(n_nodes, len(X))`` matrix of
      ``||P_i(X[j]) - X[j]||``, the distance of every row to every node set;
    * ``subgradients(X)`` and ``project(X)``: ``len(X) == n_nodes`` and row
      ``i`` is evaluated at node ``i``, in fresh arrays.

    Each entry must equal the per-node callback (and ``np.linalg.norm`` of
    the projection step) bit for bit, so that a seeded trace does not
    depend on which form computed it.
    """

    dim: int
    n_nodes: int
    quadratic: bool = False

    @abc.abstractmethod
    def node_value(self, i: int, x: np.ndarray) -> float:
        """Evaluate f_i(x)."""

    @abc.abstractmethod
    def node_subgradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """A subgradient of f_i at x."""

    @abc.abstractmethod
    def node_project(self, i: int, x: np.ndarray) -> np.ndarray:
        """Euclidean projection of x onto the node's constraint set."""

    @abc.abstractmethod
    def values(self, X: np.ndarray) -> np.ndarray:
        """The matrix of f_i at every row of X, one row per node."""

    @abc.abstractmethod
    def set_distances(self, X: np.ndarray) -> np.ndarray:
        """Distance of every row of X to every node set, one row per node."""

    @abc.abstractmethod
    def subgradients(self, X: np.ndarray) -> np.ndarray:
        """Row i: a subgradient of f_i at X[i]."""

    @abc.abstractmethod
    def project(self, X: np.ndarray) -> np.ndarray:
        """Row i: the projection of X[i] onto node i's set."""

    def global_value(self, x: np.ndarray) -> float:
        return sum(self.node_value(i, x) for i in range(self.n_nodes))

    def node_feasible(self, i: int, x: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(self.node_project(i, x) - x) <= tol)

    def all_feasible(self, xs: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether every row of ``xs`` lies within ``tol`` of every node
        set."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return bool((self.set_distances(xs) <= tol).all())


class QuadConsensusInstance(ProblemInstance):
    """Per-node squared-distance objectives ``w_i * ||x - a_i||^2``.

    With no boxes the unique optimum is the weighted mean of the targets;
    with per-node boxes the optimum is that mean clipped to the (common)
    intersection, coordinate by coordinate, because the Hessian is isotropic
    and the boxes are separable. ``weights`` default to 1; a zero weight
    makes the node objective identically zero.
    """

    quadratic = True

    def __init__(self, targets, lo=None, hi=None, weights=None):
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        self.targets = targets
        self.n_nodes, self.dim = targets.shape
        if weights is None:
            weights = np.ones(self.n_nodes)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (self.n_nodes,) or np.any(self.weights < 0):
            raise ValueError("weights must be one nonnegative value per node")
        self.lo = None if lo is None else np.broadcast_to(
            np.asarray(lo, dtype=float), targets.shape).copy()
        self.hi = None if hi is None else np.broadcast_to(
            np.asarray(hi, dtype=float), targets.shape).copy()
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must be given together")
        if self.lo is not None and np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    def node_value(self, i, x):
        d = x - self.targets[i]
        return float(self.weights[i] * (d @ d))

    def node_subgradient(self, i, x):
        return 2.0 * self.weights[i] * (x - self.targets[i])

    def node_project(self, i, x):
        if self.lo is None:
            return np.asarray(x, dtype=float)
        return np.clip(x, self.lo[i], self.hi[i])

    def values(self, X):
        return self.weights[:, None] * _row_dots(X - self.targets[:, None])

    def set_distances(self, X):
        if self.lo is None:
            proj = np.broadcast_to(X, (self.n_nodes, *X.shape))
        else:
            proj = np.clip(X, self.lo[:, None], self.hi[:, None])
        return np.sqrt(_row_dots(proj - X))

    def subgradients(self, X):
        return (2.0 * self.weights)[:, None] * (X - self.targets)

    def project(self, X):
        if self.lo is None:
            return np.array(X, dtype=float)
        return np.clip(X, self.lo, self.hi)

    def quad_coeff(self, i: int) -> tuple[float, np.ndarray]:
        """Coefficients (w, a) of the node objective ``w*||x - a||^2``."""
        return float(self.weights[i]), self.targets[i]

    def analytic_optimum(self) -> tuple[np.ndarray, float]:
        """Closed-form solution: weighted target mean clipped to the
        intersection of the boxes."""
        wsum = self.weights.sum()
        if wsum <= 0:
            raise ValueError("analytic optimum undefined for all-zero weights")
        x = (self.weights @ self.targets) / wsum
        if self.lo is not None:
            lo = self.lo.max(axis=0)
            hi = self.hi.min(axis=0)
            if np.any(lo > hi):
                raise ValueError("box constraints have empty intersection")
            x = np.clip(x, lo, hi)
        return x, self.global_value(x)

    def value_flops(self, i):
        return 3 * self.dim

    def subgrad_flops(self, i):
        return 2 * self.dim


class LogRegInstance(ProblemInstance):
    """Sparse linear classification split across nodes.

    Node ``i`` holds samples ``(a_ij, b_ij)`` and the objective

        f_i(w, v) = sum_j log(1 + exp(-b_ij (a_ij^T w + v)))
                    + (lam_reg / N) ||w||_1,

    over the stacked variable ``x = (w, v)`` of dimension ``n_features + 1``.
    The global l1 penalty is split evenly across nodes so that the node sum
    reproduces it exactly while every node objective stays convex and
    coercive. Constraints are the ball ``w^T w <= ball_sq[i]`` and the
    interval ``|v| <= v_bound[i]``, projected independently (the set is their
    Cartesian product).
    """

    def __init__(self, features, labels, lam_reg, ball_sq, v_bound, meta=None):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 3:
            raise ValueError("features must have shape (nodes, samples, dim)")
        if labels.shape != features.shape[:2]:
            raise ValueError("labels must have shape (nodes, samples)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.features = features
        self.labels = labels
        self.n_nodes, self.n_samples, self.n_features = features.shape
        self.dim = self.n_features + 1
        self.lam_reg = float(lam_reg)
        if self.lam_reg < 0:
            raise ValueError("lam_reg must be nonnegative")
        self.ball_sq = np.asarray(ball_sq, dtype=float)
        self.v_bound = np.asarray(v_bound, dtype=float)
        if np.any(self.ball_sq <= 0) or np.any(self.v_bound <= 0):
            raise ValueError("constraint radii must be positive")
        self.meta = dict(meta) if meta else {}
        # Per-node signed design matrix: rows b_ij * (a_ij, 1).
        ones = np.ones((self.n_nodes, self.n_samples, 1))
        self._design = labels[:, :, None] * np.concatenate([features, ones],
                                                           axis=2)
        self._lip = np.array([0.25 * np.linalg.norm(self._design[i], 2) ** 2
                              for i in range(self.n_nodes)])
        # The callbacks below run once per inner iteration on tiny arrays,
        # where numpy's per-call overhead, not arithmetic, is the cost; they
        # use the cheapest form that gives the same bits as the plain
        # formulas (tests/test_problem.py holds those as references).
        # Negating the design is exact, and round-to-nearest is symmetric
        # under negation, so -D_i @ x equals -(D_i @ x) up to the sign of an
        # exact zero, which expit and logaddexp ignore. The gradient keeps
        # its final negation: there the sign of a zero would show.
        # ndarray.dot skips np.dot's dispatch, Python floats skip numpy
        # scalars, and zero arrays skip converting a 0.0 operand per call.
        # The whole-network callbacks make the same BLAS calls on the same
        # memory through stacked matmuls.
        self._negs = -self._design
        self._designs_t = self._design.transpose(0, 2, 1)
        self._neg = tuple(self._negs)
        self._design_t = tuple(self._designs_t)
        self._l1 = self.lam_reg / self.n_nodes
        self._ball = self.ball_sq.tolist()
        self._vmax = self.v_bound.tolist()
        self._zero_s = np.zeros(self.n_samples)
        self._zero_w = np.zeros(self.n_features)

    def node_value(self, i, x):
        loss = np.add.reduce(np.logaddexp(self._zero_s, self._neg[i].dot(x)))
        return float(loss + self._l1 * np.add.reduce(np.abs(x[:-1])))

    def node_subgradient(self, i, x):
        g = -self._design_t[i].dot(expit(self._neg[i].dot(x)))
        # 0 is the chosen subdifferential element at the l1 kink.
        g[:-1] += self._l1 * np.sign(x[:-1])
        return g

    def node_project(self, i, x):
        out = np.array(x, dtype=float)
        self._project_into(i, out)
        return out

    def values(self, X):
        u = np.matmul(self._negs[:, None], X[None, :, :, None])[..., 0]
        loss = np.add.reduce(np.logaddexp(0.0, u), axis=-1)
        return loss + self._l1 * np.add.reduce(np.abs(X[:, :-1]), axis=-1)

    def set_distances(self, X):
        proj = np.repeat(X[None], self.n_nodes, axis=0)
        _project_rows(proj, self.ball_sq[:, None], self.v_bound[:, None])
        return np.sqrt(_row_dots(proj - X))

    def subgradients(self, X):
        u = np.matmul(self._negs, X[:, :, None])
        g = -np.matmul(self._designs_t, expit(u))[..., 0]
        g[:, :-1] += self._l1 * np.sign(X[:, :-1])
        return g

    def project(self, X):
        out = np.array(X, dtype=float)
        _project_rows(out, self.ball_sq, self.v_bound)
        return out

    def _project_into(self, i, out):
        """Project ``out`` onto the node's ball times interval, in place."""
        w = out[:-1]
        nrm_sq = w.dot(w)
        ball = self._ball[i]
        if nrm_sq > ball:
            w *= math.sqrt(ball / nrm_sq)
        vmax = self._vmax[i]
        v = out[-1]
        if v > vmax:
            out[-1] = vmax
        elif v < -vmax:
            out[-1] = -vmax

    def node_smooth_gradient(self, i, x):
        return -self._design_t[i].dot(expit(self._neg[i].dot(x)))

    def node_smooth_lipschitz(self, i):
        return float(self._lip[i])

    def node_prox(self, i, u, step):
        # soft-threshold the weights, then project; scaling a thresholded
        # vector radially solves the joint l1 + ball prox exactly
        out = np.array(u, dtype=float)
        w = out[:-1]
        shrunk = np.abs(w)
        shrunk -= step * self.lam_reg / self.n_nodes
        np.maximum(shrunk, self._zero_w, out=shrunk)
        np.multiply(np.sign(w), shrunk, out=w)
        self._project_into(i, out)
        return out

    def reference_solution(self,
                           max_iter: int = 20000) -> tuple[np.ndarray, float]:
        """High-accuracy minimizer via accelerated proximal gradient, and
        its value as the sum of the node objectives.

        The smooth part is the summed logistic loss; the proximal step
        soft-thresholds the weights and projects onto the tightest ball and
        interval (exact for an l2 ball, since soft-thresholding followed by
        radial scaling solves the joint prox problem).
        """
        z, _ = _prox_grad_l1_logistic(
            self._design.reshape(-1, self.dim), self.lam_reg, self.dim - 1,
            float(self.ball_sq.min()), float(self.v_bound.min()), max_iter,
            1e-14)
        return z, float(sum(self.node_value(i, z)
                            for i in range(self.n_nodes)))

    def value_flops(self, i):
        return self.n_samples * (8 * self.dim + 40) + 2 * self.dim

    def subgrad_flops(self, i):
        return self.n_samples * (8 * self.dim + 40) + 2 * self.dim


def _project_rows(out, ball_sq, v_bound):
    """``LogRegInstance._project_into`` on every row of ``out`` (in place),
    with one squared ball radius and one offset bound per row, broadcast
    over ``out.shape[:-1]``."""
    w = out[..., :-1]
    nrm_sq = _row_dots(w)
    big = nrm_sq > ball_sq
    if big.any():
        ball = np.broadcast_to(ball_sq, big.shape)[big]
        w[big] *= np.sqrt(ball / nrm_sq[big])[:, None]
    v = out[..., -1]
    np.copyto(v, v_bound, where=v > v_bound)
    np.copyto(v, -v_bound, where=v < -v_bound)


def _prox_grad_l1_logistic(design, lam, n_w, ball_sq, v_bound,
                           max_iter, tol):
    """FISTA on ``sum log(1+exp(-design z)) + lam ||z[:n_w]||_1`` with
    optional ball/interval constraints; returns the best iterate."""
    dim = design.shape[1]
    lip = 0.25 * np.linalg.norm(design, 2) ** 2
    step = 1.0 / max(lip, 1e-12)

    # Same calls as the node callbacks: ndarray.dot, math.sqrt and the
    # iterates kept by reference (prox returns fresh arrays).
    def smooth_grad(z):
        return -design.T.dot(expit(-design.dot(z)))

    def objective(z):
        return float(np.add.reduce(np.logaddexp(0.0, -design.dot(z)))
                     + lam * np.add.reduce(np.abs(z[:n_w])))

    def prox(u):
        z = u.copy()
        w = np.sign(z[:n_w]) * np.maximum(np.abs(z[:n_w]) - step * lam, 0.0)
        if ball_sq is not None:
            nrm_sq = w.dot(w)
            if nrm_sq > ball_sq:
                w *= math.sqrt(ball_sq / nrm_sq)
        z[:n_w] = w
        if v_bound is not None:
            z[n_w:] = np.clip(z[n_w:], -v_bound, v_bound)
        return z

    z = prox(np.zeros(dim))
    d = z - z  # the last step taken; the first step has no momentum
    t_acc = 1.0
    best_z, best_val = z, objective(z)
    quiet = 0
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc ** 2))
        y = z + ((t_acc - 1.0) / t_next) * d
        z_new = prox(y - step * smooth_grad(y))
        d = z_new - z
        z = z_new
        t_acc = t_next
        val = objective(z)
        if val < best_val:
            best_val, best_z = val, z
        if math.sqrt(d.dot(d)) <= tol * (1.0 + math.sqrt(z.dot(z))):
            quiet += 1
            if quiet >= 10:
                break
        else:
            quiet = 0
    return best_z, best_val


def gen_logreg(n_nodes: int, dim: int, samples_per_node: int,
               noise_var: float, seed: int,
               sparsity: float = 0.6,
               ref_budget: int = 20000,
               w_true=None, v_true=None) -> LogRegInstance:
    """Generate a synthetic sparse-classification instance.

    Feature vectors and the true weight vector have about ``sparsity`` zero
    entries with standard-normal nonzeros; labels follow the sign of the
    noisy linear score. The sparsity penalty is half the smallest penalty
    that zeroes the weights (computed from the loss gradient at zero weights
    and the optimal intercept), and the constraint radii are inflated copies
    of an unconstrained reference solve so that the solution is interior.
    """
    if min(n_nodes, dim, samples_per_node) < 1:
        raise ValueError("all counts must be >= 1")
    rng = np.random.default_rng(seed)

    def sparse_normal(shape):
        vals = rng.standard_normal(shape)
        mask = rng.random(shape) < sparsity
        vals[mask] = 0.0
        return vals

    drawn_w = sparse_normal(dim)
    drawn_v = float(rng.standard_normal())
    w_true = drawn_w if w_true is None else np.asarray(w_true, dtype=float)
    v_true = drawn_v if v_true is None else float(v_true)
    features = sparse_normal((n_nodes, samples_per_node, dim))
    noise = rng.standard_normal((n_nodes, samples_per_node)) * np.sqrt(noise_var)
    score = features @ w_true + v_true + noise
    labels = np.where(score >= 0, 1.0, -1.0)

    # Smallest penalty that makes the weights vanish: the sup-norm of the
    # loss gradient in w at w = 0 with the intercept chosen optimally.
    pos = float((labels > 0).sum())
    neg = float((labels < 0).sum())
    if pos == 0 or neg == 0:
        v0 = 30.0 if neg == 0 else -30.0
    else:
        v0 = float(np.log(pos / neg))
    sig = expit(-labels * v0)
    grad_w = -np.einsum("ns,nsd->d", labels * sig, features)
    lambda_max = float(np.abs(grad_w).max())
    lam_reg = 0.5 * lambda_max

    design = (labels[:, :, None]
              * np.concatenate([features,
                                np.ones((n_nodes, samples_per_node, 1))],
                               axis=2)).reshape(-1, dim + 1)
    z_ref, _ = _prox_grad_l1_logistic(design, lam_reg, dim, None, None,
                                      ref_budget, 1e-14)
    w_ref, v_ref = z_ref[:dim], float(z_ref[dim])
    w_sq = float(w_ref @ w_ref)
    base_w = w_sq if w_sq > 1e-12 else 1.0
    base_v = abs(v_ref) if abs(v_ref) > 1e-9 else 1.0
    ball_sq = (1.0 + rng.random(n_nodes)) * base_w
    v_bound = (1.0 + rng.random(n_nodes)) * base_v

    meta = {
        "seed": int(seed),
        "noise_var": float(noise_var),
        "lambda_max": lambda_max,
        "w_true": w_true.tolist(),
        "v_true": v_true,
        "w_ref": w_ref.tolist(),
        "v_ref": v_ref,
    }
    return LogRegInstance(features, labels, lam_reg, ball_sq, v_bound, meta)


def err_f(inst: ProblemInstance, xs: Sequence[np.ndarray],
          fstar: float) -> float:
    """Mean over nodes of the global-objective gap at each node's estimate.

    Nonnegative whenever every estimate is feasible; may be negative for
    infeasible estimates and is reported as-is (the trace's feasibility flag
    marks such rows).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    # node values summed row by row in node order, as global_value sums them
    gaps = sum(inst.values(xs)) - fstar
    return float(np.mean(gaps))


def instance_text(inst: ProblemInstance) -> str:
    """Structured text form of an instance (also the serialization and the
    basis of the reproducibility hash)."""
    lines = ["algossip-instance v1"]
    if isinstance(inst, QuadConsensusInstance):
        lines.append("kind quad")
        lines.append(f"nodes {inst.n_nodes}")
        lines.append(f"dim {inst.dim}")
        lines.append("weights " + " ".join(_fmt(w) for w in inst.weights))
        for i in range(inst.n_nodes):
            lines.append(f"target {i} "
                         + " ".join(_fmt(v) for v in inst.targets[i]))
        if inst.lo is not None:
            for i in range(inst.n_nodes):
                lines.append(f"lo {i} " + " ".join(_fmt(v) for v in inst.lo[i]))
                lines.append(f"hi {i} " + " ".join(_fmt(v) for v in inst.hi[i]))
    elif isinstance(inst, LogRegInstance):
        lines.append("kind logreg")
        lines.append(f"nodes {inst.n_nodes}")
        lines.append(f"features {inst.n_features}")
        lines.append(f"samples {inst.n_samples}")
        lines.append(f"lambda {_fmt(inst.lam_reg)}")
        lines.append("ball " + " ".join(_fmt(v) for v in inst.ball_sq))
        lines.append("vbound " + " ".join(_fmt(v) for v in inst.v_bound))
        for i in range(inst.n_nodes):
            for j in range(inst.n_samples):
                row = " ".join(_fmt(v) for v in inst.features[i, j])
                lines.append(f"sample {i} {j} {int(inst.labels[i, j])} {row}")
        if inst.meta:
            lines.append("meta " + json.dumps(inst.meta, sort_keys=True))
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    return "\n".join(lines) + "\n"


def save_instance(path, inst: ProblemInstance) -> None:
    """Serialize an instance to a structured text file."""
    write_atomic(path, lambda fh: fh.write(instance_text(inst)))


def load_instance(path) -> ProblemInstance:
    """Load an instance written by :func:`save_instance`."""
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not raw or raw[0] != "algossip-instance v1":
        raise ValueError(f"{path}: not an instance file")
    fields: dict[str, str] = {}
    rows: list[tuple[str, list[str]]] = []
    for ln in raw[1:]:
        tag, _, rest = ln.partition(" ")
        if tag in ("target", "lo", "hi", "sample"):
            rows.append((tag, rest.split()))
        else:
            fields[tag] = rest

    if fields.get("kind") == "quad":
        n = int(fields["nodes"])
        dim = int(fields["dim"])
        weights = np.array([float(v) for v in fields["weights"].split()])
        targets = np.zeros((n, dim))
        lo = hi = None
        for tag, parts in rows:
            i = int(parts[0])
            vec = np.array([float(v) for v in parts[1:]])
            if tag == "target":
                targets[i] = vec
            elif tag == "lo":
                if lo is None:
                    lo = np.zeros((n, dim))
                lo[i] = vec
            elif tag == "hi":
                if hi is None:
                    hi = np.zeros((n, dim))
                hi[i] = vec
        return QuadConsensusInstance(targets, lo=lo, hi=hi, weights=weights)

    if fields.get("kind") == "logreg":
        n = int(fields["nodes"])
        m = int(fields["features"])
        nd = int(fields["samples"])
        features = np.zeros((n, nd, m))
        labels = np.zeros((n, nd))
        for tag, parts in rows:
            i, j = int(parts[0]), int(parts[1])
            labels[i, j] = float(parts[2])
            features[i, j] = [float(v) for v in parts[3:]]
        meta = json.loads(fields["meta"]) if "meta" in fields else None
        return LogRegInstance(
            features, labels, float(fields["lambda"]),
            np.array([float(v) for v in fields["ball"].split()]),
            np.array([float(v) for v in fields["vbound"].split()]),
            meta,
        )
    raise ValueError(f"{path}: unknown instance kind {fields.get('kind')!r}")
