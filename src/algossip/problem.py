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
import warnings
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import NonConvergence


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class ProblemInstance(abc.ABC):
    """Sum-of-private-objectives problem over a common decision vector.

    Subclasses expose the node objective ``f_i``, a subgradient of it, and
    the Euclidean projection onto the node's constraint set. Instances are
    immutable after construction and all callbacks are pure.
    """

    dim: int
    n_nodes: int
    quadratic: bool = False
    # composite instances expose the smooth part of f_i plus an exact
    # proximal map of the rest, enabling fast inner block solves
    composite: bool = False

    @abc.abstractmethod
    def node_value(self, i: int, x: np.ndarray) -> float:
        """Evaluate f_i(x)."""

    @abc.abstractmethod
    def node_subgradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """A subgradient of f_i at x."""

    @abc.abstractmethod
    def node_project(self, i: int, x: np.ndarray) -> np.ndarray:
        """Euclidean projection of x onto the node's constraint set."""

    def global_value(self, x: np.ndarray) -> float:
        return sum(self.node_value(i, x) for i in range(self.n_nodes))

    def global_subgradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.dim)
        for i in range(self.n_nodes):
            g += self.node_subgradient(i, x)
        return g

    def project_intersection(self, x: np.ndarray, sweeps: int = 50,
                             tol: float = 1e-10) -> np.ndarray:
        """Cyclic projections onto the intersection of all node sets."""
        x = np.asarray(x, dtype=float).copy()
        for _ in range(sweeps):
            before = x.copy()
            for i in range(self.n_nodes):
                x = self.node_project(i, x)
            if np.linalg.norm(x - before) <= tol:
                break
        return x

    # Composite interface (only when ``composite`` is True).
    def node_smooth_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part of f_i."""
        raise NotImplementedError

    def node_smooth_lipschitz(self, i: int) -> float:
        """Lipschitz constant of the smooth part's gradient."""
        raise NotImplementedError

    def node_prox(self, i: int, u: np.ndarray, step: float) -> np.ndarray:
        """Proximal map of the nonsmooth part of f_i plus the node's set."""
        raise NotImplementedError

    def node_feasible(self, i: int, x: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.linalg.norm(self.node_project(i, x) - x) <= tol)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership of x in the intersection of every node's set."""
        return all(self.node_feasible(i, x, tol) for i in range(self.n_nodes))

    def all_feasible(self, xs: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether every row of ``xs`` lies in the intersection."""
        return all(self.is_feasible(xs[i], tol) for i in range(len(xs)))

    # Coarse instruction-count estimates for the flop counters.
    def value_flops(self, i: int) -> int:
        return 4 * self.dim

    def subgrad_flops(self, i: int) -> int:
        return 4 * self.dim


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

    def global_subgradient(self, x):
        wsum = self.weights.sum()
        wtarget = self.weights @ self.targets
        return 2.0 * (wsum * x - wtarget)

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

    def node_value(self, i, x):
        u = self._design[i] @ x
        loss = np.logaddexp(0.0, -u).sum()
        return float(loss + (self.lam_reg / self.n_nodes)
                     * np.abs(x[:-1]).sum())

    def node_subgradient(self, i, x):
        u = self._design[i] @ x
        g = -(self._design[i].T @ expit(-u))
        # 0 is the chosen subdifferential element at the l1 kink.
        g[:-1] += (self.lam_reg / self.n_nodes) * np.sign(x[:-1])
        return g

    def node_project(self, i, x):
        out = np.asarray(x, dtype=float).copy()
        w = out[:-1]
        nrm_sq = float(w @ w)
        if nrm_sq > self.ball_sq[i]:
            out[:-1] = w * np.sqrt(self.ball_sq[i] / nrm_sq)
        out[-1] = np.clip(out[-1], -self.v_bound[i], self.v_bound[i])
        return out

    composite = True

    def node_smooth_gradient(self, i, x):
        u = self._design[i] @ x
        return -(self._design[i].T @ expit(-u))

    def node_smooth_lipschitz(self, i):
        return float(self._lip[i])

    def node_prox(self, i, u, step):
        # soft-threshold the weights, then project; scaling a thresholded
        # vector radially solves the joint l1 + ball prox exactly
        out = np.asarray(u, dtype=float).copy()
        thr = step * self.lam_reg / self.n_nodes
        out[:-1] = np.sign(out[:-1]) * np.maximum(np.abs(out[:-1]) - thr, 0.0)
        return self.node_project(i, out)

    def global_subgradient(self, x):
        design = self._design.reshape(-1, self.dim)
        u = design @ x
        g = -(design.T @ expit(-u))
        g[:-1] += self.lam_reg * np.sign(x[:-1])
        return g

    def reference_solution(self, max_iter: int = 20000, tol: float = 1e-14,
                           constrained: bool = True) -> tuple[np.ndarray, float]:
        """High-accuracy minimizer via accelerated proximal gradient.

        The smooth part is the summed logistic loss; the proximal step
        soft-thresholds the weights and projects onto the tightest ball and
        interval (exact for an l2 ball, since soft-thresholding followed by
        radial scaling solves the joint prox problem).
        """
        design = self._design.reshape(-1, self.dim)
        ball = float(self.ball_sq.min()) if constrained else None
        vmax = float(self.v_bound.min()) if constrained else None
        z, val = _prox_grad_l1_logistic(design, self.lam_reg, self.dim - 1,
                                        ball, vmax, max_iter, tol)
        if constrained:
            extra = sum(self.node_value(i, z) for i in range(self.n_nodes))
            val = float(extra)
        return z, val

    def value_flops(self, i):
        return self.n_samples * (8 * self.dim + 40) + 2 * self.dim

    def subgrad_flops(self, i):
        return self.n_samples * (8 * self.dim + 40) + 2 * self.dim


def _prox_grad_l1_logistic(design, lam, n_w, ball_sq, v_bound,
                           max_iter, tol):
    """FISTA on ``sum log(1+exp(-design z)) + lam ||z[:n_w]||_1`` with
    optional ball/interval constraints; returns the best iterate."""
    dim = design.shape[1]
    lip = 0.25 * np.linalg.norm(design, 2) ** 2
    step = 1.0 / max(lip, 1e-12)

    def smooth_grad(z):
        return -(design.T @ expit(-(design @ z)))

    def objective(z):
        u = design @ z
        return float(np.logaddexp(0.0, -u).sum() + lam * np.abs(z[:n_w]).sum())

    def prox(u):
        z = u.copy()
        w = np.sign(z[:n_w]) * np.maximum(np.abs(z[:n_w]) - step * lam, 0.0)
        if ball_sq is not None:
            nrm_sq = float(w @ w)
            if nrm_sq > ball_sq:
                w *= np.sqrt(ball_sq / nrm_sq)
        z[:n_w] = w
        if v_bound is not None:
            z[n_w:] = np.clip(z[n_w:], -v_bound, v_bound)
        return z

    z = prox(np.zeros(dim))
    z_prev = z.copy()
    t_acc = 1.0
    best_z, best_val = z.copy(), objective(z)
    quiet = 0
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        y = z + ((t_acc - 1.0) / t_next) * (z - z_prev)
        z_prev = z
        z = prox(y - step * smooth_grad(y))
        t_acc = t_next
        val = objective(z)
        if val < best_val:
            best_val, best_z = val, z.copy()
        if np.linalg.norm(z - z_prev) <= tol * (1.0 + np.linalg.norm(z)):
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
    gaps = [inst.global_value(x) - fstar for x in xs]
    return float(np.mean(gaps))


def centralized_oracle(inst: ProblemInstance, budget: int,
                       step_scale: float = 1.0) -> tuple[np.ndarray, float]:
    """Reference solve by projected subgradient with step ``c/sqrt(k)``.

    Projection onto the intersection of the node sets uses cyclic
    projections (50 sweeps, tolerance 1e-10). Returns the best iterate and
    its value; the best-value sequence is monotone by construction. Warns
    with :class:`NonConvergence` when the best value is still improving
    faster than 1e-8 per iteration at the end of the budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    x = inst.project_intersection(np.zeros(inst.dim))
    best_x, best_f = x.copy(), inst.global_value(x)
    # progress rate estimated over the second half of the budget (subgradient
    # improvements are lumpy, so a short trailing window underestimates it)
    window = max(1, budget // 2)
    snapshot = None
    for k in range(1, budget + 1):
        g = inst.global_subgradient(x)
        x = inst.project_intersection(x - (step_scale / np.sqrt(k)) * g)
        f = inst.global_value(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        if k == budget - window:
            snapshot = best_f
    if snapshot is not None and (snapshot - best_f) / window > 1e-8:
        warnings.warn(
            f"oracle still improving at budget end "
            f"({(snapshot - best_f) / window:.3e} per iteration)",
            NonConvergence,
        )
    return best_x, float(best_f)


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
    with open(path, "w") as fh:
        fh.write(instance_text(inst))


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
