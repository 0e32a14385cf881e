"""Experiment runner: configuration files, runs, comparisons, oracle cache.

A run is fully described by a flat key-value config with sections
``[problem]``, ``[graph]``, ``[algo]``, ``[run]`` plus a seed; unknown keys
or sections are rejected so that every config reproduces exactly one
trajectory. Outputs are a CSV trace, a JSON reproducibility manifest, and a
final-state dump.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .algo import (PenaltySchedule, Variant, default_inner_events, run_outer)
from .baseline import run_ps
from .errors import ConfigError, ConnectivityFailure, DomainError, \
    MismatchError
from .graph import (FailureModel, Supergraph, build_geometric, load_network,
                    network_text)
from .metrics import MetricsLog, write_atomic
from .problem import (LogRegInstance, ProblemInstance, QuadConsensusInstance,
                      centralized_oracle, err_f, gen_logreg, instance_text,
                      load_instance)

KNOWN_KEYS = {
    "problem": {"kind", "file", "nodes", "dim", "targets", "seed", "spread",
                "lo", "hi", "samples_per_node", "noise_var"},
    "graph": {"file", "radius", "seed", "failures", "failure_scale",
              "failure_p"},
    "algo": {"name", "schedule", "schedule_params", "inner_budget",
             "inner_tol", "stop_tol", "alpha"},
    "run": {"t_outer", "k_inner", "seed", "checkpoint", "fstar"},
}

ALGORITHMS = ("alg", "almg", "albg", "ps")


@dataclass
class RunConfig:
    """Validated config: a dict of string sections plus its source name."""

    sections: dict[str, dict[str, str]]
    name: str = "run"

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)


def _require(cfg: RunConfig, section: str, key: str) -> str:
    val = cfg.get(section, key)
    if val is None:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return val


def _as_int(section, key, val) -> int:
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, "
                          f"got {val!r}") from None


def _as_float(section, key, val) -> float:
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, "
                          f"got {val!r}") from None


def parse_config(path) -> RunConfig:
    """Read and validate a config file (fail-fast on unknown fields)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        body = {}
        for key, value in parser.items(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            body[key] = value.strip()
        sections[section] = body
    for required in ("problem", "graph", "algo", "run"):
        if required not in sections:
            raise ConfigError(f"config is missing section [{required}]")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return RunConfig(sections, name=name)


def build_problem(cfg: RunConfig) -> ProblemInstance:
    kind = _require(cfg, "problem", "kind")
    if kind == "file":
        return _checked("problem", load_instance,
                        _require(cfg, "problem", "file"))
    if kind == "quad":
        n = _as_int("problem", "nodes", _require(cfg, "problem", "nodes"))
        dim = _as_int("problem", "dim", _require(cfg, "problem", "dim"))
        if n < 1 or dim < 1:
            raise ConfigError(f"[problem] nodes and dim must be >= 1, got "
                              f"{n} and {dim}")
        targets_text = cfg.get("problem", "targets")
        if targets_text is not None:
            rows = [[_as_float("problem", "targets", v) for v in r.split()]
                    for r in targets_text.split(";") if r.strip()]
            if len(rows) != n or any(len(r) != dim for r in rows):
                raise ConfigError(f"[problem] targets must be {n} rows of "
                                  f"{dim} values")
            targets = np.array(rows)
        else:
            seed = _as_int("problem", "seed",
                           _require(cfg, "problem", "seed"))
            spread = _as_float("problem", "spread",
                               cfg.get("problem", "spread", "1.0"))
            targets = _checked("problem", np.random.default_rng(seed).normal,
                               0.0, spread, (n, dim))
        lo = cfg.get("problem", "lo")
        hi = cfg.get("problem", "hi")
        lo_arr = hi_arr = None
        if lo is not None or hi is not None:
            if lo is None or hi is None:
                raise ConfigError("[problem] lo and hi must be given together")
            lo_arr = np.full((n, dim), _as_float("problem", "lo", lo))
            hi_arr = np.full((n, dim), _as_float("problem", "hi", hi))
        return _checked("problem", QuadConsensusInstance, targets, lo_arr,
                        hi_arr)
    if kind == "logreg":
        return _checked(
            "problem", gen_logreg,
            _as_int("problem", "nodes", _require(cfg, "problem", "nodes")),
            _as_int("problem", "dim", _require(cfg, "problem", "dim")),
            _as_int("problem", "samples_per_node",
                    _require(cfg, "problem", "samples_per_node")),
            _as_float("problem", "noise_var",
                      cfg.get("problem", "noise_var", "0.1")),
            _as_int("problem", "seed", _require(cfg, "problem", "seed")),
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


def build_graph(cfg: RunConfig,
                problem: ProblemInstance) -> tuple[Supergraph, FailureModel]:
    gfile = cfg.get("graph", "file")
    if gfile is not None:
        graph, failures = _checked("graph", load_network, gfile)
        if graph.n != problem.n_nodes:
            raise ConfigError(f"graph file has {graph.n} nodes, problem has "
                              f"{problem.n_nodes}")
        if cfg.get("graph", "failures") not in (None, "from_file"):
            raise ConfigError("[graph] failures cannot be overridden when "
                              "loading from a file")
        return graph, failures
    radius = _as_float("graph", "radius", _require(cfg, "graph", "radius"))
    seed = _as_int("graph", "seed", _require(cfg, "graph", "seed"))
    graph = _checked("graph", build_geometric, problem.n_nodes, radius, seed)
    mode = cfg.get("graph", "failures", "always_on")
    if mode == "always_on":
        failures = FailureModel.always_on(graph)
    elif mode == "distance":
        scale = _as_float("graph", "failure_scale",
                          cfg.get("graph", "failure_scale", "0.5"))
        failures = _checked("graph", FailureModel.from_distance, graph,
                            radius, scale)
    elif mode == "uniform":
        p = _as_float("graph", "failure_p",
                      _require(cfg, "graph", "failure_p"))
        failures = _checked("graph", FailureModel.uniform, graph, p)
    else:
        raise ConfigError(f"unknown failure mode {mode!r}")
    return graph, failures


def _checked(section: str, build, *args):
    """Call ``build``, reporting a value it rejects or a file it cannot
    read as a config error."""
    try:
        return build(*args)
    except (ValueError, OSError, ConnectivityFailure) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def build_schedule(cfg: RunConfig) -> PenaltySchedule | None:
    name = cfg.get("algo", "name")
    if name == "ps":
        return None
    kind = cfg.get("algo", "schedule", "power")
    raw = cfg.get("algo", "schedule_params", "1.3,1")
    params = [_as_float("algo", "schedule_params", v)
              for v in raw.split(",") if v.strip()]
    if kind not in ("fixed", "power", "geometric", "adaptive"):
        raise ConfigError(f"unknown schedule kind {kind!r}")
    try:
        return getattr(PenaltySchedule, kind)(*params)
    except TypeError:
        raise ConfigError(f"[algo] schedule_params {raw!r} does not match "
                          f"schedule {kind!r}") from None
    except DomainError as exc:
        raise ConfigError(f"[algo] {exc}") from None


def instance_hash(problem: ProblemInstance, graph: Supergraph,
                  failures: FailureModel) -> str:
    """Hash identifying the exact problem + network an experiment ran on."""
    text = instance_text(problem) + network_text(graph, failures)
    return hashlib.sha256(text.encode()).hexdigest()


def manifest_hash(sections: dict, seed: int) -> str:
    payload = json.dumps({"config": sections, "seed": seed}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class OracleCache:
    """Reference-value store keyed by instance hash. Writes replace the
    file whole; an unreadable file is ignored with a warning."""

    def __init__(self, path):
        self.path = path
        self._data: dict[str, dict] = {}
        if path is not None and os.path.exists(path):
            try:
                with open(path) as fh:
                    self._data = dict(json.load(fh))
            except (TypeError, ValueError) as exc:
                warnings.warn(f"ignoring corrupt oracle cache {path} "
                              f"({exc}); reference values are recomputed",
                              stacklevel=2)

    def get(self, key: str) -> dict | None:
        return self._data.get(key)

    def put(self, key: str, record: dict) -> None:
        self._data[key] = record
        if self.path is not None:
            write_atomic(self.path, lambda fh: json.dump(
                self._data, fh, indent=1, sort_keys=True))


def reference_value(problem: ProblemInstance,
                    budget: int = 200000) -> tuple[np.ndarray, float]:
    """Best available reference optimum for a problem family.

    Quadratic-consensus instances are solved in closed form; the sparse
    classification family uses the accelerated proximal reference solver
    (the generic projected-subgradient oracle is far too slow at the
    accuracy the error metric needs and is kept as a cross-check)."""
    if isinstance(problem, QuadConsensusInstance):
        return problem.analytic_optimum()
    if isinstance(problem, LogRegInstance):
        return problem.reference_solution(max_iter=budget)
    return centralized_oracle(problem, budget)


def _cached_fstar(cache: OracleCache, key: str, problem: ProblemInstance,
                  budget: int = 200000) -> tuple[float, bool]:
    """Reference optimum value of an instance and whether it came from the
    cache; a solved value is stored."""
    hit = cache.get(key)
    if hit is not None:
        return float(hit["fstar"]), True
    x, f = reference_value(problem, budget)
    cache.put(key, {"fstar": float(f), "x": np.asarray(x).tolist()})
    return float(f), False


def resolve_fstar(cfg: RunConfig, problem: ProblemInstance,
                  key: str, cache: OracleCache | None) -> float | None:
    mode = cfg.get("run", "fstar", "auto")
    if mode == "none":
        return None
    if mode != "auto":
        return _as_float("run", "fstar", mode)
    if cache is None:
        cache = OracleCache(None)
    return _cached_fstar(cache, key, problem)[0]


@dataclass
class RunResult:
    log: MetricsLog
    manifest: dict
    final_x: np.ndarray


def run(config: RunConfig | str, out_dir: str | None = None,
        seed: int | None = None,
        cache: OracleCache | None = None) -> RunResult:
    """Execute one configured run.

    Writes ``<name>_trace.csv``, ``<name>_manifest.json`` and
    ``<name>_state.txt`` into ``out_dir`` when given. Identical config and
    seed produce byte-identical outputs.
    """
    if not isinstance(config, RunConfig):
        config = parse_config(config)
    problem = build_problem(config)
    graph, failures = build_graph(config, problem)
    schedule = build_schedule(config)
    algo = _require(config, "algo", "name")
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")

    run_seed = seed if seed is not None else _as_int(
        "run", "seed", config.get("run", "seed", "0"))
    t_outer = _as_int("run", "t_outer", _require(config, "run", "t_outer"))
    if t_outer < 0:
        raise ConfigError(f"[run] t_outer must be nonnegative, got {t_outer}")
    checkpoint = _as_int("run", "checkpoint",
                         config.get("run", "checkpoint", "100"))
    if checkpoint < 0:
        raise ConfigError(f"[run] checkpoint must be nonnegative, got "
                          f"{checkpoint}")
    # Every algorithm parameter is checked before the reference solve.
    if algo == "ps":
        alpha = _as_float("algo", "alpha", _require(config, "algo", "alpha"))
        if alpha <= 0:
            raise ConfigError(f"[algo] alpha must be positive, got {alpha}")
    else:
        k_raw = config.get("run", "k_inner", "auto")
        k_inner = (default_inner_events(graph) if k_raw == "auto"
                   else _as_int("run", "k_inner", k_raw))
        if k_inner < 0:
            raise ConfigError(f"[run] k_inner must be nonnegative, got "
                              f"{k_inner}")
        inner_budget = _as_int("algo", "inner_budget",
                               config.get("algo", "inner_budget", "50"))
        if inner_budget < 1:
            raise ConfigError(f"[algo] inner_budget must be >= 1, got "
                              f"{inner_budget}")
        tol_raw = config.get("algo", "inner_tol")
        inner_tol = None if tol_raw in (None, "") else _as_float(
            "algo", "inner_tol", tol_raw)
        stop_raw = config.get("algo", "stop_tol")
        stop_tol = None if stop_raw in (None, "") else _as_float(
            "algo", "stop_tol", stop_raw)
    inst_key = instance_hash(problem, graph, failures)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if cache is None:
            cache = OracleCache(os.path.join(out_dir, "oracle_cache.json"))
    fstar = resolve_fstar(config, problem, inst_key, cache)

    if algo == "ps":
        log, state = run_ps(problem, graph, failures, alpha, t_outer,
                            run_seed, fstar=fstar,
                            checkpoint_every=checkpoint)
    else:
        log, state = run_outer(
            problem, graph, Variant(algo), schedule, t_outer, k_inner,
            run_seed, failures=failures, fstar=fstar,
            inner_budget=inner_budget, inner_tol=inner_tol,
            inner_stop_tol=stop_tol, checkpoint_every=checkpoint,
        )
    final_x = state.x

    manifest = {
        "name": config.name,
        "config": config.sections,
        "seed": run_seed,
        "algorithm": algo,
        "instance_hash": inst_key,
        "fstar": fstar,
        "manifest_hash": manifest_hash(config.sections, run_seed),
    }
    if out_dir is not None:
        base = os.path.join(out_dir, config.name)
        log.to_csv(base + "_trace.csv")
        write_atomic(base + "_manifest.json", lambda fh: json.dump(
            manifest, fh, indent=1, sort_keys=True))

        def state_lines(fh):
            for i, row in enumerate(final_x):
                fh.write(f"{i} " + " ".join(format(v, ".17g")
                                            for v in row) + "\n")
        write_atomic(base + "_state.txt", state_lines)
    return RunResult(log=log, manifest=manifest, final_x=final_x)


def compare(configs, thresholds, out_dir: str | None = None,
            cache: OracleCache | None = None) -> list[dict]:
    """Run several configs on the same instance and report the cumulative
    transmissions each needs to reach each error threshold."""
    parsed = [c if isinstance(c, RunConfig) else parse_config(c)
              for c in configs]
    results = []
    reference = None
    for cfg in parsed:
        res = run(cfg, out_dir=out_dir, cache=cache)
        key = res.manifest["instance_hash"]
        if reference is None:
            reference = key
        elif key != reference:
            raise MismatchError(f"config {cfg.name!r} runs a different "
                                f"instance than {parsed[0].name!r}")
        results.append((cfg, res))
    table = []
    for cfg, res in results:
        for thr in thresholds:
            row = res.log.first_crossing(float(thr))
            table.append({
                "config": cfg.name,
                "algorithm": res.manifest["algorithm"],
                "threshold": float(thr),
                "reached": row is not None,
                "transmissions": None if row is None else row.transmissions,
                "k": None if row is None else row.k,
            })
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

        def compare_lines(fh):
            fh.write("config,algorithm,threshold,reached,transmissions,k\n")
            for row in table:
                fh.write(f"{row['config']},{row['algorithm']},"
                         f"{row['threshold']:.17g},"
                         f"{int(row['reached'])},"
                         f"{'' if row['transmissions'] is None else row['transmissions']},"
                         f"{'' if row['k'] is None else row['k']}\n")
        write_atomic(os.path.join(out_dir, "compare.csv"), compare_lines)
    return table


def oracle(config: RunConfig | str, out_dir: str | None = None,
           budget: int = 200000) -> dict:
    """Compute (or fetch) the reference optimum for a config's instance."""
    if not isinstance(config, RunConfig):
        config = parse_config(config)
    problem = build_problem(config)
    graph, failures = build_graph(config, problem)
    key = instance_hash(problem, graph, failures)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    cache = OracleCache(os.path.join(out_dir, "oracle_cache.json")
                        if out_dir is not None else None)
    fstar, cached = _cached_fstar(cache, key, problem, budget)
    return {"instance_hash": key, "fstar": fstar, "cached": cached}


def sweep(config: RunConfig | str, seeds, out_dir: str | None = None) -> list[dict]:
    """Run one config across several seeds; returns per-seed summaries."""
    if not isinstance(config, RunConfig):
        config = parse_config(config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    cache = OracleCache(os.path.join(out_dir, "oracle_cache.json")
                        if out_dir is not None else None)
    rows = []
    for s in seeds:
        res = run(config, out_dir=None, seed=int(s), cache=cache)
        final = res.log.rows[-1]
        rows.append({"seed": int(s), "err_f": final.err_f,
                     "transmissions": final.transmissions,
                     "k": final.k, "feasible": final.feasible})
        if out_dir is not None:
            res.log.to_csv(os.path.join(out_dir,
                                        f"{config.name}_seed{s}_trace.csv"))
    if out_dir is not None:
        def sweep_lines(fh):
            fh.write("seed,err_f,transmissions,k,feasible\n")
            for r in rows:
                fh.write(f"{r['seed']},{r['err_f']:.17g},"
                         f"{r['transmissions']},{r['k']},"
                         f"{int(r['feasible'])}\n")
        write_atomic(os.path.join(out_dir, f"{config.name}_sweep.csv"),
                     sweep_lines)
    return rows
