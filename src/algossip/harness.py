"""Experiment runner: configuration files, runs, comparisons, oracle cache.

A run is fully described by a flat key-value config with sections
``[problem]``, ``[graph]``, ``[algo]``, ``[run]`` plus a seed; unknown keys
or sections are rejected so that every config reproduces exactly one
trajectory. :func:`validate` checks a whole config before anything is
built. Outputs are a CSV trace, a JSON reproducibility manifest, and a
final-state dump.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .algo import (Counters, PenaltySchedule, Variant, check_variant,
                   default_inner_events, run_outer)
from .baseline import run_ps
from .errors import ConfigError, ConnectivityFailure, DomainError, \
    MismatchError
from .graph import (FailureModel, Supergraph, build_geometric, load_network,
                    network_text)
from .metrics import MetricsLog, write_atomic
from .problem import (LogRegInstance, ProblemInstance, QuadConsensusInstance,
                      draw_logreg, fit_logreg, instance_text, load_instance)

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
# (test, wording) pairs for the ranges of numeric config values
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "positive")
_COUNT = (lambda v: v >= 1, ">= 1")


@dataclass
class RunConfig:
    """A config as read: a dict of string sections plus its source name."""

    sections: dict[str, dict[str, str]]
    name: str = "run"


@dataclass(frozen=True)
class RunSpec:
    """A validated config: every value parsed and every rule checked.
    ``sections`` keeps the strings the values came from; the manifest
    stores and hashes them. An optional key that is absent is None."""

    name: str
    sections: dict
    kind: str  # quad, logreg or file
    problem_file: str | None
    nodes: int | None
    dim: int | None
    targets: tuple | None
    problem_seed: int | None
    spread: float
    lo: float | None
    hi: float | None
    samples_per_node: int | None
    noise_var: float
    graph_file: str | None
    radius: float | None
    graph_seed: int | None
    failures: str  # always_on, distance, uniform or from_file
    failure_scale: float
    failure_p: float | None
    algo: str  # one of ALGORITHMS
    schedule: PenaltySchedule
    inner_budget: int
    inner_tol: float | None
    stop_tol: float | None
    alpha: float | None
    t_outer: int
    k_inner: int | None  # None: default_inner_events of the graph
    seed: int
    checkpoint: int
    fstar: float | str | None  # "auto", None (no error column) or a value


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _parse(what: str, val, kind=float):
    """``val`` as an integer or a finite float; ``what`` names it."""
    try:
        out = kind(val)
    except ValueError:
        out = None
    if out is None or not (kind is int or math.isfinite(out)):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {noun}, got {val!r}")
    return out


class _Section:
    """Typed reads of one config section. A missing required key, or a
    malformed or out-of-range value, is a ConfigError; an optional key
    without a default reads as None when it is absent or empty."""

    def __init__(self, sections: dict[str, dict[str, str]], name: str):
        _need(name in sections, f"config is missing section [{name}]")
        self.name, self.body = name, sections[name]
        unknown = sorted(self.body.keys() - KNOWN_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]")

    def text(self, key, default=None, required=False, options=None):
        val = self.body.get(key, default)
        if val is None and required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        if options is not None and val not in options:
            raise ConfigError(f"[{self.name}] {key} must be one of "
                              f"{', '.join(options)}, got {val!r}")
        return val

    def number(self, key, default=None, required=False, valid=None,
               kind=float):
        val = self.text(key, default, required)
        if not val and not required and default is None:
            return None
        out = _parse(f"[{self.name}] {key}", val, kind)
        if valid is not None and not valid[0](out):
            raise ConfigError(f"[{self.name}] {key} must be {valid[1]}, "
                              f"got {out}")
        return out

    def count(self, key, default=None, required=False, valid=_NONNEGATIVE):
        return self.number(key, default, required, valid, int)


def parse_config(path) -> RunConfig:
    """Read a config file into string sections, named after the file;
    :func:`validate` checks them."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigError("malformed config file: "
                          + " ".join(str(exc).split())) from None
    sections = {section: {key: value.strip()
                          for key, value in parser.items(section)}
                for section in parser.sections()}
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return RunConfig(sections, name=name)


def validate(config: RunConfig | RunSpec | str) -> RunSpec:
    """Parse and check a whole config before anything is built.

    The one place where config strings become values. Every key present is
    parsed, whether or not the run reads it. A missing or unknown section
    or key, a malformed or out-of-range value, or values that cannot go
    together (albg with links that can fail or with adaptive penalties)
    raise :class:`ConfigError`. A path is read with :func:`parse_config`
    first; a :class:`RunSpec` is returned as it is.
    """
    if isinstance(config, RunSpec):
        return config
    if not isinstance(config, RunConfig):
        config = parse_config(config)
    for section in config.sections:
        _need(section in KNOWN_KEYS, f"unknown config section [{section}]")
    p, g, a, r = (_Section(config.sections, s)
                  for s in ("problem", "graph", "algo", "run"))
    kind = p.text("kind", required=True, options=("quad", "logreg", "file"))
    nodes = p.count("nodes", required=kind != "file", valid=_COUNT)
    dim = p.count("dim", required=kind != "file", valid=_COUNT)
    targets = p.text("targets")
    if targets is not None:
        targets = tuple(tuple(_parse("[problem] targets", v)
                              for v in row.split())
                        for row in targets.split(";") if row.strip())
        _need(len(targets) == nodes and all(len(t) == dim for t in targets),
              f"[problem] targets must be {nodes} rows of {dim} values")
    lo, hi = p.number("lo"), p.number("hi")
    _need((lo is None) == (hi is None),
          "[problem] lo and hi must be given together")
    _need(lo is None or lo <= hi, f"[problem] lo {lo} exceeds hi {hi}")
    graph_file = g.text("file")
    modes = (("from_file",) if graph_file is not None
             else ("always_on", "distance", "uniform"))
    failures = g.text("failures", modes[0], options=modes)
    algo = a.text("name", required=True, options=ALGORITHMS)
    schedule_kind = a.text("schedule", "power", options=(
        "fixed", "power", "geometric", "adaptive"))
    params = a.text("schedule_params", "1.3,1")
    try:
        schedule = getattr(PenaltySchedule, schedule_kind)(*(
            _parse("[algo] schedule_params", x)
            for x in params.split(",") if x.strip()))
    except TypeError:
        raise ConfigError(f"[algo] schedule_params {params!r} does not "
                          f"match schedule {schedule_kind!r}") from None
    except DomainError as exc:
        raise ConfigError(f"[algo] {exc}") from None
    k_inner, fstar = r.text("k_inner", "auto"), r.text("fstar", "auto")
    spec = RunSpec(
        name=config.name, sections=config.sections, kind=kind,
        problem_file=p.text("file", required=kind == "file"),
        nodes=nodes, dim=dim, targets=targets,
        problem_seed=p.count("seed", required=(
            kind == "logreg" or kind == "quad" and targets is None)),
        spread=p.number("spread", "1.0", valid=_NONNEGATIVE),
        lo=lo, hi=hi,
        samples_per_node=p.count("samples_per_node",
                                 required=kind == "logreg", valid=_COUNT),
        noise_var=p.number("noise_var", "0.1", valid=_NONNEGATIVE),
        graph_file=graph_file,
        radius=g.number("radius", required=graph_file is None, valid=(
            lambda v: v > 0 and math.isfinite(v * v),
            "positive with a finite square")),
        graph_seed=g.count("seed", required=graph_file is None),
        failures=failures,
        failure_scale=g.number("failure_scale", "0.5",
                               valid=(lambda v: 0 < v < 1, "in (0, 1)")),
        failure_p=g.number("failure_p", required=failures == "uniform",
                           valid=(lambda v: 0 < v <= 1, "in (0, 1]")),
        algo=algo, schedule=schedule,
        inner_budget=a.count("inner_budget", "50", valid=_COUNT),
        inner_tol=a.number("inner_tol"), stop_tol=a.number("stop_tol"),
        alpha=a.number("alpha", required=algo == "ps", valid=_POSITIVE),
        t_outer=r.count("t_outer", required=True),
        k_inner=None if k_inner == "auto" else r.count("k_inner"),
        seed=r.count("seed", "0"), checkpoint=r.count("checkpoint", "100"),
        fstar=(fstar if fstar == "auto" else None if fstar == "none"
               else _parse("[run] fstar", fstar)))
    # distance failures fail every link of positive length; the links of a
    # network file are checked when build_graph loads it
    check_variant(algo, schedule, failures in ("always_on", "from_file")
                  or spec.failure_p == 1.0)
    return spec


def _need_two_classes(labels: np.ndarray, source: str, fix: str) -> None:
    """Refuse one-class logistic labels. Such an instance has no logistic
    minimizer: its reference solves run their whole budget and f* depends
    on it, so it is refused before the first of them."""
    pos = int((labels > 0).sum())
    _need(0 < pos < labels.size,
          f"[problem] {source} has {pos} positive and {labels.size - pos} "
          f"negative labels; logistic regression needs both ({fix})")


def build_problem(spec: RunSpec) -> ProblemInstance:
    if spec.kind == "file":
        problem = _checked("problem", load_instance, spec.problem_file)
        if isinstance(problem, LogRegInstance):
            _need_two_classes(problem.labels, "the instance file",
                              "relabel its samples")
        return problem
    if spec.kind == "logreg":
        rng, features, labels, meta = draw_logreg(
            spec.nodes, spec.dim, spec.samples_per_node, spec.noise_var,
            spec.problem_seed)
        _need_two_classes(labels, "the draw",
                          "change seed, samples_per_node or noise_var")
        return fit_logreg(rng, features, labels, meta)
    targets = (np.array(spec.targets) if spec.targets is not None
               else np.random.default_rng(spec.problem_seed).normal(
                   0.0, spec.spread, (spec.nodes, spec.dim)))
    return QuadConsensusInstance(targets, spec.lo, spec.hi)


def build_graph(spec: RunSpec,
                problem: ProblemInstance) -> tuple[Supergraph, FailureModel]:
    if spec.graph_file is not None:
        graph, failures = _checked("graph", load_network, spec.graph_file)
        if graph.n != problem.n_nodes:
            raise ConfigError(f"graph file has {graph.n} nodes, problem has "
                              f"{problem.n_nodes}")
        check_variant(spec.algo, spec.schedule, failures.reliable)
        return graph, failures
    graph = _checked("graph", build_geometric, problem.n_nodes, spec.radius,
                     spec.graph_seed)
    if spec.failures == "distance":
        return graph, _checked("graph", FailureModel.from_distance, graph,
                               spec.radius, spec.failure_scale)
    if spec.failures == "uniform":
        return graph, FailureModel.uniform(graph, spec.failure_p)
    return graph, FailureModel.always_on(graph)


def _checked(section: str, build, *args):
    """Call ``build``, reporting a value it rejects or a file it cannot
    read as a config error."""
    try:
        return build(*args)
    except (ValueError, OSError, ConnectivityFailure) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


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


def _cache_in(out_dir: str | None) -> OracleCache:
    """The oracle cache of an output directory, which every command creates
    here before it builds anything: a path where none can be made is a
    config error. An in-memory cache when there is no directory."""
    if out_dir is None:
        return OracleCache(None)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: "
                          f"{exc.strerror}") from None
    return OracleCache(os.path.join(out_dir, "oracle_cache.json"))


def reference_value(problem: ProblemInstance,
                    budget: int = 200000) -> tuple[np.ndarray, float]:
    """Reference optimum of an instance: closed form for quadratic
    consensus, the accelerated proximal reference solver for the sparse
    classification family."""
    if isinstance(problem, QuadConsensusInstance):
        return problem.analytic_optimum()
    return problem.reference_solution(max_iter=budget)


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


def resolve_fstar(spec: RunSpec, problem: ProblemInstance,
                  key: str, cache: OracleCache) -> float | None:
    if spec.fstar != "auto":
        return spec.fstar
    return _cached_fstar(cache, key, problem)[0]


@dataclass
class RunResult:
    log: MetricsLog
    manifest: dict
    final_x: np.ndarray


def _build(spec: RunSpec):
    """A config's problem, graph, failure model and instance hash."""
    problem = build_problem(spec)
    graph, failures = build_graph(spec, problem)
    return problem, graph, failures, instance_hash(problem, graph, failures)


def run(config: RunConfig | RunSpec | str, out_dir: str | None = None,
        seed: int | None = None) -> RunResult:
    """Execute one configured run.

    Writes ``<name>_trace.csv``, ``<name>_manifest.json`` and
    ``<name>_state.txt`` into ``out_dir`` when given. Identical config and
    seed produce byte-identical outputs.
    """
    spec = validate(config)
    run_seed = spec.seed if seed is None else seed
    _need(run_seed >= 0, f"seeds must be nonnegative, got {run_seed}")
    cache = _cache_in(out_dir)
    return _run_built(spec, _build(spec), run_seed, out_dir, cache)


def _run_built(spec: RunSpec, built, run_seed: int, out_dir: str | None,
               cache: OracleCache) -> RunResult:
    """:func:`run` on an instance that :func:`_build` made for ``spec``."""
    problem, graph, failures, inst_key = built
    fstar = resolve_fstar(spec, problem, inst_key, cache)

    counters = None
    if spec.algo == "ps":
        log, state = run_ps(problem, graph, failures, spec.alpha,
                            spec.t_outer, run_seed, fstar=fstar,
                            checkpoint_every=spec.checkpoint)
    else:
        counters = Counters()
        k_inner = (default_inner_events(graph) if spec.k_inner is None
                   else spec.k_inner)
        log, state = run_outer(
            problem, graph, Variant(spec.algo), spec.schedule, spec.t_outer,
            k_inner, run_seed, failures=failures, fstar=fstar,
            inner_budget=spec.inner_budget, inner_tol=spec.inner_tol,
            inner_stop_tol=spec.stop_tol, checkpoint_every=spec.checkpoint,
            counters=counters,
        )
    final_x = state.x

    manifest = {
        "name": spec.name,
        "config": spec.sections,
        "seed": run_seed,
        "algorithm": spec.algo,
        "instance_hash": inst_key,
        "fstar": fstar,
        "manifest_hash": manifest_hash(spec.sections, run_seed),
    }
    if counters is not None:
        # block minimizations skipped because the block was clean; not
        # part of the trace or of manifest_hash
        manifest["skipped_blocks"] = {"node": counters.node_skips,
                                      "link": counters.link_skips}
    if out_dir is not None:
        base = os.path.join(out_dir, spec.name)
        log.to_csv(base + "_trace.csv")
        write_atomic(base + "_manifest.json", lambda fh: json.dump(
            manifest, fh, indent=1, sort_keys=True))

        def state_lines(fh):
            for i, row in enumerate(final_x):
                fh.write(f"{i} " + " ".join(format(v, ".17g")
                                            for v in row) + "\n")
        write_atomic(base + "_state.txt", state_lines)
    return RunResult(log=log, manifest=manifest, final_x=final_x)


def compare(configs, thresholds, out_dir: str | None = None) -> list[dict]:
    """Run several configs on the same instance and report the cumulative
    transmissions each needs to reach each error threshold.

    Every config is validated and built before any runs: configs that share
    a name (their outputs would overwrite each other) raise
    :class:`ConfigError`, and configs on different instances raise
    :class:`MismatchError`, with nothing solved or written."""
    specs = [validate(c) for c in configs]
    thresholds = [_parse("a threshold", t) for t in thresholds]
    _need(thresholds, "compare needs at least one threshold")
    seen = set()
    for spec in specs:
        _need(spec.name not in seen, f"two configs are named {spec.name!r}; "
              f"their outputs would overwrite each other")
        seen.add(spec.name)
    cache = _cache_in(out_dir)
    built = [_build(spec) for spec in specs]
    for spec, (*_, inst_key) in zip(specs, built):
        if inst_key != built[0][-1]:
            raise MismatchError(f"config {spec.name!r} runs a different "
                                f"instance than {specs[0].name!r}")
    results = [(spec, _run_built(spec, inst, spec.seed, out_dir, cache))
               for spec, inst in zip(specs, built)]
    table = []
    for spec, res in results:
        for thr in thresholds:
            row = res.log.first_crossing(thr)
            table.append({
                "config": spec.name,
                "algorithm": res.manifest["algorithm"],
                "threshold": thr,
                "reached": row is not None,
                "transmissions": None if row is None else row.transmissions,
                "k": None if row is None else row.k,
            })
    if out_dir is not None:
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
    _need(budget >= 1, f"the oracle budget must be >= 1, got {budget}")
    spec = validate(config)
    cache = _cache_in(out_dir)
    problem, _, _, key = _build(spec)
    fstar, cached = _cached_fstar(cache, key, problem, budget)
    return {"instance_hash": key, "fstar": fstar, "cached": cached}


def sweep(config: RunConfig | str, seeds, out_dir: str | None = None) -> list[dict]:
    """Run one config across several seeds on one built instance; returns
    per-seed summaries."""
    spec = validate(config)
    seeds = [int(s) for s in seeds]
    _need(seeds, "sweep needs at least one seed")
    _need(min(seeds) >= 0, f"seeds must be nonnegative, got {seeds}")
    _need(len(set(seeds)) == len(seeds), f"seeds must differ, got {seeds}")
    cache = _cache_in(out_dir)
    built = _build(spec)
    rows = []
    for s in seeds:
        res = _run_built(spec, built, s, None, cache)
        final = res.log.rows[-1]
        rows.append({"seed": s, "err_f": final.err_f,
                     "transmissions": final.transmissions,
                     "k": final.k, "feasible": final.feasible})
        if out_dir is not None:
            res.log.to_csv(os.path.join(out_dir,
                                        f"{spec.name}_seed{s}_trace.csv"))
    if out_dir is not None:
        def sweep_lines(fh):
            fh.write("seed,err_f,transmissions,k,feasible\n")
            for r in rows:
                fh.write(f"{r['seed']},{r['err_f']:.17g},"
                         f"{r['transmissions']},{r['k']},"
                         f"{int(r['feasible'])}\n")
        write_atomic(os.path.join(out_dir, f"{spec.name}_sweep.csv"),
                     sweep_lines)
    return rows
