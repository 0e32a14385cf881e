"""The benchmark's three workloads, each run through the public harness.

Every workload is a fixed instance and graph (fixed problem and graph
seeds); the benchmark seed sets only ``[run] seed``, the event stream of
each gossip run, so a given seed repeats its counts exactly. Each workload
runs through the entry points ``algossip run``, ``sweep`` and ``compare``
use, checks its own outputs, and names the trace rows its cost metrics are
read from.

Why these three (shares from cProfile on a 2-core machine, seed 0):

* ``desk_alg_fail`` -- the acceptance-6 alg run in full. FISTA node-block
  solves (``subsolve`` + ``problem``) take about 85% of the time, 4 of 25
  slots end on the ``k_inner`` cap holding 63% of the events, and
  asymmetric failures turn transfers into void transmissions.
  Seed 0: 534,168 events, 406,919 tx, final err_f 1.015e-5, err_f 1e-3
  first reached at k=504,000, tx=383,909.
* ``quad_almg_fail`` -- almg on an unconstrained quadratic: node solves are
  closed form and projection is the identity, so per-event work in
  ``algo``, link updates and event sampling dominate. An array-backed core
  should show here and a faster node solver should not.
  Seed 0: 333,717 events, 750,486 tx, final err_f 9.47e-5, err_f 1e-3
  first reached at k=270,000, tx=605,216.
* ``static_albg_ps`` -- the acceptance-5 static instance: albg on five
  event seeds (checkpoint every 20 events, so metrics are a large share)
  and the ps baseline, the only caller of ``baseline.ps_step``.
  Seed 0: albg crosses 1e-3 at median tx 1,760 (per seed 1,700-1,800).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from algossip import harness
from algossip.metrics import MetricsLog, MetricsRow

THRESHOLD = 1e-3

DESK_LOGREG = {"kind": "logreg", "nodes": "10", "dim": "10",
               "samples_per_node": "5", "noise_var": "0.1"}
DESK_GRAPH = {"radius": "0.45", "seed": "7"}
AL_FIXED = {"schedule": "fixed", "schedule_params": "5"}
FISTA = {"inner_budget": "25", "inner_tol": "1e-10"}
DISTANCE_FAILURES = {"failures": "distance", "failure_scale": "0.5"}


def config(name: str, problem: dict, graph: dict, algo: dict,
           run: dict) -> harness.RunConfig:
    return harness.RunConfig({"problem": dict(problem), "graph": dict(graph),
                              "algo": dict(algo), "run": dict(run)},
                             name=name)


@dataclass
class Outcome:
    """What one execution of a workload produced.

    ``logs`` holds every trace it wrote, ``gossip`` the runs whose final
    err_f counts toward ``err_f_final``, ``crossing`` the row the
    ``*_to_1e-3`` metrics are read from, and ``failures`` one line per
    failed check."""

    logs: dict[str, MetricsLog] = field(default_factory=dict)
    gossip: list[MetricsLog] = field(default_factory=list)
    crossing: MetricsRow | None = None
    failures: list[str] = field(default_factory=list)


def _single_run(cfg: harness.RunConfig, out_dir: str, seed: int,
                outcome: Outcome) -> MetricsLog:
    log = harness.run(cfg, out_dir=out_dir, seed=seed).log
    outcome.logs[cfg.name] = log
    outcome.gossip.append(log)
    outcome.crossing = log.first_crossing(THRESHOLD)
    if outcome.crossing is None:
        outcome.failures.append(f"{cfg.name}: err_f never reached "
                                f"{THRESHOLD:g}")
    return log


@dataclass(frozen=True)
class DeskAlgFail:
    """Acceptance-6 alg run: logreg under asymmetric distance failures."""

    name = "desk_alg_fail"
    t_outer: int = 25
    k_inner: int = 84_000

    def configs(self) -> list[harness.RunConfig]:
        return [config(
            self.name, {**DESK_LOGREG, "seed": "6"},
            {**DESK_GRAPH, **DISTANCE_FAILURES},
            {"name": "alg", **AL_FIXED, **FISTA, "stop_tol": "1e-6"},
            {"t_outer": str(self.t_outer), "k_inner": str(self.k_inner),
             "checkpoint": "2000", "fstar": "auto"})]

    def run(self, out_dir: str, seed: int) -> Outcome:
        out = Outcome()
        log = _single_run(self.configs()[0], out_dir, seed, out)
        final = log.rows[-1].err_f
        if not final <= 5e-3:
            out.failures.append(f"final err_f {final:.3e} above 5e-3")
        if not all(r.feasible for r in log.rows):
            out.failures.append("infeasible checkpoint")
        return out


@dataclass(frozen=True)
class QuadAlmgFail:
    """almg on an unconstrained quadratic-consensus instance."""

    name = "quad_almg_fail"
    t_outer: int = 25
    k_inner: int = 33_000

    def configs(self) -> list[harness.RunConfig]:
        return [config(
            self.name,
            {"kind": "quad", "nodes": "12", "dim": "3", "seed": "2",
             "spread": "1.0"},
            {"radius": "0.5", "seed": "5", **DISTANCE_FAILURES},
            {"name": "almg", **AL_FIXED, "stop_tol": "1e-8"},
            {"t_outer": str(self.t_outer), "k_inner": str(self.k_inner),
             "checkpoint": "2000", "fstar": "auto"})]

    def run(self, out_dir: str, seed: int) -> Outcome:
        out = Outcome()
        log = _single_run(self.configs()[0], out_dir, seed, out)
        errs = log.column("err_f")
        if not all(math.isfinite(e) for e in errs):
            out.failures.append("non-finite err_f")
        elif not errs[-1] <= THRESHOLD:
            out.failures.append(f"final err_f {errs[-1]:.3e} above "
                                f"{THRESHOLD:g}")
        return out


@dataclass(frozen=True)
class StaticAlbgPs:
    """Acceptance-5 static instance: albg over several event seeds, then
    albg against the ps baseline through ``compare``."""

    name = "static_albg_ps"
    t_outer: int = 25
    k_inner: int = 100
    albg_seeds: int = 5
    ps_rounds: int = 20_000

    def configs(self) -> list[harness.RunConfig]:
        problem = {**DESK_LOGREG, "seed": "3"}
        graph = {**DESK_GRAPH, "failures": "always_on"}
        albg = config("static_albg", problem, graph,
                      {"name": "albg", **AL_FIXED, **FISTA},
                      {"t_outer": str(self.t_outer),
                       "k_inner": str(self.k_inner), "checkpoint": "20",
                       "fstar": "auto"})
        ps = config("static_ps", problem, graph,
                    {"name": "ps", "alpha": "1e-4"},
                    {"t_outer": str(self.ps_rounds), "checkpoint": "500",
                     "fstar": "auto"})
        return [albg, ps]

    def run(self, out_dir: str, seed: int) -> Outcome:
        out = Outcome()
        albg, ps = self.configs()
        seeds = [self.albg_seeds * seed + s for s in range(self.albg_seeds)]
        harness.sweep(albg, seeds, out_dir=out_dir)
        crossings = []
        for s in seeds:
            log = MetricsLog.from_csv(os.path.join(
                out_dir, f"{albg.name}_seed{s}_trace.csv"))
            out.logs[f"{albg.name}_seed{s}"] = log
            out.gossip.append(log)
            row = log.first_crossing(THRESHOLD)
            if row is None:
                out.failures.append(f"albg seed {s} never reached "
                                    f"{THRESHOLD:g}")
            else:
                crossings.append(row)
        if crossings:
            crossings.sort(key=lambda r: r.transmissions)
            out.crossing = crossings[len(crossings) // 2]

        albg = dataclasses.replace(
            albg, sections={**albg.sections,
                            "run": {**albg.sections["run"],
                                    "seed": str(seeds[0])}})
        table = harness.compare([albg, ps], [THRESHOLD], out_dir=out_dir)
        for cfg in (albg, ps):
            out.logs[cfg.name] = MetricsLog.from_csv(
                os.path.join(out_dir, f"{cfg.name}_trace.csv"))
        albg_row, ps_row = table
        swept = out.logs[f"{albg.name}_seed{seeds[0]}"].first_crossing(
            THRESHOLD)
        if albg_row["transmissions"] != (swept and swept.transmissions):
            out.failures.append("compare and sweep disagree on albg "
                                f"seed {seeds[0]}")
        if out.crossing is not None:
            # ps never crossing gives a lower bound: all it sent
            tx_ps = (ps_row["transmissions"] if ps_row["reached"]
                     else out.logs[ps.name].rows[-1].transmissions)
            tx_albg = out.crossing.transmissions
            if not tx_ps >= 3 * tx_albg:
                out.failures.append(f"ps needs {tx_ps} tx, under 3x albg's "
                                    f"median {tx_albg}")
        return out


WORKLOADS = {w.name: w for w in (DeskAlgFail(), QuadAlmgFail(),
                                 StaticAlbgPs())}
