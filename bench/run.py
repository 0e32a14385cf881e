"""algossip benchmark: three gossip workloads, paper cost metrics, and an
outside-in traced run for per-layer time.

Run from the repository root:

    python3 bench/run.py --workload desk_alg_fail --seed 0 --seconds 10 --trace 0

``--workload`` is one of the names in ``workloads.WORKLOADS`` or ``all``
(the workloads one after another). ``--seed`` sets the event stream of each
gossip run; instances and graphs are fixed. With ``--trace 0`` the run
measures set-up (``harness.oracle`` into an empty cache directory, several
times) and then repeats the workload with the oracle cache warm until
``--seconds`` have been measured, at least once. With ``--trace 1`` it does
the same, then sets up and runs the workload once more with span wrappers
installed, and reports per-layer metrics and the tracing overhead.

Every repeat is checked (see ``workloads``) and must write trace CSVs
byte-identical to the first; the traced repeat must too. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every run passed its checks. Outputs go to ``.bench_out/`` under
the repository root. The package is imported from ``src/`` of the same
checkout, never from an installed copy.
"""

from __future__ import annotations

import os

# One thread for numerical libraries, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 9

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "k_per_s": "1/s",
    "tx_to_1e-3": "count",
    "k_to_1e-3": "count",
    "err_f_final_digits": "digits",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import algossip from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "algossip" / "__init__.py").is_file():
        print(f"error: no algossip package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import algossip

    if Path(algossip.__file__).resolve().parent != SRC / "algossip":
        print(f"error: imported algossip from {algossip.__file__}",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_1m": os.getloadavg()[0]}


def fresh_dir(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def trace_bytes(run_dir: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in sorted(Path(run_dir).glob("*_trace.csv"))}


def time_setup(workload, run_dir: str) -> float:
    from algossip import harness

    start = time.perf_counter()
    harness.oracle(workload.configs()[0], run_dir)
    return time.perf_counter() - start


class Session:
    """One workload's measurements: set-up times, timed repeats, checks."""

    def __init__(self, workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.setup_times: list[float] = []
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.first = None  # outcome of the first timed repeat
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_bytes: dict[str, bytes] | None = None

    def setup(self, count: int) -> str:
        run_dir = ""
        for i in range(count):
            run_dir = fresh_dir(self.out / f"setup{i}")
            self.setup_times.append(time_setup(self.workload, run_dir))
        return run_dir

    def repeat(self, run_dir: str, label: str):
        """Run the workload once and check it: its own checks, then its
        trace bytes against the first repeat's. Returns (wall seconds,
        outcome), or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.run(run_dir, self.seed)
        except Exception:  # a benchmark run must report, not crash
            self.failed += 1
            self.failures.append(f"{label}: raised\n"
                                 + traceback.format_exc())
            return None
        wall = time.perf_counter() - start
        problems = list(outcome.failures)
        got = trace_bytes(run_dir)
        if self.first_bytes is None:
            self.first_bytes = got
        elif got != self.first_bytes:
            problems.append("trace bytes differ from the first repeat")
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
        return wall, outcome

    def timed(self, run_dir: str, seconds: float) -> None:
        """Repeat until ``seconds`` are measured; stop at a failure."""
        while not self.walls or sum(self.walls) < seconds:
            got = self.repeat(run_dir, f"repeat {len(self.walls)}")
            if got is None:
                return
            wall, outcome = got
            self.walls.append(wall)
            self.rates.append(total_k(outcome) / wall)
            self.first = self.first or outcome
            if self.failed:
                return

    def end_to_end(self) -> dict:
        outcome = self.first
        crossing = outcome.crossing if outcome else None
        worst = (max(log.rows[-1].err_f for log in outcome.gossip)
                 if outcome else math.nan)
        return {
            "wall_s": median(self.walls),
            "setup_s": median(self.setup_times),
            "k_per_s": median(self.rates),
            "tx_to_1e-3": crossing.transmissions if crossing else None,
            "k_to_1e-3": crossing.k if crossing else None,
            "err_f_final": worst,
            "err_f_final_digits": (-math.log10(worst)
                                   if 0 < worst < math.inf else None),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "runs_failed": self.failed / max(self.attempted, 1),
        }


def total_k(outcome) -> int:
    """Events (rounds for ps) over every trace the repeat wrote."""
    return sum(log.rows[-1].k for log in outcome.logs.values())


def median(values):
    return statistics.median(values) if values else None


def traced_run(session: Session) -> dict:
    """Set up and run the workload once with span wrappers installed."""
    from layers import LAYER_UNITS, install, layer_metrics
    from tracer import Tracer, Wrapped

    tracer = Tracer()
    wrapped = Wrapped(tracer)
    counts = install(wrapped)
    run_dir = fresh_dir(session.out / "traced")
    try:
        time_setup(session.workload, run_dir)
        got = session.repeat(run_dir, "traced repeat")
    finally:
        restored = wrapped.unwrap()
    if not restored:
        session.failed += 1
        session.failures.append("traced repeat: a wrapper was not removed")
    tracer.write_table(session.out / "spans.csv")
    if got is None:
        return {name: None for name in LAYER_UNITS}
    wall, _ = got
    metrics = layer_metrics(tracer, counts, wall)
    base = median(session.walls)
    metrics["trace.overhead"] = wall / base - 1.0 if base else None
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool,
            out: Path = OUT) -> dict:
    session = Session(workload, seed, out / workload.name)
    fresh_dir(session.out)
    run_dir = session.setup(SETUPS)
    session.timed(run_dir, seconds)
    result = {"workload": workload.name, "seed": seed,
              "end_to_end": session.end_to_end(),
              "repeats": len(session.walls)}
    if trace:
        result["per_layer"] = traced_run(session)
    result.update(attempted=session.attempted, failed=session.failed,
                  failures=session.failures)
    with open(session.out / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict, trace: bool) -> dict:
    """Print a workload's metrics; return those the result line carries."""
    from layers import LAYER_UNITS

    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['repeats']} timed "
          f"repeat(s), {result['attempted']} run(s), {result['failed']} "
          f"failed)")
    units = dict(END_TO_END, err_f_final="1", runs_failed="share")
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:<28} {fmt(value):>16} {units[metric]}")
    carried = {m: (result["end_to_end"][m], u)
               for m, u in END_TO_END.items()}
    if trace:
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<28} {fmt(value):>16} {LAYER_UNITS[metric]}")
        carried = {m: (result["per_layer"][m], u)
                   for m, u in LAYER_UNITS.items()}
    for line in result["failures"]:
        print(f"  FAILED {line}")
    return {m: {"value": v, "unit": u} for m, (v, u) in carried.items()}


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print("env " + json.dumps(environment(), sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace))
        carried = report(result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = carried
        else:
            metrics.update({f"{name}.{m}": v for m, v in carried.items()})
    correct = failed == 0 and all(
        v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
