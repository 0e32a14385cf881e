"""Tests of the benchmark itself: span arithmetic, wrapper removal, a
tiny-size run of each workload, and the refusal to run without ``src/``.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import LAYER_UNITS  # noqa: E402
from tracer import Tracer, Wrapped  # noqa: E402
from workloads import DeskAlgFail, QuadAlmgFail, StaticAlbgPs  # noqa: E402


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    tracer.begin("root", 0.0)
    tracer.begin("a", 1.0)
    tracer.begin("leaf", 2.0)
    tracer.end(2.5)
    tracer.begin("leaf", 3.0)
    tracer.end(3.25)
    tracer.end(4.0)
    tracer.begin("b", 5.0)
    tracer.end(9.0)
    tracer.end(10.0)

    assert tracer.total_s("root") == 10.0
    assert tracer.self_s("root") == 10.0 - 3.0 - 4.0
    assert tracer.self_s("a") == 3.0 - 0.75
    assert tracer.count("leaf", parents={"a"}) == 2
    assert tracer.self_s("leaf") == tracer.total_s("leaf") == 0.75
    assert tracer.self_s("b") == 4.0
    assert tracer.count("b", parents={"a"}) == 0
    assert not tracer.stack


class _Base:
    def inherited(self, x):
        return x + 1


class _Child(_Base):
    def own(self, x):
        return self.inherited(x) * 2


def test_wrappers_record_spans_and_are_removed():
    module = types.SimpleNamespace(fn=lambda x: _Child().own(x))
    originals = (module.fn, _Child.own, _Base.inherited)
    seen = []
    tracer = Tracer()
    wrapped = Wrapped(tracer)
    wrapped.wrap(module, "fn", "fn", lambda args, result: seen.append(result))
    wrapped.wrap(_Child, "own", "own")
    wrapped.wrap(_Child, "inherited", "inherited")

    assert module.fn(1) == 4
    assert seen == [4]
    assert tracer.count("own", parents={"fn"}) == 1
    assert tracer.count("inherited", parents={"own"}) == 1
    assert wrapped.unwrap()
    assert (module.fn, _Child.own, _Base.inherited) == originals
    assert "inherited" not in vars(_Child)


TINY = {
    "desk_alg_fail": DeskAlgFail(t_outer=2, k_inner=1500),
    "quad_almg_fail": QuadAlmgFail(t_outer=2, k_inner=2000),
    # full-size albg slots, so this one passes every check
    "static_albg_ps": StaticAlbgPs(albg_seeds=1, ps_rounds=300),
}
# the other two have too few events to reach their accuracy checks;
# everything else must pass
EXPECTED_MISSES = ("never reached", "above")


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_traced_and_untraced(name, tmp_path):
    workload = TINY[name]
    result = run.measure(workload, seed=1, seconds=0.0, trace=True,
                         out=tmp_path)

    # timing stops at the first failed check, then the traced repeat runs
    assert result["attempted"] == result["repeats"] + 1
    if name == "static_albg_ps":
        assert result["failures"] == []
    for line in result["failures"]:
        assert any(m in line for m in EXPECTED_MISSES), line
    e2e = result["end_to_end"]
    assert set(run.END_TO_END) <= set(e2e)
    for metric in ("wall_s", "setup_s", "k_per_s", "peak_rss_mb"):
        assert e2e[metric] > 0
    layers = result["per_layer"]
    assert list(layers) == list(LAYER_UNITS)
    assert all(isinstance(v, (int, float)) for v in layers.values())
    assert layers["algo.slots"] == workload.t_outer * (
        getattr(workload, "albg_seeds", 1) + (name == "static_albg_ps"))
    assert (tmp_path / name / "spans.csv").is_file()

    from algossip import algo, harness
    assert not hasattr(algo.run_inner, "__wrapped__")
    assert not hasattr(harness.run, "__wrapped__")


def test_tiny_layers_see_their_workload(tmp_path):
    got = {name: run.measure(w, seed=0, seconds=0.0, trace=True,
                             out=tmp_path)["per_layer"]
           for name, w in TINY.items()}
    assert got["desk_alg_fail"]["events.void_share"] > 0
    assert got["desk_alg_fail"]["subsolve.iters_per_solve"] > 1
    assert got["quad_almg_fail"]["events.receivers_per_broadcast"] > 0
    assert got["quad_almg_fail"]["events.mg_resolve_share"] > 0
    assert got["quad_almg_fail"]["subsolve.iters_per_solve"] == 0
    assert got["static_albg_ps"]["baseline.rounds"] == 300
    assert got["static_albg_ps"]["subsolve.bg_block_share"] == 1
    assert got["static_albg_ps"]["baseline.share"] > 0
    assert got["desk_alg_fail"]["subsolve.bg_block_share"] == 0
    assert got["static_albg_ps"]["events.void_share"] == 0
    for layers in got.values():
        assert layers["harness.oracle_hits"] >= 1
        times = [m for m, u in LAYER_UNITS.items() if u in ("s", "us")]
        assert all(layers[m] > 0 for m in times)


class _Drifting:
    """Fake workload whose trace changes on its third run."""

    name = "drifting"

    def __init__(self):
        self.runs = 0

    def run(self, out_dir, seed):
        self.runs += 1
        Path(out_dir, "x_trace.csv").write_text(f"{self.runs // 3}\n")
        return types.SimpleNamespace(failures=[])


def test_repeat_flags_trace_bytes_that_differ_from_the_first(tmp_path):
    session = run.Session(_Drifting(), seed=0, out=tmp_path)
    for _ in range(3):
        session.repeat(str(tmp_path), "repeat")
    assert session.attempted == 3 and session.failed == 1
    assert session.failures == ["repeat: trace bytes differ from the "
                                "first repeat"]


def test_workload_seed_sets_only_the_event_stream(tmp_path):
    tiny = dataclasses.replace(TINY["quad_almg_fail"], t_outer=1)
    first = tiny.run(str(tmp_path / "a"), seed=3)
    again = tiny.run(str(tmp_path / "b"), seed=3)
    other = tiny.run(str(tmp_path / "c"), seed=4)
    assert first.logs[tiny.name] == again.logs[tiny.name]
    assert first.logs[tiny.name] != other.logs[tiny.name]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == sorted(TINY)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quad_almg_fail",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
