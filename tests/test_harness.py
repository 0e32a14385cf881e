import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from algossip import algo, harness
from algossip.cli import main as cli_main
from algossip.errors import ConfigError, MismatchError
from algossip.events import EventKind
from algossip.metrics import MetricsLog, MetricsRow, write_atomic
from algossip.problem import LogRegInstance, err_f, instance_text

GOLDEN = Path(__file__).parent / "golden"
QUAD_CONFIG = """
[problem]
kind = quad
nodes = 4
dim = 1
targets = 0; 1; 2; 3

[graph]
radius = 0.9
seed = 2
failures = always_on

[algo]
name = {name}
schedule = power
schedule_params = 1.3,1
{extra}

[run]
t_outer = {t_outer}
k_inner = 120
seed = 0
checkpoint = 60
fstar = auto
"""


# the quad problem becomes draw_logreg(4, 5, 4, 0.1, seed=3), whose 16
# labels are all +1
ONE_CLASS_EDIT = ("kind = quad\nnodes = 4\ndim = 1\ntargets = 0; 1; 2; 3",
                  "kind = logreg\nnodes = 4\ndim = 5\n"
                  "samples_per_node = 4\nseed = 3")
ONE_CLASS_CONFIG = QUAD_CONFIG.format(name="alg", t_outer=2,
                                      extra="").replace(*ONE_CLASS_EDIT)
# Imports algossip, runs a quad config and two bad configs through the CLI,
# then builds a logistic instance; prints whether scipy.special was loaded
# after each step.
SCIPY_PROBE = """
import sys
import numpy as np


def loaded():
    return "scipy.special" in sys.modules


import algossip
from algossip.cli import main
steps = [loaded()]
assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
steps.append(loaded())
for bad in sys.argv[3:]:
    assert main(["run", "--config", bad]) == 2
    steps.append(loaded())
from algossip.problem import LogRegInstance
LogRegInstance(np.ones((1, 2, 1)), [[1.0, -1.0]], 0.1, [1.0], [1.0])
steps.append(loaded())
print(steps)
"""


def write_config(tmp_path, name="albg", t_outer=10, extra="",
                 fname="run.cfg", body=None):
    path = tmp_path / fname
    text = body if body is not None else QUAD_CONFIG.format(
        name=name, t_outer=t_outer, extra=extra)
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_valid_config_parses(self, tmp_path):
        cfg = harness.parse_config(write_config(tmp_path))
        assert cfg.sections["algo"]["name"] == "albg"
        assert cfg.name == "run"
        spec = harness.validate(cfg)
        assert spec.sections is cfg.sections and spec.name == "run"
        assert (spec.algo, spec.t_outer, spec.k_inner, spec.checkpoint) == (
            "albg", 10, 120, 60)
        assert spec.schedule == algo.PenaltySchedule.power(1.3, 1)
        assert spec.targets == ((0.0,), (1.0,), (2.0,), (3.0,))
        assert (spec.fstar, spec.inner_tol, spec.alpha) == ("auto", None,
                                                            None)
        assert harness.validate(spec) is spec

    def test_unknown_key_is_rejected(self, tmp_path):
        bad = QUAD_CONFIG.format(name="albg", t_outer=5, extra="") \
            .replace("radius", "radios")
        with pytest.raises(ConfigError, match="radios"):
            harness.validate(write_config(tmp_path, body=bad))

    def test_unknown_section_is_rejected(self, tmp_path):
        bad = QUAD_CONFIG.format(name="albg", t_outer=5, extra="") \
            + "\n[plotting]\nstyle = lines\n"
        with pytest.raises(ConfigError, match="plotting"):
            harness.validate(write_config(tmp_path, body=bad))

    def test_missing_section_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing section"):
            harness.validate(write_config(
                tmp_path, body="[problem]\nkind = quad\n"))

    def test_algorithm_failure_compatibility(self, tmp_path):
        bad = QUAD_CONFIG.format(name="albg", t_outer=3, extra="") \
            .replace("failures = always_on",
                     "failures = uniform\nfailure_p = 0.5")
        with pytest.raises(ConfigError):
            harness.run(harness.parse_config(write_config(tmp_path,
                                                          body=bad)))


class TestRun:
    def test_run_writes_trace_manifest_state(self, tmp_path):
        out = tmp_path / "out"
        res = harness.run(write_config(tmp_path), out_dir=str(out))
        assert (out / "run_trace.csv").exists()
        assert (out / "run_manifest.json").exists()
        assert (out / "run_state.txt").exists()
        assert res.log.rows[-1].err_f < 1e-3

    def test_zero_outer_slots_gives_header_plus_initial_row(self, tmp_path):
        out = tmp_path / "out"
        harness.run(write_config(tmp_path, t_outer=0), out_dir=str(out))
        lines = (out / "run_trace.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("t,k,transmissions")

    def test_identical_config_and_seed_byte_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        harness.run(cfg, out_dir=str(out1))
        harness.run(cfg, out_dir=str(out2))
        assert (out1 / "run_trace.csv").read_bytes() == \
            (out2 / "run_trace.csv").read_bytes()

    def test_csv_round_trip_reproduces_log(self, tmp_path):
        out = tmp_path / "out"
        res = harness.run(write_config(tmp_path), out_dir=str(out))
        back = MetricsLog.from_csv(out / "run_trace.csv")
        assert back == res.log

    def test_seed_override_changes_trajectory_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        a = harness.run(cfg)
        b = harness.run(cfg, seed=1)
        assert a.manifest["manifest_hash"] != b.manifest["manifest_hash"]
        assert a.manifest["instance_hash"] == b.manifest["instance_hash"]

    def test_manifest_hash_tracks_config_fields(self, tmp_path):
        a = harness.run(write_config(tmp_path))
        c = harness.run(write_config(tmp_path, t_outer=11, fname="run2.cfg"))
        assert a.manifest["manifest_hash"] != c.manifest["manifest_hash"]
        again = harness.run(write_config(tmp_path))
        assert a.manifest["manifest_hash"] == again.manifest["manifest_hash"]

    def test_harness_err_matches_problem_err(self, tmp_path):
        cfg = harness.parse_config(write_config(tmp_path))
        res = harness.run(cfg)
        problem = harness.build_problem(harness.validate(cfg))
        fstar = res.manifest["fstar"]
        direct = err_f(problem, res.final_x, fstar)
        assert res.log.rows[-1].err_f == pytest.approx(direct, abs=1e-12)

    def test_desk_classification_run_reaches_threshold(self, tmp_path):
        body = """
[problem]
kind = logreg
nodes = 10
dim = 10
samples_per_node = 5
noise_var = 0.1
seed = 3

[graph]
radius = 0.45
seed = 7
failures = always_on

[algo]
name = albg
schedule = fixed
schedule_params = 5
inner_budget = 25
inner_tol = 1e-10

[run]
t_outer = 25
k_inner = 100
seed = 0
checkpoint = 100
fstar = auto
"""
        res = harness.run(write_config(tmp_path, body=body,
                                       fname="desk.cfg"))
        assert res.log.rows[-1].err_f < 1e-3
        assert all(r.feasible for r in res.log.rows)

    def test_ps_runs_through_harness(self, tmp_path):
        cfg = write_config(tmp_path, name="ps", t_outer=400,
                           extra="alpha = 0.01", fname="ps.cfg")
        res = harness.run(cfg)
        assert math.isnan(res.log.rows[-1].L_value)
        assert res.log.rows[-1].err_f < 0.1


class TestSkipCounts:
    """The manifest's skip counts, checked against events and node solver
    calls counted at the seams the run loop calls through ``algo``, and
    against the link solves the kernel counts."""

    @pytest.mark.parametrize("name", ["alg_adaptive_logreg",
                                      "almg_fixed_quad"])
    def test_skips_and_solves_cover_every_block_event(self, name, tmp_path,
                                                      monkeypatch):
        seen = dict(x_events=0, delivered=0, solves=0)
        made = []

        def counters():
            made.append(algo.Counters())
            return made[-1]

        def sampler(fn):
            def wrapper(*args):
                ev = fn(*args)
                if ev.kind is EventKind.X_UPDATE:
                    seen["x_events"] += 1
                elif ev.kind is EventKind.Y_TRANSFER:
                    seen["delivered"] += 1
                elif ev.receivers:  # a resolved broadcast
                    seen["delivered"] += len(ev.receivers)
                return ev
            return wrapper

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for attr in ("sample_event", "sample_mg_event"):
            monkeypatch.setattr(algo, attr, sampler(getattr(algo, attr)))
        monkeypatch.setattr(algo, "solve_x_block",
                            counted(algo.solve_x_block, "solves"))
        monkeypatch.setattr(harness, "Counters", counters)
        cfg = Path(__file__).resolve().parent / "golden" / f"{name}.cfg"
        res = harness.run(str(cfg), out_dir=str(tmp_path))

        with open(tmp_path / f"{name}_manifest.json") as fh:
            skipped = json.load(fh)["skipped_blocks"]
        assert skipped == res.manifest["skipped_blocks"]
        assert skipped["node"] > 0 and skipped["link"] > 0
        assert skipped["node"] + seen["solves"] == seen["x_events"]
        assert len(made) == 1
        assert skipped["link"] + made[0].link_solves == seen["delivered"]
        # kept out of everything that is hashed or pinned
        cfg_parsed = harness.parse_config(str(cfg))
        assert res.manifest["manifest_hash"] == harness.manifest_hash(
            cfg_parsed.sections, res.manifest["seed"])
        header = (tmp_path / f"{name}_trace.csv").read_text().split("\n")[0]
        assert "skip" not in header


class TestReliableLinks:
    @pytest.mark.parametrize("name,extra", [
        ("alg", ""), ("almg", ""), ("albg", ""), ("ps", "alpha = 0.05"),
    ])
    def test_uniform_p_one_runs_like_always_on(self, tmp_path, name, extra):
        body = QUAD_CONFIG.format(name=name, t_outer=3, extra=extra)
        uniform = body.replace("failures = always_on",
                               "failures = uniform\nfailure_p = 1")
        outputs = []
        for i, text in enumerate((body, uniform)):
            out = tmp_path / f"out{i}"
            harness.run(write_config(tmp_path, body=text), out_dir=str(out))
            outputs.append([(out / f).read_bytes()
                            for f in ("run_trace.csv", "run_state.txt")])
        assert outputs[0] == outputs[1]


class TestFileBackedConfigs:
    def test_run_from_saved_network_and_instance(self, tmp_path):
        from algossip.graph import FailureModel, build_geometric, network_text
        from algossip.problem import QuadConsensusInstance

        graph = build_geometric(4, 0.9, seed=2)
        (tmp_path / "net.txt").write_text(
            network_text(graph, FailureModel.always_on(graph)))
        inst = QuadConsensusInstance([[0.0], [1.0], [2.0], [3.0]])
        (tmp_path / "inst.txt").write_text(instance_text(inst))
        body = f"""
[problem]
kind = file
file = {tmp_path / 'inst.txt'}

[graph]
file = {tmp_path / 'net.txt'}

[algo]
name = albg
schedule = power
schedule_params = 1.3,1

[run]
t_outer = 10
k_inner = 120
seed = 0
checkpoint = 60
fstar = auto
"""
        res = harness.run(write_config(tmp_path, body=body,
                                       fname="filecfg.cfg"))
        assert res.log.rows[-1].err_f < 1e-3


class TestOracle:
    def test_analytic_value_and_cache(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        first = harness.oracle(cfg, out_dir=out)
        assert first["cached"] is False
        assert first["fstar"] == pytest.approx(5.0)  # sum (1.5 - a_i)^2
        second = harness.oracle(cfg, out_dir=out)
        assert second["cached"] is True
        assert second["fstar"] == first["fstar"]

    def test_run_reuses_cached_value(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path)
        harness.oracle(cfg, out_dir=out)
        cache_file = os.path.join(out, "oracle_cache.json")
        before = open(cache_file).read()
        harness.run(cfg, out_dir=out)
        assert open(cache_file).read() == before


    def test_corrupt_cache_warns_and_is_recomputed(self, tmp_path):
        cfg = write_config(tmp_path)
        clean = harness.run(str(cfg), out_dir=str(tmp_path / "clean"))
        full = (tmp_path / "clean" / "oracle_cache.json").read_text()
        out = tmp_path / "out"
        out.mkdir()
        cache = out / "oracle_cache.json"
        cache.write_text(full[: len(full) // 2])  # a write cut short
        with pytest.warns(UserWarning, match="corrupt oracle cache"):
            res = harness.run(str(cfg), out_dir=str(out))
        assert res.manifest["fstar"] == clean.manifest["fstar"]
        assert json.loads(cache.read_text()) == json.loads(full)

    def test_interrupted_write_keeps_previous_cache(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "oracle_cache.json"
        cache = harness.OracleCache(str(path))
        cache.put("a", {"fstar": 1.0})
        before = path.read_bytes()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.put("b", {"fstar": 2.0})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, lambda fh: fh.write("old\n"))

        def half_then_fail(fh):
            fh.write("new, cut short")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, half_then_fail)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_trace_write_keeps_previous_trace(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "trace.csv"
        log = MetricsLog()
        for k in range(4):
            log.append(MetricsRow(0, k, k, k, 1.0 / (k + 1), 0.0, 0.0, True))
        log.to_csv(path)
        before = path.read_bytes()
        longer = MetricsLog()
        for row in log.rows + log.rows[-1:]:
            longer.append(row)
        lines = MetricsRow.to_csv_line
        calls = []

        def fail_on_third(row):
            calls.append(row)
            if len(calls) == 3:
                raise OSError("disk full")
            return lines(row)

        monkeypatch.setattr(MetricsRow, "to_csv_line", fail_on_third)
        with pytest.raises(OSError):
            longer.to_csv(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_run_keeps_previous_outputs(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        harness.run(str(cfg), out_dir=str(out))
        names = ("run_manifest.json", "run_state.txt")
        before = {n: (out / n).read_bytes() for n in names}

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # another seed rewrites every output; the manifest write fails
        monkeypatch.setattr(harness.json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness.run(str(cfg), out_dir=str(out), seed=1)
        assert {n: (out / n).read_bytes() for n in names} == before
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_failed_extract_keeps_previous_file(self, tmp_path, capsys,
                                                monkeypatch):
        cfg = write_config(tmp_path)
        harness.run(str(cfg), out_dir=str(tmp_path / "out"))
        trace = str(tmp_path / "out" / "run_trace.csv")
        plot_dir = tmp_path / "plot"
        plot_dir.mkdir()
        plot = plot_dir / "err.txt"
        assert cli_main(["extract", "--trace", trace, "--out",
                         str(plot)]) == 0
        before = plot.read_bytes()
        # --out holds exactly what standard output would
        assert cli_main(["extract", "--trace", trace]) == 0
        assert capsys.readouterr().out.encode() == before

        def interrupted(src, dst):
            raise KeyboardInterrupt

        # different plot data is written out, then the run is cut short
        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main(["extract", "--trace", trace, "--x", "flops",
                      "--out", str(plot)])
        assert plot.read_bytes() == before
        assert list(plot_dir.iterdir()) == [plot]


class TestCompare:
    def test_single_config_degenerate_table(self, tmp_path):
        table = harness.compare([write_config(tmp_path)], [1e-2])
        assert len(table) == 1
        assert table[0]["reached"]
        assert table[0]["transmissions"] > 0

    def test_two_algorithms_on_shared_instance(self, tmp_path):
        a = write_config(tmp_path, name="albg", fname="a.cfg")
        b = write_config(tmp_path, name="alg", t_outer=40, fname="b.cfg")
        out = tmp_path / "cmp"
        table = harness.compare([a, b], [1e-1, 1e-2], out_dir=str(out))
        assert len(table) == 4
        assert (out / "compare.csv").exists()

    def test_same_config_different_seeds_both_reported(self, tmp_path):
        base = QUAD_CONFIG.format(
            name="alg", t_outer=15,
            extra="stop_tol = 1e-6\nschedule = fixed\n"
                  "schedule_params = 5") \
            .replace("schedule = power\nschedule_params = 1.3,1\n", "") \
            .replace("k_inner = 120", "k_inner = 20000") \
            .replace("failures = always_on",
                     "failures = uniform\nfailure_p = 0.8")
        a = write_config(tmp_path, fname="seed0.cfg", body=base)
        # "seed = 0" appears only in [run]; the graph section uses seed = 2
        b = write_config(tmp_path, fname="seed1.cfg",
                         body=base.replace("seed = 0", "seed = 1"))
        table = harness.compare([a, b], [1e-1])
        assert len(table) == 2
        assert all(r["reached"] for r in table)
        tx = [r["transmissions"] for r in table]
        assert max(tx) <= 3 * min(tx)  # same order, seed-level variation

    def test_mismatched_instances_are_rejected(self, tmp_path):
        a = write_config(tmp_path, fname="a.cfg")
        other = QUAD_CONFIG.format(name="albg", t_outer=10, extra="") \
            .replace("targets = 0; 1; 2; 3", "targets = 0; 1; 2; 4")
        b = write_config(tmp_path, fname="b.cfg", body=other)
        with pytest.raises(MismatchError):
            harness.compare([a, b], [1e-2])

    def test_mismatch_is_found_before_anything_runs(self, tmp_path,
                                                    monkeypatch):
        golden = Path(__file__).resolve().parent / "golden"
        a = golden / "almg_fixed_quad.cfg"
        text = a.read_text()
        problem = text[:text.index("[graph]")]
        assert "seed = 5\n" in problem  # the instance seed
        b = write_config(tmp_path, fname="b.cfg", body=text.replace(
            "seed = 5\n", "seed = 6\n", 1))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the instances were checked")

        monkeypatch.setattr(harness, "reference_value", no_solve)
        monkeypatch.setattr(harness, "run_outer", no_solve)
        out = tmp_path / "cmp"
        with pytest.raises(MismatchError):
            harness.compare([a, b], [1e-2], out_dir=str(out))
        assert not out.exists() or not any(out.iterdir())


class TestSweep:
    def test_multi_seed_summary(self, tmp_path):
        rows = harness.sweep(write_config(tmp_path), [0, 1, 2],
                             out_dir=str(tmp_path / "sw"))
        assert [r["seed"] for r in rows] == [0, 1, 2]
        assert all(r["err_f"] < 1e-2 for r in rows)
        assert (tmp_path / "sw" / "run_sweep.csv").exists()
        assert (tmp_path / "sw" / "run_seed1_trace.csv").exists()


class TestCLI:
    def test_run_and_extract(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert cli_main(["extract", "--trace",
                         str(out / "run_trace.csv"),
                         "--x", "transmissions"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 2
        assert len(lines[-1].split()) == 2

    def test_compare_and_sweep_and_oracle(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli_main(["oracle", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0
        assert cli_main(["compare", "--configs", str(cfg),
                         "--thresholds", "1e-1,1e-2"]) == 0
        assert cli_main(["sweep", "--config", str(cfg),
                         "--seeds", "0..2"]) == 0
        assert "seed" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, body="[problem]\nkind = quad\n")
        assert cli_main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("edits,args", [
        ([("schedule_params = 1.3,1", "schedule_params = 1.3,x")], ["run"]),
        ([("schedule = power\nschedule_params = 1.3,1",
           "schedule = fixed\nschedule_params = -1")], ["run"]),
        ([("name = alg", "name = alg\ninner_budget = 0")], ["run"]),
        ([("radius = 0.9", "radius = 0.01")], ["run"]),
        ([("failures = always_on", "failures = uniform\nfailure_p = 1.5")],
         ["run"]),
        ([], ["sweep", "--seeds", "x..3"]),
        ([("targets = 0; 1; 2; 3", "targets = 0; a; 2; 3")], ["run"]),
        ([("kind = quad", "kind = file\nfile = {tmp}/missing.txt")],
         ["run"]),
        ([("radius = 0.9\nseed = 2\nfailures = always_on",
           "file = {tmp}/missing.txt")], ["run"]),
        ([("radius = 0.9\nseed = 2\nfailures = always_on",
           "file = {tmp}/disconnected.txt")], ["run"]),
        ([("t_outer = 2", "t_outer = -3")], ["run"]),
        ([("name = alg", "name = ps\nalpha = 0.01"),
          ("t_outer = 2", "t_outer = -3")], ["run"]),
        ([("k_inner = 120", "k_inner = -5")], ["run"]),
        ([("checkpoint = 60", "checkpoint = -5")], ["run"]),
        ([("name = alg", "name = ps\nalpha = 0.01"),
          ("checkpoint = 60", "checkpoint = -5")], ["run"]),
        ([("name = alg", "name = albg"),
          ("failures = always_on", "failures = uniform\nfailure_p = 0.5")],
         ["run"]),
        ([("name = alg", "name = albg"),
          ("schedule = power\nschedule_params = 1.3,1",
           "schedule = adaptive\nschedule_params = 0.3,1.2,1")], ["run"]),
        ([("seed = 0", "seed = x")], ["sweep", "--seeds", "0..1"]),
        ([("fstar = auto", "fstar = nan")], ["run"]),
        ([("seed = 0", "seed = -1")], ["run"]),
        ([], ["run", "--seed", "-1"]),
        ([], ["sweep", "--seeds=-1..1"]),
        ([("[problem]\n", "nodes = 4\n[problem]\n")], ["run"]),
        ([("name = alg", "name = albg"),
          ("radius = 0.9\nseed = 2\nfailures = always_on",
           "file = {tmp}/unreliable.txt")], ["run"]),
        ([("radius = 0.9", "radius = 1e308"),
          ("failures = always_on", "failures = distance")], ["run"]),
        ([ONE_CLASS_EDIT], ["run"]),
        ([("kind = quad\nnodes = 4\ndim = 1\ntargets = 0; 1; 2; 3",
           "kind = file\nfile = {tmp}/one_class.txt")], ["run"]),
    ], ids=["schedule_params", "negative_rho", "inner_budget", "radius",
            "failure_p", "seeds", "targets", "problem_file", "graph_file",
            "graph_file_disconnected", "negative_t_outer",
            "ps_negative_t_outer", "negative_k_inner", "negative_checkpoint",
            "ps_negative_checkpoint", "albg_unreliable_links",
            "albg_adaptive", "sweep_run_seed", "nan_fstar",
            "negative_run_seed", "negative_seed_flag",
            "negative_sweep_seed", "no_section_header",
            "albg_unreliable_graph_file", "overflowing_radius",
            "one_class_logreg", "one_class_instance_file"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, edits,
                                             args):
        # edges 0-1 and 2-3 only: a network with two components
        (tmp_path / "disconnected.txt").write_text("4\n0 1 1 1\n2 3 1 1\n")
        # a path whose first link fails half the time one way
        (tmp_path / "unreliable.txt").write_text(
            "4\n0 1 0.5 1\n1 2 1 1\n2 3 1 1\n")
        # every sample labeled +1
        (tmp_path / "one_class.txt").write_text(instance_text(LogRegInstance(
            np.ones((4, 2, 1)), np.ones((4, 2)), 0.1, np.ones(4),
            np.ones(4))))
        body = QUAD_CONFIG.format(name="alg", t_outer=2, extra="")
        for old, new in edits:
            assert old in body
            body = body.replace(old, new.format(tmp=tmp_path))
        cfg = write_config(tmp_path, body=body)
        out = tmp_path / "out"
        assert cli_main(args[:1] + ["--config", str(cfg), "--out", str(out)]
                        + args[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # rejected before the reference solve, with no output written
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("args", [
        ["compare", "--configs", "{cfg}", "--thresholds", "1e-2,x",
         "--out", "{tmp}/out"],
        ["extract", "--trace", "{tmp}/missing.csv"],
        ["extract", "--trace", "{tmp}/malformed.csv"],
        ["oracle", "--config", "{cfg}", "--out", "{tmp}/out", "--budget",
         "0"],
        ["compare", "--configs", "{cfg}", "{tmp}/sub/run.cfg",
         "--thresholds", "1e-2", "--out", "{tmp}/out"],
        ["sweep", "--config", "{cfg}", "--seeds", "3..1", "--out",
         "{tmp}/out"],
        ["sweep", "--config", "{cfg}", "--seeds", "1,1", "--out",
         "{tmp}/out"],
        ["compare", "--configs", "{cfg}", "--thresholds", ",", "--out",
         "{tmp}/out"],
        ["run", "--config", "{cfg}", "--out", "{tmp}/malformed.csv"],
        ["oracle", "--config", "{cfg}", "--out", "{tmp}/malformed.csv/out"],
        ["sweep", "--config", "{cfg}", "--seeds", "0", "--out",
         "{tmp}/malformed.csv"],
        ["compare", "--configs", "{cfg}", "--thresholds", "1e-2", "--out",
         "{tmp}/malformed.csv"],
        ["extract", "--trace", "{tmp}/empty.csv", "--out",
         "{tmp}/missing/plot.txt"],
    ], ids=["compare_thresholds", "extract_missing", "extract_malformed",
            "oracle_budget", "compare_same_name", "sweep_no_seeds",
            "sweep_repeated_seed", "compare_no_thresholds", "run_out_file",
            "oracle_out_under_file", "sweep_out_file", "compare_out_file",
            "extract_out_missing_dir"])
    def test_bad_arguments_exit_2_with_one_line(self, tmp_path, capsys,
                                                monkeypatch, args):
        cfg = write_config(tmp_path)
        # another config named "run", on the same instance
        (tmp_path / "sub").mkdir()
        write_config(tmp_path / "sub", name="alg")
        header = ("t,k,transmissions,flops,err_f,L_value,max_dual_gap,"
                  "feasible\n")
        (tmp_path / "malformed.csv").write_text(header + "0,0,x\n")
        (tmp_path / "empty.csv").write_text(header)

        def no_build(*args, **kwargs):
            raise AssertionError("built before the arguments were checked")

        monkeypatch.setattr(harness, "build_problem", no_build)
        assert cli_main([a.format(cfg=cfg, tmp=tmp_path) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_one_class_draw_names_its_label_counts(self, tmp_path):
        spec = harness.validate(str(write_config(tmp_path,
                                                 body=ONE_CLASS_CONFIG)))
        with pytest.raises(ConfigError,
                           match="16 positive and 0 negative labels"):
            harness.build_problem(spec)

    def test_only_the_logistic_family_loads_scipy(self, tmp_path):
        good = write_config(tmp_path, name="alg", t_outer=2)
        malformed = write_config(tmp_path, fname="malformed.cfg",
                                 body="[problem]\nkind = quad\n")
        one_class = write_config(tmp_path, fname="one_class.cfg",
                                 body=ONE_CLASS_CONFIG)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(harness.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, str(good),
             str(tmp_path / "out"), str(malformed), str(one_class)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        # import, quad run, two config errors: no scipy; logistic: scipy
        assert done.stdout.split("\n")[-2] == (
            "[False, False, False, False, True]")

    def test_compare_checks_every_config_before_running_any(self, tmp_path,
                                                            capsys):
        good = write_config(tmp_path, fname="good.cfg")
        bad = write_config(tmp_path, fname="bad.cfg", body=QUAD_CONFIG.format(
            name="alg", t_outer=2, extra="").replace(
                "schedule_params = 1.3,1", "schedule_params = x"))
        out = tmp_path / "out"
        assert cli_main(["compare", "--configs", str(good), str(bad),
                         "--thresholds", "1e-2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        runaway = QUAD_CONFIG.format(name="ps", t_outer=200,
                                     extra="alpha = 1e6")
        runaway = runaway.replace("checkpoint = 60", "checkpoint = 1")
        cfg = write_config(tmp_path, body=runaway)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["run", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("golden,old,new", [
        ("alg_adaptive_logreg", "schedule_params = 0.3,1.2,1",
         "schedule_params = 0.3,1e308,1"),
        ("almg_fixed_quad", "fstar = auto", "fstar = 1e308"),
        ("ps_distance_logreg", "fstar = auto", "fstar = 1e308"),
    ], ids=["overflowing_penalties", "overflowing_fstar",
            "ps_overflowing_fstar"])
    def test_overflow_exits_3_with_one_line(self, tmp_path, capsys, golden,
                                            old, new):
        body = (GOLDEN / f"{golden}.cfg").read_text()
        assert old in body
        cfg = tmp_path / f"{golden}.cfg"
        cfg.write_text(body.replace(old, new))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert cli_main(["run", "--config", str(cfg),
                             "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not list(out.glob("*_trace.csv"))

    def test_overflow_warns_nothing_before_its_one_line(self, tmp_path,
                                                        capsys):
        # No errstate here: the CLI must keep numpy's warnings, which
        # Python would print to stderr, from reaching the user.
        body = (GOLDEN / "alg_adaptive_logreg.cfg").read_text()
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(body.replace("schedule_params = 0.3,1.2,1",
                                    "schedule_params = 0.3,1e308,1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numeric failure: non-finite augmented Lagrangian at k=900\n")

