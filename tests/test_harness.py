import json
import math
import os

import numpy as np
import pytest

from algossip import harness
from algossip.cli import main as cli_main
from algossip.errors import ConfigError, MismatchError
from algossip.metrics import MetricsLog, MetricsRow
from algossip.problem import err_f

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
        assert cfg.get("algo", "name") == "albg"
        assert cfg.name == "run"

    def test_unknown_key_is_rejected(self, tmp_path):
        bad = QUAD_CONFIG.format(name="albg", t_outer=5, extra="") \
            .replace("radius", "radios")
        with pytest.raises(ConfigError, match="radios"):
            harness.parse_config(write_config(tmp_path, body=bad))

    def test_unknown_section_is_rejected(self, tmp_path):
        bad = QUAD_CONFIG.format(name="albg", t_outer=5, extra="") \
            + "\n[plotting]\nstyle = lines\n"
        with pytest.raises(ConfigError, match="plotting"):
            harness.parse_config(write_config(tmp_path, body=bad))

    def test_missing_section_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing section"):
            harness.parse_config(write_config(
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
        problem = harness.build_problem(cfg)
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


class TestFileBackedConfigs:
    def test_run_from_saved_network_and_instance(self, tmp_path):
        from algossip.graph import FailureModel, build_geometric, save_network
        from algossip.problem import QuadConsensusInstance, save_instance

        graph = build_geometric(4, 0.9, seed=2)
        save_network(tmp_path / "net.txt", graph,
                     FailureModel.always_on(graph))
        inst = QuadConsensusInstance([[0.0], [1.0], [2.0], [3.0]])
        save_instance(tmp_path / "inst.txt", inst)
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

    @pytest.mark.parametrize("old,new,args", [
        ("schedule_params = 1.3,1", "schedule_params = 1.3,x", ["run"]),
        ("schedule = power\nschedule_params = 1.3,1",
         "schedule = fixed\nschedule_params = -1", ["run"]),
        ("name = alg", "name = alg\ninner_budget = 0", ["run"]),
        ("radius = 0.9", "radius = 0.01", ["run"]),
        ("failures = always_on", "failures = uniform\nfailure_p = 1.5",
         ["run"]),
        ("", "", ["sweep", "--seeds", "x..3"]),
    ], ids=["schedule_params", "negative_rho", "inner_budget", "radius",
            "failure_p", "seeds"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, old,
                                             new, args):
        body = QUAD_CONFIG.format(name="alg", t_outer=2, extra="")
        assert old in body
        cfg = write_config(tmp_path, body=body.replace(old, new))
        out = tmp_path / "out"
        assert cli_main(args[:1] + ["--config", str(cfg), "--out", str(out)]
                        + args[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # rejected before the reference solve
        assert not (out / "oracle_cache.json").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        runaway = QUAD_CONFIG.format(name="ps", t_outer=200,
                                     extra="alpha = 1e6")
        runaway = runaway.replace("checkpoint = 60", "checkpoint = 1")
        cfg = write_config(tmp_path, body=runaway)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["run", "--config", str(cfg)]) == 3

