import json
from pathlib import Path

import numpy as np
import pytest

from schrodeform import cli, parallel
from schrodeform.cli import main


def _manifest(outdir):
    return json.loads((Path(outdir) / "manifest.json").read_text())


def test_list_prints_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "moving_interval" in out and "rotation" in out


def test_run_moving_interval(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--scenario", "moving_interval", "--grid", "80",
                 "--dt", "2e-3", "--output", str(out)])
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,norm,energy,overlap_0"
    assert len(trace) == 502  # header + 501 records
    manifest = _manifest(out)
    assert manifest["passed"] is True
    assert "trace.csv" in manifest["files"]
    norms = [float(line.split(",")[1]) for line in trace[1:]]
    assert max(abs(n - norms[0]) for n in norms) <= 1e-10


def test_run_deterministic_output(tmp_path):
    args = ["run", "--scenario", "moving_interval", "--grid", "40",
            "--dt", "5e-3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_seed_flag_is_a_config_error(tmp_path):
    out = tmp_path / "seeded"
    assert main(["run", "--grid", "8", "--seed", "7", "--output", str(out)]) == 3
    assert not (out / "manifest.json").exists()


def test_run_snapshots_written(tmp_path):
    out = tmp_path / "snap"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snapshot_stride": 50, "grid": 40,
                               "dt": 5e-3, "t_end": 0.5}))
    assert main(["run", "--scenario", "moving_interval", "--config", str(cfg),
                 "--output", str(out)]) == 0
    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert len(snaps) >= 2
    header = snaps[0].read_text().splitlines()[0]
    assert header == "y,re,im,abs2"


def test_run_exit_2_on_invariant_failure(tmp_path):
    out = tmp_path / "fail"
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({"norm_drift_tol": 1e-30}))
    code = main(["run", "--scenario", "moving_interval", "--grid", "40",
                 "--dt", "5e-3", "--config", str(cfg), "--output", str(out)])
    assert code == 2
    manifest = _manifest(out)  # manifest still emitted
    assert manifest["passed"] is False


def test_unknown_scenario_exit_3(tmp_path, capsys):
    code = main(["run", "--scenario", "nope", "--output", str(tmp_path)])
    assert code == 3
    assert "available" in capsys.readouterr().err


def test_bad_config_file_exit_3(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == 3
    cfg2 = tmp_path / "unknown.json"
    cfg2.write_text(json.dumps({"no_such_key": 1}))
    assert main(["run", "--config", str(cfg2)]) == 3


@pytest.mark.parametrize("command, config, message", [
    ("moser", {"samples": [1, 0]}, "samples must be in ascending order"),
    ("converge", {"mode": "spatial", "ladder": [0, 4]}, "ladder rungs must be positive"),
    ("converge", {"ladder": [-0.001, 0.002]}, "ladder rungs must be positive"),
], ids=["descending_samples", "zero_cell_rung", "negative_dt_rung"])
def test_malformed_config_list_exit_3(tmp_path, capsys, command, config, message):
    # these ran as far as the library and exited 1 with a manifest
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--grid", "8",
                 "--output", str(out)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_rotation_self_test(tmp_path):
    out = tmp_path / "rot"
    code = main(["run", "--scenario", "rotation", "--grid", "32",
                 "--dt", "1e-2", "--t-end", "0.05", "--self-test",
                 "--output", str(out)])
    assert code == 0
    entries = {e["name"]: e for e in _manifest(out)["summary"]}
    assert entries["self_test/matrix_identity"]["value"] <= 1e-12


def test_moser_uniform_density(tmp_path):
    out = tmp_path / "moser"
    code = main(["moser", "--grid", "24", "--density", "uniform",
                 "--output", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert max(report["det_residuals"]) <= 1e-12
    assert (out / "snapshots" / "phi_0000.csv").exists()


def test_moser_sine1d_density(tmp_path):
    # the 1D right-inverse must build on an interval grid (its H1 metric is
    # sliced by column, which a dia_matrix does not allow)
    out = tmp_path / "moser1d"
    code = main(["moser", "--grid", "32", "--density", "sine1d",
                 "--amplitude", "0.1", "--output", str(out)])
    assert code == 0
    manifest = _manifest(out)
    assert manifest["passed"] is True
    entries = {e["name"]: e for e in manifest["summary"]}
    assert entries["det_residual"]["value"] <= 1e-3
    assert (out / "snapshots" / "phi_0000.csv").exists()


def test_moser_malformed_density_exit_3(tmp_path):
    code = main(["moser", "--grid", "16", "--density", "sine1d",
                 "--amplitude", "4.0", "--output", str(tmp_path / "bad")])
    assert code == 3


def test_run_nan_dt_exit_3(tmp_path):
    code = main(["run", "--grid", "20", "--dt", "nan",
                 "--output", str(tmp_path / "nan")])
    assert code == 3


def test_moser_nan_amplitude_exit_3(tmp_path):
    code = main(["moser", "--grid", "16", "--amplitude", "nan",
                 "--output", str(tmp_path / "nan")])
    assert code == 3


def test_adiabatic_single_epsilon(tmp_path):
    out = tmp_path / "adia"
    code = main(["adiabatic", "--scenario", "moving_interval", "--grid", "50",
                 "--dt", "5e-3", "--epsilon", "0.5", "--output", str(out)])
    assert code == 0
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == "epsilon,overlap,deviation"
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) >= 0.99


def test_adiabatic_rejects_time_span(tmp_path, capsys):
    code = main(["adiabatic", "--grid", "20", "--dt", "0.01", "--epsilon",
                 "0.5", "--t-end", "5", "--output", str(tmp_path / "a")])
    assert code == 3
    assert "t_end" in capsys.readouterr().err
    cfg = tmp_path / "span.json"
    cfg.write_text(json.dumps({"t_start": 0.0}))
    assert main(["adiabatic", "--config", str(cfg), "--grid", "20",
                 "--epsilon", "0.5", "--output", str(tmp_path / "b")]) == 3


def test_converge_temporal(tmp_path):
    out = tmp_path / "conv"
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({"ladder": [8e-3, 4e-3, 2e-3], "t_end": 1.0,
                               "grid": 60}))
    code = main(["converge", "--scenario", "moving_interval",
                 "--config", str(cfg), "--mode", "temporal",
                 "--output", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fitted_order"] == pytest.approx(2.0, abs=0.3)


def test_converge_spatial(tmp_path):
    out = tmp_path / "convs"
    cfg = tmp_path / "convs.json"
    cfg.write_text(json.dumps({"ladder": [20, 40, 80]}))
    code = main(["converge", "--scenario", "moving_interval",
                 "--config", str(cfg), "--mode", "spatial",
                 "--output", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fitted_order"] == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("mode, solver", [("temporal", "evolve"),
                                          ("spatial", "eigenpairs")])
def test_converge_solves_each_distinct_rung_once(tmp_path, monkeypatch, mode,
                                                 solver):
    # the default ladders' references dt/4 and 4n repeat two of their rungs
    # (1e-3 and 5e-4; 100 and 200 cells): 8 solves before, 6 now
    calls, real = [], getattr(cli, solver)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def report(name, n_cpus):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        assert main(["converge", "--grid", "20", "--mode", mode,
                     "--output", str(tmp_path / name)]) == 0
        return (tmp_path / name / "report.json").read_bytes()

    two_cpus = report("two_cpus", 2)
    monkeypatch.setattr(cli, solver, counted)
    assert report("one_cpu", 1) == two_cpus
    assert len(calls) == 6


def test_converge_single_rung_exit_3(tmp_path):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"ladder": [1e-3]}))
    assert main(["converge", "--config", str(cfg),
                 "--output", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("t_end", ["0", "1e-300", "0.003"])
def test_converge_span_shorter_than_its_coarsest_dt_exit_3(tmp_path, capsys, t_end):
    # an empty span used to fit log(0) errors to a NaN order and exit 2
    code = main(["converge", "--grid", "8", "--t-end", t_end,
                 "--output", str(tmp_path / "c")])
    assert code == 3
    err = capsys.readouterr().err
    assert "coarsest dt" in err and "Warning" not in err


def test_converge_ladder_past_the_step_bound_exit_3(tmp_path, capsys,
                                                    monkeypatch):
    # the dt/4 reference of 1e-9 is 4e9 steps; this ladder used to reach
    # map_jobs, whose evolutions would have run out of memory
    def unreachable(*args, **kwargs):
        raise AssertionError("the ladder reached map_jobs")

    monkeypatch.setattr(cli, "map_jobs", unreachable)
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({"ladder": [1e-9, 2e-9], "grid": 8}))
    out = tmp_path / "c"
    assert main(["converge", "--config", str(cfg), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "takes more than 1e+07 steps" in err
    assert _manifest(out)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("argv, config", [
    (["run", "--grid", "1000000000"], {}),
    (["converge"], {"mode": "spatial", "ladder": [1e9, 2e9]}),
    (["converge"], {"mode": "spatial", "ladder": [25, 2 ** 20]}),
], ids=["run_grid", "spatial_ladder", "spatial_reference"])
def test_a_grid_past_the_node_bound_exit_3(tmp_path, capsys, deadline, argv, config):
    # run --grid 1000000000 used to end in a raw _ArrayMemoryError traceback;
    # the last ladder's rungs fit, but the 4n reference of 2^20 does not
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "g"
    assert main(argv + ["--config", str(cfg), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "nodes a grid may hold" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("epsilon",["1e300", "1e8", "0.5,2000"])
def test_adiabatic_epsilon_sweeping_less_than_one_dt_exit_3(tmp_path, capsys, epsilon):
    # 1e300 used to overflow the slowed family's velocity (exit 1), 1e8 to
    # fail the overlap check after one step (exit 2)
    code = main(["adiabatic", "--grid", "8", "--dt", "1e-3", "--epsilon", epsilon,
                 "--output", str(tmp_path / "a")])
    assert code == 3
    err = capsys.readouterr().err
    assert "less than one dt" in err and "Warning" not in err


def test_run_naive_neumann_diagnostic(tmp_path):
    out = tmp_path / "naive"
    code = main(["run", "--scenario", "cylinder", "--bc", "naive-neumann",
                 "--grid", "60", "--dt", "2e-3", "--output", str(out)])
    assert code == 0
    manifest = _manifest(out)
    assert "magnetic_trace.csv" in manifest["files"]
    # naive realization drifts on a moving boundary; magnetic one does not
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    norms = [float(r.split(",")[1]) for r in rows]
    assert max(abs(n - norms[0]) for n in norms) > 1e-4
    mrows = (out / "magnetic_trace.csv").read_text().splitlines()[1:]
    mnorms = [float(r.split(",")[1]) for r in mrows]
    assert max(abs(n - mnorms[0]) for n in mnorms) <= 1e-8


def test_t_end_outside_window_exit_3(tmp_path, capsys):
    code = main(["run", "--grid", "16", "--dt", "0.05", "--t-end", "2",
                 "--output", str(tmp_path / "late")])
    assert code == 3
    assert "window" in capsys.readouterr().err
    cfg = tmp_path / "span.json"
    cfg.write_text(json.dumps({"t_start": -0.5, "ladder": [8e-3, 4e-3]}))
    assert main(["converge", "--config", str(cfg),
                 "--output", str(tmp_path / "early")]) == 3


def test_runtime_error_writes_failed_manifest(tmp_path):
    # l1 < 0 makes the interval length, and so det J, reach zero mid-run
    out = tmp_path / "degenerate"
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"scenario": "moving_interval",
                               "params": {"l1": -0.5}}))
    code = main(["run", "--config", str(cfg), "--grid", "16", "--dt", "0.05",
                 "--output", str(out)])
    assert code == 1
    manifest = _manifest(out)
    assert manifest["passed"] is False
    assert manifest["error"]["type"] == "DegenerateJacobianError"
    assert "det J" in manifest["error"]["message"]


@pytest.mark.parametrize("command", ["run", "adiabatic"])
def test_run_nan_scenario_param_exit_3(tmp_path, capsys, command):
    # a NaN interval length used to end in a raw LinAlgError traceback
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"scenario": "moving_interval",
                               "params": {"l1": float("nan")}}))
    code = main([command, "--config", str(cfg), "--grid", "16",
                 "--output", str(tmp_path / "out")])
    assert code == 3
    assert "params.l1 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, params, accepted", [
    ("moving_interval", {"L1": 3.0}, "['l0', 'l1', 'smooth']"),
    ("translation", {"l1": 3.0, "omega": 9}, "[]"),
], ids=["moving_interval", "translation"])
def test_unknown_scenario_param_exit_3(tmp_path, capsys, scenario, params, accepted):
    # a misspelt or foreign key used to run the defaults and exit 0
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"scenario": scenario, "params": params}))
    code = main(["run", "--config", str(cfg), "--grid", "16", "--dt", "0.05",
                 "--output", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "unknown params" in err and f"accepted: {accepted}" in err


@pytest.mark.parametrize("params, message", [
    ({"omega": "abc"}, "params.omega must be a number, got 'abc'"),
    ({"smooth": "false"}, "params.smooth must be a JSON boolean, got 'false'"),
], ids=["non_numeric_omega", "string_smooth"])
def test_uncoercible_scenario_param_exit_3_with_manifest(tmp_path, capsys, params,
                                                         message):
    # "abc" used to end in a raw ValueError traceback; "false" built the
    # smoothed interval, since bool("false") is True
    scenario = "rotation" if "omega" in params else "moving_interval"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": scenario, "params": params}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--grid", "8", "--dt", "0.05",
                 "--t-end", "0.1", "--output", str(out)]) == 3
    assert message in capsys.readouterr().err
    manifest = _manifest(out)
    assert manifest["passed"] is False
    assert manifest["error"] == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize("flag", ["--bc", "config"])
def test_converge_honours_bc(tmp_path, flag):
    # converge used to assemble with the scenario's own bc whatever was given
    def errors(bc, name):
        cfg = tmp_path / f"{name}.json"
        data = {"scenario": "rotation", "mode": "spatial", "ladder": [8, 16]}
        if bc and flag == "config":
            data["bc"] = bc
        cfg.write_text(json.dumps(data))
        argv = ["converge", "--config", str(cfg), "--output", str(tmp_path / name)]
        if bc and flag == "--bc":
            argv += ["--bc", bc]
        assert main(argv) in (0, 2)
        report = json.loads((tmp_path / name / "report.json").read_text())
        return report["errors"], _manifest(tmp_path / name)["config"]["bc"]

    default, _ = errors(None, "default")
    dirichlet, _ = errors("dirichlet", "dirichlet")
    magnetic, echoed = errors("magnetic-neumann", "magnetic")
    assert dirichlet == default
    assert echoed == "magnetic-neumann"
    assert all(np.isfinite(magnetic)) and magnetic != dirichlet


@pytest.mark.parametrize("argv", [
    ["run", "--bc", "bogus"],
    ["run", "--snapshot-stride", "3"],
    ["bogus"],
    [],
], ids=["bad-choice", "unknown-flag", "unknown-command", "no-command"])
def test_usage_error_exit_3_without_manifest(tmp_path, capsys, argv):
    # argparse's own exit 2 would read as "invariant failed, manifest written"
    code = main(argv + (["--output", str(tmp_path / "out")] if argv else []))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "config error:" in err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--bc" in capsys.readouterr().out


@pytest.mark.parametrize("command, text, message", [
    ("run", '{"dt": "x"}', "dt must be a number, got 'x'"),
    ("run", '{"grid": "abc"}', "grid must be a number, got 'abc'"),
    ("run", '{"grid": 1e400}', "grid must be finite, got inf"),
    ("run", '{"snapshot_stride": "q"}', "snapshot_stride must be a number, got 'q'"),
    ("adiabatic", '{"epsilon": ["a"]}', "epsilon[0] must be a number, got 'a'"),
    ("moser", '{"samples": [0, "a"]}', "samples[1] must be a number, got 'a'"),
    ("converge", '{"ladder": ["x", 2]}', "ladder[0] must be a number, got 'x'"),
    ("run", '{"solver_tol": "nan"}', "solver_tol must be finite, got 'nan'"),
    ("run", '{"norm_drift_tol": "nan"}', "norm_drift_tol must be finite, got 'nan'"),
    ("run", '{"self_test": "yes"}', "self_test must be a JSON boolean, got 'yes'"),
    ("run", '{"snapshot_stride": -3}', "snapshot_stride must be 0"),
    ("run", '{"t_end": true}', "t_end must be a number, got True"),
    ("run", '{"params": []}', "params must be a JSON object, got []"),
    ("moser", '{"samples": []}', "samples needs at least one entry"),
    ("run", '[1, 2]', "config file must hold a JSON object"),
])
def test_malformed_config_value_exit_3_without_manifest(tmp_path, capsys, command,
                                                        text, message):
    # each of these used to end in a raw ValueError, OverflowError, TypeError
    # or IndexError traceback, be misreported as a solver or invariant
    # failure, or be accepted (a string "yes" as true, a negative stride)
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_config_echo_holds_the_coerced_values(tmp_path):
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps({"grid": 8.9, "dt": "0.01", "t_end": 0,
                               "ladder": [25, 50]}))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    echo = _manifest(tmp_path / "out")["config"]
    assert (echo["grid"], echo["dt"], echo["t_end"]) == (8, 0.01, 0.0)
    assert isinstance(echo["t_end"], float) and echo["ladder"] == [25.0, 50.0]


@pytest.mark.parametrize("command", ["adiabatic", "converge"])
def test_explicit_unsmooth_interval_exit_3_with_manifest(tmp_path, capsys, command):
    # an explicit smooth: false used to be overwritten with true
    cfg = tmp_path / "rough.json"
    cfg.write_text(json.dumps({"params": {"smooth": False}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--grid", "8",
                 "--output", str(out)]) == 3
    assert f"{command} takes no params.smooth: false" in capsys.readouterr().err
    assert _manifest(out)["error"]["type"] == "ConfigError"


def test_non_finite_summary_value_fails_its_entry(tmp_path):
    manifest = cli.Manifest(cli.RunConfig({}), "run")
    assert manifest.check("fidelity", np.inf, 0.5, larger_ok=True) is False
    assert manifest.check("drift", -np.inf, 1e-8) is False
    assert manifest.check("drift", np.nan, 1e-8) is False
    assert manifest.write(tmp_path) == 2
    assert [e["passed"] for e in _manifest(tmp_path)["summary"]] == [False] * 3
