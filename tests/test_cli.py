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


@pytest.mark.parametrize("epsilon", ["1e300", "1e8", "0.5,2000"])
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
