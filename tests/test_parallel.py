import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from schrodeform import cli, errors, parallel
from schrodeform.cli import main
from schrodeform.errors import (DegenerateJacobianError, FlowLeftDomainError,
                                SolverDivergenceError, WorkerLostError)
from schrodeform.geometry import ReferenceGrid
from schrodeform.moser import DensityFamily, moser_flow, normalize_diffeo
from schrodeform.moser import flow as flow_module
from schrodeform.operators import free_coefficients
from schrodeform.propagator import PropagatorConfig, evolve
from schrodeform.scenarios import adiabatic, adiabatic_experiment, moving_interval_scenario
from schrodeform.scenarios.families import interval_family, stretch_warp_family


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the affinity mask holds n CPUs (never more than two here)."""
    def use(n):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return use


def _pid(_job):
    return os.getpid()


@pytest.mark.parametrize("n_cpus, n_jobs, forked", [(1, 3, False), (2, 1, False),
                                                    (2, 3, True)])
def test_jobs_fork_only_with_two_cpus_and_two_jobs(cpus, n_cpus, n_jobs, forked):
    cpus(n_cpus)
    pids = parallel.map_jobs(_pid, range(n_jobs), cost=lambda job: 1)
    assert len(pids) == n_jobs
    assert all((pid != os.getpid()) == forked for pid in pids)


def _nested(_job):
    return parallel.map_jobs(_pid, range(3), cost=lambda job: 1), os.getpid()


def test_a_job_that_maps_runs_its_inner_jobs_in_its_own_worker(cpus):
    cpus(2)
    for inner, outer in parallel.map_jobs(_nested, range(2), cost=lambda job: 1):
        assert outer != os.getpid()
        assert inner == [outer] * 3


def test_results_come_back_in_job_order_and_equal_a_serial_loop(cpus):
    scen = moving_interval_scenario(1.0, 1.5, smooth=True)
    grid = scen.grid(40)
    v0 = scen.build_initial(grid, 0.0)

    def final(dt):
        cfg = PropagatorConfig(dt=dt, t_start=0.0, t_end=1.0)
        return evolve(scen.family, scen.coeffs, scen.bc, v0, cfg,
                      grid).final_state.values

    # costs out of job order, so workers finish out of job order too
    dts = [1e-2, 2.5e-3, 2e-2, 5e-3]
    cpus(2)
    finals = parallel.map_jobs(final, dts, cost=lambda dt: round(1 / dt))
    for dt, got in zip(dts, finals):
        assert np.array_equal(got, final(dt))


def _dipping_interval():
    # length 1 - 2 sin^2(4 pi tau): 1 at every path-check sample (tau = k/4),
    # zero first at tau = 1/16
    return interval_family(lambda t: 1 - 2 * np.sin(4 * np.pi * t) ** 2,
                           lambda t: -8 * np.pi * np.sin(8 * np.pi * t))


def test_degenerate_epsilon_reraises_the_serial_error(cpus):
    def sweep():
        with pytest.raises(DegenerateJacobianError) as info:
            adiabatic_experiment(_dipping_interval(), free_coefficients(1), 0,
                                 [0.5, 0.25], ReferenceGrid.interval(16),
                                 dt=0.05)
        return info.value

    cpus(1)
    serial = sweep()
    cpus(2)
    forked = sweep()
    assert type(forked) is DegenerateJacobianError
    # the largest epsilon fails first in job order: near tau = 1/16 at t = 1/8
    assert 0.125 <= forked.t < 0.2
    assert (forked.t, forked.det, str(forked)) == (serial.t, serial.det, str(serial))
    assert np.array_equal(forked.y, serial.y)


def _adiabatic(out):
    return main(["adiabatic", "--grid", "16", "--dt", "0.05", "--epsilon",
                 "0.5,0.25", "--output", str(out)])


def test_worker_error_in_adiabatic_exits_1_like_a_serial_run(cpus, monkeypatch,
                                                             tmp_path):
    def failing(family, coeffs, bc, v0, cfg, grid):
        if cfg.t_end == 4.0:
            raise SolverDivergenceError("step 3: injected", step=3)
        return evolve(family, coeffs, bc, v0, cfg, grid)

    monkeypatch.setattr(adiabatic, "evolve", failing)
    manifests = []
    for n, name in ((1, "serial"), (2, "forked")):
        cpus(n)
        assert _adiabatic(tmp_path / name) == 1
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    assert manifests[0]["error"] == manifests[1]["error"] == {
        "type": "SolverDivergenceError", "message": "step 3: injected"}


def test_dead_worker_exits_1_with_the_manifest_written(cpus, monkeypatch,
                                                       tmp_path):
    def dying(family, coeffs, bc, v0, cfg, grid):
        if cfg.t_end == 4.0:
            os._exit(7)
        return evolve(family, coeffs, bc, v0, cfg, grid)

    monkeypatch.setattr(adiabatic, "evolve", dying)
    cpus(2)
    assert _adiabatic(tmp_path / "dead") == 1
    manifest = json.loads((tmp_path / "dead" / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["error"]["type"] == WorkerLostError.__name__


_ORPHANS = """
import os, pathlib, sys, time
from schrodeform import parallel

def job(k):
    (pathlib.Path(sys.argv[1]) / str(os.getpid())).touch()
    time.sleep(60)

parallel.os.sched_getaffinity = lambda pid: {0, 1}
parallel.map_jobs(job, [0, 1], cost=lambda k: 1)
"""


def _running(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_workers_die_with_a_killed_parent(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHANS, str(tmp_path)],
                              env=env)
    try:
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(p.name) for p in tmp_path.iterdir()]
        assert len(workers) == 2
    finally:
        parent.kill()
        parent.wait(timeout=10)
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


def _instance(cls):
    if cls is DegenerateJacobianError:
        return cls(0.75, np.array([0.25, 0.5]), -1e-3)
    if cls is SolverDivergenceError:
        return cls("step 4 failed", step=4)
    return cls("something failed")


@pytest.mark.parametrize("name", errors.__all__)
def test_every_error_survives_pickling(name):
    err = _instance(getattr(errors, name))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    for attr in ("t", "det", "step"):
        assert getattr(back, attr, None) == getattr(err, attr, None)
    assert np.array_equal(getattr(back, "y", ()), getattr(err, "y", ()))


# -- the Moser flow ---------------------------------------------------------

def _sine2d():
    return DensityFamily(*cli._DENSITIES["sine2d"](0.1))


@pytest.fixture
def forking_flows(monkeypatch):
    """Fork workers for a flow however small it is."""
    monkeypatch.setattr(flow_module, "_FORK_WORK", 0)


def _on_one_and_two_cpus(cpus, build):
    cpus(1)
    serial = build()
    cpus(2)
    return serial, build()


def _assert_maps_equal(serial, forked):
    assert len(forked) == len(serial)
    for a, b in zip(serial, forked):
        for name in ("values", "inverse_values", "det_values"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.flow_consistency == b.flow_consistency


@pytest.mark.parametrize("density, grid, samples", [
    ("sine2d", ReferenceGrid.rectangle(8), [0.0, 1.0]),
    ("sine2d", ReferenceGrid.rectangle(8), [0.0, 0.5, 0.5, 1.0]),
    ("sine2d", ReferenceGrid.rectangle(8), [0.0]),
    ("sine1d", ReferenceGrid.interval(64), [0.0, 1.0])],
    ids=["one_span", "repeated_sample", "one_sample", "interval"])
def test_flow_on_two_cpus_equals_one_cpu(cpus, forking_flows, density, grid,
                                         samples):
    # the repeated sample is a zero-step span between two backward jobs; on
    # the interval u has one component, so the stage table has three columns
    family = DensityFamily(*cli._DENSITIES[density](0.1))
    _assert_maps_equal(*_on_one_and_two_cpus(
        cpus, lambda: moser_flow(family, grid, samples)))


def test_static_anchor_normalization_on_two_cpus_equals_one_cpu(cpus,
                                                                 forking_flows):
    grid = ReferenceGrid.rectangle(8)
    _assert_maps_equal(*_on_one_and_two_cpus(
        cpus, lambda: normalize_diffeo(stretch_warp_family(), grid,
                                       [0.5, 1.0]).moser_maps))


def test_flow_leaving_the_domain_in_a_worker_raises_the_serial_error(
        cpus, forking_flows, monkeypatch):
    rk4 = flow_module._rk4_span

    def escaping(velocity, pts, ta, tb, n, grid):
        if tb < ta:     # backward passes drift through the right wall
            velocity = lambda i, p: -np.ones_like(p)    # noqa: E731
        return rk4(velocity, pts, ta, tb, n, grid)

    def flow():
        with pytest.raises(FlowLeftDomainError) as info:
            moser_flow(_sine2d(), ReferenceGrid.rectangle(8), [0.0, 0.5, 1.0])
        return str(info.value)

    monkeypatch.setattr(flow_module, "_rk4_span", escaping)
    serial, forked = _on_one_and_two_cpus(cpus, flow)
    # both backward jobs fail; the one from sample 1 comes first in job order
    assert "near t=0.5" in serial
    assert forked == serial


def test_a_flow_forks_from_its_fork_work_up(cpus, monkeypatch):
    calls = []

    def counting(fn, jobs, cost):
        calls.append(fn)
        return [fn(job) for job in jobs]

    monkeypatch.setattr(flow_module, "map_jobs", counting)
    cpus(2)
    grid = ReferenceGrid.rectangle(8)
    node_stages = grid.n_nodes * (2 * flow_module._MIN_STEPS + 1)
    assert node_stages < flow_module._FORK_WORK
    moser_flow(_sine2d(), grid, [0.0, 1.0])
    assert calls == []
    monkeypatch.setattr(flow_module, "_FORK_WORK", node_stages)
    moser_flow(_sine2d(), grid, [0.0, 1.0])
    assert len(calls) == 2      # the stage table and the passes
