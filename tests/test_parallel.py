import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from schrodeform import cli, errors, parallel, propagator, sparse_lu
from schrodeform.cli import main
from schrodeform.errors import (DegenerateJacobianError, FlowLeftDomainError,
                                SolverDivergenceError, WorkerLostError)
from schrodeform.geometry import GridFunction, ReferenceGrid
from schrodeform.moser import DensityFamily, moser_flow, normalize_diffeo
from schrodeform.moser import flow as flow_module
from schrodeform.operators import MAGNETIC_NEUMANN, free_coefficients
from schrodeform.propagator import PropagatorConfig, evolve
from schrodeform.scenarios import adiabatic, adiabatic_experiment, moving_interval_scenario
from schrodeform.scenarios.families import (diagonal_family, interval_family,
                                            stretch_warp_family, warped_2d_family)


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the affinity mask holds n CPUs."""
    def use(n):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return use


@pytest.fixture
def forking(monkeypatch):
    """Fork workers for a Moser flow or a relay however small its work."""
    monkeypatch.setattr(flow_module, "_FORK_WORK", 0)
    monkeypatch.setattr(parallel, "_FORK_SECONDS", 0)


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


def test_forked_jobs_start_no_thread(cpus, deadline, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"map_jobs started a thread: {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cpus(2)
    pids = parallel.map_jobs(_pid, range(3), cost=lambda job: 1)
    assert all(pid != os.getpid() for pid in pids)


def _mebibyte(k):
    return np.random.default_rng(k).standard_normal(2 ** 17)


def test_results_larger_than_a_pipe_buffer_equal_a_serial_loop(cpus, deadline):
    # each result is 1 MiB, 16 pipe buffers; the costs put job 1 first
    cpus(2)
    got = parallel.map_jobs(_mebibyte, range(3), cost=lambda k: [1, 3, 2][k])
    assert len(got) == 3
    for k, result in enumerate(got):
        assert result.nbytes == 2 ** 20
        assert np.array_equal(result, _mebibyte(k))


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _lock(_k):
    return threading.Lock()


def _raise_unpicklable(_k):
    raise _Unpicklable()


@pytest.mark.parametrize("job, error, message", [
    (_lock, TypeError, "cannot pickle '_thread.lock' object"),
    (_raise_unpicklable, RuntimeError, "_Unpicklable: holds a lock")],
    ids=["result", "error"])
def test_an_unpicklable_reply_raises_in_the_parent(cpus, deadline, job, error,
                                                   message):
    cpus(2)
    with pytest.raises(error, match=message):
        parallel.map_jobs(job, range(3), cost=lambda k: 1)
    _assert_no_children()


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
def test_flow_on_two_cpus_equals_one_cpu(cpus, forking, density, grid,
                                         samples):
    # the repeated sample is a zero-step span between two backward jobs; on
    # the interval u has one component, so the stage table has three columns
    family = DensityFamily(*cli._DENSITIES[density](0.1))
    _assert_maps_equal(*_on_one_and_two_cpus(
        cpus, lambda: moser_flow(family, grid, samples)))


def test_static_anchor_normalization_on_two_cpus_equals_one_cpu(cpus,
                                                                 forking):
    grid = ReferenceGrid.rectangle(8)
    _assert_maps_equal(*_on_one_and_two_cpus(
        cpus, lambda: normalize_diffeo(stretch_warp_family(), grid,
                                       [0.5, 1.0]).moser_maps))


def test_flow_leaving_the_domain_in_a_worker_raises_the_serial_error(
        cpus, forking, monkeypatch):
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
    counts = []

    def counting(units, work=0, fork_work=0):
        counts.append(worker_count(units, work, fork_work))
        return counts[-1]

    worker_count = parallel.worker_count
    monkeypatch.setattr(parallel, "worker_count", counting)
    cpus(2)
    grid = ReferenceGrid.rectangle(8)
    node_stages = grid.n_nodes * (2 * flow_module._MIN_STEPS + 1)
    assert node_stages < flow_module._FORK_WORK
    moser_flow(_sine2d(), grid, [0.0, 1.0])
    assert counts == [1, 1]
    monkeypatch.setattr(flow_module, "_FORK_WORK", node_stages)
    moser_flow(_sine2d(), grid, [0.0, 1.0])
    assert counts[2:] == [2, 2]     # the stage table and the passes


# -- the Cayley relay ---------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks from here on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(parallel.os, "fork", counted)
    return pids


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _warped(cells, n_steps, family=None, values=None):
    """A magnetic-Neumann evolution of n_steps on cells^2 (sparse LU), or on
    an interval of cells[0] cells for a 1-tuple (zgtsv bands), with
    observables and snapshots every 7 steps."""
    if np.isscalar(cells):
        grid, family = ReferenceGrid.rectangle(cells), family or warped_2d_family()
    else:
        grid = ReferenceGrid.interval(*cells)
        family = family or interval_family(lambda t: 1 + 0.5 * t, lambda t: 0.5)
    y = grid.nodes
    v0 = GridFunction(grid, np.cos(np.pi * y[:, 0]) * (1 + 0.5j * y[:, -1])
                      if values is None else values)
    obs = [GridFunction.constant(grid, 1.0 + 0j),
           GridFunction(grid, np.sin(np.pi * y[:, -1]) + 0j)]
    cfg = PropagatorConfig(dt=1 / 160, t_start=0.0, t_end=n_steps / 160,
                           snapshot_stride=7, observables=obs)
    return lambda: evolve(family, free_coefficients(grid.dim), MAGNETIC_NEUMANN,
                          v0, cfg)


# chunks of K = 72 at 8^2, K = 19 at 16^2 and K = 40 on 200 cells: one chunk
# (in-process), three with a short last one, six, three in each of the two
# slots, and four on the band path; chunk 0 runs in the parent, the rest on
# two workers
@pytest.mark.parametrize("cells, n_steps, relayed", [
    (8, 30, False), (8, 150, True), (16, 100, True),
    pytest.param((200,), 130, True, id="interval-200-130-True")])
def test_relay_trace_equals_the_serial_trace(cpus, forking, forks, deadline,
                                             cells, n_steps, relayed):
    run = _warped(cells, n_steps)
    serial, forked = _on_one_and_two_cpus(cpus, run)
    assert len(forks) == (2 if relayed else 0)
    for name in ("times", "norms", "energies", "overlaps"):
        assert np.array_equal(getattr(serial, name), getattr(forked, name))
    assert serial.snapshot_times == forked.snapshot_times
    assert len(serial.snapshots) == 1 + n_steps // 7 + (n_steps % 7 > 0)
    for a, b in zip(serial.snapshots, forked.snapshots):
        assert np.array_equal(a.values, b.values)
    _assert_no_children()


def test_relay_on_more_workers_than_cores_equals_the_serial_trace(
        cpus, forking, forks, deadline):
    # 20 chunks of K = 8 on 4 workers: each of the two slots serves ten
    run = _warped(24, 160)
    cpus(1)
    serial = run()
    cpus(4)
    for _ in range(2):
        forked = run()
        for name in ("norms", "energies", "overlaps"):
            assert np.array_equal(getattr(serial, name), getattr(forked, name))
        for a, b in zip(serial.snapshots, forked.snapshots):
            assert np.array_equal(a.values, b.values)
    assert len(forks) == 8
    _assert_no_children()


def _errors_on_one_and_two_cpus(cpus, run, error=SolverDivergenceError):
    def raised():
        with pytest.raises(error) as info:
            run()
        return info.value

    serial, forked = _on_one_and_two_cpus(cpus, raised)
    assert type(forked) is type(serial)
    assert str(forked) == str(serial)
    _assert_no_children()
    return serial, forked


def test_relay_raises_a_later_chunks_degenerate_jacobian(cpus, forking, forks,
                                                        deadline):
    def scale(t):       # det J < 0 from t = 1/4: step 41, chunk 2 of K = 19
        return np.where(np.asarray(t) > 0.25, -1.0, 1.0)

    def zero(t):
        return np.zeros(np.shape(t))

    family = diagonal_family((scale, lambda t: 1.0 + 0 * zero(t)), (zero, zero))
    serial, forked = _errors_on_one_and_two_cpus(
        cpus, _warped(16, 60, family), DegenerateJacobianError)
    assert len(forks) == 2
    assert serial.t == forked.t == pytest.approx(40.5 / 160)
    assert np.array_equal(serial.y, forked.y) and serial.det == forked.det


def test_relay_raises_a_non_finite_initial_state(cpus, forking, deadline):
    values = np.ones(ReferenceGrid.rectangle(16).n_nodes, dtype=complex)
    values[5] = np.nan
    serial, _ = _errors_on_one_and_two_cpus(cpus, _warped(16, 60, values=values))
    assert serial.step == 1 and "non-finite" in str(serial)


def _fingerprints(cpus, cells, n_steps):
    """The entry sum of each Cayley factor's matrix, in step order."""
    cpus(1)
    sums = []
    real = sparse_lu.spla

    class Recording:
        @staticmethod
        def splu(A, *args, **kwargs):
            sums.append(complex(A.data.sum()))
            return real.splu(A, *args, **kwargs)

    sparse_lu.spla = Recording
    try:
        _warped(cells, n_steps)()
    finally:
        sparse_lu.spla = real
    return sums


class _SpoiledLU:
    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs) * (1 + 1e-4)


def _singular(lu):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("spoil, message", [
    (_singular, r"step 45 \(t=0\.278125\): Cayley factorization failed"),
    (_SpoiledLU, r"step 45 \(t=0\.278125\): linear solve residual"),
], ids=["singular_factor", "residual"])
def test_relay_raises_a_failed_step_at_its_step(cpus, forking, forks, deadline,
                                                monkeypatch, spoil, message):
    # step 45 is the seventh of chunk 2 (K = 19), worker 1's first; the
    # factor is picked by its matrix, the same in every process
    target = _fingerprints(cpus, 16, 60)[44]
    real = sparse_lu.spla

    class Spoiling:
        @staticmethod
        def splu(A, *args, **kwargs):
            lu = real.splu(A, *args, **kwargs)
            return spoil(lu) if complex(A.data.sum()) == target else lu

    monkeypatch.setattr(sparse_lu, "spla", Spoiling)
    serial, forked = _errors_on_one_and_two_cpus(cpus, _warped(16, 60))
    assert re.match(message, str(serial))
    assert serial.step == forked.step == 45
    assert len(forks) == 2


def test_a_killed_relay_worker_raises_worker_lost(cpus, forking, forks,
                                                  deadline, monkeypatch):
    data = propagator.hamiltonian_data
    parent = os.getpid()

    def dying(family, coeffs, times, grid, bc):
        if os.getpid() != parent and times[0] > 0.2:
            os.kill(os.getpid(), signal.SIGKILL)
        return data(family, coeffs, times, grid, bc)

    monkeypatch.setattr(propagator, "hamiltonian_data", dying)
    cpus(2)
    with pytest.raises(WorkerLostError):
        _warped(16, 60)()
    assert len(forks) == 2
    _assert_no_children()


def _chain(units, recorded, fail_at=None):
    """A relay of ``units`` units where unit c writes c plus unit c - 1's
    value, appended to ``recorded``; unit ``fail_at`` raises ValueError."""
    def value(slot):
        return np.ndarray(1, np.int64, buffer=slot)

    def advance(c, prepared, last, slot):
        if c == fail_at:
            raise ValueError(f"unit {c} failed")
        value(slot)[0] = prepared + (value(last)[0] if c else 0)

    parallel.relay(lambda c: c, advance,
                   lambda c, slot: recorded.append(int(value(slot)[0])), units, 8)


@pytest.mark.parametrize("fork_seconds, forked", [(4.0, True), (4.5, False)])
def test_a_relay_forks_only_when_unit_0_predicts_its_fork_seconds(
        cpus, forks, deadline, monkeypatch, fork_seconds, forked):
    # unit 0 takes 1 s on this clock, so units 1..4 are predicted at 4 s
    clock = iter([10.0, 11.0])
    monkeypatch.setattr(parallel, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(parallel, "_FORK_SECONDS", fork_seconds)
    cpus(2)
    recorded = []
    _chain(5, recorded)
    assert recorded == [0, 1, 3, 6, 10]
    assert len(forks) == (2 if forked else 0)
    _assert_no_children()


@pytest.mark.parametrize("fail_at", [0, 3])
def test_a_relay_raises_a_units_error_after_the_units_before_it(
        cpus, forking, forks, deadline, fail_at):
    # unit 0 runs in the parent, so its error comes before any fork
    cpus(2)
    recorded = []
    with pytest.raises(ValueError, match=f"unit {fail_at} failed"):
        _chain(5, recorded, fail_at)
    assert recorded == [0, 1, 3][:fail_at]
    assert len(forks) == (0 if fail_at == 0 else 2)
    _assert_no_children()


def test_an_evolution_in_a_map_jobs_worker_never_relays(cpus, forking, forks):
    run = _warped(16, 100)

    def job(_k):
        before = len(forks)
        run()
        return os.getpid(), len(forks) - before

    cpus(2)
    results = parallel.map_jobs(job, range(2), cost=lambda k: 1)
    assert all(pid != os.getpid() and relays == 0 for pid, relays in results)
