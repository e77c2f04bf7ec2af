"""Work on every usable CPU: independent jobs, and a relay of dependent steps.

One rule decides whether to fork at all (:func:`worker_count`): workers are
forked only with more than one CPU in the process's affinity mask, outside
a worker of this module (whose CPUs are already busy), and when the
caller's measure of the work reaches its threshold.  Otherwise everything
runs in-process, in order.

``map_jobs(fn, jobs, cost)`` returns ``[fn(job) for job in jobs]``.  Forked,
it runs them on ``min(len(jobs), usable CPUs)`` workers, largest ``cost``
first.  The jobs are evolutions (adiabatic epsilons, temporal convergence
rungs) and the stage table and RK4 passes of a Moser flow.  A job that
calls ``map_jobs`` itself runs the inner jobs in-process, in its own
worker.

``relay(prepare, advance, record, units, workers, slot_bytes)`` runs a
sequential recurrence of units, each in two halves: ``prepare(c)``, which
does not need unit c - 1's result, and ``advance(c, ...)``, which does.
Worker j owns the units c = j (mod workers) and prepares each one while
the other workers advance the units before it; then it waits for a
one-byte token from unit c - 1, advances, and passes the token on.
Results go through a ring of ``2 * workers`` slots in shared memory, and
only tokens through pipes.  The parent only records each slot, in unit
order, and hands it back.  The Cayley steps of a 2D evolution run so
(``propagator.evolve``): a step's factor does not depend on the state.

Workers are forked, not spawned, because the jobs are closures over
families and coefficient sets, which cannot be pickled: a forked worker
inherits its functions and receives only indices.  The library starts no
threads of its own, and OpenBLAS quiesces its thread pool around a fork
(Python 3.12+ still warns that a process with BLAS threads forks).
Results of ``map_jobs`` and exceptions come back pickled, so they must be
picklable (a float, an array).  The error raised is the one a serial loop
would raise: that of the first failing job or unit in order.  A worker that
dies raises ``WorkerLostError``.  Every worker is reaped before ``map_jobs``
or ``relay`` returns or raises, and is killed if the parent dies first.
"""

from __future__ import annotations

import ctypes
import logging
import mmap
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from multiprocessing import get_context

from .errors import WorkerLostError

_log = logging.getLogger(__name__)

_PR_SET_PDEATHSIG = 1   # <linux/prctl.h>

# the function a forked worker serves; set once per worker by _install or
# _serve, never in the parent
_task = None


def worker_count(units: int, work: float = 0, fork_work: float = 0) -> int:
    """The processes to run ``units`` units of work on: the usable CPUs, at
    most ``units``.  One, that is in-process, without an affinity mask
    (outside Linux), inside a worker, or when ``work`` is below
    ``fork_work``, the caller's measured threshold in its own unit."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _task is not None or work < fork_work:
        return 1
    return max(1, min(units, len(affinity(0))))


def _die_with(parent):
    # die with the parent, even one killed by SIGKILL, rather than wait on a
    # pipe forever: a worker may hold that pipe's write end too, so it never
    # reads EOF
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:          # the parent died before prctl
        os._exit(1)


def _install(fn, jobs, parent):
    _die_with(parent)
    global _task
    _task = (fn, jobs)


def _timed(fn, job):
    start = time.perf_counter()
    result = fn(job)
    return result, time.perf_counter() - start


def _run(index):
    fn, jobs = _task
    return _timed(fn, jobs[index])


def map_jobs(fn, jobs, cost, work: float = 0, fork_work: float = 0):
    """``[fn(job) for job in jobs]``, on forked workers when
    :func:`worker_count` allows.

    ``cost(job)`` orders the submission (largest first), so the longest
    job starts at once; results are returned in job order.  ``work`` and
    ``fork_work`` are the caller's threshold, passed on to
    :func:`worker_count`.
    """
    jobs = list(jobs)
    costs = [cost(job) for job in jobs]
    workers = worker_count(len(jobs), work, fork_work)
    _log.debug("%d jobs on %d workers", len(jobs), workers)
    if workers == 1:
        timed = [_timed(fn, job) for job in jobs]
    else:
        order = sorted(range(len(jobs)), key=lambda i: -costs[i])
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                   initializer=_install,
                                   initargs=(fn, jobs, os.getpid()))
        try:
            futures = {i: pool.submit(_run, i) for i in order}
            timed = [futures[i].result() for i in range(len(jobs))]
        except BrokenProcessPool as exc:
            raise WorkerLostError(f"a worker process died: {exc}") from None
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    for i, (c, (_, seconds)) in enumerate(zip(costs, timed)):
        _log.debug("job %d: cost %d, %.3f s", i, c, seconds)
    return [result for result, _ in timed]


# relay status bytes, worker to parent, one per unit
_DONE, _FAILED = b"\0", b"\1"


def _serve(j, workers, units, prepare, advance, slots, pipes, parent):
    """Worker j of a relay; never returns."""
    go, done, free = pipes
    keep = {go[j][0], go[(j + 1) % workers][1], done[j][1], free[j][0]}
    for fd in {fd for pair in go + done + free for fd in pair} - keep:
        os.close(fd)
    code = 1
    try:
        _die_with(parent)
        global _task
        _task = advance
        for c in range(j, units, workers):
            try:
                prepared, error = prepare(c), None
            except Exception as exc:    # held until every earlier unit ran
                prepared, error = None, exc
            # unit c - 1's token, then the slot that unit c - len(slots)
            # held; EOF (b"") means the worker upstream or the parent is gone
            if c and not os.read(go[j][0], 1):
                return
            if c >= len(slots) and not os.read(free[j][0], 1):
                return
            if error is None:
                try:
                    advance(c, prepared, slots[(c - 1) % len(slots)] if c else None,
                            slots[c % len(slots)])
                except Exception as exc:
                    error = exc
            if error is not None:
                try:
                    payload = pickle.dumps(error)
                except Exception:
                    payload = pickle.dumps(RuntimeError(
                        f"{type(error).__name__}: {error}"))
                _write(done[j][1], _FAILED + payload)
                code = 0
                return
            if c + 1 < units:
                os.write(go[(j + 1) % workers][1], _DONE)
            os.write(done[j][1], _DONE)
        code = 0
    finally:
        os._exit(code)


def _write(fd, data):
    while data:             # a pipe takes a large write in parts
        data = data[os.write(fd, data):]


def relay(prepare, advance, record, units: int, workers: int,
          slot_bytes: int) -> None:
    """Run ``units`` dependent units on ``workers`` forked processes.

    For each unit c in order, in a worker: ``prepared = prepare(c)``, then
    ``advance(c, prepared, last, slot)``, where ``slot`` is a writable
    memoryview of ``slot_bytes`` bytes for unit c's result and ``last`` is
    unit c - 1's slot (None for unit 0).  In the parent, in order:
    ``record(c, slot)``, after which the slot goes back to the ring.  An
    exception raised by ``prepare(c)`` or ``advance`` is raised here, once
    every earlier unit has been recorded; a worker that dies raises
    :class:`WorkerLostError`.
    """
    stride = -(-slot_bytes // 64) * 64  # every slot starts 64-byte aligned
    # unmapped once no view of it is left (an array built on a slot may
    # outlive the call in a traceback, so it is not closed here)
    ring = memoryview(mmap.mmap(-1, 2 * workers * stride))
    slots = [ring[i * stride:i * stride + slot_bytes] for i in range(2 * workers)]
    # go[j]: unit c - 1 is done, to worker j; done[j]: worker j's status
    # bytes; free[j]: the parent has recorded a unit of worker j's
    pipes = tuple([os.pipe() for _ in range(workers)] for _ in range(3))
    _, done, free = pipes
    fds = {fd for group in pipes for pair in group for fd in pair}
    parent, pids = os.getpid(), []
    try:
        for j in range(workers):
            pid = os.fork()
            if pid == 0:
                _serve(j, workers, units, prepare, advance, slots, pipes, parent)
            pids.append(pid)
        mine = {r for r, _ in done} | {w for _, w in free}
        for fd in fds - mine:
            os.close(fd)
        fds = mine
        for c in range(units):
            j = c % workers
            status = os.read(done[j][0], 1)
            if status == _FAILED:
                with open(done[j][0], "rb", closefd=False) as rest:
                    raise pickle.load(rest)
            if status != _DONE:
                raise WorkerLostError(f"relay worker {j} died before unit {c}")
            record(c, slots[c % len(slots)])
            if c + len(slots) < units:
                try:
                    os.write(free[j][1], _DONE)
                except BrokenPipeError:
                    raise WorkerLostError(
                        f"relay worker {j} died after unit {c}") from None
    finally:
        for pid in pids:
            # a worker may have exited already; a SIGCHLD set to SIG_IGN
            # reaps it on its own
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
