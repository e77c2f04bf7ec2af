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

``relay(prepare, advance, record, units, slot_bytes, ...)`` runs a
sequential recurrence of units, each in two halves: ``prepare(c)``, which
does not need unit c - 1's result, and ``advance(c, ...)``, which does.
Forked, worker j of W owns the units c = j (mod W) and prepares each one
while the units before it advance; then it waits for unit c's token,
advances, and sends the parent a status byte.  The parent is the only
dispatcher: on unit c's status it sends unit c + 1's token, then records
unit c.  So two slots of shared memory hold every result, and only
one-byte tokens go through pipes.  Cayley steps run so (``propagator``).

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


# relay status bytes, worker to parent, one per unit (_DONE is the token)
_DONE, _FAILED = b"\0", b"\1"


def _serve(j, workers, units, prepare, advance, slots, pipes, parent):
    """Worker j of a relay; never returns."""
    go, done = pipes
    for fd in {fd for pair in go + done for fd in pair} - {go[j][0], done[j][1]}:
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
            # unit c's token; EOF (b"") means the parent is gone
            if c and not os.read(go[j][0], 1):
                return
            if error is None:
                try:
                    advance(c, prepared, slots[(c - 1) % 2] if c else None,
                            slots[c % 2])
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
            os.write(done[j][1], _DONE)
        code = 0
    finally:
        os._exit(code)


def _write(fd, data):
    while data:             # a pipe takes a large write in parts
        data = data[os.write(fd, data):]


def relay(prepare, advance, record, units: int, slot_bytes: int,
          work: float = 0, fork_work: float = 0) -> None:
    """Run ``units`` dependent units in order, on forked workers when
    :func:`worker_count` allows.

    For each unit c, in a worker or in-process: ``prepared = prepare(c)``,
    then ``advance(c, prepared, last, slot)``, where ``slot`` is a writable
    memoryview of ``slot_bytes`` bytes for unit c's result and ``last`` is
    unit c - 1's slot (None for unit 0); then, here, ``record(c, slot)``.
    Unit c + 1 writes into unit c - 1's slot, recorded by then.  An
    exception raised by ``prepare(c)`` or ``advance`` is raised here, once
    every earlier unit has been recorded; a worker that dies raises
    :class:`WorkerLostError`.  ``work`` and ``fork_work`` are passed on to
    :func:`worker_count`.
    """
    stride = -(-slot_bytes // 64) * 64  # every slot starts 64-byte aligned
    # unmapped once no view of it is left (an array built on a slot may
    # outlive the call in a traceback, so it is not closed here)
    ring = memoryview(mmap.mmap(-1, 2 * stride))
    slots = [ring[:slot_bytes], ring[stride:stride + slot_bytes]]
    workers = worker_count(units, work, fork_work)
    if workers == 1:
        for c in range(units):
            advance(c, prepare(c), slots[(c - 1) % 2] if c else None, slots[c % 2])
            record(c, slots[c % 2])
        return
    # go[j]: the parent's tokens to worker j; done[j]: worker j's status
    go, done = pipes = tuple([os.pipe() for _ in range(workers)] for _ in range(2))
    fds = {fd for group in pipes for pair in group for fd in pair}
    parent, pids = os.getpid(), []
    try:
        for j in range(workers):
            pid = os.fork()
            if pid == 0:
                _serve(j, workers, units, prepare, advance, slots, pipes, parent)
            pids.append(pid)
        mine = {r for r, _ in done} | {w for _, w in go}
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
            if c + 1 < units:   # unit c + 1 reads unit c's slot meanwhile
                try:
                    os.write(go[(c + 1) % workers][1], _DONE)
                except BrokenPipeError:
                    raise WorkerLostError(f"relay worker {(c + 1) % workers} "
                                          f"died before unit {c + 1}") from None
            record(c, slots[c % 2])
    finally:
        for pid in pids:
            # a worker may have exited already; a SIGCHLD set to SIG_IGN
            # reaps it on its own
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
