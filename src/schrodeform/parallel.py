"""Work on every usable CPU: independent jobs, and a relay of dependent steps.

One rule decides whether to fork at all (:func:`worker_count`): workers are
forked only with more than one CPU in the process's affinity mask, outside
a worker of this module (whose CPUs are already busy), and when a measure
of the work reaches its threshold (below).  Otherwise everything runs
in-process, in order.

Forked, both calls run on one engine: W workers, each with a pipe from the
parent and a pipe back.  The parent is the only dispatcher, and a worker
answers what it is sent with a status byte and a pickle.

- ``map_jobs(fn, jobs, cost, work, fork_work)``: the parent sends job
  indices, and the first free worker takes the next-largest job by
  ``cost``; it forks for ``work`` at ``fork_work`` or more.  The jobs are
  evolutions (adiabatic epsilons, temporal convergence rungs) and the stage
  table and RK4 passes of a Moser flow; a job that calls ``map_jobs`` runs
  the inner jobs in-process, in its own worker.
- ``relay(prepare, advance, record, units, slot_bytes)``: the parent runs
  unit 0 of a recurrence itself and times it; if units 1..U-1 would take
  ``_FORK_SECONDS`` or more at that pace, worker j of W owns the units
  c = 1 + j (mod W) and prepares each one while the units before it
  advance.  On unit c's reply the parent sends unit c + 1's one-byte token,
  then records unit c, so two slots of shared memory hold every result.
  Cayley steps run so (``propagator``), on either solve kernel.

Workers are forked, not spawned, because the jobs are closures over
families and coefficient sets, which cannot be pickled: a forked worker
inherits its functions and receives only indices.  The library starts no
threads of its own, and OpenBLAS quiesces its thread pool around a fork
(Python 3.12+ still warns that a process with BLAS threads forks).
Results of ``map_jobs`` and exceptions come back pickled, so they must be
picklable (a float, an array); an error that is not comes back as a
``RuntimeError`` naming it.  The error raised is the one a serial loop
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
import select
import signal
import time
from contextlib import contextmanager, suppress

from .errors import WorkerLostError

_log = logging.getLogger(__name__)

_PR_SET_PDEATHSIG = 1   # <linux/prctl.h>

_in_worker = False      # True in a forked worker, never in the parent

# a reply's status byte, before its pickle; _DONE is also the relay's token
_DONE, _FAILED = b"\0", b"\1"
# the least time a relay's units 1.. must take, at unit 0's pace, to fork (on
# 2 CPUs, every evolution predicted at 0.1 s and up ran faster relayed)
_FORK_SECONDS = 0.1


def worker_count(units: int, work: float = 0, fork_work: float = 0) -> int:
    """The processes to run ``units`` units of work on: the usable CPUs, at
    most ``units``.  One, that is in-process, without an affinity mask
    (outside Linux), inside a worker, or when ``work`` is below
    ``fork_work``, the caller's measured threshold in its own unit."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _in_worker or work < fork_work:
        return 1
    return max(1, min(units, len(affinity(0))))


def _die_with(parent):
    # die with the parent, even one killed by SIGKILL, rather than run on
    # with a job whose result no one will read
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:          # the parent died before prctl
        os._exit(1)


@contextmanager
def _forked(workers, serve):
    """Fork worker j < ``workers`` to run ``serve(j, inbox, outbox)`` and
    yield the parent's pipe ends ``to[j]`` and ``back[j]``.  A worker's EOF
    or broken pipe raises :class:`WorkerLostError`; every worker is killed
    and reaped on the way out."""
    global _in_worker
    pipes = [(os.pipe(), os.pipe()) for _ in range(workers)]
    fds = {fd for pair in pipes for ends in pair for fd in ends}
    parent, pids = os.getpid(), []
    try:
        for j, ((inbox, _), (_, outbox)) in enumerate(pipes):
            pid = os.fork()
            if pid == 0:
                try:        # the parent reads EOF, not the exit status
                    for fd in fds - {inbox, outbox}:
                        os.close(fd)
                    _die_with(parent)
                    _in_worker = True
                    serve(j, inbox, outbox)
                finally:
                    os._exit(0)
            pids.append(pid)
        to, back = [w for (_, w), _ in pipes], [r for _, (r, _) in pipes]
        for fd in fds - set(to + back):
            os.close(fd)
        fds = set(to + back)
        yield to, back
    except (BrokenPipeError, EOFError, pickle.UnpicklingError):
        raise WorkerLostError("a worker process died") from None
    finally:
        for pid in pids:
            # a worker may have exited already; a SIGCHLD set to SIG_IGN
            # reaps it on its own
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _reply(fd, work):
    """In a worker: send ``_DONE`` and ``work()`` pickled, or ``_FAILED`` and
    the error it raised."""
    try:
        reply = _DONE + pickle.dumps(work())
    except Exception as exc:
        try:
            reply = _FAILED + pickle.dumps(exc)
        except Exception:
            reply = _FAILED + pickle.dumps(RuntimeError(
                f"{type(exc).__name__}: {exc}"))
    while reply:            # a pipe takes a large write in parts
        reply = reply[os.write(fd, reply):]


def _receive(fd):
    """In the parent: a worker's reply, as (failed, result or error); after
    a dead worker's EOF, ``pickle.load`` raises EOFError."""
    with open(fd, "rb", closefd=False) as stream:
        return stream.read(1) == _FAILED, pickle.load(stream)


def _timed(fn, job):
    start = time.perf_counter()
    result = fn(job)
    return result, time.perf_counter() - start


def map_jobs(fn, jobs, cost, work: float = 0, fork_work: float = 0):
    """``[fn(job) for job in jobs]``, on forked workers when
    :func:`worker_count` allows.

    ``cost(job)`` orders the dispatch: each free worker takes the largest
    job left, so the longest job starts at once; results are returned in
    job order.  ``work`` and ``fork_work`` are the caller's threshold,
    passed on to :func:`worker_count`.
    """
    jobs = list(jobs)
    costs = [cost(job) for job in jobs]
    workers = worker_count(len(jobs), work, fork_work)
    _log.debug("%d jobs on %d workers", len(jobs), workers)
    if workers == 1:
        timed = [_timed(fn, job) for job in jobs]
    else:
        def serve(_j, inbox, outbox):
            while index := os.read(inbox, 4):       # EOF: no more jobs
                job = jobs[int.from_bytes(index, "little")]
                _reply(outbox, lambda: _timed(fn, job))

        def give(fd):   # the largest job left, to the worker replying on fd
            busy[fd] = order.pop()
            os.write(sends[fd], busy[fd].to_bytes(4, "little"))
            ready.register(fd, select.POLLIN)

        order = sorted(range(len(jobs)), key=lambda i: costs[i])
        timed, failed, busy, ready = [None] * len(jobs), {}, {}, select.poll()
        with _forked(workers, serve) as (to, back):
            sends = dict(zip(back, to))
            for fd in back:
                give(fd)
            while busy:
                for fd, _ in ready.poll():
                    i = busy.pop(fd)
                    ready.unregister(fd)
                    failure, timed[i] = _receive(fd)
                    if failure:     # the jobs after it are not needed
                        failed[i] = timed[i]
                        order = [k for k in order if k < min(failed)]
                    if order:
                        give(fd)
        if failed:
            raise failed[min(failed)]
    for i, (c, (_, seconds)) in enumerate(zip(costs, timed)):
        _log.debug("job %d: cost %d, %.3f s", i, c, seconds)
    return [result for result, _ in timed]


def relay(prepare, advance, record, units: int, slot_bytes: int) -> None:
    """Run ``units`` dependent units in order: unit 0 here, timed, and the
    rest on forked workers when :func:`worker_count` allows for that time.

    For each unit c: ``prepared = prepare(c)``, then ``advance(c, prepared,
    last, slot)``, where ``slot`` is a writable memoryview of ``slot_bytes``
    bytes for unit c's result and ``last`` is unit c - 1's slot (None for
    unit 0); then, here, ``record(c, slot)``.  Unit c + 1 writes into unit
    c - 1's slot, recorded by then.  An exception raised by ``prepare(c)``
    or ``advance`` is raised here, once every earlier unit has been
    recorded (unit 0's before any fork); a worker that dies raises
    :class:`WorkerLostError`.
    """
    stride = -(-slot_bytes // 64) * 64  # every slot starts 64-byte aligned
    # unmapped once no view of it is left (an array built on a slot may
    # outlive the call in a traceback, so it is not closed here)
    ring = memoryview(mmap.mmap(-1, 2 * stride))
    slots = [ring[:slot_bytes], ring[stride:stride + slot_bytes]]

    def step(c, prepared, error=None):
        if error is not None:
            raise error
        advance(c, prepared, slots[(c - 1) % 2] if c else None, slots[c % 2])

    start = time.perf_counter()
    for c in range(units):
        step(c, prepare(c))
        record(c, slots[c % 2])
        if c == 0:      # units 1.. at unit 0's pace
            workers = worker_count(units - 1, (time.perf_counter() - start)
                                   * (units - 1), _FORK_SECONDS)
            if workers > 1:
                break
    else:
        return

    def serve(j, inbox, outbox):
        # worker j owns units c = 1 + j (mod W); unit 1 reads slot 0,
        # recorded before the fork, so it needs no token
        for c in range(1 + j, units, workers):
            try:
                held = prepare(c), None
            except Exception as exc:    # held until every earlier unit ran
                held = None, exc
            # unit c's token; EOF (b"") means the parent is gone.  After a
            # failure no token comes: the parent kills the workers
            if c > 1 and not os.read(inbox, 1):
                return
            _reply(outbox, lambda: step(c, *held))

    with _forked(workers, serve) as (to, back):
        for c in range(1, units):
            failure, error = _receive(back[(c - 1) % workers])
            if failure:
                break
            if c + 1 < units:   # unit c + 1 reads unit c's slot meanwhile
                os.write(to[c % workers], _DONE)
            record(c, slots[c % 2])
    if failure:
        raise error
