"""Independent jobs on every usable CPU.

``map_jobs(fn, jobs, cost)`` returns ``[fn(job) for job in jobs]``.  With
more than one job and more than one CPU in the process's affinity mask it
runs them on ``min(len(jobs), usable CPUs)`` forked workers, largest
``cost`` first; otherwise it runs them in-process, in job order.  The jobs
are evolutions (adiabatic epsilons, temporal convergence rungs) and the
stage table and RK4 passes of a Moser flow.  A job that calls ``map_jobs``
itself runs the inner jobs in-process, in its own worker: the CPUs are
already busy.

Workers are forked, not spawned, because the jobs are closures over
families and coefficient sets, which cannot be pickled: a forked worker
inherits ``fn`` and ``jobs`` and receives only a job index.  The library
starts no threads of its own, and OpenBLAS quiesces its thread pool around
a fork (Python 3.12+ still warns that a process with BLAS threads forks).
Results and exceptions come back pickled, so a result must be picklable (a
float, an array).  The error raised is the one a serial loop would raise:
that of the first failing job in job order.  A worker that dies raises
``WorkerLostError``.  Every worker is joined before ``map_jobs`` returns or
raises, and is killed if the parent dies first.
"""

from __future__ import annotations

import ctypes
import logging
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

from .errors import WorkerLostError

_log = logging.getLogger(__name__)

_PR_SET_PDEATHSIG = 1   # <linux/prctl.h>

# (fn, jobs) of the map a forked worker serves; set once per worker by
# _install, never in the parent
_task = None


def _install(fn, jobs, parent):
    # die with the parent, even one killed by SIGKILL, rather than wait on
    # the call queue forever: the worker holds that pipe's write end too, so
    # it never reads EOF
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:          # the parent died before prctl
        os._exit(1)
    global _task
    _task = (fn, jobs)


def _timed(fn, job):
    start = time.perf_counter()
    result = fn(job)
    return result, time.perf_counter() - start


def _run(index):
    fn, jobs = _task
    return _timed(fn, jobs[index])


def map_jobs(fn, jobs, cost):
    """``[fn(job) for job in jobs]``, on forked workers when CPUs allow.

    ``cost(job)`` orders the submission (largest first), so the longest
    job starts at once; results are returned in job order.  Called from
    one of its own workers, it runs in-process.
    """
    jobs = list(jobs)
    costs = [cost(job) for job in jobs]
    # run in-process with no affinity mask (outside Linux) and inside a
    # worker, whose CPUs are already busy
    affinity = getattr(os, "sched_getaffinity", None)
    usable = 1 if affinity is None or _task is not None else len(affinity(0))
    workers = min(len(jobs), usable)
    _log.debug("%d jobs on %d workers", len(jobs), max(workers, 1))
    if workers <= 1:
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
