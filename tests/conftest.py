import ctypes
import os
import signal

import pytest

_PR_SET_CHILD_SUBREAPER = 36    # <linux/prctl.h>


def pytest_configure(config):
    # a worker orphaned by a killed worker is re-parented to this process,
    # not to init, so the waitpid check below sees it too
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Sweeps, ladders and relays fork workers; every one must be reaped by
    the end.  ``waitpid`` sees every child, raw forks included, and every
    orphaned grandchild."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test, rather than hang, if it runs past 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
