import os

import pytest


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Sweeps, ladders and relays fork workers; every one must be reaped by
    the end.  ``waitpid`` sees every child, raw forks included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
