import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Sweeps and ladders fork workers; every one must be joined by the end."""
    yield
    assert multiprocessing.active_children() == []
