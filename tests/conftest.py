"""Checks that hold for every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test after which a worker process is still running; stop it first."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    assert not left, f"worker processes left running: {[p.pid for p in left]}"
