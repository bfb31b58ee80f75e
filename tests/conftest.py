"""Checks that hold for every test."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def walker_cache(tmp_path_factory):
    """Build the compiled walker into a cache of the session's own, which the
    CLI processes the tests start share, and not into the user's cache."""
    before = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if before is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = before


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test after which a worker process is still running; stop it first."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    assert not left, f"worker processes left running: {[p.pid for p in left]}"
