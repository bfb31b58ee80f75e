"""Checks that hold for every test."""

import os
import threading
import time

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
def no_thread_left_running():
    """Fail a test after which a thread it started is still alive, such as a
    search's pool thread, once each has had a short while to end."""
    before = set(threading.enumerate())
    yield
    end = time.monotonic() + 2.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, end - time.monotonic()))
    left = [t.name for t in set(threading.enumerate()) - before]
    assert not left, f"threads left running: {left}"
