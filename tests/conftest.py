"""Fixtures shared by every test module."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads alive than it started with, such
    as a chunk engine's drawing thread that was never joined."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=5.0)  # a thread in its last steps may finish
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"threads left alive by the test: {alive}")
