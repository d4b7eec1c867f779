"""Fixtures shared by every test module."""

import os
import threading
from pathlib import Path

import pytest

import insiderlab


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads alive than it started with, such
    as one of the chunk engine's threads that was never joined."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=5.0)  # a thread in its last steps may finish
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"threads left alive by the test: {alive}")


@pytest.fixture
def package_env():
    """The environment for a subprocess that must import this checkout's
    package: ``PYTHONPATH`` led by its ``src``."""
    src = str(Path(insiderlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env
