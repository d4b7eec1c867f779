"""Every demo script runs to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path, package_env):
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=package_env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
