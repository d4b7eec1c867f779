"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import insiderlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(insiderlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
