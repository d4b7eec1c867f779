"""numpy is the package's only runtime dependency."""

import subprocess
import sys


def test_the_cli_imports_no_scipy(package_env):
    # a fresh interpreter: this one has scipy loaded through the oracles
    code = ("import sys, insiderlab.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
