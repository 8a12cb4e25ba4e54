"""The package runs on the standard library alone.

Importing the simulator's entry points in a fresh interpreter must not
pull NumPy in, so an optional dependency cannot creep back through an
import unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro
import repro.sim.runner
import repro.sim.kernel
import repro.cli
leaked = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert not leaked, leaked
"""


def test_entry_points_import_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
