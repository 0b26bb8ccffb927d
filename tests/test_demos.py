import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["weight_pushing", "epsilon_removal",
                                  "pruned_decoding"])
def test_demo_prints_its_recorded_output(name):
    """Each demo prints, byte for byte, what demos/<name>.out records."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", f"demos/{name}.py"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, check=True)
    assert done.stdout == (ROOT / "demos" / f"{name}.out").read_bytes()
