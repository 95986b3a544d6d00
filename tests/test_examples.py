"""The example scripts run end to end against ``src/``.

Each script in ``examples/`` runs in a fresh interpreter with ``src/`` on
the path, as ``PYTHONPATH=src python examples/<script>``; it must exit 0 and
print one line that only a correct run prints.  Anything an example uses is
product surface.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Example script -> one line of its expected output.
EXPECTED_LINES = {
    "quickstart.py": "After the assert: 2 worlds with probabilities [0.44, 0.56]",
    "data_cleaning.py": "possible consistent censuses: 729 worlds",
    "whale_tracking.py": "induced possible worlds: 64",
    "scaling_representations.py": "  normalised WSD:    6 components, 72 cells",
    "serving.py": "  conf(B > 24) = 0.4444",
}


def test_every_example_is_covered():
    scripts = {path.name for path in (ROOT / "examples").glob("*.py")}
    assert scripts == set(EXPECTED_LINES)


@pytest.mark.parametrize("script", sorted(EXPECTED_LINES))
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert EXPECTED_LINES[script] in completed.stdout.splitlines()
