"""Where the benchmark and the program under test live.

Importing this module puts the program's ``src/`` on ``sys.path`` (the
benchmark builds nothing: the program is pure Python run from source) and
refuses to go on — exit status 2, no result printed — when the program is
not there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Results, span files and temporary data directories (git-ignored).
OUT = BENCH / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"bench: the program under test is missing ({SRC}/repro)\n")
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
