"""The repository benchmark: four workloads over serve, store and simulation.

Run it from the repository root with ``python -m bench run``; see
``bench/README.md``.  The benchmark drives ``repro`` only from outside: it
calls public functions, reads the server's STATS frame and ``/proc``, and
wraps public functions for the traced runs.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Every file the benchmark writes lives under here (ignored by git).
OUT = ROOT / "bench" / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
