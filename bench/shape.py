"""The report stream ``repro monitor`` sends its coordinator.

    PYTHONPATH=src python -m bench.shape

Runs the monitor-sim workload's simulation once (10 buses, 6 simulated
hours, world seed 7, generator seed 1) with a wrapper on
``MeasurementCoordinator.ingest``, and prints the shape of the reports as
JSON.  The benchmark's inputs copy these numbers (``bench.workloads``:
``SAMPLES``, ``UDP_OF``/``UDP_EVERY``, ``EPOCH_REPORTS``, ``TICK_REPORTS``,
``SNAPSHOT_REPORTS``); bench/README.md records them.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import statistics
import sys

from bench import trace

#: The monitor's scheduler tick, its default epoch, and the snapshot
#: interval of the monitor-sim workload (``--snapshot-every 900``).
TICK_S, EPOCH_S, SNAPSHOT_S = 60.0, 1800.0, 900.0


def measure(buses: int = 10, hours: float = 6.0) -> dict:
    """Shape of the reports one ``repro monitor`` run ingests."""
    from repro import cli

    seen = []

    def make(ingest):
        def recorded(self, report, *args, **kwargs):
            seen.append((report.client_id, report.kind.value,
                         report.start_s, len(report.samples)))
            return ingest(self, report, *args, **kwargs)
        return recorded

    undo = trace.patch("repro.core.controller",
                       "MeasurementCoordinator.ingest", make)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["monitor", "--buses", str(buses), "--hours",
                             str(hours), "--seed", "7", "--gen-seed", "1"])
    finally:
        undo()
    if code != 0:
        raise RuntimeError(f"repro monitor exited {code}")

    def per(window_s: float) -> float:
        counts = collections.Counter((client, start // window_s)
                                     for client, _, start, _ in seen)
        return statistics.median(counts.values())

    kinds = collections.Counter(kind for _, kind, _, _ in seen)
    return {
        "reports": len(seen),
        "clients": len({client for client, _, _, _ in seen}),
        "kind_share": {kind: n / len(seen) for kind, n in kinds.items()},
        "samples_per_report": {
            kind: statistics.median(n for _, k, _, n in seen if k == kind)
            for kind in kinds
        },
        "reports_per_client_tick": per(TICK_S),
        "reports_per_client_epoch": per(EPOCH_S),
        "fleet_reports_per_snapshot": len(seen) / (hours * 3600 / SNAPSHOT_S),
    }


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
    sys.exit(0)
