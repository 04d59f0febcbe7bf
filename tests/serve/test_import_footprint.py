"""The coordinator service imports only its ingest path.

``repro serve run`` never ticks, so it must not pay for numpy, the radio
model, the client simulator or the serve-side client/driver stack: a
fresh interpreter that imports ``repro.cli``, builds the coordinator,
ingests wire reports and replays a WAL -- everything the served
process does -- must leave those modules unloaded, and must load
nothing new on the request path after the first report.
"""

import json
import subprocess
import sys

from repro.serve.loadgen import synthetic_report
from repro.serve.wal import WriteAheadLog

#: Loaded by the simulation, the client side or the metrics HTTP
#: exporter; none of them runs in the served process.
HEAVY = (
    "numpy",
    "repro.radio.network",
    "repro.clients.agent",
    "repro.serve.driver",
    "http.server",
)

SERVED_PATH = """
import json, sys

import repro.cli
from repro.serve.server import build_coordinator, replay_wal
from repro.serve.wire import report_from_wire

reports = json.load(sys.stdin)
coordinator = build_coordinator()
loaded = []
for report in reports:
    coordinator.ingest(report_from_wire(report))
    loaded.append(len(sys.modules))
replayed = replay_wal(sys.argv[1])
json.dump({
    "modules": sorted(sys.modules),
    "loaded_first": loaded[0],
    "loaded_last": loaded[-1],
    "ingested": coordinator.stats.reports_ingested,
    "replay_equal": replayed.metrics.to_json() == coordinator.metrics.to_json(),
}, sys.stdout)
"""


def test_served_path_loads_no_simulation_stack(tmp_path):
    reports = [synthetic_report(i % 7, i) for i in range(100)]
    wal_dir = str(tmp_path / "wal")
    with WriteAheadLog(wal_dir) as wal:
        wal.write_meta({"seed": 7, "gen_seed": 1, "radius_m": 250.0})
        wal.append_many(reports)
    proc = subprocess.run(
        [sys.executable, "-c", SERVED_PATH, wal_dir],
        input=json.dumps(reports), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ingested"] == 100
    assert out["replay_equal"]
    loaded = set(out["modules"])
    assert [name for name in HEAVY if name in loaded] == []
    assert not any(name.startswith("numpy.") for name in loaded)
    # No import cost moved onto the request path.
    assert out["loaded_last"] == out["loaded_first"]
