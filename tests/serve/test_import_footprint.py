"""Entry points that do not simulate import only what they run.

Only the simulation needs numpy, the radio model and the client agent.
Every other entry point -- the served coordinator, the wire client
(``repro serve loadgen``), the cluster supervisor and gateway with
offline cluster replay, and the operator tools (``store import``,
``store query``, ``obs report``) -- runs here in a fresh interpreter
that imports ``repro.cli`` first, as the console script does, and must
leave every :data:`HEAVY` module unloaded.  The served coordinator also
leaves OpenSSL unloaded (:data:`OPENSSL`): it offers no TLS and, on a
single node, hashes nothing.
"""

import asyncio
import json
import subprocess
import sys
import time

from repro.serve.driver import ServeSession
from repro.serve.loadgen import synthetic_report
from repro.serve.wal import WriteAheadLog

#: Loaded by the simulation or the metrics HTTP exporter; no entry
#: point that does not simulate may load them.
HEAVY = (
    "numpy",
    "repro.radio.network",
    "repro.clients.agent",
    "http.server",
)

#: Modules that map OpenSSL's libssl or libcrypto, or that (like
#: ``platform``) only a run manifest needs; ``repro serve run`` loads none.
OPENSSL = ("ssl", "_ssl", "hashlib", "_hashlib", "platform")

#: Appended to every entry-point script: the loaded module set goes out
#: beside the script's own results.
REPORT = """
results["modules"] = sorted(sys.modules)
json.dump(results, sys.stdout)
"""

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
results = {
    "loaded_first": loaded[0],
    "loaded_last": loaded[-1],
    "ingested": coordinator.stats.reports_ingested,
    "replay_equal": replayed.metrics.to_json() == coordinator.metrics.to_json(),
}
"""

WIRE_CLIENT = """
import json, sys

import repro.cli
from repro.serve.loadgen import LoadgenConfig, run_loadgen_sync

result = run_loadgen_sync(LoadgenConfig(
    port=int(sys.argv[1]), clients=8, reports_per_client=5,
    codec="binary", batch_size=4,
))
results = result.to_dict()
"""

CLUSTER = """
import asyncio, json, sys

import repro.cli
from repro.serve.cluster import ClusterConfig, LocalCluster, replay_cluster
from repro.serve.loadgen import LoadgenConfig, run_loadgen

async def run():
    cluster = LocalCluster(ClusterConfig(cluster_dir=sys.argv[1], shards=2))
    await cluster.start()
    try:
        result = await run_loadgen(LoadgenConfig(
            port=cluster.gateway_port, clients=8, reports_per_client=5,
            codec="binary", batch_size=4, cluster=True,
        ))
    finally:
        await cluster.stop()
    return result

result = asyncio.run(run())
aggregated, per_shard = replay_cluster(sys.argv[1])
results = {
    "loadgen": result.to_dict(),
    "shards": sorted(per_shard),
    "replayed": aggregated["counters"]["coordinator.reports_ingested"],
}
"""

OPERATOR_TOOLS = """
import contextlib, io, json, sys

import repro.cli

wal_dir, tel_dir, db = sys.argv[1:4]
commands = [
    ["store", "import", db, wal_dir],
    ["store", "query", db, "--what", "coverage", "--format", "json"],
    ["obs", "report", tel_dir],
    ["obs", "report", tel_dir, "--format", "json"],
]
results = {"rcs": [], "outputs": []}
for argv in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results["rcs"].append(repro.cli.main(argv))
    results["outputs"].append(out.getvalue())
"""


SERVE_RUN = """
import contextlib, io, json, os, signal, sys, threading, time
from pathlib import Path

import repro.cli

port_file = Path(sys.argv[1])

def interrupt_once_listening():
    while not (port_file.exists() and port_file.read_text().endswith("\\n")):
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=interrupt_once_listening, daemon=True).start()
with contextlib.redirect_stdout(io.StringIO()):
    results = {"rc": repro.cli.main(
        ["serve", "run", "--port", "0", "--port-file", str(port_file)])}
"""

SERVE_RUN_AFTER_TRAFFIC = """
import contextlib, io, json, os, signal, sys, threading, time
from pathlib import Path

import repro.cli

port_file, wal_dir, done_file = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])

def interrupt_once_served():
    while not done_file.exists():
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=interrupt_once_served, daemon=True).start()
with contextlib.redirect_stdout(io.StringIO()):
    rc = repro.cli.main(["serve", "run", "--port", "0", "--wal", wal_dir,
                         "--port-file", str(port_file)])
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1].rsplit("/", 1)[-1] for line in fh
                   if "libssl" in line or "libcrypto" in line})
results = {"rc": rc, "openssl_libs": libs}
"""

SERVE_RUN_THEN_SSL = """
import contextlib, io, json, os, signal, sys, threading, time
from pathlib import Path

import repro.cli

port_file = Path(sys.argv[1])

def interrupt_once_listening():
    while not (port_file.exists() and port_file.read_text().endswith("\\n")):
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=interrupt_once_listening, daemon=True).start()
with contextlib.redirect_stdout(io.StringIO()):
    rc = repro.cli.main(
        ["serve", "run", "--port", "0", "--port-file", str(port_file)])
ssl_before = "ssl" in sys.modules

import ssl

ssl.create_default_context()
results = {"rc": rc, "ssl_before": ssl_before,
           "openssl_version": ssl.OPENSSL_VERSION}
"""

STORE_QUERY = """
import contextlib, io, json, sys

import repro.cli

with contextlib.redirect_stdout(io.StringIO()):
    results = {"rcs": [
        repro.cli.main(["store", "init", sys.argv[1]]),
        repro.cli.main(["store", "query", sys.argv[1], "--what", "runs"]),
    ]}
"""

MONITOR = """
import contextlib, io, json, sys

import repro.cli

with contextlib.redirect_stdout(io.StringIO()):
    results = {"rc": repro.cli.main(
        ["monitor", "--buses", "2", "--hours", "0.3", "--telemetry",
         sys.argv[1], "--snapshot-every", "900"])}
"""


def run_script(script, *args, stdin=None):
    """Run ``script`` in a fresh interpreter; its results and modules."""
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT, *map(str, args)],
        input=stdin, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out, set(out.pop("modules"))


def run_entry_point(script, *args, stdin=None):
    """:func:`run_script`, asserting that no :data:`HEAVY` module loaded."""
    out, loaded = run_script(script, *args, stdin=stdin)
    assert [name for name in HEAVY if name in loaded] == []
    assert not any(name.startswith("numpy.") for name in loaded)
    return out, loaded


def write_wal(wal_dir, n_reports):
    """A WAL of ``n_reports`` synthetic wire reports; the reports."""
    reports = [synthetic_report(i % 7, i) for i in range(n_reports)]
    with WriteAheadLog(str(wal_dir)) as wal:
        wal.write_meta({"seed": 7, "gen_seed": 1, "radius_m": 250.0})
        wal.append_many(reports)
    return reports


def test_served_path_loads_no_simulation_stack(tmp_path):
    reports = write_wal(tmp_path / "wal", 100)
    out, loaded = run_entry_point(
        SERVED_PATH, tmp_path / "wal", stdin=json.dumps(reports),
    )
    assert out["ingested"] == 100
    assert out["replay_equal"]
    # The served process runs no client code either.
    assert "repro.serve.driver" not in loaded
    # No import cost moved onto the request path.
    assert out["loaded_last"] == out["loaded_first"]


def test_wire_client_loads_no_simulation_stack(tmp_path):
    port_file = tmp_path / "port"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run", "--port", "0",
         "--port-file", str(port_file)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not (port_file.exists() and port_file.read_text().strip()):
            assert server.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        out, loaded = run_entry_point(
            WIRE_CLIENT, port_file.read_text().strip(),
        )
    finally:
        server.terminate()
        server.wait(timeout=10)
    assert out["reports_acked"] == 40
    assert out["reports_dropped"] == 0
    assert "repro.serve.driver" in loaded


def test_cluster_loads_no_simulation_stack(tmp_path):
    out, loaded = run_entry_point(CLUSTER, tmp_path / "cluster")
    assert out["loadgen"]["reports_acked"] == 40
    assert out["loadgen"]["reports_dropped"] == 0
    assert out["shards"] == ["shard-0", "shard-1"]
    assert out["replayed"] == 40
    assert "repro.serve.gateway" in loaded


def test_operator_tools_load_no_simulation_stack(tmp_path):
    from tests.store.helpers import write_telemetry_dir

    write_wal(tmp_path / "wal", 50)
    tel_dir = write_telemetry_dir(tmp_path / "tel")
    out, loaded = run_entry_point(
        OPERATOR_TOOLS, tmp_path / "wal", tel_dir, tmp_path / "db.sqlite",
    )
    assert out["rcs"] == [0, 0, 0, 0]
    imported, coverage, _, report = out["outputs"]
    assert "50 accepted" in imported
    assert json.loads(coverage)
    assert json.loads(report)
    assert (tmp_path / "db.sqlite").is_file()
    assert "repro.store" in loaded


def cli_modules(loaded):
    """The ``repro.cli`` package modules among ``loaded``."""
    return {name for name in loaded
            if name == "repro.cli" or name.startswith("repro.cli.")}


def test_serve_run_loads_only_its_command_group(tmp_path):
    out, loaded = run_entry_point(SERVE_RUN, tmp_path / "port")
    assert out["rc"] == 0
    assert cli_modules(loaded) == {
        "repro.cli", "repro.cli.common", "repro.cli.serve"}


async def _serve_traffic(port):
    """A binary 8-report frame, three JSON one-report frames and a STATS.

    Returns the STATS reply.
    """
    network = synthetic_report(0, 0)["network"]
    async with ServeSession("127.0.0.1", port, "footprint-bin", [network],
                            codecs=["binary"]) as session:
        assert session.codec == "binary"
        batch = [synthetic_report(0, seq) for seq in range(8)]
        summary = await session.send_report_batch(batch)
        assert summary["_retries"] == 0
    async with ServeSession("127.0.0.1", port, "footprint-json",
                            [network]) as session:
        assert session.codec == "json"
        for seq in range(8, 11):
            await session.send_report(synthetic_report(0, seq))
        return await session.stats()


def test_served_coordinator_loads_no_openssl(tmp_path):
    port_file, done_file = tmp_path / "port", tmp_path / "done"
    server = subprocess.Popen(
        [sys.executable, "-c", SERVE_RUN_AFTER_TRAFFIC + REPORT,
         str(port_file), str(tmp_path / "wal"), str(done_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not (port_file.exists()
                   and port_file.read_text().endswith("\n")):
            assert server.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        stats = asyncio.run(_serve_traffic(int(port_file.read_text())))
        done_file.write_text("")
        stdout, stderr = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    assert server.returncode == 0, stderr
    out = json.loads(stdout)
    loaded = set(out.pop("modules"))
    assert out["rc"] == 0
    ingested = stats["coordinator"]["counters"]["coordinator.reports_ingested"]
    assert ingested == 11
    #: One binary frame of 8, then three JSON frames of one.
    assert stats["serve"]["counters"]["serve.report_batches"] == 4
    assert [name for name in OPENSSL if name in loaded] == []
    assert out["openssl_libs"] == []
    assert [name for name in HEAVY if name in loaded] == []


def test_serve_run_leaves_ssl_importable(tmp_path):
    # The block on ``ssl`` covers only serve run's asyncio import.
    out, loaded = run_entry_point(SERVE_RUN_THEN_SSL, tmp_path / "port")
    assert out["rc"] == 0
    assert out["ssl_before"] is False
    assert out["openssl_version"].startswith(("OpenSSL", "LibreSSL"))
    assert "ssl" in loaded


def test_store_query_loads_only_its_command_group(tmp_path):
    out, loaded = run_entry_point(STORE_QUERY, tmp_path / "db.sqlite")
    assert out["rcs"] == [0, 0]
    assert cli_modules(loaded) == {
        "repro.cli", "repro.cli.common", "repro.cli.store"}


def test_monitor_without_serve_metrics_leaves_http_server_unloaded(tmp_path):
    out, loaded = run_script(MONITOR, tmp_path / "tel")
    assert out["rc"] == 0
    # The snapshots ran and wrote the exposition file...
    assert (tmp_path / "tel" / "metrics.prom").exists()
    # ...without the HTTP exporter's stdlib server.
    assert "http.server" not in loaded
    assert cli_modules(loaded) == {
        "repro.cli", "repro.cli.common", "repro.cli.monitor"}


def test_monitor_leaves_numpy_ma_unloaded(tmp_path):
    # numpy 2's plain ``np.unique`` imports ``numpy.ma`` (about 1.3 MB of
    # resident memory); the radio model's distinct-index loops avoid it.
    out, loaded = run_script(MONITOR, tmp_path / "tel")
    assert out["rc"] == 0
    assert "numpy" in loaded
    assert "numpy.ma" not in loaded
