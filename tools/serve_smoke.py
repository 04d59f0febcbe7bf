"""CI smoke test for the coordinator service's crash-recovery story.

Exercises the full deployment loop against real processes over loopback
TCP::

    server #1 (subprocess) --SIGKILL mid-run--> server #2 (same port,
        same WAL) --loadgen rides over the restart--> verify

and asserts the three properties the serve subsystem promises:

* **zero dropped reports** — the 50-client loadgen finishes with every
  report ACKed, its reconnect-and-resend logic riding over the kill;
* **byte-identical recovery** — after the run quiesces, the restarted
  server's coordinator registry (fetched over the wire via STATS)
  matches an offline ``repro serve replay`` of the WAL exactly;
* **clean sessions** — the restarted server's ``serve`` registry counts
  no protocol error (every loadgen session ends with a BYE the server
  can decode, whatever the codec).

Run from the repo root::

    PYTHONPATH=src python tools/serve_smoke.py [--codec {json,binary}]
                                               [--batch-size N]
                                               [--cluster]

``--codec``/``--batch-size`` select the wire shape the loadgen drives
(defaults: JSON, one report per REPORT_BATCH frame); CI runs the smoke
once per codec so the kill/restart recovery story is proven for both.

``--cluster`` runs the sharded variant instead: a 3-shard cluster
behind a gateway, one shard SIGKILLed mid-run.  The assertions shift to
the cluster promises — zero drops *cluster-wide* (clients re-route via
REDIRECT/map refresh rather than waiting for a restart), the dead
shard's WAL drained into the survivors, the gateway's aggregated
STATS byte-identical to an offline ``repro serve replay --cluster``,
and no protocol error on any surviving shard.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.driver import ServeSession  # noqa: E402
from repro.serve.loadgen import LoadgenConfig, run_loadgen_sync  # noqa: E402
from repro.serve.wal import wal_segments  # noqa: E402

CLIENTS = 50
REPORTS_PER_CLIENT = 100
START_TIMEOUT_S = 30.0
#: SIGKILL the first server once this much WAL is durably staged —
#: early enough that the bulk of the run rides over the restart.
KILL_AFTER_WAL_BYTES = 4096


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def start_server(wal_dir: str, port_file: str, port: int = 0):
    """Launch ``repro serve run`` and wait until it reports its port."""
    if os.path.exists(port_file):
        os.remove(port_file)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run",
         "--port", str(port), "--wal", wal_dir, "--port-file", port_file],
        env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(port_file):
            text = Path(port_file).read_text().strip()
            if text:
                return proc, int(text)
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise RuntimeError(f"server exited during startup:\n{out}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server did not write its port file in time")


def wal_bytes(wal_dir: str) -> int:
    return sum(os.path.getsize(p) for p in wal_segments(wal_dir))


def fetch_stats(port: int) -> dict:
    """A server's (or the gateway's) STATS_REPLY, over the wire."""

    async def body():
        async with ServeSession("127.0.0.1", port, client_id="smoke-stats",
                                networks=[]) as session:
            return await session.stats()

    return asyncio.run(body())


def protocol_error_failures(name: str, serve_registry: dict) -> list:
    """A failure line when a server counted any protocol error.

    Loadgen sessions end with BYE in their own codec, so a clean run
    leaves ``serve.protocol_errors`` at 0 on every server.
    """
    errors = serve_registry.get("counters", {}).get(
        "serve.protocol_errors", 0
    )
    if errors:
        return [f"{name} counted {errors:.0f} protocol error(s)"]
    return []


def offline_replay_snapshot(wal_dir: str) -> dict:
    """The coordinator registry an offline WAL replay reconstructs."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "replay",
         "--wal", wal_dir, "--format", "json"],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def start_cluster(cluster_dir: str, port_file: str, shards: int):
    """Launch ``repro serve cluster`` and wait for the gateway port."""
    if os.path.exists(port_file):
        os.remove(port_file)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "cluster",
         "--dir", cluster_dir, "--shards", str(shards),
         "--port-file", port_file],
        env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(port_file):
            text = Path(port_file).read_text().strip()
            if text:
                return proc, int(text)
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise RuntimeError(f"cluster exited during startup:\n{out}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("cluster did not write its port file in time")


def offline_cluster_snapshot(cluster_dir: str) -> dict:
    """The aggregated registry an offline cluster replay reconstructs."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "replay",
         "--wal", cluster_dir, "--cluster", "--format", "json"],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def cluster_main(args) -> int:
    """The ``--cluster`` smoke: 3 shards, SIGKILL one, zero drops."""
    clients = 40
    with tempfile.TemporaryDirectory() as tmp:
        cluster_dir = os.path.join(tmp, "cluster")
        port_file = os.path.join(tmp, "gateway-port")

        print(f"starting 3-shard cluster (dir {cluster_dir}) ...")
        proc, gw_port = start_cluster(cluster_dir, port_file, shards=3)
        manifest = json.loads(
            Path(cluster_dir, "cluster.json").read_text()
        )
        victim = manifest["shards"][1]
        print(f"gateway up on port {gw_port}; map "
              f"{manifest['map_version']}; victim will be "
              f"{victim['shard_id']} (pid {victim['pid']})")

        cfg = LoadgenConfig(
            port=gw_port, clients=clients,
            reports_per_client=REPORTS_PER_CLIENT, concurrency=32,
            max_reconnects=50, reconnect_delay_s=0.2,
            codec=args.codec, batch_size=max(args.batch_size, 10),
            cluster=True,
        )
        results = {}

        def drive():
            results["load"] = run_loadgen_sync(cfg)

        loader = threading.Thread(target=drive, daemon=True)
        loader.start()

        victim_wal = os.path.join(REPO_ROOT, victim["wal"]) \
            if not os.path.isabs(victim["wal"]) else victim["wal"]
        deadline = time.monotonic() + START_TIMEOUT_S
        while wal_bytes(victim_wal) < KILL_AFTER_WAL_BYTES:
            if not loader.is_alive():
                raise RuntimeError("loadgen finished before the kill fired")
            if time.monotonic() > deadline:
                raise RuntimeError("victim WAL never reached the kill "
                                   "threshold")
            time.sleep(0.01)

        staged = wal_bytes(victim_wal)
        print(f"SIGKILL {victim['shard_id']} with {staged} WAL bytes "
              f"staged ...")
        os.kill(victim["pid"], signal.SIGKILL)

        #: Wait for the supervisor to retire the victim (rebalance +
        #: WAL drain complete and persisted in the manifest).
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            manifest = json.loads(
                Path(cluster_dir, "cluster.json").read_text()
            )
            if any(r["shard_id"] == victim["shard_id"]
                   for r in manifest.get("retired", [])):
                break
            time.sleep(0.05)
        else:
            raise RuntimeError("supervisor never retired the dead shard")
        drained = [r for r in manifest["retired"]
                   if r["shard_id"] == victim["shard_id"]][0]
        print(f"{victim['shard_id']} retired; "
              f"{drained['drained_records']} WAL records drained into "
              f"{len(manifest['shards'])} survivor(s)")

        loader.join(timeout=120.0)
        if loader.is_alive():
            proc.kill()
            raise RuntimeError("loadgen did not finish after the kill")
        load = results["load"]
        print(
            f"loadgen done: acked={load.reports_acked} "
            f"dropped={load.reports_dropped} retries={load.retries} "
            f"reconnects={load.reconnects} "
            f"({load.reports_per_s:.0f} reports/s)"
        )

        failures = []
        if load.reports_dropped != 0:
            failures.append(
                f"{load.reports_dropped} report(s) dropped across the "
                f"shard kill"
            )
        if load.reports_acked != clients * REPORTS_PER_CLIENT:
            failures.append(
                f"acked {load.reports_acked} != "
                f"{clients * REPORTS_PER_CLIENT} sent"
            )
        if load.reconnects == 0:
            failures.append("kill did not interrupt any client "
                            "(smoke raced past the rebalance)")

        stats = fetch_stats(gw_port)
        live = stats["coordinator"]
        for shard_id, shard in sorted(stats["shards"].items()):
            failures += protocol_error_failures(shard_id, shard["serve"])
        if sorted(stats["shards"]) != sorted(
                s["shard_id"] for s in manifest["shards"]):
            failures.append(f"STATS reached shards {sorted(stats['shards'])}"
                            f", not every survivor")
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30.0)

        replayed = offline_cluster_snapshot(cluster_dir)
        canonical = dict(sort_keys=True, separators=(",", ":"))
        if (json.dumps(live, **canonical)
                != json.dumps(replayed, **canonical)):
            failures.append(
                "offline cluster replay does not match the gateway's "
                "aggregated live registry"
            )
        else:
            ingested = live.get("counters", {}).get(
                "coordinator.reports_ingested", 0.0
            )
            print(f"handoff verified: aggregated replay is "
                  f"byte-identical ({ingested:.0f} reports ingested "
                  f"across the cluster)")

        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        print("cluster smoke OK")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--codec", choices=("json", "binary"),
                        default="json",
                        help="session codec the loadgen negotiates")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="reports coalesced per REPORT_BATCH frame")
    parser.add_argument("--cluster", action="store_true",
                        help="run the 3-shard kill-one cluster variant "
                             "instead of the single-node kill/restart")
    args = parser.parse_args()
    if args.cluster:
        return cluster_main(args)

    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = os.path.join(tmp, "wal")
        port_file = os.path.join(tmp, "port")

        print(f"starting server #1 (WAL in {wal_dir}) ...")
        proc, port = start_server(wal_dir, port_file)
        print(f"server #1 up on port {port}; "
              f"driving {CLIENTS}x{REPORTS_PER_CLIENT} reports "
              f"(codec={args.codec}, batch={args.batch_size}) ...")

        cfg = LoadgenConfig(
            port=port, clients=CLIENTS,
            reports_per_client=REPORTS_PER_CLIENT, concurrency=32,
            max_reconnects=50, reconnect_delay_s=0.2,
            codec=args.codec, batch_size=args.batch_size,
        )
        results = {}

        def drive():
            results["load"] = run_loadgen_sync(cfg)

        loader = threading.Thread(target=drive, daemon=True)
        loader.start()

        deadline = time.monotonic() + START_TIMEOUT_S
        while wal_bytes(wal_dir) < KILL_AFTER_WAL_BYTES:
            if not loader.is_alive():
                raise RuntimeError("loadgen finished before the kill fired")
            if time.monotonic() > deadline:
                raise RuntimeError("WAL never reached the kill threshold")
            time.sleep(0.01)

        staged = wal_bytes(wal_dir)
        print(f"SIGKILL server #1 with {staged} WAL bytes staged ...")
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        print(f"restarting server #2 on port {port} (recovering WAL) ...")
        proc2, port2 = start_server(wal_dir, port_file, port=port)
        assert port2 == port, (port2, port)

        loader.join(timeout=120.0)
        if loader.is_alive():
            proc2.kill()
            raise RuntimeError("loadgen did not finish after the restart")
        load = results["load"]
        print(
            f"loadgen done: acked={load.reports_acked} "
            f"dropped={load.reports_dropped} retries={load.retries} "
            f"reconnects={load.reconnects} "
            f"({load.reports_per_s:.0f} reports/s, "
            f"p99 ACK {load.ack_p99_ms:.1f} ms)"
        )

        failures = []
        if load.reports_dropped != 0:
            failures.append(
                f"{load.reports_dropped} report(s) dropped across the kill"
            )
        if load.reports_acked != CLIENTS * REPORTS_PER_CLIENT:
            failures.append(
                f"acked {load.reports_acked} != "
                f"{CLIENTS * REPORTS_PER_CLIENT} sent"
            )
        if load.reconnects == 0:
            failures.append("kill did not interrupt any session "
                            "(smoke raced past the restart)")

        stats = fetch_stats(port)
        live = stats["coordinator"]
        failures += protocol_error_failures("server #2", stats["serve"])
        proc2.send_signal(signal.SIGINT)
        proc2.wait(timeout=30.0)

        replayed = offline_replay_snapshot(wal_dir)
        canonical = dict(sort_keys=True, separators=(",", ":"))
        if (json.dumps(live, **canonical)
                != json.dumps(replayed, **canonical)):
            failures.append(
                "offline WAL replay does not match the live recovered "
                "coordinator registry"
            )
        else:
            ingested = live.get("counters", {}).get(
                "coordinator.reports_ingested", 0.0
            )
            print(f"recovery verified: replay is byte-identical "
                  f"({ingested:.0f} reports ingested)")

        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            return 1
        print("serve smoke OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
