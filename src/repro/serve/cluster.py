"""Local cluster supervisor: shard processes, rebalance, handoff.

:class:`LocalCluster` turns one machine into a zone-sharded coordinator
cluster: it spawns each shard as a real ``repro serve run`` subprocess
(own event loop, own CRC-checked WAL directory), runs the
:class:`~repro.serve.gateway.GatewayServer` in-process, and owns the
cluster's single source of truth — the current
:class:`~repro.serve.shardmap.ShardMap` — which it pushes to every
shard over the normal wire protocol (MAP_UPDATE) whenever membership
changes.

Failure handling is the interesting part.  When a shard dies (SIGKILL
included), the supervisor:

1. rebuilds the map without the dead shard and pushes it to the
   gateway and every survivor — new traffic re-routes immediately;
2. **drains** the dead shard's WAL: every logged record is re-routed by
   the *new* map and re-sent to its new owner as ordinary REPORT_BATCH
   traffic, so each survivor's WAL stays a pure function of the reports
   it owns (per-shard replay identity survives the handoff);
3. retires the dead WAL in ``cluster.json`` so offline replay knows to
   skip it (its records now live in survivor WALs — replaying both
   would double count).

Adding a shard (``add_shard``) is a map change *only*: zones that move
to the new shard start filling there, and history stays where it was —
migrating old records would double-count them in the aggregated view.

Everything here is wall-clock orchestration; determinism lives in the
shards' WALs and :func:`~repro.obs.metrics.merge_snapshots`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro._canon import pretty_json
from repro.serve.driver import ServeSession
from repro.obs.metrics import merge_snapshots
from repro.serve.gateway import GatewayConfig, GatewayServer
from repro.serve.server import replay_wal, served_grid
from repro.serve.shardmap import ShardInfo, ShardMap
from repro.serve.wire import WireError

__all__ = ["ClusterConfig", "LocalCluster", "replay_cluster"]

#: Name of the manifest the supervisor maintains in its cluster dir.
MANIFEST_NAME = "cluster.json"

#: Seconds a shard gets to write its port file before startup fails.
START_TIMEOUT_S = 30.0

#: Cadence of the death-watch poll over shard processes (seconds).
MONITOR_POLL_S = 0.15


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of a local shard cluster."""

    #: Directory holding per-shard WALs, port files, logs, and the
    #: ``cluster.json`` manifest.
    cluster_dir: str = "cluster"
    #: Shards to spawn at startup.
    shards: int = 3
    host: str = "127.0.0.1"
    #: Gateway TCP port (0 picks a free one).
    gateway_port: int = 0
    #: World/grid identity, forwarded to every shard (and to the map's
    #: grid, so client-side routing agrees with shard-side ownership).
    gen_seed: int = 1
    radius_m: float = 250.0
    #: Per-shard serve knobs, forwarded verbatim.
    ingest_queue_max: int = 1024
    commit_batch_max: int = 256
    wal_fsync_every: int = 64
    #: Reports per REPORT_BATCH frame while draining a dead WAL.
    drain_batch_size: int = 256


@dataclass
class _Shard:
    """One live shard process under supervision."""

    info: ShardInfo
    proc: subprocess.Popen
    wal_dir: str
    log_path: str


class LocalCluster:
    """Supervise shard subprocesses plus an in-process gateway.

    Usage (async)::

        cluster = LocalCluster(ClusterConfig(cluster_dir=d, shards=3))
        await cluster.start()
        ...                       # gateway at cluster.gateway_port
        await cluster.stop()

    The supervisor's manifest (``cluster.json``) is the bridge to
    offline tooling: :func:`replay_cluster` reads it to know which WALs
    are live (replay them) and which are retired (skip them — their
    records were drained into survivors).
    """

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self.gateway: Optional[GatewayServer] = None
        self.shard_map: Optional[ShardMap] = None
        self._shards: Dict[str, _Shard] = {}
        self._retired: List[Dict[str, Any]] = []
        #: Monotonic shard index (never reused, even after deaths).
        self._next_index = 0
        self._monitor_task: Optional[asyncio.Task] = None
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    @property
    def gateway_port(self) -> int:
        """The gateway's bound port (0 before :meth:`start`)."""
        return self.gateway.port if self.gateway is not None else 0

    @property
    def live_shards(self) -> List[ShardInfo]:
        """Current members, sorted by shard id."""
        return [s.info for _, s in sorted(self._shards.items())]

    async def start(self) -> None:
        """Spawn the initial shards, build the map, open the gateway."""
        cfg = self.config
        Path(cfg.cluster_dir).mkdir(parents=True, exist_ok=True)
        infos = await asyncio.gather(
            *(self._spawn_shard() for _ in range(cfg.shards))
        )
        self.shard_map = self._build_map(list(infos))
        self.gateway = GatewayServer(
            GatewayConfig(host=cfg.host, port=cfg.gateway_port),
            shard_map=self.shard_map,
        )
        await self.gateway.start()
        await self._push_map()
        self._write_manifest()
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def stop(self) -> None:
        """Graceful shutdown: SIGTERM shards, close the gateway."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for shard in self._shards.values():
            if shard.proc.poll() is None:
                shard.proc.terminate()
        deadline = time.monotonic() + 10.0
        for shard in self._shards.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, shard.proc.wait, remaining
                )
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait()
        if self.gateway is not None:
            await self.gateway.stop()
        self._write_manifest()

    # -- shard processes -------------------------------------------------

    def _build_map(self, infos: List[ShardInfo]) -> ShardMap:
        """A map over the shards' served grid for these members."""
        grid = served_grid({"radius_m": self.config.radius_m})
        return ShardMap(infos, grid.origin.lat, grid.origin.lon,
                        radius_m=grid.radius_m)

    async def _spawn_shard(self) -> ShardInfo:
        """Start one ``repro serve run`` subprocess; wait for its port."""
        cfg = self.config
        index = self._next_index
        self._next_index += 1
        shard_id = f"shard-{index}"
        wal_dir = str(Path(cfg.cluster_dir) / shard_id)
        port_file = Path(cfg.cluster_dir) / f"{shard_id}.port"
        log_path = Path(cfg.cluster_dir) / f"{shard_id}.log"
        if port_file.exists():
            port_file.unlink()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        argv = [
            sys.executable, "-m", "repro", "serve", "run",
            "--host", cfg.host,
            "--port", "0",
            "--wal", wal_dir,
            "--port-file", str(port_file),
            "--shard-id", shard_id,
            "--gen-seed", str(cfg.gen_seed),
            "--radius", str(cfg.radius_m),
            "--ingest-queue-max", str(cfg.ingest_queue_max),
            "--commit-batch-max", str(cfg.commit_batch_max),
            "--wal-fsync-every", str(cfg.wal_fsync_every),
        ]
        log = open(log_path, "ab")
        try:
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=env)
        finally:
            log.close()
        port = await self._await_port_file(port_file, proc)
        info = ShardInfo(shard_id, cfg.host, port)
        self._shards[shard_id] = _Shard(info, proc, wal_dir, str(log_path))
        return info

    async def _await_port_file(self, port_file: Path,
                               proc: subprocess.Popen) -> int:
        """Poll for a shard's port file (RuntimeError on timeout/death)."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if port_file.exists():
                text = port_file.read_text().strip()
                if text:
                    return int(text)
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard exited with rc={proc.returncode} before "
                    f"writing {port_file}"
                )
            await asyncio.sleep(0.05)
        raise RuntimeError(f"shard did not write {port_file} in time")

    # -- map distribution ------------------------------------------------

    async def _push_map(self) -> None:
        """MAP_UPDATE the current map to every live shard (best effort).

        A shard that dies mid-push is left to the monitor loop; the
        gateway already has the new map, so clients route correctly
        regardless.
        """
        assert self.shard_map is not None
        frame = {"type": "MAP_UPDATE",
                 "shard_map": self.shard_map.to_wire()}
        for info in self.live_shards:
            try:
                async with ServeSession(info.host, info.port,
                                        client_id="cluster-supervisor",
                                        networks=[]) as session:
                    reply = await session.request(frame)
                    if reply.get("type") != "MAP_ACK":
                        raise WireError(
                            f"expected MAP_ACK, got {reply.get('type')!r}"
                        )
            except (WireError, ConnectionError, OSError):
                continue

    # -- death watch and handoff -----------------------------------------

    async def _monitor(self) -> None:
        """Poll shard processes; rebalance + drain on every death."""
        while True:
            await asyncio.sleep(MONITOR_POLL_S)
            dead = [
                shard_id for shard_id, shard in self._shards.items()
                if shard.proc.poll() is not None
            ]
            for shard_id in dead:
                await self._handle_death(shard_id)

    async def _handle_death(self, shard_id: str) -> None:
        """One shard died: re-map, re-route traffic, drain its WAL."""
        shard = self._shards.pop(shard_id)
        assert self.shard_map is not None and self.gateway is not None
        self.shard_map = self.shard_map.without(shard_id)
        self.gateway.set_shard_map(self.shard_map)
        self.gateway.metrics.counter("cluster.shard_deaths").inc()
        await self._push_map()
        drained = 0
        if len(self.shard_map):
            drained = await self._drain_wal(shard.wal_dir)
        self._retired.append({
            "shard_id": shard_id,
            "wal": shard.wal_dir,
            "drained_records": drained,
            "returncode": shard.proc.returncode,
        })
        self._write_manifest()

    async def _drain_wal(self, wal_dir: str) -> int:
        """Re-ingest a dead shard's WAL records via their new owners.

        Records travel the ordinary wire path (REPORT_BATCH), so the
        receiving shard WAL-logs and validates them exactly like live
        traffic — offline replay of the survivor reproduces the merged
        state byte-for-byte.  Returns the number of records drained.
        """
        from repro.serve.wal import iter_wal_records

        assert self.shard_map is not None
        groups, _ = self.shard_map.partition(iter_wal_records(wal_dir))
        total = 0
        for info, records in groups.items():
            total += await self._send_records(info, records)
        return total

    async def _send_records(self, info: ShardInfo,
                            records: List[Dict[str, Any]]) -> int:
        """Batch-send drained records to one shard; follow redirects."""
        batch_size = self.config.drain_batch_size
        sent = 0
        try:
            async with ServeSession(info.host, info.port,
                                    client_id="cluster-drain",
                                    networks=[]) as session:
                for i in range(0, len(records), batch_size):
                    chunk = records[i:i + batch_size]
                    summary = await session.send_report_batch(chunk)
                    sent += int(summary.get("accepted", 0))
                    sent += int(summary.get("rejected", 0))
                    #: The map moved again mid-drain (another death):
                    #: re-route the bounced payloads by the fresh map
                    #: the REDIRECT carried.
                    bounced = summary.get("redirected")
                    if bounced:
                        smap = ShardMap.from_wire(
                            summary["redirect"]["shard_map"]
                        )
                        self.shard_map = smap
                        if self.gateway is not None:
                            self.gateway.set_shard_map(smap)
                        regrouped, _ = smap.partition(bounced)
                        for target, rest in regrouped.items():
                            sent += await self._send_records(target, rest)
        except (WireError, ConnectionError, OSError):
            #: The target died mid-drain.  Chunks already delivered sit
            #: in its WAL and its own death handler re-drains them; the
            #: undelivered remainder of THIS drain is lost — a
            #: double-failure window, consistent on both the live and
            #: replay side (neither ever saw those records).
            pass
        return sent

    # -- scale-out -------------------------------------------------------

    async def add_shard(self) -> ShardInfo:
        """Grow the cluster by one shard (map change only, no history).

        Rendezvous hashing moves ~1/N of the zones to the newcomer; new
        reports for those zones land there, and their history stays in
        the old owners' WALs — aggregated STATS is unaffected because
        :func:`merge_snapshots` sums across all shards anyway.
        """
        assert self.shard_map is not None and self.gateway is not None
        info = await self._spawn_shard()
        self.shard_map = self.shard_map.with_shard(info)
        self.gateway.set_shard_map(self.shard_map)
        await self._push_map()
        self._write_manifest()
        return info

    # -- manifest --------------------------------------------------------

    def _write_manifest(self) -> None:
        """Atomically persist ``cluster.json`` (replay's entry point)."""
        assert self.shard_map is not None
        manifest = {
            "gateway_port": self.gateway_port,
            "map_version": self.shard_map.version,
            "grid": {
                "origin_lat": self.shard_map.origin_lat,
                "origin_lon": self.shard_map.origin_lon,
                "radius_m": self.shard_map.radius_m,
            },
            "shards": [
                {
                    "shard_id": shard_id,
                    "host": shard.info.host,
                    "port": shard.info.port,
                    "pid": shard.proc.pid,
                    "wal": shard.wal_dir,
                }
                for shard_id, shard in sorted(self._shards.items())
            ],
            "retired": self._retired,
        }
        path = Path(self.config.cluster_dir) / MANIFEST_NAME
        tmp = path.with_suffix(".tmp")
        tmp.write_text(pretty_json(manifest))
        tmp.replace(path)


def replay_cluster(cluster_dir: str
                   ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Offline cluster recovery: replay every live WAL, aggregate.

    Reads ``cluster.json``, replays each *active* shard's WAL (retired
    WALs are skipped — their records were drained into survivors), and
    folds the per-shard coordinator snapshots exactly as the gateway's
    STATS fan-out does (:func:`merge_snapshots`, sorted shard-id order,
    summed gauges, strict buckets).  Returns ``(aggregated,
    per_shard)``; the aggregated dict byte-compares against the
    gateway's live STATS_REPLY ``coordinator`` section.
    """
    manifest_path = Path(cluster_dir) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {cluster_dir}")
    manifest = json.loads(manifest_path.read_text())
    per_shard: Dict[str, Dict[str, Any]] = {}
    for entry in manifest.get("shards", []):
        coordinator = replay_wal(entry["wal"])
        per_shard[entry["shard_id"]] = coordinator.metrics.snapshot()
    aggregated = merge_snapshots(
        (per_shard[s] for s in sorted(per_shard)),
        gauges="sum", warnings=None,
    )
    return aggregated, per_shard
