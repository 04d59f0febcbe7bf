"""Load generation against a running coordinator service.

Spawns many lightweight simulated client sessions (no landscape, no
radio model — just deterministic synthetic reports that pass the
coordinator's plausibility validator) and measures what the service
sustains: reports/sec, client-observed ACK latency percentiles, retry
(backpressure) counts, and — the acceptance bar — that **zero** reports
end up dropped: every report is either ACKed or retried-until-ACKed,
with reconnect-and-resend riding over server restarts.

Determinism: the synthetic report stream is a pure function of
``(client index, sequence number)``, so two loadgen runs with the same
shape produce byte-identical report payloads — which is what lets the
kill/restart smoke test compare a recovered coordinator against an
uninterrupted one.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.driver import ServeSession
from repro.serve.shardmap import ShardMap
from repro.serve.wire import WireError

__all__ = [
    "LoadgenConfig",
    "LoadgenResult",
    "synthetic_report",
    "run_loadgen",
    "run_loadgen_sync",
]

#: Networks the synthetic clients claim to measure (NetworkId values).
_NETWORKS = ("NetA", "NetB", "NetC")

#: Measurement kinds the synthetic stream alternates between.
_KINDS = ("udp", "ping")


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Total client sessions to run (each connects, reports, closes).
    clients: int = 100
    #: Reports each session pushes before closing.
    reports_per_client: int = 10
    #: Concurrently open sessions (bounds fd usage on both ends).
    concurrency: int = 64
    #: Reconnect budget per report when the server goes away mid-run
    #: (the kill/restart smoke leans on this).
    max_reconnects: int = 30
    #: Delay between reconnect attempts.
    reconnect_delay_s: float = 0.2
    #: Session codec to negotiate ("json" or "binary").  "json" offers
    #: nothing in HELLO — the PR-5 handshake, byte-for-byte.
    codec: str = "json"
    #: Reports coalesced per REPORT_BATCH frame; 1 keeps the PR-5
    #: one-REPORT-one-ACK wire exchange.
    batch_size: int = 1
    #: Cluster mode: ``host``/``port`` point at the *gateway*; clients
    #: fetch the shard map from its WELCOME, open sessions to the
    #: owning shards directly, and follow REDIRECTs when the map moves
    #: mid-run (the kill-a-shard smoke leans on this).
    cluster: bool = False
    #: Added to every client index (ids, report streams) so parallel
    #: loadgen worker processes drive disjoint deterministic clients.
    client_offset: int = 0


@dataclass
class LoadgenResult:
    """Aggregate outcome of a load-generation run."""

    clients: int = 0
    sessions_completed: int = 0
    sessions_failed: int = 0
    reports_sent: int = 0
    reports_acked: int = 0
    reports_rejected: int = 0
    retries: int = 0
    reconnects: int = 0
    #: Reports neither ACKed nor still retrying when the run ended —
    #: the acceptance criterion is that this stays 0.
    reports_dropped: int = 0
    elapsed_s: float = 0.0
    reports_per_s: float = 0.0
    ack_p50_ms: float = 0.0
    ack_p95_ms: float = 0.0
    ack_p99_ms: float = 0.0
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (errors capped for readability)."""
        out = dict(self.__dict__)
        out["errors"] = self.errors[:10]
        return out


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def synthetic_report(client_index: int, seq: int) -> Dict[str, Any]:
    """Deterministic wire-format report for (client, seq).

    Values are arithmetic functions of the indices, chosen to sit well
    inside the :class:`~repro.core.validation.ValidationLimits`
    envelope (throughput in ~1-9 Mbit/s, RTTs in ~20-120 ms, speeds
    under 25 m/s) and to spread positions across many 250 m zones of
    the study area.
    """
    mix = client_index * 2654435761 + seq * 40503  # cheap integer hash
    kind = _KINDS[seq % len(_KINDS)]
    network = _NETWORKS[client_index % len(_NETWORKS)]
    start_s = float(seq) * 60.0
    if kind == "udp":
        value = 1e6 + float(mix % 8000) * 1e3
        samples = [value * 0.9, value, value * 1.1]
    else:
        value = 0.020 + float(mix % 100) * 0.001
        samples = [value * 0.8, value, value * 1.2]
    #: ~43.07N 89.40W is the study-area anchor; one degree of latitude
    #: is ~111 km, so +-0.03 deg spreads clients over a ~7 km disc of
    #: distinct zones without leaving the monitored region.
    lat = 43.0731 + float(mix % 61 - 30) * 0.001
    lon = -89.4012 + float((mix // 61) % 61 - 30) * 0.001
    return {
        "task_id": seq + 1,
        "client_id": f"load-{client_index:05d}",
        "network": network,
        "kind": kind,
        "start_s": start_s,
        "end_s": start_s + 1.0,
        "lat": lat,
        "lon": lon,
        "speed_ms": float(mix % 25),
        "value": value,
        "samples": samples,
        "extras": {},
    }


async def _run_one_client(
    cfg: LoadgenConfig,
    index: int,
    result: LoadgenResult,
    latencies: List[float],
) -> None:
    """One session: connect (with retries), push every report, close."""
    loop_time = asyncio.get_running_loop().time
    gindex = cfg.client_offset + index
    session: Optional[ServeSession] = None
    reconnects = 0

    async def connect() -> ServeSession:
        nonlocal reconnects
        attempt = 0
        while True:
            s = ServeSession(
                cfg.host, cfg.port,
                client_id=f"load-{gindex:05d}",
                networks=[_NETWORKS[gindex % len(_NETWORKS)]],
                codecs=[cfg.codec] if cfg.codec != "json" else None,
            )
            try:
                await s.open()
                return s
            except (WireError, ConnectionError, OSError):
                await s.close()
                attempt += 1
                if attempt > cfg.max_reconnects:
                    raise
                reconnects += 1
                await asyncio.sleep(cfg.reconnect_delay_s)

    settled = 0  # reports this client ACKed or explicitly gave up on
    batch = max(1, cfg.batch_size)
    try:
        session = await connect()
        for lo in range(0, cfg.reports_per_client, batch):
            seqs = range(lo, min(lo + batch, cfg.reports_per_client))
            payloads = [synthetic_report(gindex, seq) for seq in seqs]
            result.reports_sent += len(payloads)
            acked = False
            for _ in range(cfg.max_reconnects + 1):
                try:
                    sent_at = loop_time()
                    if batch > 1:
                        ack = await session.send_report_batch(payloads)
                        n_acc = int(ack.get("accepted", 0))
                        n_rej = int(ack.get("rejected", 0))
                    else:
                        ack = await session.send_report(payloads[0])
                        n_acc = 1 if ack.get("accepted") else 0
                        n_rej = 1 - n_acc
                    latency = loop_time() - sent_at
                    latencies.extend([latency] * len(payloads))
                    result.retries += int(ack.get("_retries", 0))
                    result.reports_acked += n_acc
                    result.reports_rejected += n_rej
                    acked = True
                    break
                except (WireError, ConnectionError, OSError):
                    #: Server went away mid-report (e.g. the smoke
                    #: test's kill).  The report(s) may or may not have
                    #: made the WAL; resending is safe for throughput
                    #: accounting and the recovery comparison replays
                    #: whatever the WAL durably holds.
                    await session.close()
                    session = await connect()
            if not acked:
                result.reports_dropped += len(payloads)
            settled += len(payloads)
        result.sessions_completed += 1
    except (WireError, ConnectionError, OSError) as exc:
        result.sessions_failed += 1
        result.errors.append(f"client {gindex}: {exc}")
        #: Everything this client never got an answer for counts as
        #: dropped — the zero-drop acceptance criterion must see it.
        result.reports_dropped += cfg.reports_per_client - settled
    finally:
        result.reconnects += reconnects
        if session is not None:
            await session.close()


async def _fetch_cluster_map(cfg: LoadgenConfig) -> ShardMap:
    """The gateway's current shard map, via a throwaway HELLO."""
    session = ServeSession(cfg.host, cfg.port, client_id="loadgen-map",
                           networks=[])
    try:
        welcome = await session.open()
        data = welcome.get("shard_map")
        if not data:
            raise WireError("gateway WELCOME carried no shard_map")
        return ShardMap.from_wire(data)
    finally:
        await session.close()


async def _run_one_cluster_client(
    cfg: LoadgenConfig,
    index: int,
    result: LoadgenResult,
    latencies: List[float],
    holder: Dict[str, Any],
) -> None:
    """One cluster session set: route each batch to its owning shard.

    ``holder`` shares the latest :class:`ShardMap` across all clients
    of this run (one gateway fetch amortizes over everyone).  The
    routing loop is: partition the window's payloads by owner, send
    each group down a per-shard session, and on REDIRECT (stale map) or
    connection loss (dead shard) adopt/refetch the map and re-route the
    unsettled remainder — up to the reconnect budget, after which the
    leftovers count as dropped.
    """
    loop_time = asyncio.get_running_loop().time
    gindex = cfg.client_offset + index
    sessions: Dict[str, ServeSession] = {}
    reconnects = 0

    async def current_map(refetch: bool = False) -> ShardMap:
        nonlocal reconnects
        if refetch or holder.get("map") is None:
            attempt = 0
            while True:
                try:
                    holder["map"] = await _fetch_cluster_map(cfg)
                    break
                except (WireError, ConnectionError, OSError):
                    attempt += 1
                    if attempt > cfg.max_reconnects:
                        raise
                    reconnects += 1
                    await asyncio.sleep(cfg.reconnect_delay_s)
        return holder["map"]

    async def shard_session(info) -> ServeSession:
        s = sessions.get(info.shard_id)
        if s is not None:
            return s
        s = ServeSession(
            info.host, info.port,
            client_id=f"load-{gindex:05d}",
            networks=[_NETWORKS[gindex % len(_NETWORKS)]],
            codecs=[cfg.codec] if cfg.codec != "json" else None,
        )
        await s.open()
        sessions[info.shard_id] = s
        return s

    async def drop_session(shard_id: str) -> None:
        s = sessions.pop(shard_id, None)
        if s is not None:
            await s.close()

    def adopt(map_wire: Any) -> None:
        """Adopt a REDIRECT-carried map (ignore a malformed one)."""
        try:
            holder["map"] = ShardMap.from_wire(map_wire)
        except WireError:
            holder["map"] = None

    settled = 0
    batch = max(1, cfg.batch_size)
    try:
        for lo in range(0, cfg.reports_per_client, batch):
            seqs = range(lo, min(lo + batch, cfg.reports_per_client))
            payloads = [synthetic_report(gindex, seq) for seq in seqs]
            result.reports_sent += len(payloads)
            pending = payloads
            attempts = 0
            while pending and attempts <= cfg.max_reconnects:
                smap = await current_map(refetch=attempts > 0)
                groups: Dict[str, List[Dict[str, Any]]] = {}
                unowned: List[Dict[str, Any]] = []
                for p in pending:
                    owner = smap.owner_for_position(p["lat"], p["lon"])
                    if owner is None:
                        unowned.append(p)
                    else:
                        groups.setdefault(owner.shard_id, []).append(p)
                next_pending = list(unowned)
                for shard_id in sorted(groups):
                    group = groups[shard_id]
                    info = smap.shard(shard_id)
                    try:
                        s = await shard_session(info)
                        sent_at = loop_time()
                        summary = await s.send_report_batch(group)
                        latency = loop_time() - sent_at
                        latencies.extend([latency] * len(group))
                        result.retries += int(summary.get("_retries", 0))
                        result.reports_acked += int(
                            summary.get("accepted", 0)
                        )
                        result.reports_rejected += int(
                            summary.get("rejected", 0)
                        )
                        bounced = summary.get("redirected")
                        if bounced:
                            adopt(summary["redirect"].get("shard_map"))
                            next_pending.extend(bounced)
                    except (WireError, ConnectionError, OSError):
                        #: Shard gone (or session wedged): re-route the
                        #: whole group after a map refresh.  Resends may
                        #: duplicate reports the dead shard already
                        #: WAL-logged — the drain re-delivers those, and
                        #: live and replayed state stay consistent.
                        await drop_session(shard_id)
                        next_pending.extend(group)
                        holder["map"] = None
                        reconnects += 1
                        await asyncio.sleep(cfg.reconnect_delay_s)
                if next_pending:
                    attempts += 1
                pending = next_pending
            if pending:
                result.reports_dropped += len(pending)
            settled += len(payloads)
        result.sessions_completed += 1
    except (WireError, ConnectionError, OSError) as exc:
        result.sessions_failed += 1
        result.errors.append(f"client {gindex}: {exc}")
        result.reports_dropped += cfg.reports_per_client - settled
    finally:
        result.reconnects += reconnects
        for shard_id in list(sessions):
            await drop_session(shard_id)


async def run_loadgen(cfg: LoadgenConfig) -> LoadgenResult:
    """Run the full load shape; returns the aggregate result."""
    result = LoadgenResult(clients=cfg.clients)
    latencies: List[float] = []
    semaphore = asyncio.Semaphore(max(1, cfg.concurrency))
    loop_time = asyncio.get_running_loop().time

    holder: Dict[str, Any] = {"map": None}

    async def guarded(index: int) -> None:
        async with semaphore:
            if cfg.cluster:
                await _run_one_cluster_client(cfg, index, result,
                                              latencies, holder)
            else:
                await _run_one_client(cfg, index, result, latencies)

    started = loop_time()
    await asyncio.gather(*(guarded(i) for i in range(cfg.clients)))
    result.elapsed_s = max(loop_time() - started, 1e-9)
    result.reports_per_s = result.reports_acked / result.elapsed_s
    latencies.sort()
    result.ack_p50_ms = _percentile(latencies, 0.50) * 1e3
    result.ack_p95_ms = _percentile(latencies, 0.95) * 1e3
    result.ack_p99_ms = _percentile(latencies, 0.99) * 1e3
    return result


def run_loadgen_sync(cfg: LoadgenConfig) -> LoadgenResult:
    """Blocking wrapper for the CLI and benchmarks."""
    return asyncio.run(run_loadgen(cfg))
