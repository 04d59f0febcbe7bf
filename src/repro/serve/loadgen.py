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
from repro.serve.shardmap import ShardInfo, ShardMap
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
    #: Retry rounds per window of reports: redirected, unowned and
    #: connection-lost reports are resent this many more times before
    #: the client gives up (the kill/restart smokes lean on this).
    max_reconnects: int = 30
    #: Delay before every retry round.
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
    #: mid-run (the kill-a-shard smoke leans on this).  Without it the
    #: same routed loop sends everything to ``host``/``port``.
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


class _Router:
    """Where a run's reports go, shared by every client of the run.

    Single-node mode routes everything to the one configured endpoint.
    Cluster mode routes by the gateway's :class:`ShardMap`: one fetch
    serves every client until a REDIRECT replaces the map or a lost
    connection (or an unowned report) sends the next round back to the
    gateway for a fresh one.
    """

    def __init__(self, cfg: LoadgenConfig):
        self.cfg = cfg
        self.endpoint = (None if cfg.cluster
                         else ShardInfo("", cfg.host, cfg.port))
        self.map: Optional[ShardMap] = None

    async def partition(self, payloads: List[Dict[str, Any]]):
        """``(groups by endpoint, unroutable)`` for this round."""
        if self.endpoint is not None:
            return {self.endpoint: payloads}, []
        if self.map is None:
            self.map = await _fetch_cluster_map(self.cfg)
        groups, unowned = self.map.partition(payloads)
        if unowned:
            self.map = None
        return groups, unowned

    def adopt(self, redirect: Dict[str, Any]) -> None:
        """Take the map a REDIRECT carried (refetch if it is malformed)."""
        try:
            self.map = ShardMap.from_wire(redirect.get("shard_map"))
        except WireError:
            self.map = None


async def _send(session: ServeSession, group: List[Dict[str, Any]],
                one_report_frames: bool) -> Dict[str, Any]:
    """Send one group; the ``send_report_batch`` summary shape."""
    if not one_report_frames:
        return await session.send_report_batch(group)
    ack = await session.send_report(group[0])
    accepted = 1 if ack.get("accepted") else 0
    return {"accepted": accepted, "rejected": 1 - accepted,
            "_retries": ack.get("_retries", 0)}


async def _run_one_client(
    cfg: LoadgenConfig,
    index: int,
    result: LoadgenResult,
    latencies: List[float],
    router: _Router,
) -> None:
    """One client: push every report window by window, routed per round.

    Each round partitions the window's unsettled reports by endpoint
    and sends each group down that endpoint's session.  Only settled
    (ACKed or validator-rejected) reports are counted, with one latency
    sample each.  Redirected, unowned and connection-lost reports wait
    ``reconnect_delay_s`` and go again, for at most ``max_reconnects``
    more rounds; a window still unsettled then ends the client, and all
    of its unsettled reports count as dropped.
    """
    loop_time = asyncio.get_running_loop().time
    gindex = cfg.client_offset + index
    batch = max(1, cfg.batch_size)
    #: Single-node batch size 1 keeps the one-REPORT-one-ACK exchange.
    one_report_frames = router.endpoint is not None and batch == 1
    session_args = dict(client_id=f"load-{gindex:05d}",
                        networks=[_NETWORKS[gindex % len(_NETWORKS)]],
                        codecs=[cfg.codec] if cfg.codec != "json" else None)
    sessions: Dict[ShardInfo, ServeSession] = {}
    settled = 0
    error: Optional[Exception] = None
    try:
        for lo in range(0, cfg.reports_per_client, batch):
            pending = [synthetic_report(gindex, seq) for seq in
                       range(lo, min(lo + batch, cfg.reports_per_client))]
            result.reports_sent += len(pending)
            for round_ in range(cfg.max_reconnects + 1):
                if round_:
                    await asyncio.sleep(cfg.reconnect_delay_s)
                try:
                    groups, pending = await router.partition(pending)
                except (WireError, ConnectionError, OSError) as exc:
                    error = exc
                    result.reconnects += 1
                    continue
                for endpoint, group in groups.items():
                    try:
                        session = sessions.get(endpoint)
                        if session is None:
                            session = sessions[endpoint] = ServeSession(
                                endpoint.host, endpoint.port, **session_args
                            )
                            await session.open()
                        sent_at = loop_time()
                        summary = await _send(session, group,
                                              one_report_frames)
                    except (WireError, ConnectionError, OSError) as exc:
                        #: Endpoint gone (a killed server or shard): the
                        #: group may or may not be in its WAL.  Resending
                        #: is safe; the WAL replay, or the cluster's
                        #: drain, sees whatever was durably staged.
                        error = exc
                        result.reconnects += 1
                        await sessions.pop(endpoint).close()
                        router.map = None
                        pending.extend(group)
                        continue
                    done = summary["accepted"] + summary["rejected"]
                    latencies.extend([loop_time() - sent_at] * done)
                    settled += done
                    result.reports_acked += summary["accepted"]
                    result.reports_rejected += summary["rejected"]
                    result.retries += int(summary["_retries"])
                    if summary.get("redirected"):
                        router.adopt(summary["redirect"])
                        pending.extend(summary["redirected"])
                if not pending:
                    break
            if pending:
                break
    finally:
        for session in sessions.values():
            await session.close()
    dropped = cfg.reports_per_client - settled
    if dropped:
        result.sessions_failed += 1
        result.reports_dropped += dropped
        result.errors.append(
            f"client {gindex}: {dropped} report(s) unsettled after "
            f"{cfg.max_reconnects} retry rounds (last error: {error})"
        )
    else:
        result.sessions_completed += 1


async def run_loadgen(cfg: LoadgenConfig) -> LoadgenResult:
    """Run the full load shape; returns the aggregate result."""
    result = LoadgenResult(clients=cfg.clients)
    latencies: List[float] = []
    semaphore = asyncio.Semaphore(max(1, cfg.concurrency))
    loop_time = asyncio.get_running_loop().time
    router = _Router(cfg)

    async def guarded(index: int) -> None:
        async with semaphore:
            await _run_one_client(cfg, index, result, latencies, router)

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
