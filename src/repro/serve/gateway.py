"""The cluster gateway: map distribution, REDIRECT steering, STATS fan-out.

The gateway is the cluster's **control plane**, deliberately kept out of
the report data path: clients HELLO in, receive the current
:class:`~repro.serve.shardmap.ShardMap` in WELCOME, and from then on
talk to shards *directly* — the Redis-Cluster model, which is what lets
3 shards sustain ~3x one shard's throughput instead of funneling every
byte through one proxy process.  A client that sends POLL or
REPORT_BATCH to the gateway anyway (bootstrapping, or running with a
stale map) gets a typed REDIRECT naming the owning shard and carrying
the fresh map; a STATS request fans out to every live shard and returns
one aggregated coordinator registry (see :meth:`GatewayServer._on_stats`).

Gateway-side operational metrics live under ``cluster.*`` (sessions,
redirects, stats fan-outs, current shard count) — the cluster analog of
the shards' ``serve.*`` registries, and like them excluded from any
determinism contract.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.serve.driver import ServeSession
from repro.serve.shardmap import ShardMap
from repro.serve.wire import (
    CODEC_JSON,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    WireError,
    check_hello,
    encode_frame,
    position,
    read_frame,
    reply_ids,
    report_payloads,
)

__all__ = ["GatewayConfig", "GatewayServer"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the gateway process (control plane only)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Sessions silent for this long are closed.
    idle_timeout_s: float = 30.0
    #: Per-frame payload ceiling (both directions).
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: What a client is told to wait when the map is empty (every shard
    #: down — the only state the gateway cannot route around).
    retry_after_s: float = 0.5
    #: Per-shard timeout of the STATS fan-out.
    stats_timeout_s: float = 10.0


class GatewayServer:
    """Asyncio TCP front door of a shard cluster (no report data path).

    Sessions speak plain JSON (the gateway exchanges a handful of
    control frames per client, so codec negotiation buys nothing);
    binary-preferring clients are answered ``codec: "json"``, which the
    protocol allows — the server picks.
    """

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        shard_map: Optional[ShardMap] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or GatewayConfig()
        self.shard_map = shard_map
        #: cluster.* operational metrics (wall-clock flavored).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        if shard_map is not None:
            self.metrics.gauge("cluster.shards").set(len(shard_map))

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (0 until :meth:`start` has run)."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start serving control-plane sessions."""
        cfg = self.config
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )

    async def stop(self) -> None:
        """Stop accepting and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def set_shard_map(self, shard_map: ShardMap) -> None:
        """Adopt a new map (the supervisor calls this on every change)."""
        self.shard_map = shard_map
        self.metrics.counter("cluster.map_changes").inc()
        self.metrics.gauge("cluster.shards").set(len(shard_map))

    # -- frame I/O -------------------------------------------------------

    def _send(self, writer: asyncio.StreamWriter,
              message: Dict[str, Any]) -> None:
        """Encode and queue one JSON frame on a session's transport."""
        writer.write(encode_frame(message, self.config.max_frame_bytes))

    # -- session handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One gateway session: handshake, then steer until close."""
        cfg = self.config
        self.metrics.counter("cluster.connections_total").inc()
        try:
            hello = await asyncio.wait_for(
                read_frame(reader, cfg.max_frame_bytes), cfg.idle_timeout_s
            )
            if hello is None:
                return
            check_hello(hello)
            self.metrics.counter("cluster.sessions_total").inc()
            welcome: Dict[str, Any] = {
                "type": "WELCOME",
                "session_id": 0,
                "v": PROTOCOL_VERSION,
                "codec": CODEC_JSON,
                "shard_id": "gateway",
                "idle_timeout_s": cfg.idle_timeout_s,
                "max_frame_bytes": cfg.max_frame_bytes,
            }
            if self.shard_map is not None:
                welcome.update(self.shard_map.welcome_fields(hello))
            self._send(writer, welcome)
            await writer.drain()
            await self._session_loop(reader, writer)
        except WireError as exc:
            self.metrics.counter("cluster.protocol_errors").inc()
            try:
                self._send(writer, {"type": "ERROR", "code": exc.code,
                                    "detail": exc.detail})
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (asyncio.TimeoutError, ConnectionError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _session_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Dispatch control frames until BYE/EOF/idle timeout."""
        cfg = self.config
        while True:
            message = await asyncio.wait_for(
                read_frame(reader, cfg.max_frame_bytes), cfg.idle_timeout_s
            )
            if message is None:
                return
            kind = message["type"]
            if kind == "POLL":
                self._steer(writer, position(message, "POLL"),
                            {"seq": message.get("seq")})
            elif kind == "REPORT_BATCH":
                #: A whole batch goes to its first report's owner.
                payloads, seq_lo = report_payloads(message)
                self._steer(writer, position(payloads[0], "report"),
                            reply_ids(len(payloads), seq_lo))
            elif kind == "STATS":
                await self._on_stats(writer)
            elif kind == "PING":
                self._send(writer, {"type": "PONG",
                                    "seq": message.get("seq")})
            elif kind == "BYE":
                self._send(writer, {"type": "BYE"})
                await writer.drain()
                return
            else:
                raise ProtocolError(
                    f"{kind!r} frames are not valid client->gateway"
                )
            await writer.drain()

    # -- steering --------------------------------------------------------

    def _steer(self, writer: asyncio.StreamWriter, latlon,
               extra: Dict[str, Any]) -> None:
        """Answer a data-plane frame with REDIRECT (or RETRY if no map)."""
        smap = self.shard_map
        owner = (smap.owner_for_position(*latlon)
                 if smap is not None else None)
        if owner is None:
            #: Empty/absent map — every shard down (or not yet up).
            #: There is no owner to name, so the only honest answer is
            #: a RETRY: transient, try again once the map repopulates.
            self.metrics.counter("cluster.no_shard_retries").inc()
            reply = {"type": "RETRY",
                     "retry_after_s": self.config.retry_after_s}
            reply.update(extra)
            self._send(writer, reply)
            return
        self.metrics.counter("cluster.redirects").inc()
        reply = smap.redirect(owner)
        reply.update(extra)
        self._send(writer, reply)

    # -- STATS fan-out ---------------------------------------------------

    async def _on_stats(self, writer: asyncio.StreamWriter) -> None:
        """Fan STATS out to every shard; answer one aggregated reply."""
        smap = self.shard_map
        self.metrics.counter("cluster.stats_fanouts").inc()
        per_shard: Dict[str, Dict[str, Any]] = {}
        for info in (smap.shards if smap is not None else ()):
            try:
                reply = await asyncio.wait_for(
                    self._fetch_shard_stats(info),
                    self.config.stats_timeout_s,
                )
                per_shard[info.shard_id] = reply
            except (WireError, ConnectionError, OSError,
                    asyncio.TimeoutError):
                #: A shard mid-death: its zones are being rebalanced;
                #: report what is reachable rather than failing STATS.
                self.metrics.counter("cluster.stats_shard_failures").inc()
        #: Shards own disjoint zones, so gauges sum; bucket bounds are
        #: compiled in, so a mismatch raises.  ``replay_cluster`` folds
        #: the same way, which is what lets the two byte-match.
        aggregated = merge_snapshots(
            (per_shard[s].get("coordinator", {}) for s in sorted(per_shard)),
            gauges="sum", warnings=None,
        )
        self._send(writer, {
            "type": "STATS_REPLY",
            "coordinator": aggregated,
            "shards": {
                shard_id: {
                    "coordinator": reply.get("coordinator"),
                    "serve": reply.get("serve"),
                    "wal": reply.get("wal"),
                    "sessions_active": reply.get("sessions_active"),
                }
                for shard_id, reply in sorted(per_shard.items())
            },
            "cluster": self.metrics.snapshot(),
            "map_version": smap.version if smap is not None else None,
            "shards_reachable": len(per_shard),
        })

    @staticmethod
    async def _fetch_shard_stats(info) -> Dict[str, Any]:
        """One shard's STATS_REPLY over a throwaway session."""
        async with ServeSession(info.host, info.port,
                                client_id="gateway-stats",
                                networks=[]) as session:
            return await session.stats()
