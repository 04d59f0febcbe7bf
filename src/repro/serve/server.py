"""The asyncio coordinator service.

:class:`CoordinatorServer` exposes a
:class:`~repro.core.controller.MeasurementCoordinator` over the wire
protocol in :mod:`repro.serve.wire`: opportunistic clients HELLO in,
poll for measurement tasks, and push completed reports; the server
stages every admitted report in the write-ahead log
(:mod:`repro.serve.wal`) before folding it into the coordinator, then
ACKs with the WAL sequence number.

Session state machine (per connection)::

    connect --HELLO--> open --BYE/EOF/error/idle-timeout--> closed
                        |^
              POLL/PING/REPORT/STATS (any order, any number)

* **Admission control** — at most ``max_sessions`` concurrent sessions;
  the overflow connection gets ``ERROR(code="server-full")`` (carrying
  ``retry_after_s``) and is closed before a session exists.
* **Backpressure** — reports land in a bounded ingest queue consumed by
  a single writer task (WAL order == ingest order == ACK order).  When
  the queue is full the report is *not* queued and the client receives
  ``RETRY`` with ``retry_after_s``; a well-behaved client resends.  The
  bound counts *reports*, not frames, so a REPORT_BATCH is admitted up
  to the remaining budget: the admitted prefix is staged and later
  range-ACKed (``ACK_BATCH seq_lo..seq_hi``), the rejected tail gets
  one ``RETRY`` naming its ``seq_lo..seq_hi`` — partial rejection, not
  all-or-nothing.
* **Group commit** — the writer task drains the ingest queue greedily
  (up to ``commit_batch_max`` reports per round) and stages the whole
  drain with one buffered write + one flush
  (:meth:`~repro.serve.wal.WriteAheadLog.append_many`), fsyncing under
  the WAL's count-or-time policy.  ACKs are sent only after the drain's
  flush, so "ACKed" still means process-crash durable.
* **Codec negotiation** — HELLO may carry ``codecs`` (client
  preference order); the server picks the first one it speaks and
  names it in WELCOME.  HELLO/WELCOME are always canonical JSON; every
  later frame in the session uses the negotiated codec.  A client that
  offers nothing gets ``json`` — the PR-5 wire format, byte-for-byte.
* **Heartbeats / idle timeout** — any frame resets the idle clock;
  ``PING`` exists so an idle-but-alive client can stay connected.  A
  session silent for ``idle_timeout_s`` gets ``ERROR(code="idle-
  timeout")`` and is closed.
* **Typed errors, never tracebacks** — every protocol violation
  (truncated frame, oversized frame, unknown type, version mismatch,
  malformed payload) maps to one ERROR frame naming the
  :class:`~repro.serve.wire.WireError` code, then the session closes.
* **Shard mode** — when the server is given a ``shard_id`` and a
  :class:`~repro.serve.shardmap.ShardMap` (pushed by the cluster
  supervisor via MAP_UPDATE), it answers POLL/REPORT/REPORT_BATCH for
  zones it does not own with a typed REDIRECT naming the owning shard
  (and carrying the current map, so a stale client learns the new
  assignment in the same frame).  A redirected frame is **never**
  admitted — ownership is checked before the WAL sees anything, so
  each shard's WAL stays a pure function of the reports it owns.
  Without a shard id the server is the PR-6 single node, byte-for-byte
  (see DESIGN.md §11).

Separation of registries: the coordinator keeps its own metrics
registry (a deterministic function of the ingested report stream — the
WAL-recovery byte-identity guarantee), while ``serve.*`` operational
metrics (sessions, frames, queue depth, ACK latency) live in the
server's registry, which is wall-clock flavored and excluded from any
determinism contract.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import WiScapeConfig
from repro.core.controller import MeasurementCoordinator
from repro.clients.protocol import MeasurementTask, MeasurementType
from repro.geo.coords import GeoPoint
from repro.geo.zones import ZoneGrid
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.serve import wire
from repro.serve.shardmap import ShardMap
from repro.serve.wal import WriteAheadLog
from repro.serve.wire import (
    CODEC_JSON,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    WireError,
    check_hello,
    encode_frame,
    position,
    read_frame,
    reply_ids,
    report_from_wire,
    report_payloads,
    task_to_wire,
)

__all__ = ["ServeConfig", "CoordinatorServer", "build_coordinator",
           "replay_wal"]

#: Buckets for the server-side ACK latency histogram (seconds).
_ACK_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the coordinator service (not of the coordinator)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: World/grid identity used to build the coordinator (mirrors
    #: ``repro monitor``); persisted to ``wal_meta.json`` so replay can
    #: rebuild the identical coordinator.
    seed: int = 7
    gen_seed: int = 1
    radius_m: float = 250.0
    #: Admission control: concurrent session ceiling.
    max_sessions: int = 4096
    #: Bounded ingest queue depth (reports staged for the WAL writer).
    ingest_queue_max: int = 1024
    #: Seconds a saturated/overloaded client should wait before retrying.
    retry_after_s: float = 0.05
    #: Sessions silent for this long are closed (heartbeats reset it).
    idle_timeout_s: float = 30.0
    #: Heartbeat cadence advertised to clients in WELCOME.
    heartbeat_s: float = 10.0
    #: Per-frame payload ceiling (both directions).
    max_frame_bytes: int = wire.MAX_FRAME_BYTES
    #: WAL batching/rotation knobs (see repro.serve.wal).
    wal_fsync_every: int = 64
    wal_segment_max_bytes: int = 8 * 1024 * 1024
    #: WAL group-commit time window (seconds; 0 = count-only policy).
    wal_fsync_interval_s: float = 0.0
    #: Reports the ingest writer drains per WAL group commit (one
    #: buffered write + one flush covers up to this many reports).
    commit_batch_max: int = 256
    #: Frame codecs this server will negotiate (client preference
    #: order wins among these).  Trimming it to ("json",) refuses
    #: binary sessions without touching clients.
    codecs: Tuple[str, ...] = SUPPORTED_CODECS
    #: This server's shard identity within a cluster.  Empty (the
    #: default) means single-node mode: no ownership checks, no
    #: REDIRECTs — the PR-6 behavior byte-for-byte.
    shard_id: str = ""


def build_coordinator(
    seed: int = 7,
    gen_seed: int = 1,
    radius_m: float = 250.0,
    config: Optional[WiScapeConfig] = None,
) -> MeasurementCoordinator:
    """A fresh coordinator over the standard monitor-city zone grid.

    Deterministic in its arguments — the server at startup and the WAL
    replay path must call this identically to reach identical state.
    ``seed`` is kept in the signature (and the WAL metadata) because the
    grid anchor may become seed-dependent; today only the grid radius
    and the coordinator's generator seed matter.  The coordinator keeps
    metrics but no event log: nothing reads a served coordinator's
    events, and a retained ``report.reject`` per rejected report would
    grow the server's heap with every bad report.
    """
    from repro.geo.regions import madison_study_area

    del seed  # reserved: the study-area anchor is fixed today
    grid = ZoneGrid(madison_study_area().anchor, radius_m=radius_m)
    return MeasurementCoordinator(
        grid, config=config, seed=gen_seed,
        telemetry=Telemetry(events=NULL_EVENT_LOG),
    )


def replay_wal(
    wal_dir: str,
    coordinator: Optional[MeasurementCoordinator] = None,
) -> MeasurementCoordinator:
    """Rebuild coordinator state by re-ingesting a WAL's report stream.

    When ``coordinator`` is None, one is built from the WAL's
    ``wal_meta.json`` (written by the server at startup).  Every logged
    report is re-validated and re-ingested in log order, so the
    resulting metrics registry is byte-identical to the coordinator the
    crashed server had after its last flushed append.
    """
    from repro.serve.wal import iter_wal_records

    if coordinator is None:
        meta = WriteAheadLog.read_meta(wal_dir) or {}
        coordinator = build_coordinator(
            seed=int(meta.get("seed", 7)),
            gen_seed=int(meta.get("gen_seed", 1)),
            radius_m=float(meta.get("radius_m", 250.0)),
        )
    for record in iter_wal_records(wal_dir):
        coordinator.ingest(report_from_wire(record))
    return coordinator


@dataclass
class _Session:
    """Per-connection state the server tracks."""

    session_id: int
    client_id: str
    writer: asyncio.StreamWriter
    networks: List[str] = field(default_factory=list)
    reports: int = 0
    #: Round-robin cursor of the per-session task planner.
    task_cursor: int = 0
    #: Frame codec negotiated in HELLO/WELCOME (every post-handshake
    #: frame, both directions, uses it).
    codec: str = CODEC_JSON


class CoordinatorServer:
    """Asyncio TCP front-end of a ``MeasurementCoordinator``."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        coordinator: Optional[MeasurementCoordinator] = None,
        wal_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.wal_dir = wal_dir
        self.wal: Optional[WriteAheadLog] = None
        self.coordinator = coordinator
        #: serve.* operational metrics (separate from the coordinator's
        #: deterministic registry by design — see module docstring).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._ingest_queue: Optional[asyncio.Queue] = None
        self._ingest_pending = 0
        self._ingest_task: Optional[asyncio.Task] = None
        self._sessions: Dict[int, _Session] = {}
        self._session_ids = itertools.count(1)
        self._task_ids = itertools.count(1)
        self._closing = False
        #: Current cluster shard map (None outside a cluster).  Set at
        #: construction time by the supervisor or over the wire via
        #: MAP_UPDATE; consulted by the ownership checks only when
        #: ``config.shard_id`` is non-empty.
        self.shard_map: Optional[ShardMap] = None

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (0 until :meth:`start` has run)."""
        if self._server is None or not self._server.sockets:
            return 0
        return self._server.sockets[0].getsockname()[1]

    @property
    def sessions_active(self) -> int:
        """Currently open sessions."""
        return len(self._sessions)

    async def start(self) -> None:
        """Recover from the WAL (if any), bind, and start serving."""
        cfg = self.config
        if self.coordinator is None:
            self.coordinator = build_coordinator(
                seed=cfg.seed, gen_seed=cfg.gen_seed, radius_m=cfg.radius_m
            )
        if self.wal_dir is not None:
            #: Recovery before accepting traffic: replay whatever the
            #: previous incarnation durably staged, then open the log
            #: for appends (repairing any crash-torn tail).
            replay_wal(self.wal_dir, self.coordinator)
            self.wal = WriteAheadLog(
                self.wal_dir,
                segment_max_bytes=cfg.wal_segment_max_bytes,
                fsync_every=cfg.wal_fsync_every,
                fsync_interval_s=cfg.wal_fsync_interval_s,
            )
            self.wal.write_meta({
                "seed": cfg.seed,
                "gen_seed": cfg.gen_seed,
                "radius_m": cfg.radius_m,
                "protocol_version": PROTOCOL_VERSION,
                "commit_policy": self.wal.commit_policy,
            })
            self.metrics.gauge("serve.wal_recovered_records").set(
                self.wal.records_logged
            )
        #: The queue itself is unbounded; the *report-level* budget
        #: (``_ingest_pending`` vs ``ingest_queue_max``) is what
        #: admission checks, so a frame carrying 50 reports weighs 50
        #: against backpressure, not 1.
        self._ingest_queue = asyncio.Queue()
        self._ingest_pending = 0
        self._ingest_task = asyncio.ensure_future(self._ingest_worker())
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )

    async def serve_forever(self) -> None:
        """Block until the server is cancelled/stopped."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drain the ingest queue, close the WAL."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._ingest_queue is not None:
            await self._ingest_queue.join()
        if self._ingest_task is not None:
            self._ingest_task.cancel()
            try:
                await self._ingest_task
            except asyncio.CancelledError:
                pass
        for session in list(self._sessions.values()):
            try:
                session.writer.close()
            except Exception:
                pass
        self._sessions.clear()
        if self.wal is not None:
            self.wal.close()

    # -- frame I/O -------------------------------------------------------

    def _send(self, writer: asyncio.StreamWriter, message: Dict[str, Any],
              codec: str = CODEC_JSON) -> None:
        """Encode and queue one frame on a session's transport."""
        writer.write(encode_frame(message, self.config.max_frame_bytes,
                                  codec))
        self.metrics.counter("serve.frames_tx").inc()

    async def _send_error_and_close(
        self, writer: asyncio.StreamWriter, code: str, detail: str,
        codec: str = CODEC_JSON,
    ) -> None:
        self.metrics.counter("serve.protocol_errors").inc()
        self.metrics.counter(f"serve.error.{code}").inc()
        try:
            self._send(writer, {"type": "ERROR", "code": code,
                                "detail": detail}, codec)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        writer.close()

    # -- session handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.config
        self.metrics.counter("serve.connections_total").inc()
        if len(self._sessions) >= cfg.max_sessions or self._closing:
            self.metrics.counter("serve.admission_rejections").inc()
            await self._send_error_and_close(
                writer, "server-full",
                f"session limit {cfg.max_sessions} reached; retry after "
                f"{cfg.retry_after_s}s",
            )
            return
        session: Optional[_Session] = None
        try:
            session = await self._open_session(reader, writer)
            if session is None:
                return
            await self._session_loop(reader, session)
        except WireError as exc:
            await self._send_error_and_close(
                writer, exc.code, exc.detail,
                session.codec if session else CODEC_JSON,
            )
        except asyncio.TimeoutError:
            self.metrics.counter("serve.idle_timeouts").inc()
            await self._send_error_and_close(
                writer, "idle-timeout",
                f"no frame for {cfg.idle_timeout_s}s",
                session.codec if session else CODEC_JSON,
            )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if session is not None:
                self._sessions.pop(session.session_id, None)
                self.metrics.gauge("serve.sessions_active").set(
                    len(self._sessions)
                )
            try:
                writer.close()
            except Exception:
                pass

    async def _open_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Session]:
        """Run the HELLO/WELCOME handshake; None if the peer vanished."""
        cfg = self.config
        hello = await asyncio.wait_for(
            read_frame(reader, cfg.max_frame_bytes), cfg.idle_timeout_s
        )
        if hello is None:
            return None
        client_id = check_hello(hello)
        #: Codec negotiation: first client-offered codec the server
        #: speaks wins; a HELLO without "codecs" (every PR-5 client)
        #: stays on canonical JSON.
        offered = hello.get("codecs")
        codec = CODEC_JSON
        if isinstance(offered, list):
            for candidate in offered:
                if candidate in cfg.codecs and candidate in SUPPORTED_CODECS:
                    codec = candidate
                    break
        session = _Session(
            session_id=next(self._session_ids),
            client_id=client_id,
            writer=writer,
            networks=[str(n) for n in hello.get("networks") or []],
        )
        self._sessions[session.session_id] = session
        self.metrics.counter("serve.sessions_total").inc()
        self.metrics.counter(f"serve.sessions_codec.{codec}").inc()
        self.metrics.gauge("serve.sessions_active").set(len(self._sessions))
        #: WELCOME itself is always JSON; the switch happens after it.
        welcome: Dict[str, Any] = {
            "type": "WELCOME",
            "session_id": session.session_id,
            "v": PROTOCOL_VERSION,
            "codec": codec,
            "heartbeat_s": cfg.heartbeat_s,
            "idle_timeout_s": cfg.idle_timeout_s,
            "max_frame_bytes": cfg.max_frame_bytes,
        }
        if cfg.shard_id:
            welcome["shard_id"] = cfg.shard_id
        if self.shard_map is not None:
            welcome.update(self.shard_map.welcome_fields(hello))
        self._send(writer, welcome)
        await writer.drain()
        session.codec = codec
        return session

    async def _session_loop(
        self, reader: asyncio.StreamReader, session: _Session
    ) -> None:
        cfg = self.config
        while True:
            message = await asyncio.wait_for(
                read_frame(reader, cfg.max_frame_bytes, session.codec),
                cfg.idle_timeout_s,
            )
            if message is None:
                return  # peer closed between frames
            self.metrics.counter("serve.frames_rx").inc()
            kind = message["type"]
            if kind == "REPORT" or kind == "REPORT_BATCH":
                self._admit(session, *report_payloads(message))
            elif kind == "POLL":
                self._on_poll(session, message)
            elif kind == "PING":
                self._send(session.writer,
                           {"type": "PONG", "seq": message.get("seq")},
                           session.codec)
            elif kind == "STATS":
                self._on_stats(session)
            elif kind == "MAP_UPDATE":
                self._on_map_update(session, message)
            elif kind == "BYE":
                self._send(session.writer, {"type": "BYE"}, session.codec)
                await session.writer.drain()
                return
            elif kind in wire.FRAME_TYPES:
                raise ProtocolError(
                    f"{kind} frames are not valid client->server"
                )
            else:
                raise ProtocolError(f"unknown frame type {kind!r}")
            await session.writer.drain()

    # -- frame handlers --------------------------------------------------

    def _redirect_for_zone(self, zone) -> Optional[Dict[str, Any]]:
        """REDIRECT skeleton when this shard does not own ``zone``.

        Returns None in single-node mode, with no map, or when this
        shard owns the zone.  The frame carries the owning shard's
        endpoint, the map version, and the full current map — so one
        frame both bounces the request and refreshes a stale client.
        """
        if not self.config.shard_id or self.shard_map is None:
            return None
        owner = self.shard_map.owner_of(zone)
        if owner is None or owner.shard_id == self.config.shard_id:
            return None
        return self.shard_map.redirect(owner)

    def _on_map_update(
        self, session: _Session, message: Dict[str, Any]
    ) -> None:
        """Adopt a supervisor-pushed shard map; answer MAP_ACK.

        The push is idempotent (same version twice is a no-op) and
        trusted — any session on the cluster's network may send one,
        which is the documented trusted-operator assumption (see
        docs/OPERATIONS.md).
        """
        smap = ShardMap.from_wire(message.get("shard_map"))
        if self.shard_map is None or smap.version != self.shard_map.version:
            self.shard_map = smap
            self.metrics.counter("serve.map_updates").inc()
        self._send(session.writer,
                   {"type": "MAP_ACK", "map_version": smap.version},
                   session.codec)

    def _admit(self, session: _Session, payloads: List[Dict[str, Any]],
               seq_lo: Optional[int]) -> None:
        """Admit reports up to the report-level budget.

        Every report is parsed eagerly, so a malformed one is a typed
        session error before anything from the frame is admitted; the
        parsed reports ride the queue so the writer never re-parses.
        The admitted prefix becomes one queue item (the writer will
        group-commit it and answer with one ACK or ACK_BATCH); the tail
        that does not fit gets one RETRY naming it — the client resends
        exactly those.
        """
        parsed = [report_from_wire(payload) for payload in payloads]
        if self.config.shard_id and self.shard_map is not None:
            #: Ownership is all-or-nothing per frame: one foreign zone
            #: redirects the whole frame (nothing is admitted), keeping
            #: the ACK/WAL semantics of a frame atomic.  The client
            #: re-partitions by the carried map and resends.
            zone_of = self.coordinator.grid.zone_id_for
            for report in parsed:
                redirect = self._redirect_for_zone(zone_of(report.point))
                if redirect is not None:
                    redirect.update(reply_ids(payloads, seq_lo))
                    self.metrics.counter("serve.redirects").inc()
                    self._send(session.writer, redirect, session.codec)
                    return
        self.metrics.counter("serve.reports_received").inc(len(payloads))
        if seq_lo is not None:
            self.metrics.counter("serve.report_batches").inc()
            self.metrics.histogram("serve.report_batch_size").observe(
                len(payloads)
            )
        budget = self.config.ingest_queue_max - self._ingest_pending
        admitted = min(len(payloads), max(0, budget))
        if admitted > 0:
            self._ingest_pending += admitted
            self._ingest_queue.put_nowait(
                (payloads[:admitted], parsed[:admitted], seq_lo,
                 session.session_id, time.perf_counter())
            )
            self.metrics.histogram(
                "serve.ingest_queue_depth"
            ).observe(self._ingest_pending)
        if admitted < len(payloads):
            #: Partial (or total) rejection: one RETRY for the tail.
            self.metrics.counter("serve.backpressure_rejections").inc(
                len(payloads) - admitted
            )
            self._send(session.writer, {
                "type": "RETRY",
                "retry_after_s": self.config.retry_after_s,
                **reply_ids(payloads, seq_lo, admitted),
            }, session.codec)

    def _on_poll(self, session: _Session, message: Dict[str, Any]) -> None:
        """Answer a position beacon with one TASK (or a PONG).

        In shard mode a POLL from a zone this shard does not own is
        answered with REDIRECT — the mobile-client-crosses-shards path:
        the client reconnects its polling to the named owner.
        """
        if self.config.shard_id and self.shard_map is not None:
            point = GeoPoint(*position(message, "POLL"))
            redirect = self._redirect_for_zone(
                self.coordinator.grid.zone_id_for(point)
            )
            if redirect is not None:
                redirect["seq"] = message.get("seq")
                self.metrics.counter("serve.redirects").inc()
                self._send(session.writer, redirect, session.codec)
                return
        task = self._plan_task(session, message)
        if task is None:
            self._send(session.writer,
                       {"type": "PONG", "seq": message.get("seq")},
                       session.codec)
            return
        self.metrics.counter("serve.tasks_issued").inc()
        self._send(session.writer, {"type": "TASK",
                                    "task": task_to_wire(task)},
                   session.codec)

    def _on_stats(self, session: _Session) -> None:
        """Answer STATS with both metric registries and WAL counters."""
        wal_stats: Dict[str, Any] = {}
        if self.wal is not None:
            wal_stats = {
                "records_logged": self.wal.records_logged,
                "segments_rotated": self.wal.segments_rotated,
                "fsyncs": self.wal.fsyncs,
                "group_commits": self.wal.group_commits,
                "commit_policy": self.wal.commit_policy,
            }
        reply: Dict[str, Any] = {
            "type": "STATS_REPLY",
            "coordinator": self.coordinator.metrics.snapshot(),
            "serve": self.metrics.snapshot(),
            "wal": wal_stats,
            "sessions_active": len(self._sessions),
        }
        if self.config.shard_id:
            reply["shard_id"] = self.config.shard_id
        if self.shard_map is not None:
            reply["shard_map_version"] = self.shard_map.version
        self._send(session.writer, reply, session.codec)

    def _plan_task(
        self, session: _Session, message: Dict[str, Any]
    ) -> Optional[MeasurementTask]:
        """The service-side task planner: round-robin network x kind.

        The in-process coordinator scheduler decides per-tick with full
        zone records; over the wire the server sees only poll beacons,
        so it cycles each session through (network, kind) pairs — every
        poll gets a task, sized by the coordinator's config exactly as
        :meth:`MeasurementCoordinator._issue_task` sizes them.
        """
        networks = session.networks
        if not networks:
            return None
        try:
            t = float(message.get("t", 0.0))
            point = GeoPoint(float(message["lat"]), float(message["lon"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed POLL payload: {exc}") from None
        config = self.coordinator.config
        kinds = list(config.task_kinds)
        pairs = [(n, k) for n in networks for k in kinds]
        network_s, kind = pairs[session.task_cursor % len(pairs)]
        session.task_cursor += 1
        try:
            from repro.radio.technology import NetworkId

            network = NetworkId(network_s)
        except ValueError:
            raise ProtocolError(f"unknown network {network_s!r}") from None
        params: Dict[str, float] = {}
        if kind is MeasurementType.UDP_TRAIN:
            params["n_packets"] = config.udp_packets_per_task
        elif kind is MeasurementType.PING:
            params["count"] = config.ping_count_per_task
            params["interval_s"] = 1.0
        return MeasurementTask(
            task_id=next(self._task_ids),
            network=network,
            kind=kind,
            zone_id=self.coordinator.grid.zone_id_for(point),
            issued_at_s=t,
            deadline_s=t + config.tick_interval_s,
            params=params,
        )

    # -- the ingest worker -----------------------------------------------

    async def _ingest_worker(self) -> None:
        """Single consumer: group WAL commit -> coordinator ingest -> ACK.

        One task consumes the queue, so WAL order, ingest order, and ACK
        order all agree — the invariant WAL-replay byte-identity needs.
        Each round drains the queue greedily (up to ``commit_batch_max``
        reports), stages every drained payload with ONE buffered write
        and ONE flush (:meth:`WriteAheadLog.append_many`), and only then
        ingests and ACKs — so an ACK still means "process-crash
        durable", but a busy server pays one flush per drain instead of
        one per report.
        """
        assert self._ingest_queue is not None
        cfg = self.config
        queue = self._ingest_queue
        while True:
            items = [await queue.get()]
            drained = len(items[0][0])
            while drained < cfg.commit_batch_max:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                items.append(item)
                drained += len(item[0])
            try:
                #: Phase 1 — durably stage the whole drain, in order.
                all_payloads: List[Dict[str, Any]] = []
                for payloads, _, _, _, _ in items:
                    all_payloads.extend(payloads)
                if self.wal is not None:
                    wal_seqs = self.wal.append_many(all_payloads)
                    self.metrics.counter("serve.wal_appends").inc(
                        len(all_payloads)
                    )
                    self.metrics.histogram(
                        "serve.group_commit_reports"
                    ).observe(len(all_payloads))
                else:
                    wal_seqs = [None] * len(all_payloads)
                #: Phase 2 — ingest and acknowledge, item by item.
                cursor = 0
                for (payloads, reports, seq_lo, session_id,
                     received_at) in items:
                    seqs = wal_seqs[cursor:cursor + len(payloads)]
                    cursor += len(payloads)
                    self._ingest_and_ack(
                        payloads, reports, seqs, seq_lo, session_id,
                        received_at,
                    )
            finally:
                self._ingest_pending -= drained
                for _ in items:
                    queue.task_done()

    def _ingest_and_ack(
        self,
        payloads: List[Dict[str, Any]],
        reports: List[Any],
        wal_seqs: List[Optional[int]],
        seq_lo: Optional[int],
        session_id: int,
        received_at: float,
    ) -> None:
        """Fold one queue item into the coordinator and answer its ACK.

        The reply frame is the one the request calls for: ACK for a
        single REPORT (``seq_lo`` None), ACK_BATCH for a REPORT_BATCH.
        """
        accepted_flags = []
        for report in reports:
            accepted = self.coordinator.ingest(report)
            accepted_flags.append(accepted)
            self.metrics.counter(
                "serve.reports_ingested" if accepted
                else "serve.reports_rejected"
            ).inc()
        session = self._sessions.get(session_id)
        if session is None:
            return
        session.reports += len(payloads)
        if seq_lo is None:
            ack: Dict[str, Any] = {
                "type": "ACK",
                "task_id": payloads[0].get("task_id"),
                "seq": wal_seqs[0],
                "accepted": accepted_flags[0],
            }
        else:
            ack = {
                "type": "ACK_BATCH",
                "seq_lo": seq_lo,
                "seq_hi": seq_lo + len(payloads) - 1,
                "wal_seq_lo": wal_seqs[0],
                "wal_seq_hi": wal_seqs[-1],
                "accepted": sum(1 for a in accepted_flags if a),
                "rejected_seqs": [
                    seq_lo + i for i, a in enumerate(accepted_flags)
                    if not a
                ],
            }
        try:
            self._send(session.writer, ack, session.codec)
            self.metrics.counter("serve.reports_acked").inc(len(payloads))
            self.metrics.histogram(
                "serve.ack_latency_s", _ACK_LATENCY_BUCKETS
            ).observe(time.perf_counter() - received_at)
        except (ConnectionError, RuntimeError):
            #: Session died between enqueue and ACK; the reports are
            #: durable regardless.
            self.metrics.counter("serve.acks_undeliverable").inc()
