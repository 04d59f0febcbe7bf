"""Client-side driver: run a :class:`ClientAgent` against the service.

This is the measurement half of the paper's deployment picture made
real: the agent still owns the device model, mobility, and radio
channels, but instead of the coordinator calling ``agent.execute()``
in-process, the driver speaks the :mod:`repro.serve.wire` protocol —
HELLO in, POLL with the client's position, execute whatever TASK comes
back, push the REPORT, and retry on RETRY until the server ACKs.

The driver is strictly half-duplex by construction (one outstanding
request per session), so the next frame after a REPORT is always its
ACK or RETRY and the next frame after a POLL is always a TASK or PONG —
no client-side demultiplexing is needed.  A REPORT_BATCH is the one
place two frames can answer one request — a RETRY for the rejected
tail may precede the range ACK_BATCH for the admitted prefix — so
:meth:`ServeSession.send_report_batch` tracks the outstanding seq set
and keeps reading until every report in the batch is settled.

Batching and codec are both opt-in: ``ServeSession(codecs=...)``
offers a codec preference list in HELLO and adopts whatever WELCOME
names; ``ServedClient(batch_size=N)`` coalesces up to N reports per
frame.  The defaults (no codecs key, batch size 1) speak the PR-5 wire
format byte-for-byte.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.serve.wire import (
    CODEC_JSON,
    PROTOCOL_VERSION,
    MAX_FRAME_BYTES,
    ProtocolError,
    WireError,
    encode_frame,
    read_frame,
    report_to_wire,
    task_from_wire,
)

if TYPE_CHECKING:
    from repro.clients.agent import ClientAgent

__all__ = ["DriverStats", "Redirected", "ServedClient", "ServeSession"]


class Redirected(WireError):
    """The server answered REDIRECT: frame NOT processed, resend to shard X.

    Raised by :meth:`ServeSession.send_report` (a single report carries
    no partial-settlement risk, so an exception is the cleanest
    signal).  ``frame`` is the REDIRECT message — ``shard_id`` /
    ``host`` / ``port`` name the owner and ``shard_map`` carries the
    server's current map so the caller can re-route without another
    round trip.  Batch sends never raise this: see
    :meth:`ServeSession.send_report_batch`, whose summary returns the
    redirected payloads instead (a REDIRECT can arrive after part of
    the original batch was already range-ACKed on a resend round, and
    an exception would lose that accounting).
    """

    code = "redirected"

    def __init__(self, frame: Dict[str, Any]):
        super().__init__(f"redirected to shard {frame.get('shard_id')!r}")
        self.frame = frame


@dataclass
class DriverStats:
    """What one driven session did, for tests and the CLI to report."""

    polls: int = 0
    tasks_received: int = 0
    tasks_refused: int = 0
    reports_sent: int = 0
    reports_acked: int = 0
    reports_rejected: int = 0
    retries: int = 0
    batches_sent: int = 0
    #: Client-observed REPORT->ACK round-trip times (seconds).
    ack_latencies_s: List[float] = field(default_factory=list)


class ServeSession:
    """One open protocol session (shared by driver and loadgen).

    Owns the socket and the request/response discipline; knows nothing
    about how reports are produced.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        networks: List[str],
        max_frame_bytes: int = MAX_FRAME_BYTES,
        codecs: Optional[Sequence[str]] = None,
    ):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.networks = networks
        self.max_frame_bytes = max_frame_bytes
        #: Codec preference list offered in HELLO.  ``None`` omits the
        #: key entirely — the PR-5 handshake, which a server answers
        #: with plain JSON.
        self.codecs = list(codecs) if codecs is not None else None
        #: The negotiated session codec; JSON until WELCOME says
        #: otherwise (HELLO/WELCOME themselves are always JSON).
        self.codec = CODEC_JSON
        self.welcome: Optional[Dict[str, Any]] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Client-side batch sequence counter (monotonic per session).
        self._batch_seq = 0

    async def __aenter__(self) -> "ServeSession":
        await self.open()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def open(self) -> Dict[str, Any]:
        """Connect and run the HELLO/WELCOME handshake."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.codec = CODEC_JSON
        hello: Dict[str, Any] = {
            "type": "HELLO",
            "v": PROTOCOL_VERSION,
            "client_id": self.client_id,
            "networks": self.networks,
        }
        if self.codecs is not None:
            hello["codecs"] = self.codecs
        reply = await self.request(hello)
        if reply.get("type") == "ERROR":
            raise WireError(
                f"server refused session: {reply.get('code')}: "
                f"{reply.get('detail')}"
            )
        if reply.get("type") != "WELCOME":
            raise ProtocolError(f"expected WELCOME, got {reply.get('type')!r}")
        self.welcome = reply
        self.codec = reply.get("codec", CODEC_JSON)
        return reply

    async def _send_frame(self, message: Dict[str, Any]) -> None:
        assert self._writer is not None, "session is not open"
        self._writer.write(
            encode_frame(message, self.max_frame_bytes, self.codec)
        )
        await self._writer.drain()

    async def _read_reply(self) -> Dict[str, Any]:
        reply = await read_frame(self._reader, self.max_frame_bytes,
                                 self.codec)
        if reply is None:
            raise WireError("server closed the connection")
        return reply

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and read the reply frame."""
        await self._send_frame(message)
        return await self._read_reply()

    async def send_report(
        self,
        report_wire: Dict[str, Any],
        max_retries: int = 64,
    ) -> Dict[str, Any]:
        """Push one report, retrying on RETRY until it is ACKed.

        Returns the ACK frame.  Raises :class:`WireError` when the
        server errors the session or the retry budget runs out — a
        report is never silently dropped.
        """
        frame = {"type": "REPORT", "report": report_wire}
        retries = 0
        while True:
            reply = await self.request(frame)
            kind = reply.get("type")
            if kind == "ACK":
                reply["_retries"] = retries
                return reply
            if kind == "RETRY":
                if retries >= max_retries:
                    raise WireError(
                        f"report not accepted after {retries} retries"
                    )
                retries += 1
                await asyncio.sleep(float(reply.get("retry_after_s", 0.05)))
                continue
            if kind == "REDIRECT":
                raise Redirected(reply)
            if kind == "ERROR":
                raise WireError(
                    f"server error: {reply.get('code')}: "
                    f"{reply.get('detail')}"
                )
            raise ProtocolError(f"expected ACK/RETRY, got {kind!r}")

    async def send_report_batch(
        self,
        reports_wire: Sequence[Dict[str, Any]],
        max_retries: int = 64,
    ) -> Dict[str, Any]:
        """Push many reports in one frame, resending until all settle.

        Sends one REPORT_BATCH and keeps reading until every report in
        it is covered by an ACK_BATCH (admitted, possibly rejected by
        the validator), a RETRY (the backpressured tail — resent as a
        fresh, smaller batch after ``retry_after_s``), or a REDIRECT (a
        shard that does not own the batch's zones; the whole frame is
        unprocessed).  Returns a summary dict with ``accepted`` /
        ``rejected`` report counts and ``_retries``; redirected
        payloads come back under ``"redirected"`` (with the REDIRECT
        frame under ``"redirect"``) for the caller to re-route — they
        are NOT resent here, because this session points at the wrong
        shard by definition.  Raises :class:`WireError` when the retry
        budget runs out or the server errors the session.
        """
        if not reports_wire:
            raise ValueError("empty report batch")
        pending = list(reports_wire)
        retries = 0
        accepted = 0
        rejected = 0
        batches = 0
        redirected: List[Dict[str, Any]] = []
        redirect_frame: Optional[Dict[str, Any]] = None
        while pending:
            seq_lo = self._batch_seq
            self._batch_seq += len(pending)
            await self._send_frame({
                "type": "REPORT_BATCH",
                "seq_lo": seq_lo,
                "reports": pending,
            })
            batches += 1
            #: Seqs of this batch not yet settled by ACK_BATCH/RETRY.
            outstanding = set(range(seq_lo, seq_lo + len(pending)))
            resend: List[Dict[str, Any]] = []
            retry_after_s = 0.05
            while outstanding:
                reply = await self._read_reply()
                kind = reply.get("type")
                if kind == "ACK_BATCH":
                    lo, hi = int(reply["seq_lo"]), int(reply["seq_hi"])
                    outstanding.difference_update(range(lo, hi + 1))
                    n_rejected = len(reply.get("rejected_seqs") or ())
                    accepted += (hi - lo + 1) - n_rejected
                    rejected += n_rejected
                elif kind == "RETRY":
                    lo, hi = int(reply["seq_lo"]), int(reply["seq_hi"])
                    outstanding.difference_update(range(lo, hi + 1))
                    resend.extend(pending[lo - seq_lo:hi - seq_lo + 1])
                    retry_after_s = float(
                        reply.get("retry_after_s", retry_after_s)
                    )
                elif kind == "REDIRECT":
                    #: The whole frame was refused unprocessed; hand the
                    #: payloads back to the caller for re-routing.
                    lo, hi = int(reply["seq_lo"]), int(reply["seq_hi"])
                    outstanding.difference_update(range(lo, hi + 1))
                    redirected.extend(
                        pending[lo - seq_lo:hi - seq_lo + 1]
                    )
                    redirect_frame = reply
                elif kind == "ERROR":
                    raise WireError(
                        f"server error: {reply.get('code')}: "
                        f"{reply.get('detail')}"
                    )
                else:
                    raise ProtocolError(
                        f"expected ACK_BATCH/RETRY, got {kind!r}"
                    )
            if resend:
                if retries >= max_retries:
                    raise WireError(
                        f"{len(resend)} report(s) not accepted after "
                        f"{retries} retries"
                    )
                retries += 1
                await asyncio.sleep(retry_after_s)
            pending = resend
        summary: Dict[str, Any] = {
            "accepted": accepted,
            "rejected": rejected,
            "_retries": retries,
            "_batches": batches,
        }
        if redirected:
            summary["redirected"] = redirected
            summary["redirect"] = redirect_frame
        return summary

    async def stats(self) -> Dict[str, Any]:
        """Fetch the server's STATS_REPLY."""
        reply = await self.request({"type": "STATS"})
        if reply.get("type") != "STATS_REPLY":
            raise ProtocolError(
                f"expected STATS_REPLY, got {reply.get('type')!r}"
            )
        return reply

    async def close(self) -> None:
        """Orderly BYE (best effort) and socket teardown."""
        if self._writer is None:
            return
        try:
            await self._send_frame({"type": "BYE"})
            await read_frame(self._reader, self.max_frame_bytes, self.codec)
        except (WireError, ConnectionError, RuntimeError):
            pass
        finally:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None
            self._reader = None


class ServedClient:
    """Drive one existing :class:`ClientAgent` over the wire.

    Only the agent's ``client_id``, ``device.networks``, ``position(t)``
    and ``execute(task, t)`` are used, so this module imports the agent
    for type checking only and a wire-client process never loads the
    simulator.

    ``batch_size`` > 1 turns on report coalescing: completed reports
    accumulate in a client-side buffer and go out as one REPORT_BATCH
    frame when the buffer fills (and at session end, so nothing is ever
    left behind).  ``codecs`` is the HELLO codec preference list
    (``None`` — the default — negotiates nothing and speaks PR-5 JSON).
    """

    def __init__(
        self,
        agent: ClientAgent,
        host: str,
        port: int,
        poll_interval_s: float = 60.0,
        batch_size: int = 1,
        codecs: Optional[Sequence[str]] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.agent = agent
        self.poll_interval_s = poll_interval_s
        self.batch_size = int(batch_size)
        self.session = ServeSession(
            host,
            port,
            client_id=agent.client_id,
            networks=[n.value for n in sorted(
                agent.device.networks, key=lambda n: n.value
            )],
            codecs=codecs,
        )
        self.stats = DriverStats()
        self._buffer: List[Dict[str, Any]] = []

    async def run(self, n_polls: int, start_s: float = 0.0) -> DriverStats:
        """Poll/execute/report for ``n_polls`` sim ticks, then BYE."""
        loop_time = asyncio.get_running_loop().time
        async with self.session:
            for i in range(n_polls):
                t = start_s + i * self.poll_interval_s
                await self._poll_once(t, loop_time)
            await self._flush(loop_time)
        return self.stats

    async def _flush(self, loop_time) -> None:
        """Send the coalescing buffer as one batch (no-op when empty)."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        sent_at = loop_time()
        ack = await self.session.send_report_batch(batch)
        latency = loop_time() - sent_at
        self.stats.ack_latencies_s.extend([latency] * len(batch))
        self.stats.batches_sent += int(ack.get("_batches", 1))
        self.stats.retries += int(ack.get("_retries", 0))
        self.stats.reports_acked += int(ack.get("accepted", 0))
        self.stats.reports_rejected += int(ack.get("rejected", 0))

    async def _poll_once(self, t: float, loop_time) -> None:
        point = self.agent.position(t)
        self.stats.polls += 1
        reply = await self.session.request({
            "type": "POLL",
            "t": t,
            "lat": point.lat,
            "lon": point.lon,
            "seq": self.stats.polls,
        })
        kind = reply.get("type")
        if kind == "PONG":
            return
        if kind == "ERROR":
            raise WireError(
                f"server error: {reply.get('code')}: {reply.get('detail')}"
            )
        if kind != "TASK":
            raise ProtocolError(f"expected TASK/PONG, got {kind!r}")
        self.stats.tasks_received += 1
        task = task_from_wire(reply["task"])
        report = self.agent.execute(task, t)
        if report is None:
            self.stats.tasks_refused += 1
            return
        self.stats.reports_sent += 1
        if self.batch_size > 1:
            self._buffer.append(report_to_wire(report))
            if len(self._buffer) >= self.batch_size:
                await self._flush(loop_time)
            return
        sent_at = loop_time()
        ack = await self.session.send_report(report_to_wire(report))
        self.stats.ack_latencies_s.append(loop_time() - sent_at)
        self.stats.retries += int(ack.get("_retries", 0))
        if ack.get("accepted"):
            self.stats.reports_acked += 1
        else:
            self.stats.reports_rejected += 1
