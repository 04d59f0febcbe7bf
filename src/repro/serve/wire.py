"""The coordinator service's versioned, length-prefixed wire protocol.

Every frame on the control channel is a 4-byte big-endian unsigned
length prefix followed by exactly that many bytes of payload, encoded
by the session's negotiated **codec**:

* ``json`` (the default, and the only pre-negotiation encoding) — one
  flat UTF-8 JSON object whose ``"type"`` key names the frame.  The
  encoding is canonical (sorted keys, compact separators), so a frame's
  bytes are a pure function of its message dict, and Python's
  repr-based float serialization round-trips every
  ``MeasurementReport`` field exactly — the property the WAL-replay
  byte-identity guarantee rests on.  ``NaN`` is allowed (a failed
  ping's primary value is NaN); both ends are this module, so the
  non-strict JSON extension is safe.
* ``binary`` (opt-in, negotiated in HELLO/WELCOME) — a tagged payload.
  REPORT_BATCH frames whose reports conform to the canonical report
  schema are struct-packed (IEEE-754 doubles, so every float — NaN
  and infinities included — round-trips bit-exactly); every other
  message rides as canonical JSON behind a one-byte tag.  Decoding a
  binary payload reproduces the sender's message dict *exactly* (same
  keys, same value types), which is what keeps WAL bytes identical
  across codecs for the same report stream.

HELLO and WELCOME are always JSON — a client offers ``"codecs"`` in
HELLO, the server picks one and names it in WELCOME, and both ends
switch for every subsequent frame (see DESIGN.md §10 for the
negotiation state machine).

Frame types (see DESIGN.md §10 for the session state machine):

============  ======================  =====================================
type          direction               purpose
============  ======================  =====================================
HELLO         client -> server        open a session (protocol ``v``, codecs)
WELCOME       server -> client        session accepted (id, limits, codec)
POLL          client -> server        position beacon asking for work
TASK          server -> client        a ``MeasurementTask`` to execute
REPORT        client -> server        a completed ``MeasurementReport``
REPORT_BATCH  client -> server        many reports, client seqs lo..lo+n-1
ACK           server -> client        report durably staged (WAL sequence)
ACK_BATCH     server -> client        range-ACK for a staged batch
RETRY         server -> client        ingest saturated; retry after a delay
PING/PONG     both                    heartbeat / "no task for you"
STATS         client -> server        ask for the server's metric snapshots
REDIRECT      server -> client        frame NOT processed; resend to shard X
MAP_UPDATE    supervisor -> shard     push a new cluster shard map
MAP_ACK       shard -> supervisor     shard map adopted (echoes version)
ERROR         server -> client        typed protocol error; session closes
BYE           both                    orderly close
============  ======================  =====================================

The three cluster frames (REDIRECT / MAP_UPDATE / MAP_ACK) are
additive: protocol version 1 is unchanged, and a single-node server
never emits them (see DESIGN.md §11 for the cluster state machine).

Malformed input never tracebacks a session: decoding raises one of the
typed :class:`WireError` subclasses below, which the session layer maps
to an ERROR frame (``code`` = the exception's wire code) followed by a
close.
"""

from __future__ import annotations

import asyncio
import json
import struct
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro._canon import compact_json
from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
    pack_samples,
    unpack_samples,
)
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "LENGTH_PREFIX",
    "FRAME_TYPES",
    "CODEC_JSON",
    "CODEC_BINARY",
    "SUPPORTED_CODECS",
    "WireError",
    "FrameTooLargeError",
    "TruncatedFrameError",
    "ProtocolError",
    "VersionMismatchError",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "check_hello",
    "report_payloads",
    "reply_ids",
    "position",
    "task_to_wire",
    "task_from_wire",
    "report_to_wire",
    "report_from_wire",
]

#: Protocol version spoken by this build.  A HELLO carrying any other
#: version is answered with an ERROR(code="version-mismatch") and the
#: session is closed — there is exactly one version in the wild so far.
PROTOCOL_VERSION = 1

#: Hard ceiling on a frame's payload size.  A length prefix above this
#: is treated as a protocol violation (corrupt stream or hostile peer),
#: not an allocation request.
MAX_FRAME_BYTES = 1 << 20

#: The 4-byte big-endian unsigned length prefix.
LENGTH_PREFIX = struct.Struct(">I")

#: Frame payload codecs this build can negotiate.  ``json`` is the
#: canonical default (and the only legal encoding for HELLO/WELCOME);
#: ``binary`` struct-packs the REPORT_BATCH hot path.
CODEC_JSON = "json"
CODEC_BINARY = "binary"
SUPPORTED_CODECS = (CODEC_JSON, CODEC_BINARY)

#: Every frame type either end may legitimately send.
FRAME_TYPES = frozenset(
    {
        "HELLO", "WELCOME", "POLL", "TASK", "REPORT", "REPORT_BATCH",
        "ACK", "ACK_BATCH", "RETRY", "PING", "PONG", "STATS",
        "STATS_REPLY", "REDIRECT", "MAP_UPDATE", "MAP_ACK", "ERROR",
        "BYE",
    }
)


class WireError(Exception):
    """Base of every typed protocol failure.

    ``code`` is the machine-readable token carried by the ERROR frame a
    server answers with; ``detail`` is the human-readable elaboration.
    """

    code = "protocol-error"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class FrameTooLargeError(WireError):
    """Length prefix exceeds the negotiated maximum frame size."""

    code = "frame-too-large"


class TruncatedFrameError(WireError):
    """The stream ended mid-frame (partial prefix or partial payload)."""

    code = "truncated-frame"


class ProtocolError(WireError):
    """Payload is not a valid frame (bad JSON, wrong shape, bad type)."""

    code = "bad-frame"


class VersionMismatchError(WireError):
    """HELLO carried a protocol version this server does not speak."""

    code = "version-mismatch"


def encode_frame(message: Dict[str, Any],
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 codec: str = CODEC_JSON) -> bytes:
    """Serialize one message dict to its length-prefixed frame bytes.

    ``codec`` selects the payload encoding negotiated for the session
    (:data:`CODEC_JSON` pre-negotiation).  Raises :class:`ProtocolError`
    for a message without a ``type`` and :class:`FrameTooLargeError`
    when the encoded payload would exceed ``max_frame_bytes`` (the
    sender's symmetric share of the limit).
    """
    if "type" not in message:
        raise ProtocolError("message has no 'type'")
    if codec == CODEC_BINARY:
        payload = _encode_binary_payload(message)
    else:
        payload = compact_json(message).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame payload {len(payload)} bytes > limit {max_frame_bytes}"
        )
    return LENGTH_PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes, codec: str = CODEC_JSON) -> Dict[str, Any]:
    """Parse a frame payload into its message dict (typed errors only)."""
    if codec == CODEC_BINARY:
        return _decode_binary_payload(payload)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("frame has no string 'type'")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    codec: str = CODEC_JSON,
) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream.

    ``codec`` must match what the peer negotiated for this session.
    Returns the decoded message dict, or ``None`` on a clean EOF at a
    frame boundary (the peer closed between frames).  Raises
    :class:`TruncatedFrameError` on EOF inside a frame,
    :class:`FrameTooLargeError` for an oversized length prefix, and
    :class:`ProtocolError` for undecodable payloads.
    """
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise TruncatedFrameError(
            f"EOF after {len(exc.partial)} of {LENGTH_PREFIX.size} "
            "length-prefix bytes"
        ) from None
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame length {length} > limit {max_frame_bytes}"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrameError(
            f"EOF after {len(exc.partial)} of {length} payload bytes"
        ) from None
    return decode_payload(payload, codec)


# -- frame checks shared by the coordinator server and the gateway -----------


def check_hello(hello: Dict[str, Any]) -> str:
    """Validate a session's first frame; returns its ``client_id``.

    Raises :class:`ProtocolError` for a frame that is not HELLO or has
    no ``client_id``, and :class:`VersionMismatchError` for a protocol
    version this build does not speak.
    """
    if hello.get("type") != "HELLO":
        raise ProtocolError(f"expected HELLO, got {hello.get('type')!r}")
    if hello.get("v") != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"this end speaks v{PROTOCOL_VERSION}, client sent "
            f"v{hello.get('v')!r}"
        )
    client_id = str(hello.get("client_id") or "")
    if not client_id:
        raise ProtocolError("HELLO without client_id")
    return client_id


def report_payloads(
    message: Dict[str, Any],
) -> Tuple[List[Dict[str, Any]], Optional[int]]:
    """``(payloads, seq_lo)`` of a REPORT or REPORT_BATCH frame.

    A REPORT is a batch of one whose ``seq_lo`` is None.  Raises
    :class:`ProtocolError` for a REPORT without a report object, a
    REPORT_BATCH without a non-empty reports list or an integer
    ``seq_lo``, and a batch carrying a non-object report.
    """
    if message.get("type") == "REPORT":
        payload = message.get("report")
        if not isinstance(payload, dict):
            raise ProtocolError("REPORT without a report object")
        return [payload], None
    reports = message.get("reports")
    if not isinstance(reports, list) or not reports:
        raise ProtocolError("REPORT_BATCH without a reports list")
    try:
        seq_lo = int(message["seq_lo"])
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("REPORT_BATCH without integer seq_lo") from None
    if not all(isinstance(p, dict) for p in reports):
        raise ProtocolError("REPORT_BATCH carries a non-object report")
    return reports, seq_lo


def reply_ids(payloads: List[Dict[str, Any]], seq_lo: Optional[int],
              offset: int = 0) -> Dict[str, Any]:
    """The fields naming ``payloads[offset:]`` in a reply frame.

    A single REPORT (``seq_lo`` None) is named by its ``task_id``; a
    REPORT_BATCH by the ``seq_lo..seq_hi`` range.
    """
    if seq_lo is None:
        return {"task_id": payloads[offset].get("task_id")}
    return {"seq_lo": seq_lo + offset, "seq_hi": seq_lo + len(payloads) - 1}


def position(obj: Dict[str, Any], what: str) -> Tuple[float, float]:
    """A POLL's or report's ``(lat, lon)`` (:class:`ProtocolError` if bad)."""
    try:
        return float(obj["lat"]), float(obj["lon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {what} payload: {exc}") from None


# -- the binary codec --------------------------------------------------------
#
# A binary payload is a one-byte tag followed by tag-specific bytes:
#
#   0x00  the remaining bytes are the message's canonical JSON (the
#         escape hatch every frame type can ride);
#   0x01  a struct-packed REPORT_BATCH whose reports all conform to the
#         canonical report schema (exactly the keys report_to_wire
#         emits, with their canonical types).
#
# Packing is *type-preserving*: decode(encode(m)) == m with identical
# value types, so the WAL lines the server writes are byte-identical
# whether a report stream arrived as JSON or binary.  A REPORT_BATCH
# whose reports do not conform (an int where a float belongs, an exotic
# key, an out-of-range task_id) silently falls back to the JSON tag —
# conformance buys speed, never correctness.

_BIN_TAG_JSON = 0x00
_BIN_TAG_REPORT_BATCH = 0x01

#: REPORT_BATCH binary header: tag, seq_lo (i64), report count (u32).
_BIN_BATCH_HEADER = struct.Struct(">BqI")
#: Per-report fixed numeric block: task_id (i64) then the six canonical
#: doubles (start_s, end_s, lat, lon, speed_ms, value).
_BIN_REPORT_FIXED = struct.Struct(">q6d")
#: Per-report string sizes: len(network) u8, len(kind) u8,
#: len(client_id) u16.
_BIN_REPORT_STRLENS = struct.Struct(">BBH")
_BIN_U32 = struct.Struct(">I")
_BIN_U16 = struct.Struct(">H")
_BIN_DOUBLE = struct.Struct(">d")

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: The exact key set of a canonical wire report (what report_to_wire
#: emits); anything else falls back to the JSON tag.
_REPORT_KEYS = frozenset(
    {
        "task_id", "client_id", "network", "kind", "start_s", "end_s",
        "lat", "lon", "speed_ms", "value", "samples", "extras",
    }
)


class _NotPackable(Exception):
    """A REPORT_BATCH does not conform to the struct-packed schema."""


def _is_float(v: Any) -> bool:
    return type(v) is float


def _is_int64(v: Any) -> bool:
    return type(v) is int and _INT64_MIN <= v <= _INT64_MAX


def _pack_report_batch(message: Dict[str, Any]) -> bytes:
    """Struct-pack a conforming REPORT_BATCH (raises _NotPackable)."""
    if set(message) != {"type", "seq_lo", "reports"}:
        raise _NotPackable
    seq_lo = message["seq_lo"]
    reports = message["reports"]
    if not _is_int64(seq_lo) or type(reports) is not list:
        raise _NotPackable
    if len(reports) > 0xFFFFFFFF:
        raise _NotPackable
    parts = [_BIN_BATCH_HEADER.pack(_BIN_TAG_REPORT_BATCH, seq_lo,
                                    len(reports))]
    append = parts.append
    try:
        for r in reports:
            if type(r) is not dict or set(r) != _REPORT_KEYS:
                raise _NotPackable
            task_id = r["task_id"]
            if not _is_int64(task_id):
                raise _NotPackable
            start_s, end_s = r["start_s"], r["end_s"]
            lat, lon = r["lat"], r["lon"]
            speed_ms, value = r["speed_ms"], r["value"]
            for v in (start_s, end_s, lat, lon, speed_ms, value):
                if not _is_float(v):
                    raise _NotPackable
            network = r["network"].encode("utf-8")
            kind = r["kind"].encode("utf-8")
            client_id = r["client_id"].encode("utf-8")
            if len(network) > 0xFF or len(kind) > 0xFF:
                raise _NotPackable
            if len(client_id) > 0xFFFF:
                raise _NotPackable
            samples = r["samples"]
            extras = r["extras"]
            if type(samples) is not list or type(extras) is not dict:
                raise _NotPackable
            if not all(_is_float(s) for s in samples):
                raise _NotPackable
            append(_BIN_REPORT_FIXED.pack(
                task_id, start_s, end_s, lat, lon, speed_ms, value
            ))
            append(_BIN_REPORT_STRLENS.pack(
                len(network), len(kind), len(client_id)
            ))
            append(network)
            append(kind)
            append(client_id)
            append(_BIN_U32.pack(len(samples)))
            append(pack_samples(samples))
            append(_BIN_U32.pack(len(extras)))
            for k, v in extras.items():
                if type(k) is not str or not _is_float(v):
                    raise _NotPackable
                kb = k.encode("utf-8")
                if len(kb) > 0xFFFF:
                    raise _NotPackable
                append(_BIN_U16.pack(len(kb)))
                append(kb)
                append(_BIN_DOUBLE.pack(v))
    except (AttributeError, TypeError, struct.error):
        #: A non-string where a string belongs, a list of non-numbers,
        #: etc. — all mean "not the canonical shape", not an error.
        raise _NotPackable from None
    return b"".join(parts)


def _encode_binary_payload(message: Dict[str, Any]) -> bytes:
    """Message dict -> binary payload (struct-packed when possible)."""
    if message.get("type") == "REPORT_BATCH":
        try:
            return _pack_report_batch(message)
        except _NotPackable:
            pass
    return bytes((_BIN_TAG_JSON,)) + compact_json(message).encode("utf-8")


def _decode_binary_payload(payload: bytes) -> Dict[str, Any]:
    """Binary payload -> message dict (typed errors only)."""
    if not payload:
        raise ProtocolError("empty binary payload")
    tag = payload[0]
    if tag == _BIN_TAG_JSON:
        return decode_payload(payload[1:], CODEC_JSON)
    if tag == _BIN_TAG_REPORT_BATCH:
        return _unpack_report_batch(payload)
    raise ProtocolError(f"unknown binary payload tag 0x{tag:02x}")


def _unpack_report_batch(payload: bytes) -> Dict[str, Any]:
    """Struct-packed REPORT_BATCH bytes -> the exact sender message."""
    view = memoryview(payload)
    try:
        _, seq_lo, count = _BIN_BATCH_HEADER.unpack_from(view, 0)
        offset = _BIN_BATCH_HEADER.size
        #: Each report needs at least its fixed blocks; a hostile count
        #: is caught before any per-report allocation.
        min_per_report = (_BIN_REPORT_FIXED.size + _BIN_REPORT_STRLENS.size
                          + 2 * _BIN_U32.size)
        if count * min_per_report > len(payload):
            raise ProtocolError(
                f"binary batch claims {count} reports in "
                f"{len(payload)} bytes"
            )
        reports = []
        for _ in range(count):
            (task_id, start_s, end_s, lat, lon, speed_ms,
             value) = _BIN_REPORT_FIXED.unpack_from(view, offset)
            offset += _BIN_REPORT_FIXED.size
            n_net, n_kind, n_client = _BIN_REPORT_STRLENS.unpack_from(
                view, offset
            )
            offset += _BIN_REPORT_STRLENS.size
            if offset + n_net + n_kind + n_client > len(payload):
                raise ProtocolError("truncated string in binary batch")
            network = str(view[offset:offset + n_net], "utf-8")
            offset += n_net
            kind = str(view[offset:offset + n_kind], "utf-8")
            offset += n_kind
            client_id = str(view[offset:offset + n_client], "utf-8")
            offset += n_client
            (n_samples,) = _BIN_U32.unpack_from(view, offset)
            offset += _BIN_U32.size
            if n_samples * 8 > len(payload) - offset:
                raise ProtocolError("binary batch samples overrun payload")
            samples = unpack_samples(view[offset:offset + 8 * n_samples])
            offset += 8 * n_samples
            (n_extras,) = _BIN_U32.unpack_from(view, offset)
            offset += _BIN_U32.size
            if n_extras * (_BIN_U16.size + 8) > len(payload) - offset:
                raise ProtocolError("binary batch extras overrun payload")
            extras = {}
            for _k in range(n_extras):
                (n_key,) = _BIN_U16.unpack_from(view, offset)
                offset += _BIN_U16.size
                key = str(view[offset:offset + n_key], "utf-8")
                if len(key.encode("utf-8")) != n_key:
                    raise ProtocolError(
                        "truncated extras key in binary batch"
                    )
                offset += n_key
                (extras[key],) = _BIN_DOUBLE.unpack_from(view, offset)
                offset += _BIN_DOUBLE.size
            reports.append({
                "task_id": task_id,
                "client_id": client_id,
                "network": network,
                "kind": kind,
                "start_s": start_s,
                "end_s": end_s,
                "lat": lat,
                "lon": lon,
                "speed_ms": speed_ms,
                "value": value,
                "samples": samples,
                "extras": extras,
            })
        if offset != len(payload):
            raise ProtocolError(
                f"binary batch has {len(payload) - offset} trailing byte(s)"
            )
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed binary batch: {exc}") from None
    return {"type": "REPORT_BATCH", "seq_lo": seq_lo, "reports": reports}


# -- dataclass codecs --------------------------------------------------------


def task_to_wire(task: MeasurementTask) -> Dict[str, Any]:
    """``MeasurementTask`` -> JSON-ready dict (exact float round-trip)."""
    return {
        "task_id": task.task_id,
        "network": task.network.value,
        "kind": task.kind.value,
        "zone_id": list(task.zone_id) if task.zone_id is not None else None,
        "issued_at_s": task.issued_at_s,
        "deadline_s": task.deadline_s,
        "params": dict(task.params),
    }


def task_from_wire(data: Dict[str, Any]) -> MeasurementTask:
    """Wire dict -> ``MeasurementTask`` (:class:`ProtocolError` if malformed)."""
    try:
        zone = data.get("zone_id")
        return MeasurementTask(
            task_id=int(data["task_id"]),
            network=NetworkId(data["network"]),
            kind=MeasurementType(data["kind"]),
            zone_id=(int(zone[0]), int(zone[1])) if zone is not None else None,
            issued_at_s=float(data.get("issued_at_s", 0.0)),
            deadline_s=(
                float(data["deadline_s"])
                if data.get("deadline_s") is not None else None
            ),
            params={str(k): float(v)
                    for k, v in (data.get("params") or {}).items()},
        )
    except (KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise ProtocolError(f"malformed TASK payload: {exc}") from None


def report_to_wire(report: MeasurementReport) -> Dict[str, Any]:
    """``MeasurementReport`` -> JSON-ready dict (exact float round-trip)."""
    return {
        "task_id": report.task_id,
        "client_id": report.client_id,
        "network": report.network.value,
        "kind": report.kind.value,
        "start_s": report.start_s,
        "end_s": report.end_s,
        "lat": report.point.lat,
        "lon": report.point.lon,
        "speed_ms": report.speed_ms,
        "value": report.value,
        "samples": list(report.samples),
        "extras": dict(report.extras),
    }


def _wire_samples(samples: Any) -> array:
    """A wire sample list as the report's ``array("d")``.

    Built in C straight from the decoded list; anything the array
    refuses with ``TypeError`` (numeric strings, a string of digits)
    goes through ``float()`` per element, so exactly the inputs the
    per-element conversion accepts are accepted.
    """
    try:
        return array("d", samples)
    except TypeError:
        return array("d", [float(s) for s in samples])


def report_from_wire(data: Dict[str, Any]) -> MeasurementReport:
    """Wire dict -> ``MeasurementReport`` (:class:`ProtocolError` if malformed).

    A number too large for a double (a 400-digit integer is valid JSON)
    is malformed too, not an ``OverflowError`` that ends the session.
    So is a ``task_id`` outside int64: the store keeps it in an SQLite
    INTEGER, so such a report could be ACKed and logged but never
    imported.
    """
    try:
        task_id = int(data["task_id"])
        if not _INT64_MIN <= task_id <= _INT64_MAX:
            raise ValueError(f"task_id {task_id} is outside int64")
        return MeasurementReport(
            task_id=task_id,
            client_id=str(data["client_id"]),
            network=NetworkId(data["network"]),
            kind=MeasurementType(data["kind"]),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            point=GeoPoint(float(data["lat"]), float(data["lon"])),
            speed_ms=float(data["speed_ms"]),
            value=float(data["value"]),
            samples=_wire_samples(data.get("samples") or ()),
            extras={str(k): float(v)
                    for k, v in (data.get("extras") or {}).items()},
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed REPORT payload: {exc}") from None
