"""Write-ahead log for the coordinator service's ingest path.

Every report the server admits past backpressure is appended here
*before* it touches the coordinator, so a crashed server can rebuild the
exact coordinator state by replaying the log into a fresh
:class:`~repro.core.controller.MeasurementCoordinator` (rejected reports
are logged too — replay re-runs the same validator deterministically, so
the rejection counters survive a restart byte-for-byte).

Layout and record format
------------------------

A WAL directory holds numbered append-only segments plus a small
metadata file::

    WAL_DIR/
      wal_meta.json        how to rebuild the coordinator (seed, grid, ...)
      wal-00000001.log     records 0..k
      wal-00000002.log     records k+1.. (rotated at segment_max_bytes)

Each record is one line::

    <crc32 hex, 8 chars> <compact sorted-key JSON>\n

The CRC covers the JSON bytes.  Appends go through a buffered file
handle that is ``flush()``-ed to the OS before the append (or batch
of appends — see below) returns, so a killed *process* loses nothing
already acknowledged, and ``fsync()``-ed under the **group-commit
policy** — every ``fsync_every`` records *or* every
``fsync_interval_s`` seconds of pending appends, whichever trips
first, plus at rotation/close (bounding what a killed *machine* can
lose).  :meth:`WriteAheadLog.append_many` stages a whole batch with a
single buffered write and a single flush, which is what the server's
ingest writer leans on: one group commit per queue drain instead of
one flush per report.  Replay walks segments in order and verifies
every CRC; a torn or truncated record is only legal as the final
record of the final segment — exactly what a mid-write crash produces
(a torn batched write persists a prefix of complete records plus at
most one partial line, which is the same shape) — and recovery stops
there.  Corruption anywhere else raises :class:`WalCorruptionError`
loudly instead of silently dropping data.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from repro.clients.protocol import MeasurementReport

__all__ = [
    "WAL_META_FILENAME",
    "SEGMENT_PREFIX",
    "WalCorruptionError",
    "WriteAheadLog",
    "iter_wal_records",
    "iter_wal_reports",
    "read_wal",
    "wal_segments",
]

WAL_META_FILENAME = "wal_meta.json"
SEGMENT_PREFIX = "wal-"
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Default segment rotation threshold (bytes of records per segment).
DEFAULT_SEGMENT_MAX_BYTES = 8 * 1024 * 1024

#: Default fsync batch: one fsync per this many appended records.
DEFAULT_FSYNC_EVERY = 64

#: Default fsync time window (seconds): pending appends older than this
#: are fsynced even when the count threshold has not tripped.  0
#: disables the time axis (count-only policy — the PR-5 behavior).
DEFAULT_FSYNC_INTERVAL_S = 0.0


class WalCorruptionError(Exception):
    """A CRC/parse failure anywhere a crash could not have produced it."""


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}.log"


def wal_segments(wal_dir: str) -> List[str]:
    """Sorted absolute paths of the directory's WAL segments."""
    try:
        names = os.listdir(wal_dir)
    except OSError:
        return []
    out = [n for n in names if _SEGMENT_RE.match(n)]
    return [os.path.join(wal_dir, n) for n in sorted(out)]


class WriteAheadLog:
    """Append-only, CRC-checked, segment-rotated durable report log."""

    def __init__(
        self,
        wal_dir: str,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        fsync_interval_s: float = DEFAULT_FSYNC_INTERVAL_S,
    ):
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be >= 1")
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if fsync_interval_s < 0:
            raise ValueError("fsync_interval_s must be >= 0")
        self.wal_dir = wal_dir
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync_every = int(fsync_every)
        self.fsync_interval_s = float(fsync_interval_s)
        os.makedirs(wal_dir, exist_ok=True)
        existing = wal_segments(wal_dir)
        if existing:
            #: A previous crash may have torn the last segment's tail.
            #: Truncate it back to its last valid record so every closed
            #: segment is clean — appends then continue in a fresh
            #: segment and replay never meets a torn non-final segment.
            _repair_tail(existing[-1])
            last = os.path.basename(existing[-1])
            self._segment_index = int(_SEGMENT_RE.match(last).group(1)) + 1
            self.records_logged = sum(
                1 for _ in iter_wal_records(wal_dir)
            )
        else:
            self._segment_index = 1
            self.records_logged = 0
        self.segments_rotated = 0
        self.fsyncs = 0
        self.group_commits = 0
        self._since_fsync = 0
        self._oldest_pending_t: Optional[float] = None
        self._fh = None
        self._fh_bytes = 0

    # -- writing ---------------------------------------------------------

    def _open_segment(self) -> None:
        path = os.path.join(self.wal_dir, _segment_name(self._segment_index))
        self._fh = open(path, "ab")
        self._fh_bytes = self._fh.tell()

    @staticmethod
    def encode_record(record: Dict[str, Any]) -> bytes:
        """One record dict -> its CRC-prefixed WAL line (with newline)."""
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return (b"%08x " % (zlib.crc32(payload) & 0xFFFFFFFF,)
                + payload + b"\n")

    def append(self, record: Dict[str, Any]) -> int:
        """Durably stage one record; returns its log sequence number.

        The record is written and flushed to the OS before returning
        (process-crash safe); fsync happens under the group-commit
        policy — every ``fsync_every`` appends or ``fsync_interval_s``
        seconds, whichever trips first (machine-crash window is
        bounded, not zero).
        """
        return self.append_many((record,))[0]

    def append_many(self, records: Sequence[Dict[str, Any]]) -> List[int]:
        """Group-commit a batch of records with ONE write and ONE flush.

        Returns the log sequence number of every record, in order.  The
        whole batch is flushed to the OS before returning — an ACK sent
        after this call is process-crash safe for every record in it —
        and the fsync policy is evaluated once for the batch, so a
        thousand-report drain costs one flush and at most one fsync
        instead of a thousand.
        """
        if not records:
            return []
        if self._fh is None:
            self._open_segment()
        encode = self.encode_record
        blob = b"".join(encode(r) for r in records)
        self._fh.write(blob)
        self._fh.flush()
        seq_lo = self.records_logged
        self.records_logged += len(records)
        self._fh_bytes += len(blob)
        if self._since_fsync == 0:
            self._oldest_pending_t = time.monotonic()
        self._since_fsync += len(records)
        self.group_commits += 1
        self.maybe_sync()
        if self._fh_bytes >= self.segment_max_bytes:
            self._rotate()
        return list(range(seq_lo, seq_lo + len(records)))

    def maybe_sync(self) -> None:
        """fsync if the group-commit policy says the window is over.

        The count axis (``fsync_every``) and the time axis
        (``fsync_interval_s``, when non-zero) are ORed: whichever
        trips first forces the fsync.
        """
        if self._since_fsync >= self.fsync_every:
            self.sync()
        elif (
            self.fsync_interval_s > 0
            and self._since_fsync > 0
            and self._oldest_pending_t is not None
            and time.monotonic() - self._oldest_pending_t
            >= self.fsync_interval_s
        ):
            self.sync()

    def sync(self) -> None:
        """fsync the active segment (no-op when nothing is pending)."""
        if self._fh is None or self._since_fsync == 0:
            return
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._since_fsync = 0
        self._oldest_pending_t = None

    @property
    def commit_policy(self) -> Dict[str, Any]:
        """The group-commit knobs, JSON-ready (recorded in wal_meta)."""
        return {
            "fsync_every": self.fsync_every,
            "fsync_interval_s": self.fsync_interval_s,
            "segment_max_bytes": self.segment_max_bytes,
        }

    def _rotate(self) -> None:
        self.sync()
        self._fh.close()
        self._fh = None
        self._segment_index += 1
        self.segments_rotated += 1

    def close(self) -> None:
        """fsync and close the active segment (idempotent)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- metadata --------------------------------------------------------

    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Persist ``wal_meta.json`` (how to rebuild the coordinator)."""
        path = os.path.join(self.wal_dir, WAL_META_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def read_meta(wal_dir: str) -> Optional[Dict[str, Any]]:
        """Load ``wal_meta.json`` from a WAL directory (None if absent)."""
        path = os.path.join(wal_dir, WAL_META_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError:
            return None


def _repair_tail(segment_path: str) -> None:
    """Truncate a segment to its last valid record (crash-tail repair)."""
    with open(segment_path, "rb") as fh:
        data = fh.read()
    good_end = 0
    for line in data.split(b"\n")[:-1]:
        if _parse_line(line) is None:
            break
        good_end += len(line) + 1
    if good_end < len(data):
        with open(segment_path, "ab") as fh:
            fh.truncate(good_end)


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One WAL line -> record dict, or None when torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def iter_wal_records(wal_dir: str) -> Iterator[Dict[str, Any]]:
    """Yield every record across segments, in append order.

    Tolerates exactly the damage a crash can cause: a torn or truncated
    *final* record of the *final* segment (replay stops there).  A bad
    record anywhere else — mid-segment, or in a non-final segment —
    raises :class:`WalCorruptionError`.
    """
    segments = wal_segments(wal_dir)
    for seg_i, path in enumerate(segments):
        last_segment = seg_i == len(segments) - 1
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        #: A well-formed file ends with a newline, leaving one empty
        #: trailing chunk; anything else is a torn tail.
        torn_tail = lines and lines[-1] != b""
        body = lines[:-1]
        for line_i, line in enumerate(body):
            record = _parse_line(line)
            if record is None:
                if last_segment and line_i == len(body) - 1 and not torn_tail:
                    #: Final complete line of the final segment failed
                    #: its CRC: a torn write that still got its newline.
                    return
                raise WalCorruptionError(
                    f"{os.path.basename(path)}: bad record at line "
                    f"{line_i + 1}"
                )
            yield record
        if torn_tail:
            if last_segment:
                return
            raise WalCorruptionError(
                f"{os.path.basename(path)}: torn record in a non-final "
                "segment"
            )


def iter_wal_reports(wal_dir: str) -> Iterator[MeasurementReport]:
    """Yield every record parsed into a ``MeasurementReport``, in order.

    A record :func:`repro.serve.wire.report_from_wire` refuses (say a
    ``task_id`` outside int64, logged by older code) raises
    :class:`WalCorruptionError` naming its WAL seq: no replay or import
    can get past it, and the CLI prints it as one line.
    """
    from repro.serve.wire import ProtocolError, report_from_wire

    for seq, record in enumerate(iter_wal_records(wal_dir)):
        try:
            yield report_from_wire(record)
        except ProtocolError as exc:
            raise WalCorruptionError(
                f"record at WAL seq {seq}: {exc}"
            ) from None


def read_wal(wal_dir: str) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """All records plus the metadata dict for a WAL directory."""
    return list(iter_wal_records(wal_dir)), WriteAheadLog.read_meta(wal_dir)
