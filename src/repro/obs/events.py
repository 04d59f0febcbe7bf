"""Structured run-event log (the JSONL side of telemetry).

Every operationally meaningful state change in a run — an epoch closing,
a change alert firing, a task being refused, a cache being warmed — is
appended here as one flat JSON object.  The log is the replayable,
diffable account of *why* a run behaved the way it did, and the
substrate ``repro obs report`` summarizes.

Schema (stable, versioned):

* ``v``    — schema version (currently 1);
* ``seq``  — monotonically increasing sequence number within the run
  (ties in sim time keep their emission order);
* ``t``    — simulation time in seconds (**never** wall-clock: records
  must be byte-identical across identical seeded runs);
* ``kind`` — dotted event name (``epoch.close``, ``task.issue``, ...);
* remaining keys — event-specific fields, JSON scalars only.

Serialization uses ``sort_keys`` and a compact separator so the bytes
of ``events.jsonl`` are a pure function of the recorded tuples.  One
serialiser, :func:`_event_line`, renders every line, whether the log
keeps its events in memory or streams them to a file as they happen.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from collections import deque
from typing import (BinaryIO, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

__all__ = ["SCHEMA_VERSION", "DEFAULT_CAPACITY", "EventLog", "NullEventLog",
           "NULL_EVENT_LOG", "TolerantJsonl", "read_events",
           "read_jsonl_tolerant"]

SCHEMA_VERSION = 1

#: Default bound on events an in-memory log retains.  An unbounded log
#: would grow without limit, so the default keeps a generous window and
#: counts what it sheds (``dropped``, surfaced as the
#: ``obs.events_dropped`` counter and flagged by ``repro obs report``).
#: Pass ``capacity=None`` for an unbounded log.  A log that streams to a
#: file retains nothing, so the bound does not apply to it.
DEFAULT_CAPACITY = 200_000

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _event_line(record: dict) -> str:
    """The canonical serialiser: one sorted-key compact line per event."""
    return _ENCODER.encode(record) + "\n"


class EventLog:
    """Ordered structured events, kept in memory or streamed to a file.

    By default the log keeps the newest ``capacity`` events in a deque
    and counts the ones it sheds in :attr:`dropped`.  Given ``path``,
    it writes each event to that file as it is emitted, in one
    ``write()`` call, and keeps nothing: ``len()`` is 0, :meth:`events`
    is empty and nothing is ever dropped.  The file is exactly what an
    in-memory log given the same emits writes with :meth:`write_jsonl`.
    Call :meth:`flush` to make the events so far visible to a reader of
    the file, and :meth:`close` (or :meth:`write_jsonl`) when done.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY,
                 path=None):
        """``capacity`` bounds retained events (oldest dropped), None = unbounded.

        ``path`` streams the events to that file instead (truncating it).
        """
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: "deque[dict]" = deque(maxlen=capacity)
        self._seq = 0
        self.capacity = capacity
        #: The file the log streams to (None for an in-memory log).
        self.path = path
        self._fh = None if path is None else open(path, "w", encoding="utf-8")

    @property
    def dropped(self) -> int:
        """Events shed because of the capacity bound (0 when streamed)."""
        if self._fh is not None:
            return 0
        return self._seq - len(self._events)

    def emit(self, kind: str, t: float, **fields) -> None:
        """Record one event at sim time ``t`` with flat JSON fields."""
        record = {"v": SCHEMA_VERSION, "seq": self._seq, "t": float(t),
                  "kind": kind}
        self._seq += 1
        for k, v in fields.items():
            record[k] = v
        if self._fh is None:
            self._events.append(record)
        else:
            self._fh.write(_event_line(record))

    def flush(self) -> None:
        """Push streamed events to the file (no-op in memory)."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the stream (idempotent; no-op in memory)."""
        if self._fh is not None:
            self._fh.close()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """All events, optionally filtered by exact ``kind``."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self._events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return out

    def _lines(self) -> Iterator[str]:
        """The retained events, one :func:`_event_line` each."""
        return map(_event_line, self._events)

    def to_jsonl(self) -> str:
        """Canonical JSONL rendering of the retained events."""
        return "".join(self._lines())

    def write_jsonl(self, path) -> None:
        """Write the log's JSONL bytes to ``path``.

        In memory: :meth:`to_jsonl`'s bytes, one line at a time.  A
        streamed log closes its stream, then copies its file to
        ``path`` unless that is the file it streamed to.
        """
        if self._fh is not None:
            self.close()
            if not (os.path.exists(path) and os.path.samefile(path, self.path)):
                shutil.copyfile(self.path, path)
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._lines())


class NullEventLog:
    """Event log twin that records nothing."""

    capacity = None
    dropped = 0

    def emit(self, kind: str, t: float, **fields) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[dict]:
        return iter(())

    def events(self, kind: Optional[str] = None) -> List[dict]:
        return []

    def counts_by_kind(self) -> Dict[str, int]:
        return {}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> None:
        pass


NULL_EVENT_LOG = NullEventLog()


def read_events(source: Union[str, "io.TextIOBase", Iterable[str]]) -> List[dict]:
    """Parse an events.jsonl file (path, file object, or line iterable).

    Strict: a bad line raises.  Lines are parsed as they are read.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_events(fh)
    return [json.loads(line) for line in map(str.strip, source) if line]


class TolerantJsonl:
    """Tolerant JSONL reader: a binary file's JSON objects, line by line.

    A live run killed mid-write — or a *concurrent* writer caught
    between flushes — leaves a truncated trailing line in
    ``events.jsonl``/``snapshots.jsonl``, possibly cut inside a
    multi-byte UTF-8 sequence.  Report/watch tooling must degrade with
    a warning, never traceback, so each line is decoded on its own:
    blank lines are skipped, and a line that is not UTF-8, not JSON or
    not a JSON object is counted in :attr:`n_bad` instead of yielded.
    A torn line is simply re-read complete on the next poll.  Only one
    line is held at a time, so a caller that folds the records keeps
    memory independent of the file size.
    """

    def __init__(self, fh: BinaryIO):
        """Read from ``fh``, a file opened in binary mode."""
        self._fh = fh
        #: Bad lines seen by the last iteration.
        self.n_bad = 0

    def __iter__(self) -> Iterator[dict]:
        self.n_bad = 0
        for raw in self._fh:
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                self.n_bad += 1
                continue
            if isinstance(record, dict):
                yield record
            else:
                self.n_bad += 1


def read_jsonl_tolerant(path) -> Tuple[List[dict], int]:
    """Parse a JSONL file, skipping bad lines instead of raising.

    The list form of :class:`TolerantJsonl`: returns
    ``(records, n_bad_lines)``.
    """
    with open(path, "rb") as fh:
        reader = TolerantJsonl(fh)
        records = list(reader)
    return records, reader.n_bad
