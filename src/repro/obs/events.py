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
of ``events.jsonl`` are a pure function of the recorded tuples.
"""

from __future__ import annotations

import io
import json
from collections import deque
from typing import (BinaryIO, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

__all__ = ["SCHEMA_VERSION", "DEFAULT_CAPACITY", "EventLog", "NullEventLog",
           "NULL_EVENT_LOG", "TolerantJsonl", "read_events",
           "read_jsonl_tolerant"]

SCHEMA_VERSION = 1

#: Default bound on retained events.  Live runs with snapshots enabled
#: can emit events for hours; an unbounded log would grow without limit,
#: so the default keeps a generous in-memory window and counts what it
#: sheds (``dropped``, surfaced as the ``obs.events_dropped`` counter
#: and flagged by ``repro obs report``).  Pass ``capacity=None`` for the
#: old unbounded behavior.
DEFAULT_CAPACITY = 200_000


class EventLog:
    """In-memory ordered, bounded deque of structured events."""

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY):
        """``capacity`` bounds retained events (oldest dropped), None = unbounded."""
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: "deque[dict]" = deque(maxlen=capacity)
        self._seq = 0
        self.capacity = capacity

    @property
    def dropped(self) -> int:
        """Events shed because of the capacity bound."""
        return self._seq - len(self._events)

    def emit(self, kind: str, t: float, **fields) -> None:
        """Append one event at sim time ``t`` with flat JSON fields."""
        record = {"v": SCHEMA_VERSION, "seq": self._seq, "t": float(t),
                  "kind": kind}
        self._seq += 1
        for k, v in fields.items():
            record[k] = v
        self._events.append(record)

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
        """The canonical serialiser: one sorted-key compact line per event."""
        for e in self._events:
            yield json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"

    def to_jsonl(self) -> str:
        """Canonical JSONL rendering: one sorted-key compact line each."""
        return "".join(self._lines())

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl`'s bytes to ``path`` one line at a time."""
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
