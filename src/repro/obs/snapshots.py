"""Streaming metric snapshots: the push-based path through telemetry.

Everything in ``repro.obs`` so far is pull-at-the-end: the run mutates a
:class:`~repro.obs.metrics.MetricsRegistry` and artifacts are written
once when it finishes.  A production coordinator needs to be observed
*while running*, so :class:`SnapshotStreamer` periodically serializes
the current registry state — stamped with **simulation** time only — to
an append-only ``snapshots.jsonl`` and to in-process subscribers (the
alert engine, Prometheus exposition, live dashboards).

Determinism contract: a snapshot is a pure function of (metrics state,
sim time, sequence number).  No wall-clock, no span data.  Two identical
seeded runs with the same cadence therefore produce byte-identical
``snapshots.jsonl`` files; ``tests/obs/test_determinism.py`` diffs them.

Each line is one compact sorted-key JSON object::

    {"v": 1, "seq": 3, "t": 23400.0,
     "counters": {...}, "gauges": {...}, "histograms": {...}}

Wiring into a run::

    streamer = SnapshotStreamer(telemetry, interval_s=300.0,
                                out_path=out_dir / "snapshots.jsonl")
    streamer.subscribe(alert_engine.evaluate)
    coordinator.attach(engine, until=until)
    streamer.attach(engine, until=until)  # snapshots observe post-tick state
    engine.run(until=until)
    streamer.close()
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional

from repro.obs.events import read_events, read_jsonl_tolerant
from repro.obs.telemetry import Telemetry

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SNAPSHOTS_FILENAME",
    "SnapshotStreamer",
    "read_snapshots",
]

SNAPSHOT_SCHEMA_VERSION = 1
SNAPSHOTS_FILENAME = "snapshots.jsonl"


class SnapshotStreamer:
    """Periodic, deterministic serializer of the metrics registry.

    * **Providers** run just before a snapshot is captured and refresh
      gauges that are otherwise only published at run end (the event
      engine's loop stats, the landscape's cache gauges).  They receive
      the snapshot's sim time.
    * **Subscribers** receive the completed snapshot dict; this is the
      in-process fan-out the alert engine and exposition writers hang
      off.  Subscribers run in registration order and must not mutate
      the snapshot.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        interval_s: float,
        out_path=None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.telemetry = telemetry
        self.interval_s = float(interval_s)
        self.out_path = out_path
        self._providers: List[Callable[[float], None]] = []
        self._subscribers: List[Callable[[dict], None]] = []
        self._seq = 0
        self._last_t: Optional[float] = None
        if out_path is not None:
            # The run's telemetry dir usually doesn't exist yet — the
            # final write_artifacts() creates it, but streaming starts
            # at t=0.
            parent = os.path.dirname(os.fspath(out_path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(out_path, "w", encoding="utf-8")
        else:
            self._fh = None

    # -- wiring ----------------------------------------------------------

    def add_provider(self, fn: Callable[[float], None]) -> None:
        """Register a pre-capture gauge refresher (called with sim time)."""
        self._providers.append(fn)

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        """Register a consumer of each completed snapshot."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        """Remove a subscriber (no-op if it was never registered)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    # -- capture ---------------------------------------------------------

    @property
    def snapshots_taken(self) -> int:
        """How many snapshots have been captured so far."""
        return self._seq

    def capture(self, t: float) -> Optional[dict]:
        """Take one snapshot at sim time ``t`` (no-op if ``t`` not new).

        The monotone-``t`` guard makes the end-of-run flush idempotent:
        when the run length is an exact multiple of the cadence, the
        final periodic snapshot and the engine's run hook land on the
        same sim time and only the first is recorded.
        """
        if self._last_t is not None and t <= self._last_t:
            return None
        for provider in self._providers:
            provider(t)
        # Dropped-event accounting must be visible *during* the run, not
        # just in the final artifacts.
        counter = self.telemetry.metrics.counter("obs.events_dropped")
        delta = self.telemetry.events.dropped - counter.value
        if delta > 0:
            counter.inc(delta)
        snap = {
            "v": SNAPSHOT_SCHEMA_VERSION,
            "seq": self._seq,
            "t": float(t),
        }
        snap.update(self.telemetry.metrics.snapshot())
        self._seq += 1
        self._last_t = float(t)
        if self._fh is not None:
            self._fh.write(
                json.dumps(snap, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._fh.flush()
        for subscriber in self._subscribers:
            subscriber(snap)
        # A streamed event log reaches its file here, so a live reader
        # sees this snapshot's events (an alert it fired) with it.
        self.telemetry.events.flush()
        return snap

    def attach(self, engine, until: Optional[float] = None) -> None:
        """Drive capture from a sim engine every ``interval_s`` seconds.

        The periodic timer only *arms* the capture: the armed handler
        re-schedules the real capture at the same sim time, which the
        engine's insertion-order tie-break places after every handler
        already queued at that time (in particular the coordinator tick
        that shares the boundary) — so snapshots always observe
        post-tick state, whatever the attach order or cadence.  A run
        hook flushes the final partial interval when the run ends
        off-cadence.
        """

        def arm() -> None:
            engine.schedule_at(
                engine.now, lambda: self.capture(engine.now),
                name="obs-snapshot",
            )

        engine.schedule_every(
            self.interval_s, arm, name="obs-snapshot-arm", until=until
        )
        engine.add_run_hook(lambda: self.capture(engine.now))

    def close(self) -> None:
        """Flush and close the snapshot file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SnapshotStreamer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_snapshots(path, tolerant: bool = True):
    """Read a ``snapshots.jsonl`` file.

    Returns ``(snapshots, n_bad_lines)``.  With ``tolerant`` (default),
    truncated or garbage lines are skipped and counted; otherwise any
    bad line raises ``json.JSONDecodeError``.
    """
    if tolerant:
        return read_jsonl_tolerant(path)
    with open(path, "r", encoding="utf-8") as fh:
        return read_events(fh), 0
