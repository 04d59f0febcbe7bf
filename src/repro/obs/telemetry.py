"""The telemetry facade: one object bundling metrics + spans + events.

Instrumentation sites across the stack reach telemetry two ways:

* **Injected** — long-lived orchestrators (the coordinator) accept a
  ``telemetry=`` argument, which makes ownership explicit and lets two
  coordinators in one process keep separate registries.
* **Ambient** — hot leaf paths (the event engine, the radio batch path,
  measurement channels) call :func:`get_telemetry`, which returns the
  process-wide current telemetry.  It defaults to
  :data:`NULL_TELEMETRY`, whose every component is a shared no-op — so
  an un-configured process pays one global read + one ``enabled`` check
  per instrumentation site and produces bit-identical outputs.

``repro monitor --telemetry out/`` installs an enabled telemetry for
the duration of the run (see :func:`use_telemetry`), then writes the
three artifacts:

* ``metrics.json`` — deterministic registry snapshot;
* ``events.jsonl`` — deterministic sim-time-stamped event log;
* ``spans.json``   — host-timing aggregates (NOT deterministic).

plus ``manifest.json`` when a :class:`~repro.obs.manifest.RunManifest`
is supplied.  A telemetry built with ``out_dir=`` (the monitor CLI and
each sweep cell) streams ``events.jsonl`` into that directory as events
are emitted and keeps no event in memory; :meth:`Telemetry.write_artifacts`
then only closes the stream.  Use it as a context manager (or call
:meth:`Telemetry.close`) so the stream is closed on every exit path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro._canon import write_pretty_json
from repro.obs.events import NULL_EVENT_LOG, EventLog, NullEventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullMetricsRegistry
from repro.obs.tracing import NULL_TRACER, NullTracer, SpanTracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

METRICS_FILENAME = "metrics.json"
EVENTS_FILENAME = "events.jsonl"
SPANS_FILENAME = "spans.json"
MANIFEST_FILENAME = "manifest.json"


class Telemetry:
    """Bundle of the three telemetry sinks plus convenience shortcuts."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        events: Optional[EventLog] = None,
        enabled: bool = True,
        out_dir=None,
    ):
        """``out_dir`` streams the event log to ``out_dir/events.jsonl``.

        The directory is created if needed; ``events`` and ``out_dir``
        are exclusive.  A disabled telemetry ignores both.
        """
        if events is not None and out_dir is not None:
            raise ValueError("pass events= or out_dir=, not both")
        self.enabled = enabled
        if enabled:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.tracer = tracer if tracer is not None else SpanTracer()
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                events = EventLog(path=os.path.join(out_dir, EVENTS_FILENAME))
            self.events = events if events is not None else EventLog()
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.events = NULL_EVENT_LOG

    # -- shortcuts -------------------------------------------------------

    def span(self, name: str):
        """Open a timing span (context manager)."""
        return self.tracer.span(name)

    def emit(self, kind: str, t: float, **fields) -> None:
        """Record one structured event at sim time ``t``."""
        self.events.emit(kind, t, **fields)

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=None):
        return self.metrics.histogram(name, buckets)

    # -- artifacts -------------------------------------------------------

    def close(self) -> None:
        """Close the event stream, if any (idempotent)."""
        self.events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def write_artifacts(
        self, out_dir, manifest: Optional[RunManifest] = None
    ) -> dict:
        """Write metrics.json / events.jsonl / spans.json (+ manifest).

        A streamed event log is closed here: ``events.jsonl`` is already
        on disk.  Returns a dict mapping artifact name -> written path;
        a null event log writes no ``events.jsonl`` and has no entry.
        """
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        # Surface capacity drops in the artifacts: readers of
        # metrics.json must be able to tell a complete events.jsonl
        # from a truncated one without the live EventLog at hand.
        if self.enabled and self.events.dropped:
            counter = self.metrics.counter("obs.events_dropped")
            delta = self.events.dropped - counter.value
            if delta > 0:
                counter.inc(delta)

        metrics_path = os.path.join(out_dir, METRICS_FILENAME)
        write_pretty_json(metrics_path, self.metrics.snapshot())
        paths["metrics"] = metrics_path

        if not isinstance(self.events, NullEventLog):
            events_path = os.path.join(out_dir, EVENTS_FILENAME)
            self.events.write_jsonl(events_path)
            paths["events"] = events_path

        spans_path = os.path.join(out_dir, SPANS_FILENAME)
        write_pretty_json(spans_path, self.tracer.snapshot())
        paths["spans"] = spans_path

        if manifest is not None:
            manifest_path = os.path.join(out_dir, MANIFEST_FILENAME)
            manifest.write(manifest_path)
            paths["manifest"] = manifest_path
        return paths


#: The process-default telemetry: fully disabled, all components no-op.
NULL_TELEMETRY = Telemetry(enabled=False)

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The ambient telemetry hot paths report into (no-op by default)."""
    return _current


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as the ambient sink; None restores the no-op.

    Returns the previously installed telemetry so callers can restore it.
    """
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped installation: ambient within the block, restored after."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
