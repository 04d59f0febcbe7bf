"""Span tracing of ``repro`` from outside, by wrapping public functions.

Each wrapper patches a name where its callers look it up (``report_from_wire``
and ``encode_frame`` are imported by name into ``repro.serve.server``, so they
are patched there) and records one span per call: name, start, end, parent
span and root span.  Only synchronous functions are wrapped, so a plain stack
gives exact nesting, and a span's self time is its duration minus the
durations of its direct children.  Async calls (``ServeSession.open``) are
timed at the benchmark's own call site with :meth:`Tracer.record`, as
standalone spans, because their wall time includes idle socket waits and two
sessions interleave on one event loop.

Per-name totals are always kept; individual spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: (metric name, module, attribute path) of every wrapped function.  The
#: metric name is ``<layer>.<function>``; the per-layer metrics are that
#: name plus ``.calls`` and ``.self_ms``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.wire.decode_payload", "repro.serve.wire", "decode_payload"),
    ("serve.wire.report_from_wire", "repro.serve.server", "report_from_wire"),
    ("serve.wire.encode_frame", "repro.serve.server", "encode_frame"),
    ("serve.wal.append_many", "repro.serve.wal", "WriteAheadLog.append_many"),
    ("serve.wal.encode_record", "repro.serve.wal",
     "WriteAheadLog.encode_record"),
    ("serve.wal.sync", "repro.serve.wal", "WriteAheadLog.sync"),
    ("core.controller.ingest", "repro.core.controller",
     "MeasurementCoordinator.ingest"),
    ("core.validation.validate", "repro.core.validation",
     "ReportValidator.validate"),
    ("core.records.add_samples", "repro.core.records",
     "ZoneRecord.add_samples"),
    ("core.controller.tick", "repro.core.controller",
     "MeasurementCoordinator.tick"),
    ("core.sampling.plan", "repro.core.sampling", "SampleBudgetPlanner.plan"),
    ("core.records.maybe_close_epoch", "repro.core.records",
     "ZoneRecord.maybe_close_epoch"),
    ("geo.zones.zone_id_for", "repro.geo.zones", "ZoneGrid.zone_id_for"),
    ("obs.slo.note_samples", "repro.obs.slo", "SloTracker.note_samples"),
    ("obs.snapshots.capture", "repro.obs.snapshots",
     "SnapshotStreamer.capture"),
    ("obs.telemetry.write_artifacts", "repro.obs.telemetry",
     "Telemetry.write_artifacts"),
    ("obs.report.load_artifacts", "repro.obs.report", "load_artifacts"),
    ("obs.report.build_summary", "repro.obs.report", "build_summary"),
    ("stats.nkld.nkld_from_samples", "repro.core.sampling",
     "nkld_from_samples"),
    ("clients.agent.execute", "repro.clients.agent", "ClientAgent.execute"),
    ("network.channel.udp_train", "repro.network.channel",
     "MeasurementChannel.udp_train"),
    ("network.channel.ping_series", "repro.network.channel",
     "MeasurementChannel.ping_series"),
    ("network.channel.tcp_download", "repro.network.channel",
     "MeasurementChannel.tcp_download"),
    ("radio.network.link_state_batch", "repro.radio.network",
     "Landscape.link_state_batch"),
    ("radio.network.warm_cache", "repro.radio.network",
     "Landscape.warm_cache"),
    ("mobility.vehicles.position", "repro.mobility.vehicles",
     "TransitBus.position"),
    ("sim.engine.run", "repro.sim.engine", "EventEngine.run"),
    ("store.writers.ingest_reports", "repro.store.writers", "ingest_reports"),
    ("store.queries.coverage", "repro.store.queries", "coverage"),
    ("store.queries.slo_attainment", "repro.store.queries", "slo_attainment"),
    ("store.queries.replay_snapshot", "repro.store.queries",
     "replay_snapshot"),
)

#: Wrapped in the load generator's process (the ingest workloads' client).
CLIENT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.loadgen.synthetic_report", "repro.serve.loadgen",
     "synthetic_report"),
)

#: Async calls timed at the benchmark's call site, not wrapped.
CALL_SITE_SPANS: Tuple[str, ...] = ("serve.driver.open",)

SPAN_CAP = 20000


def span_names() -> List[str]:
    """Every span name a per-layer table can hold."""
    return ([name for name, _, _ in TARGETS + CLIENT_TARGETS]
            + list(CALL_SITE_SPANS))


def patch(module: str, path: str,
          make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module.path`` by ``make(original)``; return the undo.

    ``path`` is ``func`` or ``Class.method``.  A staticmethod stays a
    staticmethod, so calls through an instance keep working.
    """
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    if isinstance(raw, staticmethod):
        new = staticmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, attr, new)
    return lambda: setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder with exact self time for nested sync calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        #: (span_id, name, start, end, parent_id, root_id); parent 0 = none.
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span per call under ``name``."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            # frame: [span_id, start, covered-by-children seconds, root_id]
            frame = [span_id, clock(), 0.0,
                     parent[3] if parent else span_id]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                self._close(name, span_id, frame[1], end,
                            duration - frame[2],
                            parent[0] if parent else 0, frame[3])

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A standalone span timed by the caller (no parent, no children)."""
        span_id = next(self._ids)
        self._close(name, span_id, start, end, end - start, 0, span_id)

    def _close(self, name, span_id, start, end, self_s, parent_id, root_id):
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent_id,
                               root_id))
        else:
            self.spans_dropped += 1

    def install(self, targets: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every ``(name, module, path)`` target."""
        for name, module, path in targets:
            self._undo.append(
                patch(module, path, lambda f, n=name: self.wrap(n, f))
            )

    def uninstall(self) -> None:
        """Restore every function :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_ms`` and ``self_ms``."""
        return {
            name: {"calls": int(calls), "total_ms": total * 1e3,
                   "self_ms": self_s * 1e3}
            for name, (calls, total, self_s) in sorted(self.totals.items())
        }

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent_id, root_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent_id, "root": root_id,
                }) + "\n")
