"""Prometheus-style text exposition of metric snapshots.

Renders a registry snapshot (or one line of ``snapshots.jsonl``) in the
Prometheus text format 0.0.4 so standard scrape tooling can consume a
live run.  Two transports, both **off by default** so golden outputs
and the determinism tests never see them:

* :class:`PromFileWriter` — a snapshot subscriber that rewrites a
  ``metrics.prom`` file on every snapshot (node-exporter "textfile
  collector" style);
* :class:`MetricsHTTPServer` — an opt-in stdlib ``http.server`` endpoint
  serving ``GET /metrics`` from the latest snapshot on a daemon thread
  (``repro monitor --serve-metrics PORT``).  ``http.server`` (which
  pulls in ``email``, ``http.client`` and ``ssl``) is imported only
  when one is built, so a run that writes ``metrics.prom`` alone does
  not load it.

No timestamps are emitted: sample values are pure functions of the
snapshot, so the rendered text is deterministic too.
"""

from __future__ import annotations

import functools
import re
import threading
from typing import Optional

__all__ = [
    "PROM_FILENAME",
    "render_prometheus",
    "PromFileWriter",
    "MetricsHTTPServer",
]

PROM_FILENAME = "metrics.prom"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Metric name -> Prometheus-legal name (dots become underscores)."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def render_prometheus(snapshot: dict, prefix: str = "repro_") -> str:
    """Render a metrics snapshot dict as Prometheus exposition text.

    ``snapshot`` is anything with ``counters``/``gauges``/``histograms``
    keys — a ``MetricsRegistry.snapshot()``, a ``metrics.json`` load, or
    a ``snapshots.jsonl`` line (extra keys are ignored).
    """
    lines = []
    for name in sorted(snapshot.get("counters", {})):
        pname = prefix + _prom_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        pname = prefix + _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        snap = snapshot["histograms"][name]
        pname = prefix + _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(snap.get("buckets", []), snap.get("counts", [])):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}'
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {snap.get("count", 0)}')
        lines.append(f"{pname}_sum {_fmt(snap.get('sum', 0.0))}")
        lines.append(f"{pname}_count {snap.get('count', 0)}")
    return "\n".join(lines) + "\n"


class PromFileWriter:
    """Snapshot subscriber rewriting an exposition file each snapshot."""

    def __init__(self, path):
        self.path = path

    def __call__(self, snap: dict) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(snap))


@functools.lru_cache(maxsize=None)
def _handler_class():
    """The ``/metrics`` request handler, built on first use."""
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-obs/1"

        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            body = self.server.holder.latest().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # silence per-request noise
            pass

    return _Handler


class MetricsHTTPServer:
    """Opt-in live ``/metrics`` endpoint over the latest snapshot.

    Subscribe the instance to a ``SnapshotStreamer``; call
    :meth:`start` before the run and :meth:`stop` after.  Binding to
    port 0 picks a free port (``.port`` reports the real one) — used by
    the exposition test so nothing outside it ever opens a socket.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        from http.server import ThreadingHTTPServer

        self._lock = threading.Lock()
        self._body = "# no snapshot captured yet\n"
        self._server = ThreadingHTTPServer((host, port), _handler_class())
        self._server.holder = self
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = self._server.server_address[1]

    def latest(self) -> str:
        with self._lock:
            return self._body

    def __call__(self, snap: dict) -> None:
        text = render_prometheus(snap)
        with self._lock:
            self._body = text

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None
