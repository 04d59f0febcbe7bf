"""Render telemetry artifacts as an operator-readable text report.

``repro obs report out/`` reads the artifacts a telemetry-enabled run
wrote (``metrics.json``, ``events.jsonl``, ``spans.json``, optionally
``manifest.json`` and ``snapshots.jsonl``) and prints the run's story:
headline counters, the hottest spans, histogram percentiles, event
volume by kind, alert activity, zone-coverage SLO status, and how each
zone's sample budget and epoch duration converged across
recalibrations.  :func:`render_report` also accepts a live
:class:`~repro.obs.telemetry.Telemetry` (plus manifest) directly, which
is how ``examples/operator_dashboard.py`` embeds the same rendering
without a round-trip through files.

Both the text report and ``repro obs report --format json`` are views
over one :func:`build_summary` model, so the two formats can never
disagree about what a run did.  Loading is tolerant by design: missing
or corrupt artifact files degrade into entries in the summary's
``warnings`` list rather than tracebacks — a run you had to kill
mid-flight must still be inspectable.

Loading streams: ``events.jsonl`` and ``snapshots.jsonl`` are folded
one line at a time (:func:`fold_events`, :func:`fold_snapshots`) into
only what the report renders — the per-kind event volume, the alert and
recalibration events, the snapshot count and its first and latest
record — so a report's memory is bounded by the events it shows, not
by the size of the files.  In-memory callers (:func:`render_report`,
:func:`render_live`) go through the same folds.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.obs.events import TolerantJsonl
from repro.obs.metrics import quantile_from_snapshot
from repro.obs.snapshots import SNAPSHOTS_FILENAME
from repro.obs.telemetry import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    SPANS_FILENAME,
    Telemetry,
)

__all__ = [
    "EventDigest",
    "SnapshotDigest",
    "assemble_summary",
    "build_summary",
    "fold_events",
    "fold_snapshots",
    "load_artifacts",
    "render_diff",
    "render_live",
    "render_report",
    "render_report_from_dir",
    "render_summary",
    "render_watch",
    "summary_from_dir",
    "summary_from_path",
]

#: Percentiles rendered for every histogram.
REPORT_QUANTILES = (0.50, 0.90, 0.99)

#: Sweep-layout filenames (string literals, not imports: ``repro.sweep``
#: imports ``repro.obs``, so importing back would create a cycle).
SWEEP_MANIFEST_FILENAME = "sweep_manifest.json"
CELL_RECORD_FILENAME = "cell.json"

#: Alert transitions shown in the text report (most recent last).
MAX_ALERT_ROWS = 20

_ALERT_KINDS = ("alert.fired", "alert.resolved")
_RECALIBRATE_KIND = "calibration.recalibrate"


def _table(headers):
    """Lazily import the shared table renderer.

    ``repro.analysis`` imports core/radio modules that themselves import
    ``repro.obs`` for instrumentation; deferring the import to render
    time (a cold path) keeps the obs package import-light and cycle-free.
    """
    from repro.analysis.tables import TextTable

    return TextTable(headers)


def _read_json(path: str, label: str, warnings: List[str]) -> Optional[dict]:
    """Parse one JSON file; an unreadable one becomes a warning."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        warnings.append(f"unreadable {label}: {exc}")
        return None


def _synthesize_manifest(out_dir: str, warnings: List[str]) -> Optional[dict]:
    """Derive a manifest for directories that legitimately lack one.

    Sweep layouts never write ``manifest.json``: a sweep *root* carries
    ``sweep_manifest.json`` and a *cell* directory carries ``cell.json``
    (with the sweep manifest two levels up).  Both hold enough identity
    to render the report header; anything else gets a warning naming
    exactly which file was expected and not found.
    """
    cell_path = os.path.join(out_dir, CELL_RECORD_FILENAME)
    sweep_path = os.path.join(out_dir, SWEEP_MANIFEST_FILENAME)
    if os.path.exists(cell_path):
        cell = _read_json(cell_path, CELL_RECORD_FILENAME, warnings)
        if cell is None:
            return None
        manifest = {
            "run_kind": "sweep-cell",
            "seed": cell.get("seed"),
            "cell_id": cell.get("cell_id"),
            "scenario": cell.get("scenario"),
            "overrides": cell.get("overrides"),
            "cell_status": cell.get("status"),
        }
        parent = os.path.join(out_dir, os.pardir, os.pardir,
                              SWEEP_MANIFEST_FILENAME)
        if os.path.exists(parent):
            sweep = _read_json(parent, f"parent {SWEEP_MANIFEST_FILENAME}",
                               warnings)
            if sweep is not None:
                manifest["grid"] = (sweep.get("grid") or {}).get("name")
                manifest["grid_hash"] = sweep.get("grid_hash")
                manifest["versions"] = sweep.get("versions")
        return manifest

    if os.path.exists(sweep_path):
        sweep = _read_json(sweep_path, SWEEP_MANIFEST_FILENAME, warnings)
        if sweep is None:
            return None
        grid = sweep.get("grid") or {}
        return {
            "run_kind": "sweep",
            "seed": ",".join(str(s) for s in grid.get("seeds", [])) or "?",
            "grid": grid.get("name"),
            "grid_hash": sweep.get("grid_hash"),
            "n_cells": sweep.get("n_cells"),
            "workers": sweep.get("workers"),
            "versions": sweep.get("versions"),
        }

    warnings.append(
        f"no {MANIFEST_FILENAME} found (single runs write it via "
        f"--telemetry; sweep roots have {SWEEP_MANIFEST_FILENAME}, sweep "
        f"cells have {CELL_RECORD_FILENAME} — none of the three is here)"
    )
    return None


class EventDigest(NamedTuple):
    """What the report keeps of an event stream."""

    #: Events per kind, in first-seen order.
    volume: Dict[str, int]
    #: ``alert.fired``/``alert.resolved`` events, in log order.
    alerts: List[dict]
    #: ``calibration.recalibrate`` events, in log order.
    recalibrations: List[dict]


class SnapshotDigest(NamedTuple):
    """What the report keeps of a snapshot stream."""

    count: int
    #: ``t`` of the first snapshot (None when there is none).
    first_t: Optional[float]
    #: The last snapshot (None when there is none).
    latest: Optional[dict]


def fold_events(events: Iterable[dict]) -> EventDigest:
    """Fold events, in log order, into the report's :class:`EventDigest`.

    One pass that holds only the events the report renders, so a
    streamed ``events.jsonl`` is never materialised.
    """
    volume: Dict[str, int] = {}
    alerts: List[dict] = []
    recalibrations: List[dict] = []
    for e in events:
        kind = e.get("kind", "?")
        volume[kind] = volume.get(kind, 0) + 1
        if kind in _ALERT_KINDS:
            alerts.append(e)
        elif kind == _RECALIBRATE_KIND:
            recalibrations.append(e)
    return EventDigest(volume, alerts, recalibrations)


def fold_snapshots(snapshots: Iterable[dict]) -> SnapshotDigest:
    """Fold snapshots, in file order, into a :class:`SnapshotDigest`."""
    count = 0
    first_t = latest = None
    for latest in snapshots:
        if not count:
            first_t = latest.get("t")
        count += 1
    return SnapshotDigest(count, first_t, latest)


def load_artifacts(out_dir: str) -> dict:
    """Read whichever artifact files exist under ``out_dir``.

    Accepts three layouts: a single telemetry run (``manifest.json``),
    a sweep root (``sweep_manifest.json`` + merged artifacts) and a
    sweep cell directory (``cell.json``); for the sweep layouts the
    manifest is synthesized from the sweep/cell records.  ``events`` and
    ``snapshots`` are streamed through :func:`fold_events` and
    :func:`fold_snapshots`, so they come back as an
    :class:`EventDigest` and a :class:`SnapshotDigest`.  Never raises
    on a partial or corrupt directory: unreadable files and unparseable
    JSONL lines become entries in the returned ``warnings`` list and the
    affected artifact keeps its empty default.
    """
    artifacts: dict = {
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": {},
        "manifest": None,
        "warnings": [],
    }
    warnings: List[str] = artifacts["warnings"]

    def _json_file(filename: str) -> Optional[dict]:
        path = os.path.join(out_dir, filename)
        if not os.path.exists(path):
            return None
        return _read_json(path, filename, warnings)

    def _jsonl_file(filename: str, fold: Callable[[Iterable[dict]], tuple]):
        path = os.path.join(out_dir, filename)
        if not os.path.exists(path):
            return fold(())
        try:
            with open(path, "rb") as fh:
                reader = TolerantJsonl(fh)
                folded = fold(reader)
        except OSError as exc:
            warnings.append(f"unreadable {filename}: {exc}")
            return fold(())
        if reader.n_bad:
            warnings.append(
                f"{filename}: skipped {reader.n_bad} unparseable line(s)"
            )
        return folded

    is_sweep_root = os.path.exists(
        os.path.join(out_dir, SWEEP_MANIFEST_FILENAME)
    ) and not os.path.exists(os.path.join(out_dir, CELL_RECORD_FILENAME))

    metrics = _json_file(METRICS_FILENAME)
    if metrics is not None:
        artifacts["metrics"] = metrics
    elif not os.path.exists(os.path.join(out_dir, METRICS_FILENAME)):
        if is_sweep_root:
            warnings.append(
                f"no {METRICS_FILENAME} found (sweep not merged yet — "
                "run 'repro sweep merge' on this directory)"
            )
        else:
            warnings.append(f"no {METRICS_FILENAME} found")
    artifacts["events"] = _jsonl_file(EVENTS_FILENAME, fold_events)
    spans = _json_file(SPANS_FILENAME)
    if spans is not None:
        artifacts["spans"] = spans
    elif not os.path.exists(os.path.join(out_dir, SPANS_FILENAME)):
        if not is_sweep_root:
            warnings.append(f"no {SPANS_FILENAME} found")
        # Sweep roots have no spans by design: host timings are not
        # deterministic, so the reducer leaves them in cells/<id>/.
    if os.path.exists(os.path.join(out_dir, MANIFEST_FILENAME)):
        artifacts["manifest"] = _json_file(MANIFEST_FILENAME)
    else:
        artifacts["manifest"] = _synthesize_manifest(out_dir, warnings)
    artifacts["snapshots"] = _jsonl_file(SNAPSHOTS_FILENAME, fold_snapshots)
    return artifacts


def _histogram_quantile(snapshot: dict, q: float) -> float:
    """Fixed-bucket quantile estimate (see ``quantile_from_snapshot``)."""
    return quantile_from_snapshot(snapshot, q)


# -- the summary model ------------------------------------------------------


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    if value is None or not math.isfinite(value):
        return None
    return value


def _summarize_histogram(snap: dict) -> dict:
    """One histogram snapshot -> the summary model's count/mean/pXX entry."""
    count = snap.get("count", 0)
    entry = {
        "count": count,
        "mean": _finite_or_none(
            (snap.get("sum", 0.0) / count) if count else None
        ),
    }
    for q in REPORT_QUANTILES:
        entry[f"p{int(q * 100)}"] = _finite_or_none(
            quantile_from_snapshot(snap, q)
        )
    return entry


def _alerts_model(alert_events: List[dict], fired: int, resolved: int) -> dict:
    """Replay alert transitions into the fired/resolved/active view.

    ``alert_events`` are event payloads in log order (kinds other than
    ``alert.fired``/``alert.resolved`` are skipped); ``fired``/
    ``resolved`` are the total counts.
    """
    transitions: List[dict] = []
    firing: Dict[Tuple[str, str], dict] = {}
    for e in alert_events:
        kind = e.get("kind")
        if kind not in ("alert.fired", "alert.resolved"):
            continue
        key = (str(e.get("rule")), str(e.get("metric")))
        transitions.append(
            {
                "t": e.get("t", 0.0),
                "transition": "fired" if kind == "alert.fired" else "resolved",
                "rule": key[0],
                "metric": key[1],
                "severity": e.get("severity", "?"),
                "value": e.get("value"),
            }
        )
        if kind == "alert.fired":
            firing[key] = e
        else:
            firing.pop(key, None)
    return {
        "fired": fired,
        "resolved": resolved,
        "active": [
            {
                "rule": rule,
                "metric": metric,
                "severity": e.get("severity", "?"),
                "since_t": e.get("t", 0.0),
            }
            for (rule, metric), e in sorted(firing.items())
        ],
        "transitions": transitions,
    }


def assemble_summary(*, manifest: Optional[dict], metrics: dict, spans: dict,
                     event_volume: Dict[str, int], alert_events: List[dict],
                     n_snapshots: int, first_t: Optional[float],
                     last_t: Optional[float], warnings: List[str]) -> dict:
    """The one constructor of the JSON-able summary model.

    It owns the model's shape (keys, histogram summaries, the ``slo.*``
    filter, the alerts view, ``events_total``, ``events_dropped``), so
    its two callers — :func:`build_summary` over artifact files and
    :func:`repro.store.queries.summary_model` over rollup tables — only
    gather inputs and cannot drift apart.  ``alert_events`` are event
    payloads in log order (non-alert kinds are skipped);
    ``first_t``/``last_t`` are read only when ``n_snapshots`` > 0.
    """
    counters: Dict[str, float] = dict(metrics.get("counters") or {})
    gauges: Dict[str, float] = dict(metrics.get("gauges") or {})
    histograms = metrics.get("histograms") or {}
    snap_info: dict = {"count": n_snapshots}
    if n_snapshots:
        snap_info["first_t"] = first_t
        snap_info["last_t"] = last_t
    return {
        "manifest": manifest,
        "counters": counters,
        "gauges": gauges,
        "histograms": {
            name: _summarize_histogram(histograms[name])
            for name in sorted(histograms)
        },
        "spans": spans,
        "events_total": sum(event_volume.values()),
        "event_volume": event_volume,
        "alerts": _alerts_model(
            alert_events,
            event_volume.get("alert.fired", 0),
            event_volume.get("alert.resolved", 0),
        ),
        "slo": {
            name: gauges[name]
            for name in sorted(gauges) if name.startswith("slo.")
        },
        "snapshots": snap_info,
        "events_dropped": int(counters.get("obs.events_dropped", 0)),
        "warnings": list(warnings),
    }


def build_summary(artifacts: dict) -> dict:
    """Distill loaded artifacts into one JSON-able summary model.

    This is the single source both renderers consume: ``obs report``
    prints it as text, ``obs report --format json`` dumps it verbatim.
    ``artifacts`` is :func:`load_artifacts`' shape: ``events`` is an
    :class:`EventDigest` and ``snapshots`` a :class:`SnapshotDigest`.
    """
    events: EventDigest = artifacts["events"]
    snapshots: SnapshotDigest = artifacts["snapshots"]
    return assemble_summary(
        manifest=artifacts.get("manifest"),
        metrics=artifacts.get("metrics") or {},
        spans=artifacts.get("spans") or {},
        event_volume=events.volume,
        alert_events=events.alerts,
        n_snapshots=snapshots.count,
        first_t=snapshots.first_t,
        last_t=snapshots.latest.get("t") if snapshots.count else None,
        warnings=artifacts.get("warnings") or [],
    )


def summary_from_dir(out_dir: str) -> dict:
    """Tolerantly load ``out_dir`` and build its summary model."""
    return build_summary(load_artifacts(out_dir))


def summary_from_path(path: str, run: Optional[str] = None) -> dict:
    """Summary model for a telemetry directory *or* a measurement store.

    The dispatch point that lets ``obs report``/``obs diff`` take a
    store file (or a directory holding ``store.sqlite``) anywhere they
    take a telemetry directory.  The store path reconstructs the same
    model from rollup tables — byte-identical under ``--format json``
    by contract (tested).  ``run`` picks a run label inside a store and
    is rejected for plain directories, where it has no meaning.
    """
    from repro.store.db import is_store_path  # deferred: cold path

    if is_store_path(path):
        from repro.store.queries import summary_from_store

        return summary_from_store(path, run=run)
    if run is not None:
        raise ValueError(
            f"--run only applies to store files; {path} is a directory"
        )
    return summary_from_dir(path)


# -- text rendering ---------------------------------------------------------


def _section(title: str) -> str:
    return f"\n-- {title} " + "-" * max(1, 60 - len(title)) + "\n"


def _render_warnings(warnings: List[str], lines: List[str]) -> None:
    if not warnings:
        return
    lines.append(_section("warnings"))
    for w in warnings:
        lines.append(f"  ! {w}")


def _render_manifest(manifest: Optional[dict], lines: List[str]) -> None:
    if not manifest:
        return
    lines.append(_section("run manifest"))
    bits = [f"kind={manifest.get('run_kind', '?')}",
            f"seed={manifest.get('seed', '?')}"]
    if "gen_seed" in manifest:
        bits.append(f"gen_seed={manifest['gen_seed']}")
    if "config_hash" in manifest:
        bits.append(f"config={manifest['config_hash']}")
    if manifest.get("scenario"):
        bits.append(f"scenario={manifest['scenario']}")
    lines.append("  " + " ".join(bits))
    if manifest.get("cell_id"):
        status = manifest.get("cell_status", "?")
        lines.append(f"  sweep cell: {manifest['cell_id']} ({status})")
    if manifest.get("grid"):
        grid_bits = [f"grid={manifest['grid']}"]
        if manifest.get("grid_hash"):
            grid_bits.append(f"hash={str(manifest['grid_hash'])[:12]}")
        if manifest.get("n_cells") is not None:
            grid_bits.append(f"cells={manifest['n_cells']}")
        lines.append("  sweep " + " ".join(grid_bits))
    versions = manifest.get("versions", {})
    if versions:
        lines.append(
            "  versions: "
            + " ".join(f"{k}={v}" for k, v in sorted(versions.items()))
        )
    grid = manifest.get("zone_grid")
    if grid:
        lines.append(
            "  zone grid: "
            + " ".join(f"{k}={v}" for k, v in sorted(grid.items()))
        )


def _render_counters(summary: dict, lines: List[str]) -> None:
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    if not counters and not gauges:
        return
    lines.append(_section("counters & gauges"))
    table = _table(["metric", "value"])
    for name in sorted(counters):
        value = counters[name]
        rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
        table.add_row(name, rendered)
    for name in sorted(gauges):
        table.add_row(f"{name} (gauge)", f"{gauges[name]:.6g}")
    lines.append(table.render(indent="  "))


def _render_histograms(summary: dict, lines: List[str]) -> None:
    histograms = summary.get("histograms", {})
    if not histograms:
        return
    lines.append(_section("histogram percentiles"))
    headers = ["histogram", "count", "mean"] + [
        f"p{int(q * 100)}" for q in REPORT_QUANTILES
    ]
    table = _table(headers)

    def _num(value: Optional[float]) -> str:
        return "nan" if value is None else f"{value:.4g}"

    for name in sorted(histograms):
        entry = histograms[name]
        row = [name, str(entry.get("count", 0)), _num(entry.get("mean"))]
        for q in REPORT_QUANTILES:
            row.append(_num(entry.get(f"p{int(q * 100)}")))
        table.add_row(*row)
    lines.append(table.render(indent="  "))


def _render_spans(spans: dict, lines: List[str], top_n: int = 12) -> None:
    if not spans:
        return
    lines.append(_section(f"top spans (by total wall time, max {top_n})"))
    ranked = sorted(
        spans.items(), key=lambda kv: (-kv[1].get("wall_s", 0.0), kv[0])
    )[:top_n]
    table = _table(
        ["span", "count", "total wall s", "mean ms", "cpu s"]
    )
    for key, s in ranked:
        count = s.get("count", 0)
        table.add_row(
            key,
            str(count),
            f"{s.get('wall_s', 0.0):.4f}",
            f"{s.get('mean_wall_s', 0.0) * 1e3:.3f}",
            f"{s.get('cpu_s', 0.0):.4f}",
        )
    lines.append(table.render(indent="  "))


def _render_event_volume(summary: dict, lines: List[str]) -> None:
    counts = summary.get("event_volume", {})
    if not counts:
        return
    lines.append(_section("event volume"))
    table = _table(["kind", "events"])
    for kind in sorted(counts):
        table.add_row(kind, str(counts[kind]))
    lines.append(table.render(indent="  "))
    lines.append(f"  {summary.get('events_total', 0)} events recorded")
    dropped = summary.get("events_dropped", 0)
    if dropped:
        lines.append(
            f"  ! {dropped} event(s) dropped at the log's capacity limit "
            "(events.jsonl is truncated)"
        )


def _render_alerts(summary: dict, lines: List[str]) -> None:
    alerts = summary.get("alerts", {})
    if not alerts.get("fired") and not alerts.get("resolved"):
        return
    lines.append(_section("alerts"))
    lines.append(
        f"  fired={alerts.get('fired', 0)}"
        f" resolved={alerts.get('resolved', 0)}"
        f" active={len(alerts.get('active', []))}"
    )
    for a in alerts.get("active", []):
        lines.append(
            f"  ACTIVE [{a.get('severity')}] {a.get('rule')}"
            f" on {a.get('metric')} since t={a.get('since_t', 0.0):.0f}s"
        )
    transitions = alerts.get("transitions", [])
    shown = transitions[-MAX_ALERT_ROWS:]
    if len(transitions) > len(shown):
        lines.append(
            f"  (showing last {len(shown)} of {len(transitions)} transitions)"
        )
    table = _table(["t (s)", "transition", "rule", "metric", "value"])
    for tr in shown:
        value = tr.get("value")
        table.add_row(
            f"{tr.get('t', 0.0):.0f}",
            tr.get("transition", "?"),
            tr.get("rule", "?"),
            tr.get("metric", "?"),
            "-" if value is None else f"{value:.6g}",
        )
    lines.append(table.render(indent="  "))


def _render_slo(summary: dict, lines: List[str]) -> None:
    slo = summary.get("slo", {})
    if not slo:
        return
    lines.append(_section("zone-coverage SLO (final tick)"))
    table = _table(["gauge", "value"])
    for name in sorted(slo):
        table.add_row(name, f"{slo[name]:.6g}")
    lines.append(table.render(indent="  "))


def _render_snapshots(summary: dict, lines: List[str]) -> None:
    info = summary.get("snapshots", {})
    if not info.get("count"):
        return
    lines.append(_section("streaming snapshots"))
    lines.append(
        f"  {info['count']} snapshots over sim"
        f" t=[{info.get('first_t', 0.0):.0f},"
        f" {info.get('last_t', 0.0):.0f}] s"
    )


def _render_budget_convergence(events: List[dict], lines: List[str]) -> None:
    """Per-stream sample-budget/epoch trajectory from recalibrate events."""
    recals = [e for e in events if e.get("kind") == _RECALIBRATE_KIND]
    if not recals:
        return
    streams: Dict[Tuple, List[dict]] = {}
    for e in recals:
        zone = e.get("zone")
        if isinstance(zone, list):  # JSON arrays are unhashable
            zone = tuple(zone)
        key = (zone, e.get("network"), e.get("metric"))
        streams.setdefault(key, []).append(e)
    lines.append(_section("sample-budget convergence (per recalibrated stream)"))
    table = _table(
        ["zone", "net", "metric", "recals", "budget", "epoch s"]
    )
    for key in sorted(streams, key=str):
        series = streams[key]
        first, last = series[0], series[-1]
        budget = f"{first.get('budget_before', '?')}->{last.get('budget', '?')}"
        epoch = (
            f"{first.get('epoch_s_before', 0.0):.0f}->{last.get('epoch_s', 0.0):.0f}"
        )
        zone, net, metric = key
        table.add_row(
            str(zone), str(net), str(metric), str(len(series)), budget, epoch
        )
    lines.append(table.render(indent="  "))


def render_summary(
    summary: dict,
    recal_events: Optional[List[dict]] = None,
    title: str = "telemetry report",
) -> str:
    """Render the text report from an already-built summary model.

    Every section reads the summary except budget convergence, which
    needs the raw ``calibration.recalibrate`` events — the file path
    passes its :class:`EventDigest`'s ``recalibrations``, the store path
    a kind-indexed query's rows (the renderer filters either way).
    """
    lines = [f"== {title} " + "=" * max(1, 64 - len(title))]
    _render_warnings(summary["warnings"], lines)
    _render_manifest(summary.get("manifest"), lines)
    _render_counters(summary, lines)
    _render_histograms(summary, lines)
    _render_spans(summary.get("spans") or {}, lines)
    _render_event_volume(summary, lines)
    _render_alerts(summary, lines)
    _render_slo(summary, lines)
    _render_snapshots(summary, lines)
    _render_budget_convergence(recal_events or [], lines)
    if len(lines) == 1:
        lines.append("  (no telemetry recorded)")
    return "\n".join(lines)


def render_report(
    metrics: dict,
    events: Iterable[dict],
    spans: dict,
    manifest: Optional[dict] = None,
    title: str = "telemetry report",
    snapshots: Optional[Iterable[dict]] = None,
    warnings: Optional[List[str]] = None,
) -> str:
    """Assemble the full text report from artifact dicts."""
    return _render_artifacts(
        {
            "metrics": metrics,
            "events": fold_events(events),
            "spans": spans,
            "manifest": manifest,
            "snapshots": fold_snapshots(snapshots or ()),
            "warnings": warnings or [],
        },
        title,
    )


def _render_artifacts(artifacts: dict, title: str) -> str:
    """Text report of :func:`load_artifacts`-shaped ``artifacts``."""
    return render_summary(build_summary(artifacts),
                          recal_events=artifacts["events"].recalibrations,
                          title=title)


def render_report_from_dir(out_dir: str, title: Optional[str] = None) -> str:
    """Load artifacts from ``out_dir`` and render the report."""
    return _render_artifacts(load_artifacts(out_dir),
                             title or f"telemetry report: {out_dir}")


def render_live(telemetry: Telemetry, manifest=None, title: str = "telemetry report") -> str:
    """Render directly from a live Telemetry (no files involved)."""
    return render_report(
        telemetry.metrics.snapshot(),
        telemetry.events,
        telemetry.tracer.snapshot(),
        manifest.to_dict() if manifest is not None else None,
        title=title,
    )


# -- watch / diff -----------------------------------------------------------


def render_watch(out_dir: str) -> str:
    """One compact status block from a (possibly still-running) run dir.

    Reads tolerantly — a run mid-write may have a truncated trailing
    snapshot line, which is skipped, not fatal.
    """
    artifacts = load_artifacts(out_dir)
    summary = build_summary(artifacts)
    snapshots: SnapshotDigest = artifacts["snapshots"]
    latest = snapshots.latest
    source = latest if latest is not None else artifacts["metrics"]
    counters = source.get("counters", {})
    gauges = source.get("gauges", {})

    lines = [f"watch {out_dir}"]
    bits = []
    if latest is not None:
        bits.append(f"t={latest.get('t', 0.0):.0f}s")
        bits.append(f"snapshots={snapshots.count}")
    else:
        bits.append("no snapshots.jsonl (final artifacts only)")
    bits.append(f"ticks={counters.get('coordinator.ticks', 0):.0f}")
    bits.append(f"reports={counters.get('coordinator.reports_ingested', 0):.0f}")
    bits.append(f"epochs={counters.get('coordinator.epochs_closed', 0):.0f}")
    lines.append("  " + " ".join(bits))
    if any(name.startswith("slo.") for name in gauges):
        lines.append(
            "  slo:"
            f" covered={gauges.get('slo.covered_fraction', 1.0):.2f}"
            f" demanded={gauges.get('slo.demanded_streams', 0):.0f}"
            f" under={gauges.get('slo.under_covered_streams', 0):.0f}"
            f" worst_under_epochs="
            f"{gauges.get('slo.worst_consecutive_under_epochs', 0):.0f}"
        )
    active = summary["alerts"]["active"]
    if active:
        for a in active:
            lines.append(
                f"  ALERT [{a['severity']}] {a['rule']} on {a['metric']}"
                f" since t={a['since_t']:.0f}s"
            )
    elif summary["alerts"]["fired"]:
        lines.append(
            f"  alerts: none active"
            f" ({summary['alerts']['fired']} fired,"
            f" {summary['alerts']['resolved']} resolved this run)"
        )
    if summary["events_dropped"]:
        lines.append(f"  ! {summary['events_dropped']} event(s) dropped")
    for w in summary["warnings"]:
        lines.append(f"  ! {w}")
    return "\n".join(lines)


def render_diff(dir_a: str, dir_b: str,
                run_a: Optional[str] = None,
                run_b: Optional[str] = None) -> str:
    """Compare two runs' final counters/gauges and alert activity.

    Either side may be a telemetry directory or a measurement store
    (``run_a``/``run_b`` select a run label inside a store) — the
    summaries compared are identical either way, so mixing sources is
    legitimate.
    """
    a = summary_from_path(dir_a, run=run_a)
    b = summary_from_path(dir_b, run=run_b)
    lines = [f"diff {dir_a} vs {dir_b}"]
    for w in a["warnings"]:
        lines.append(f"  ! A: {w}")
    for w in b["warnings"]:
        lines.append(f"  ! B: {w}")

    for label, kind in (("counters", "counters"), ("gauges", "gauges")):
        va: Dict[str, float] = a.get(kind, {})
        vb: Dict[str, float] = b.get(kind, {})
        names = sorted(set(va) | set(vb))
        rows = []
        for name in names:
            x, y = va.get(name), vb.get(name)
            if x == y:
                continue
            delta = (
                f"{y - x:+.6g}" if x is not None and y is not None else "-"
            )
            rows.append(
                (
                    name,
                    "-" if x is None else f"{x:.6g}",
                    "-" if y is None else f"{y:.6g}",
                    delta,
                )
            )
        if not rows:
            continue
        lines.append(_section(f"{label} differing ({len(rows)})"))
        table = _table(["metric", "A", "B", "delta"])
        for row in rows:
            table.add_row(*row)
        lines.append(table.render(indent="  "))

    counts_a = (a["alerts"]["fired"], a["alerts"]["resolved"])
    counts_b = (b["alerts"]["fired"], b["alerts"]["resolved"])
    if counts_a != counts_b:
        lines.append(_section("alerts"))
        lines.append(
            f"  A: fired={counts_a[0]} resolved={counts_a[1]}"
            f" | B: fired={counts_b[0]} resolved={counts_b[1]}"
        )
    if len(lines) == 1 + len(a["warnings"]) + len(b["warnings"]):
        lines.append("  (no differences in final counters/gauges)")
    return "\n".join(lines)
