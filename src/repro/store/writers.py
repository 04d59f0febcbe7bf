"""Ingest procedures: everything that puts rows *into* the store.

Three artifact shapes backfill into one schema:

* a serve-side WAL directory (:func:`import_wal`) — every logged report
  is re-validated exactly the way live ingest and WAL replay validate
  it, then inserted together with its incremental per-(zone, epoch,
  network, kind) rollup **in the same transaction**.  That invariant is
  the whole point of the writers module: a SIGKILL at any instant
  leaves rollups consistent with exactly the committed samples.
* a telemetry directory (:func:`import_telemetry_dir`) — the registry
  snapshot, event log, spans, manifest, and snapshot stream land as
  rows, with numeric values stored as JSON literals so a report rebuilt
  from the store is byte-identical to one rebuilt from the files.
* a sweep root (:func:`import_sweep_root`) — the merged root plus every
  cell directory, imported in sorted cell order as one run family, in
  a single merged ingest pass.

:func:`import_any` sniffs which of the three a path is, which is what
``repro store import`` calls.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.clients.protocol import MeasurementReport, pack_samples
from repro.core.config import WiScapeConfig
from repro.core.validation import ReportValidator
from repro.geo.zones import ZoneGrid
from repro.store.db import StoreError, transaction

__all__ = [
    "ImportResult",
    "create_run",
    "import_any",
    "import_sweep_root",
    "import_telemetry_dir",
    "import_wal",
    "ingest_reports",
]

#: Reports per ingest transaction.  Small enough that a crash loses
#: little, large enough that per-commit overhead vanishes in the rate.
DEFAULT_BATCH_SIZE = 5000

_ALERT_KINDS = ("alert.fired", "alert.resolved")


#: Canonical JSON encoding (sorted keys, compact separators), used for
#: every JSON-typed column so logical equality implies byte equality —
#: the sweep determinism test compares store dumps across worker counts
#: with plain string comparison.  Byte-identical to ``json.dumps`` with
#: the same options, which would build a new encoder on every call.
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class ImportResult:
    """What one import produced: run ids, per-table row counts, warnings."""

    label: str
    run_ids: List[int] = field(default_factory=list)
    rows: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0

    @property
    def rows_ingested(self) -> int:
        """Total rows written across every table (the headline count)."""
        return sum(self.rows.values())

    def _count(self, table: str, n: int = 1) -> None:
        """Accumulate ``n`` rows against ``table``."""
        if n:
            self.rows[table] = self.rows.get(table, 0) + n

    def _merge(self, other: "ImportResult") -> None:
        """Fold a child import (e.g. one sweep cell) into this result."""
        self.run_ids.extend(other.run_ids)
        for table, n in other.rows.items():
            self._count(table, n)
        self.warnings.extend(other.warnings)
        self.accepted += other.accepted
        self.rejected += other.rejected


def default_epoch_s() -> float:
    """The store's default epoch length: the coordinator's (paper ~30 min)."""
    return WiScapeConfig().default_epoch_s


def create_run(
    conn,
    label: str,
    kind: str,
    source: str = "",
    epoch_s: Optional[float] = None,
    manifest: Optional[dict] = None,
    warnings: Iterable[str] = (),
    replace: bool = False,
) -> int:
    """Insert a ``runs`` row and return its id.

    ``label`` is the user-facing unique handle (queries address runs by
    it).  With ``replace`` an existing run of the same label is dropped
    first — cascading away its samples/rollups/metrics — which is what
    re-importing the same WAL into the same store means.
    """
    with transaction(conn):
        if replace:
            conn.execute("DELETE FROM runs WHERE label = ?", (label,))
        else:
            row = conn.execute(
                "SELECT run_id FROM runs WHERE label = ?", (label,)
            ).fetchone()
            if row is not None:
                raise StoreError(
                    f"run {label!r} already exists (use --replace to "
                    "re-import over it)"
                )
        cur = conn.execute(
            "INSERT INTO runs (label, kind, source, epoch_s, manifest_json,"
            " warnings_json) VALUES (?, ?, ?, ?, ?, ?)",
            (
                label,
                kind,
                source,
                float(epoch_s if epoch_s is not None else default_epoch_s()),
                None if manifest is None else _canon(manifest),
                _canon(list(warnings)),
            ),
        )
        return int(cur.lastrowid)


_ROLLUP_UPSERT = """
INSERT INTO rollups (run_id, zone_q, zone_r, epoch_index, network, kind,
                     n_reports, n_samples, sum_value, sum_sq_value,
                     min_value, max_value, first_s, last_s)
VALUES (?, ?, ?, ?, ?, ?, 1, ?, ?, ?, ?, ?, ?, ?)
ON CONFLICT (run_id, zone_q, zone_r, epoch_index, network, kind) DO UPDATE SET
    n_reports    = n_reports + 1,
    n_samples    = n_samples + excluded.n_samples,
    sum_value    = sum_value + excluded.sum_value,
    sum_sq_value = sum_sq_value + excluded.sum_sq_value,
    min_value    = MIN(min_value, excluded.min_value),
    max_value    = MAX(max_value, excluded.max_value),
    first_s      = MIN(first_s, excluded.first_s),
    last_s       = MAX(last_s, excluded.last_s)
"""

_SAMPLE_INSERT = """
INSERT INTO samples (run_id, seq, task_id, client_id, network, kind,
                     zone_q, zone_r, start_s, end_s, lat, lon, speed_ms,
                     value, n_samples, samples_f64, extras_json,
                     accepted, reject_reason)
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""


def ingest_reports(
    conn,
    run_id: int,
    reports: Iterable[MeasurementReport],
    grid: ZoneGrid,
    validator: Optional[ReportValidator] = None,
    epoch_s: Optional[float] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    result: Optional[ImportResult] = None,
) -> ImportResult:
    """Insert reports with their rollups, ``batch_size`` per transaction.

    Mirrors live coordinator ingest semantics exactly — validation at
    ``report.start_s``, zone from ``grid``, the per-report sample list
    being ``report.samples`` or the scalar value — so the counters
    recoverable from these rows byte-match a metrics-registry replay of
    the same stream.  Rejected reports get a sample row (with reason)
    but no rollup, matching the coordinator never touching zone records
    for them.

    Crash contract: each batch commits atomically; rows and rollups of
    an interrupted batch vanish together on rollback, so reopening the
    store after a kill always finds rollups equal to a recomputation
    over the committed samples.
    """
    result = result or ImportResult(label=str(run_id))
    validator = validator or ReportValidator()
    epoch = float(epoch_s if epoch_s is not None else default_epoch_s())
    row = conn.execute(
        "SELECT COALESCE(MAX(seq), -1) FROM samples WHERE run_id = ?",
        (run_id,),
    ).fetchone()
    seq = int(row[0]) + 1

    it = iter(reports)
    #: Each pass of the outer loop takes one batch's first report, so an
    #: exhausted stream opens no empty transaction.  The batch streams
    #: through ``islice``: a materialised list of ``batch_size`` rows
    #: would add megabytes to the ingest's peak.
    for first in it:
        with transaction(conn):
            for report in chain((first,), islice(it, max(batch_size, 1) - 1)):
                outcome = validator.validate(report, report.start_s)
                zone_q = zone_r = None
                if outcome.ok:
                    zone_q, zone_r = grid.zone_id_for(report.point)
                samples = report.samples if report.samples else [report.value]
                conn.execute(
                    _SAMPLE_INSERT,
                    (
                        run_id, seq, report.task_id, report.client_id,
                        report.network.value, report.kind.value, zone_q,
                        zone_r, report.start_s, report.end_s,
                        report.point.lat, report.point.lon, report.speed_ms,
                        report.value, len(samples), pack_samples(samples),
                        _canon(dict(report.extras)),
                        1 if outcome.ok else 0, outcome.reason,
                    ),
                )
                result._count("samples")
                if outcome.ok:
                    result.accepted += 1
                    conn.execute(
                        _ROLLUP_UPSERT,
                        (
                            run_id, zone_q, zone_r,
                            int(report.start_s // epoch),
                            report.network.value, report.kind.value,
                            len(samples), sum(samples),
                            sum(s * s for s in samples),
                            min(samples), max(samples),
                            report.start_s, report.start_s,
                        ),
                    )
                else:
                    result.rejected += 1
                seq += 1
    rollups = conn.execute(
        "SELECT COUNT(*) FROM rollups WHERE run_id = ?", (run_id,)
    ).fetchone()
    result.rows["rollups"] = int(rollups[0])
    return result


def import_wal(
    conn,
    wal_dir: str,
    label: str,
    replace: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ImportResult:
    """Backfill a serve WAL directory into the store as one run.

    The zone grid is rebuilt from ``wal_meta.json`` exactly the way
    :func:`repro.serve.server.build_coordinator` rebuilds it for
    replay, so zone assignment — and therefore every rollup — matches
    what the crashed server had computed.
    """
    from repro.geo.regions import madison_study_area
    from repro.serve.wal import WriteAheadLog, iter_wal_reports

    meta = WriteAheadLog.read_meta(wal_dir) or {}
    grid = ZoneGrid(
        madison_study_area().anchor,
        radius_m=float(meta.get("radius_m", 250.0)),
    )
    run_id = create_run(
        conn, label, kind="wal", source=os.path.abspath(wal_dir),
        manifest=meta or None, replace=replace,
    )
    result = ImportResult(label=label, run_ids=[run_id])
    result._count("runs")
    return ingest_reports(
        conn, run_id, iter_wal_reports(wal_dir), grid,
        batch_size=batch_size, result=result,
    )


def import_telemetry_dir(
    conn,
    out_dir: str,
    label: str,
    kind: Optional[str] = None,
    replace: bool = False,
) -> ImportResult:
    """Backfill one telemetry directory (or sweep root/cell) as one run.

    Loads artifacts through the same tolerant loader ``obs report``
    uses, so the warnings stored with the run are the warnings the
    file-backed report would have shown — part of the byte-identity
    contract.  The loader keeps only a digest of ``events.jsonl``, so
    the events are streamed a second time, through the same tolerant
    reader, inside the transaction that inserts them.  Everything lands
    in a single transaction: a run is either fully queryable or absent.
    """
    from repro.obs.events import TolerantJsonl
    from repro.obs.report import load_artifacts
    from repro.obs.telemetry import EVENTS_FILENAME

    artifacts = load_artifacts(out_dir)
    manifest = artifacts.get("manifest")
    run_kind = kind or (manifest or {}).get("run_kind") or "telemetry"
    run_id = create_run(
        conn, label, kind=str(run_kind), source=os.path.abspath(out_dir),
        manifest=manifest, warnings=artifacts.get("warnings") or [],
        replace=replace,
    )
    result = ImportResult(label=label, run_ids=[run_id])
    result._count("runs")

    metrics = artifacts.get("metrics") or {}
    with transaction(conn):
        for metric_kind in ("counter", "gauge"):
            values = metrics.get(metric_kind + "s") or {}
            for name in sorted(values):
                conn.execute(
                    "INSERT INTO metrics (run_id, metric_kind, name,"
                    " value_json) VALUES (?, ?, ?, ?)",
                    (run_id, metric_kind, name, _canon(values[name])),
                )
                result._count("metrics")
        for name in sorted(metrics.get("histograms") or {}):
            conn.execute(
                "INSERT INTO histograms (run_id, name, snap_json)"
                " VALUES (?, ?, ?)",
                (run_id, name, _canon(metrics["histograms"][name])),
            )
            result._count("histograms")
        for key in sorted(artifacts.get("spans") or {}):
            conn.execute(
                "INSERT INTO spans (run_id, key, snap_json)"
                " VALUES (?, ?, ?)",
                (run_id, key, _canon(artifacts["spans"][key])),
            )
            result._count("spans")

        try:
            events_fh = open(os.path.join(out_dir, EVENTS_FILENAME), "rb")
        except OSError:  # absent or unreadable: the loader has warned
            events_fh = io.BytesIO()
        volume: Dict[str, int] = {}
        with events_fh:
            for seq, event in enumerate(TolerantJsonl(events_fh)):
                event_kind = str(event.get("kind", "?"))
                volume[event_kind] = volume.get(event_kind, 0) + 1
                conn.execute(
                    "INSERT INTO events (run_id, seq, kind, t, payload_json)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (run_id, seq, event_kind, event.get("t"), _canon(event)),
                )
                result._count("events")
                if event_kind in _ALERT_KINDS:
                    conn.execute(
                        "INSERT INTO alerts (run_id, seq, t, transition, rule,"
                        " metric, severity, payload_json)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            run_id, seq, event.get("t"),
                            "fired" if event_kind == "alert.fired"
                            else "resolved",
                            str(event.get("rule")), str(event.get("metric")),
                            str(event.get("severity", "?")), _canon(event),
                        ),
                    )
                    result._count("alerts")
        for event_kind in sorted(volume):
            conn.execute(
                "INSERT INTO event_rollups (run_id, kind, n)"
                " VALUES (?, ?, ?)",
                (run_id, event_kind, volume[event_kind]),
            )
            result._count("event_rollups")

        snapshots = artifacts["snapshots"]
        conn.execute(
            "INSERT INTO snapshot_stats (run_id, count, first_t_json,"
            " last_t_json) VALUES (?, ?, ?, ?)",
            (
                run_id, snapshots.count,
                _canon(snapshots.first_t) if snapshots.count else None,
                _canon(snapshots.latest.get("t")) if snapshots.count
                else None,
            ),
        )
        result._count("snapshot_stats")
    return result


def import_sweep_root(
    conn,
    out_dir: str,
    label: str,
    replace: bool = False,
) -> ImportResult:
    """Backfill a sweep root and all its cells, sorted cell-id order.

    One merged ingest pass: the root's merged artifacts become run
    ``label`` and each ``cells/<id>`` becomes ``label/cells/<id>``.
    Cell order is the reducer's sorted order, so the resulting store
    content is byte-identical for any worker count that produced the
    sweep.
    """
    from repro.sweep.grid import CELLS_DIRNAME

    result = import_telemetry_dir(
        conn, out_dir, label, kind="sweep", replace=replace
    )
    cells_dir = os.path.join(out_dir, CELLS_DIRNAME)
    if os.path.isdir(cells_dir):
        for cell_id in sorted(os.listdir(cells_dir)):
            cell_dir = os.path.join(cells_dir, cell_id)
            if not os.path.isdir(cell_dir):
                continue
            child = import_telemetry_dir(
                conn, cell_dir, f"{label}/cells/{cell_id}",
                kind="sweep-cell", replace=replace,
            )
            result._merge(child)
    return result


def classify_source(path: str) -> str:
    """Which importer handles ``path``: ``wal``, ``sweep``, or ``telemetry``.

    A WAL directory is recognized by its metadata file or segments; a
    sweep root by ``sweep_manifest.json`` without a ``cell.json``;
    anything else with telemetry artifacts imports as a plain run.
    Raises :class:`StoreError` for paths that are none of the three.
    """
    from repro.obs.report import CELL_RECORD_FILENAME, SWEEP_MANIFEST_FILENAME
    from repro.serve.wal import WAL_META_FILENAME, wal_segments

    if not os.path.isdir(path):
        raise StoreError(f"no such artifact directory: {path}")
    if (os.path.isfile(os.path.join(path, WAL_META_FILENAME))
            or wal_segments(path)):
        return "wal"
    if (os.path.isfile(os.path.join(path, SWEEP_MANIFEST_FILENAME))
            and not os.path.isfile(os.path.join(path, CELL_RECORD_FILENAME))):
        return "sweep"
    for name in ("metrics.json", "manifest.json", "events.jsonl",
                 "cell.json"):
        if os.path.exists(os.path.join(path, name)):
            return "telemetry"
    raise StoreError(
        f"{path} is neither a WAL directory, a sweep root, nor a "
        "telemetry directory (nothing importable found)"
    )


def import_any(
    conn,
    path: str,
    label: Optional[str] = None,
    replace: bool = False,
) -> Tuple[str, ImportResult]:
    """Sniff ``path``'s artifact shape and backfill it; return (shape, result).

    The dispatch behind ``repro store import``: WAL directories,
    telemetry directories, and sweep roots all land through the one
    entry point.  ``label`` defaults to the directory's basename.
    """
    shape = classify_source(path)
    if label is None:
        label = os.path.basename(os.path.normpath(path)) or "run"
    if shape == "wal":
        return shape, import_wal(conn, path, label, replace=replace)
    if shape == "sweep":
        return shape, import_sweep_root(conn, path, label, replace=replace)
    return shape, import_telemetry_dir(conn, path, label, replace=replace)
