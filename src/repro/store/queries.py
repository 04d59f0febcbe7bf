"""Typed read API over the measurement store (the "queries" layer).

Everything a consumer asks the store is here, in four families:

* **coverage / SLO** — :func:`coverage` and :func:`slo_attainment` read
  the incremental zone-epoch rollups (never the raw sample rows), which
  is the paper's question — "which (zone, epoch, network) cells have
  enough samples to trust?" — answered without re-folding artifacts.
* **replay reconstruction** — :func:`replay_snapshot` rebuilds, from
  rollups plus the reject index, the exact counters-only metrics
  registry a WAL replay produces; ``repro serve replay --store`` is
  INSERT (writers) then this SELECT, byte-identical by contract.
* **report reconstruction** — :func:`summary_from_store` reassembles
  ``obs report``'s summary model from rollup tables (event rollups,
  alert rows, stored registry snapshot) so ``--format json`` output
  from a store byte-matches the JSONL path on the same run.
* **comparison** — :func:`compare_runs`, :func:`merged_metrics`
  (reducer-fold twin over stored runs), and :func:`logical_dump` (the
  determinism-test view: every logical row, no host paths).
"""

from __future__ import annotations

import json
import math
import sqlite3
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._canon import compact_json
from repro.store.db import StoreError

__all__ = [
    "CoverageRow",
    "RunInfo",
    "alert_history",
    "compare_runs",
    "coverage",
    "list_runs",
    "logical_dump",
    "merged_metrics",
    "metrics_snapshot",
    "recalibrate_events",
    "replay_snapshot",
    "resolve_run",
    "slo_attainment",
    "summary_from_store",
    "summary_model",
]


@dataclass(frozen=True)
class RunInfo:
    """One imported run: identity, provenance, and import context."""

    run_id: int
    label: str
    kind: str
    source: str
    epoch_s: float
    manifest: Optional[dict]
    warnings: List[str]


@dataclass(frozen=True)
class CoverageRow:
    """One (zone, epoch, network, kind) rollup with derived statistics."""

    zone: Tuple[int, int]
    epoch_index: int
    network: str
    kind: str
    n_reports: int
    n_samples: int
    sum_value: float
    sum_sq_value: float
    min_value: float
    max_value: float
    first_s: float
    last_s: float

    @property
    def mean(self) -> float:
        """Sample mean of the cell's measurement values."""
        return self.sum_value / self.n_samples if self.n_samples else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (what the rollup sums support)."""
        if not self.n_samples:
            return 0.0
        var = self.sum_sq_value / self.n_samples - self.mean ** 2
        return math.sqrt(max(0.0, var))


def _run_from_row(row: Sequence[Any]) -> RunInfo:
    """``runs`` table row -> :class:`RunInfo` (JSON columns decoded)."""
    run_id, label, kind, source, epoch_s, manifest_json, warnings_json = row
    return RunInfo(
        run_id=int(run_id),
        label=str(label),
        kind=str(kind),
        source=str(source),
        epoch_s=float(epoch_s),
        manifest=None if manifest_json is None else json.loads(manifest_json),
        warnings=json.loads(warnings_json),
    )


_RUN_COLUMNS = ("run_id, label, kind, source, epoch_s, manifest_json,"
                " warnings_json")


def list_runs(conn: sqlite3.Connection) -> List[RunInfo]:
    """Every run in the store, sorted by label."""
    rows = conn.execute(
        f"SELECT {_RUN_COLUMNS} FROM runs ORDER BY label"
    ).fetchall()
    return [_run_from_row(r) for r in rows]


def resolve_run(conn: sqlite3.Connection,
                label: Optional[str] = None) -> RunInfo:
    """The run named ``label``, or the store's only run when None.

    A store holding several runs with no label given is an error that
    lists the options — ambiguity should cost one re-run, not a wrong
    answer.
    """
    if label is not None:
        row = conn.execute(
            f"SELECT {_RUN_COLUMNS} FROM runs WHERE label = ?", (label,)
        ).fetchone()
        if row is None:
            known = ", ".join(r.label for r in list_runs(conn)) or "(none)"
            raise StoreError(f"no run {label!r} in store (runs: {known})")
        return _run_from_row(row)
    runs = list_runs(conn)
    if not runs:
        raise StoreError("store has no runs (import something first)")
    if len(runs) > 1:
        raise StoreError(
            "store has several runs; pick one with --run: "
            + ", ".join(r.label for r in runs)
        )
    return runs[0]


# -- replay reconstruction --------------------------------------------------


def replay_snapshot(conn: sqlite3.Connection, run_id: int) -> dict:
    """Registry-shaped snapshot equal to a metrics-registry WAL replay.

    A replay-built coordinator's registry holds only the counters its
    ingest loop touched: accept counts (reports/samples, summed here
    from the rollups — the INSERT-then-SELECT identity), the reject
    total, and one ``validator.reject.<reason>`` per observed reason.
    Counters appear only when non-zero, matching lazy counter creation;
    gauges/histograms stay empty because pure ingest touches neither.
    """
    counters: Dict[str, float] = {}
    n_reports, n_samples = conn.execute(
        "SELECT COALESCE(SUM(n_reports), 0), COALESCE(SUM(n_samples), 0)"
        " FROM rollups WHERE run_id = ?",
        (run_id,),
    ).fetchone()
    if n_reports:
        counters["coordinator.reports_ingested"] = float(n_reports)
        counters["coordinator.samples_ingested"] = float(n_samples)
    rejected = 0
    for reason, count in conn.execute(
        "SELECT reject_reason, COUNT(*) FROM samples"
        " WHERE run_id = ? AND accepted = 0 GROUP BY reject_reason",
        (run_id,),
    ):
        counters[f"validator.reject.{reason}"] = float(count)
        rejected += count
    if rejected:
        counters["coordinator.reports_rejected"] = float(rejected)
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {},
        "histograms": {},
    }


# -- report reconstruction --------------------------------------------------


def metrics_snapshot(conn: sqlite3.Connection, run_id: int) -> dict:
    """The stored telemetry registry snapshot, registry-shaped.

    Values round-trip through JSON literals, so a snapshot written as
    ``metrics.json``, imported, and read back here is value-identical
    to the file — including int-vs-float distinctions.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for metric_kind, name, value_json in conn.execute(
        "SELECT metric_kind, name, value_json FROM metrics"
        " WHERE run_id = ? ORDER BY metric_kind, name",
        (run_id,),
    ):
        out[metric_kind + "s"][name] = json.loads(value_json)
    for name, snap_json in conn.execute(
        "SELECT name, snap_json FROM histograms WHERE run_id = ?"
        " ORDER BY name",
        (run_id,),
    ):
        out["histograms"][name] = json.loads(snap_json)
    return out


def recalibrate_events(conn: sqlite3.Connection, run_id: int) -> List[dict]:
    """``calibration.recalibrate`` event payloads, log order (indexed read).

    What the text report's budget-convergence section needs — served by
    the ``(run_id, kind)`` index rather than a scan of the event log.
    """
    return [
        json.loads(payload)
        for (payload,) in conn.execute(
            "SELECT payload_json FROM events"
            " WHERE run_id = ? AND kind = 'calibration.recalibrate'"
            " ORDER BY seq",
            (run_id,),
        )
    ]


def _spans(conn: sqlite3.Connection, run_id: int) -> Dict[str, Any]:
    """The stored span snapshots, keyed and sorted by span key."""
    return {
        key: json.loads(snap) for key, snap in conn.execute(
            "SELECT key, snap_json FROM spans WHERE run_id = ? ORDER BY key",
            (run_id,),
        )
    }


def _snapshot_stats(conn: sqlite3.Connection,
                    run_id: int) -> Optional[Tuple[Any, ...]]:
    """``(count, first_t_json, last_t_json)``, or None if never stored."""
    return conn.execute(
        "SELECT count, first_t_json, last_t_json FROM snapshot_stats"
        " WHERE run_id = ?",
        (run_id,),
    ).fetchone()


def summary_model(conn: sqlite3.Connection, run: "RunInfo") -> dict:
    """Rebuild ``obs report``'s summary model from rollup tables.

    Gathers the inputs of :func:`repro.obs.report.assemble_summary`
    (the constructor :func:`~repro.obs.report.build_summary` also calls)
    from the stored registry snapshot, the per-kind event rollups, the
    alert rows, and the snapshot stats, without reading the raw event
    log (except the alert rows, which *are* the indexed subset).
    Byte-identity of the JSON dump with the file path is the tested
    contract.
    """
    from repro.obs.report import assemble_summary

    event_volume = {
        kind: int(n) for kind, n in conn.execute(
            "SELECT kind, n FROM event_rollups WHERE run_id = ? ORDER BY kind",
            (run.run_id,),
        )
    }
    alert_events = [
        json.loads(payload)
        for (payload,) in conn.execute(
            "SELECT payload_json FROM alerts WHERE run_id = ? ORDER BY seq",
            (run.run_id,),
        )
    ]
    snap_row = _snapshot_stats(conn, run.run_id)
    n_snapshots = int(snap_row[0]) if snap_row else 0
    return assemble_summary(
        manifest=run.manifest,
        metrics=metrics_snapshot(conn, run.run_id),
        spans=_spans(conn, run.run_id),
        event_volume=event_volume,
        alert_events=alert_events,
        n_snapshots=n_snapshots,
        first_t=json.loads(snap_row[1]) if n_snapshots else None,
        last_t=json.loads(snap_row[2]) if n_snapshots else None,
        warnings=run.warnings,
    )


def summary_from_store(path: str, run: Optional[str] = None) -> dict:
    """Open the store at ``path`` and build one run's summary model."""
    from repro.store.db import connect, resolve_store_path

    conn = connect(resolve_store_path(path), create=False)
    try:
        info = resolve_run(conn, run)
        return summary_model(conn, info)
    finally:
        conn.close()


def render_report_from_store(path: str, run: Optional[str] = None,
                             title: Optional[str] = None) -> str:
    """Text report for a stored run (same renderer as the file path)."""
    from repro.obs.report import render_summary
    from repro.store.db import connect, resolve_store_path

    conn = connect(resolve_store_path(path), create=False)
    try:
        info = resolve_run(conn, run)
        summary = summary_model(conn, info)
        recals = recalibrate_events(conn, info.run_id)
    finally:
        conn.close()
    return render_summary(
        summary,
        recal_events=recals,
        title=title or f"telemetry report: {path} run={info.label}",
    )


# -- coverage / SLO ---------------------------------------------------------


def coverage(
    conn: sqlite3.Connection,
    run_id: int,
    network: Optional[str] = None,
    kind: Optional[str] = None,
    min_samples: int = 0,
) -> List[CoverageRow]:
    """Zone-epoch rollup rows, optionally filtered, deterministic order.

    This is the store's answer to the paper's coverage maps: each row
    is one (zone, epoch, network, kind) cell with enough aggregate
    state to derive mean/std without touching raw samples.
    """
    sql = (
        "SELECT zone_q, zone_r, epoch_index, network, kind, n_reports,"
        " n_samples, sum_value, sum_sq_value, min_value, max_value,"
        " first_s, last_s FROM rollups WHERE run_id = ?"
    )
    params: List[Any] = [run_id]
    if network is not None:
        sql += " AND network = ?"
        params.append(network)
    if kind is not None:
        sql += " AND kind = ?"
        params.append(kind)
    if min_samples:
        sql += " AND n_samples >= ?"
        params.append(int(min_samples))
    sql += " ORDER BY zone_q, zone_r, epoch_index, network, kind"
    return [
        CoverageRow(
            zone=(int(r[0]), int(r[1])), epoch_index=int(r[2]),
            network=str(r[3]), kind=str(r[4]), n_reports=int(r[5]),
            n_samples=int(r[6]), sum_value=float(r[7]),
            sum_sq_value=float(r[8]), min_value=float(r[9]),
            max_value=float(r[10]), first_s=float(r[11]),
            last_s=float(r[12]),
        )
        for r in conn.execute(sql, params)
    ]


def slo_attainment(conn: sqlite3.Connection, run_id: int,
                   floor: int = 10) -> dict:
    """Fraction of (zone, epoch, network, kind) cells at the sample floor.

    The paper fixes n≈10 samples per zone-epoch as the trust threshold;
    this query grades every cell against ``floor`` and breaks the result
    down per network — the store-side twin of the SLO tracker's
    coverage gauges.
    """
    total, covered = conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(n_samples >= ?), 0)"
        " FROM rollups WHERE run_id = ?",
        (int(floor), run_id),
    ).fetchone()
    by_network = {
        str(net): {"streams": int(n), "covered": int(c)}
        for net, n, c in conn.execute(
            "SELECT network, COUNT(*), COALESCE(SUM(n_samples >= ?), 0)"
            " FROM rollups WHERE run_id = ? GROUP BY network"
            " ORDER BY network",
            (int(floor), run_id),
        )
    }
    return {
        "floor": int(floor),
        "streams": int(total),
        "covered": int(covered),
        "covered_fraction": (covered / total) if total else 1.0,
        "by_network": by_network,
    }


def alert_history(conn: sqlite3.Connection, run_id: int,
                  rule: Optional[str] = None) -> List[dict]:
    """Alert transitions in log order (optionally one rule's)."""
    sql = (
        "SELECT t, transition, rule, metric, severity, payload_json"
        " FROM alerts WHERE run_id = ?"
    )
    params: List[Any] = [run_id]
    if rule is not None:
        sql += " AND rule = ?"
        params.append(rule)
    sql += " ORDER BY seq"
    return [
        {
            "t": t,
            "transition": str(transition),
            "rule": str(rule_),
            "metric": str(metric),
            "severity": str(severity),
            "value": json.loads(payload).get("value"),
        }
        for t, transition, rule_, metric, severity, payload
        in conn.execute(sql, params)
    ]


# -- comparison -------------------------------------------------------------


def compare_runs(conn: sqlite3.Connection, run_a: "RunInfo",
                 run_b: "RunInfo") -> dict:
    """Counters/gauges of two stored runs, keeping only differences.

    The store-side ``obs diff``: each differing metric maps to its
    ``[a, b]`` pair (None where one side lacks it).
    """
    out: dict = {"run_a": run_a.label, "run_b": run_b.label}
    snap_a = metrics_snapshot(conn, run_a.run_id)
    snap_b = metrics_snapshot(conn, run_b.run_id)
    for kind in ("counters", "gauges"):
        diffs: Dict[str, List[Optional[float]]] = {}
        for name in sorted(set(snap_a[kind]) | set(snap_b[kind])):
            a, b = snap_a[kind].get(name), snap_b[kind].get(name)
            if a != b:
                diffs[name] = [a, b]
        out[kind] = diffs
    return out


def merged_metrics(conn: sqlite3.Connection,
                   runs: Sequence["RunInfo"]) -> dict:
    """Fold several stored runs' registries the sweep reducer's way.

    The reducer's :func:`~repro.obs.metrics.merge_snapshots` call over
    the stored snapshots in the given order (averaged gauges, tolerant
    buckets, warnings dropped) — so a sweep imported cell-wise
    re-merges to exactly what the file-based reducer wrote (the
    property-tested equivalence).
    """
    from repro.obs.metrics import merge_snapshots

    return merge_snapshots(
        [metrics_snapshot(conn, r.run_id) for r in runs],
        gauges="mean", warnings=[],
    )


#: Manifest keys recording *how* a run executed rather than *what* it
#: computed (see :class:`repro.sweep.grid.SweepManifest`) — legitimate
#: differences between byte-identical runs, excluded from the dump.
_EXECUTION_MANIFEST_KEYS = ("workers", "start_method", "max_retries")


def logical_dump(conn: sqlite3.Connection) -> dict:
    """Every logical row in the store, as one deterministic dict.

    The determinism-test view: no host paths (``source`` is excluded on
    purpose — two byte-identical sweeps live in different directories),
    no execution-shape manifest keys (worker count may differ between
    byte-identical sweeps), no file-layout artifacts, keys sorted by
    construction.  Two stores built from byte-identical inputs must
    produce equal dumps.  Packed samples dump as the canonical JSON text
    schema v2 stored, so for float samples a dump differs from the v2
    dump of the same reports only in ``schema_version``.
    """
    from repro.clients.protocol import unpack_samples
    from repro.store.schema import schema_version

    runs_out = []
    for run in list_runs(conn):
        rid = run.run_id
        samples = []
        for row in conn.execute(
            "SELECT seq, task_id, client_id, network, kind, zone_q,"
            " zone_r, start_s, end_s, lat, lon, speed_ms, value,"
            " n_samples, samples_f64, extras_json, accepted,"
            " reject_reason FROM samples WHERE run_id = ? ORDER BY seq",
            (rid,),
        ):
            row = list(row)
            # dumped as v2's samples_json text
            row[14] = compact_json(unpack_samples(row[14]))
            samples.append(row)
        rollups = [
            list(row) for row in conn.execute(
                "SELECT zone_q, zone_r, epoch_index, network, kind,"
                " n_reports, n_samples, sum_value, sum_sq_value, min_value,"
                " max_value, first_s, last_s FROM rollups WHERE run_id = ?"
                " ORDER BY zone_q, zone_r, epoch_index, network, kind",
                (rid,),
            )
        ]
        events = [
            list(row) for row in conn.execute(
                "SELECT seq, kind, payload_json FROM events"
                " WHERE run_id = ? ORDER BY seq",
                (rid,),
            )
        ]
        alerts = [
            list(row) for row in conn.execute(
                "SELECT seq, transition, rule, metric, severity,"
                " payload_json FROM alerts WHERE run_id = ? ORDER BY seq",
                (rid,),
            )
        ]
        snap_row = _snapshot_stats(conn, rid)
        manifest = run.manifest
        if manifest is not None:
            manifest = {k: v for k, v in manifest.items()
                        if k not in _EXECUTION_MANIFEST_KEYS}
        runs_out.append({
            "label": run.label,
            "kind": run.kind,
            "epoch_s": run.epoch_s,
            "manifest": manifest,
            "warnings": run.warnings,
            "metrics": metrics_snapshot(conn, rid),
            "spans": _spans(conn, rid),
            "samples": samples,
            "rollups": rollups,
            "events": events,
            "alerts": alerts,
            "event_rollups": {
                str(kind): int(n) for kind, n in conn.execute(
                    "SELECT kind, n FROM event_rollups WHERE run_id = ?"
                    " ORDER BY kind",
                    (rid,),
                )
            },
            "snapshot_stats": list(snap_row) if snap_row else None,
        })
    return {"schema_version": schema_version(conn), "runs": runs_out}
