"""``repro.store``: an embedded, queryable measurement database.

The analysis layers of this repo historically re-read whole JSON/JSONL
artifacts for every question (WAL replay, sweep reduction, ``obs
report``/``diff``).  This package is the query-shaped alternative: a
single-file SQLite database (stdlib only, deterministic content) with
a versioned schema holding raw measurement samples, incremental
per-(zone, epoch, network) rollups maintained transactionally at
insert time, telemetry registry snapshots, alert history, and run
manifests.

Split models/queries/procedures-style:

* :mod:`repro.store.schema`      — DDL + migrations (the models);
* :mod:`repro.store.db`          — connections, pragmas, transactions;
* :mod:`repro.store.writers`     — ingest procedures (WAL, telemetry
  dirs, sweep roots), rollups updated in the same transaction as rows;
* :mod:`repro.store.queries`     — the typed read API (coverage, SLO
  floors, alert history, replay/report reconstruction, comparison);
* :mod:`repro.store.maintenance` — retention + compaction wrappers.

Two byte-identity contracts anchor the design: ``repro serve replay
--store`` rebuilds the exact metrics snapshot a registry replay
produces, and ``obs report --format json`` from a store byte-matches
the JSONL path on the same run.  See DESIGN.md §12.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "db": (
        "DEFAULT_STORE_FILENAME",
        "StoreError",
        "connect",
        "is_store_path",
        "resolve_store_path",
        "transaction",
    ),
    "maintenance": (
        "CompactResult",
        "RetentionPolicy",
        "apply_retention",
        "compact",
        "drop_run",
        "integrity_check",
        "store_stats",
    ),
    "queries": (
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
        "render_report_from_store",
        "replay_snapshot",
        "resolve_run",
        "slo_attainment",
        "summary_from_store",
        "summary_model",
    ),
    "schema": ("SCHEMA_VERSION", "SchemaError", "apply_migrations"),
    "writers": (
        "ImportResult",
        "classify_source",
        "create_run",
        "import_any",
        "import_sweep_root",
        "import_telemetry_dir",
        "import_wal",
        "ingest_reports",
    ),
})

__all__ = [
    "CompactResult",
    "CoverageRow",
    "DEFAULT_STORE_FILENAME",
    "ImportResult",
    "RetentionPolicy",
    "RunInfo",
    "SCHEMA_VERSION",
    "SchemaError",
    "StoreError",
    "alert_history",
    "apply_migrations",
    "apply_retention",
    "classify_source",
    "compact",
    "compare_runs",
    "connect",
    "coverage",
    "create_run",
    "drop_run",
    "import_any",
    "import_sweep_root",
    "import_telemetry_dir",
    "import_wal",
    "ingest_reports",
    "integrity_check",
    "is_store_path",
    "list_runs",
    "logical_dump",
    "merged_metrics",
    "metrics_snapshot",
    "recalibrate_events",
    "render_report_from_store",
    "replay_snapshot",
    "resolve_run",
    "resolve_store_path",
    "slo_attainment",
    "store_stats",
    "summary_from_store",
    "summary_model",
    "transaction",
]
