"""Versioned SQLite schema for the measurement store (the "models" layer).

One migration list, applied in order inside a single transaction per
version, each recorded in ``schema_migrations`` — so a database carries
an explicit, queryable history of which DDL shaped it.  Opening a
database written by a *newer* schema refuses loudly instead of
guessing: downgrades are not supported, and silently reading
half-understood tables is how stores get corrupted.

Schema overview (v1)
--------------------

* ``runs``           — one row per imported artifact set (a WAL replay,
  a telemetry directory, a sweep root or cell).  Carries the manifest
  JSON and the import-time warnings so reports rebuilt from the store
  reproduce the file-backed report byte-for-byte.
* ``samples``        — one row per measurement report (the paper's unit
  of client assistance), with acceptance status and reject reason.
* ``rollups``        — incremental per-(zone, epoch, network, kind)
  aggregates maintained transactionally at insert time; the paper's
  zone-epoch estimate table, kept consistent with ``samples`` by
  construction (same transaction).
* ``metrics`` / ``histograms`` / ``spans`` — a telemetry registry
  snapshot, one row per metric (values stored as JSON literals for
  exact numeric round-trip).
* ``events`` / ``event_rollups`` — the structured event log plus its
  per-kind counts (the event log is capacity-bounded upstream, so raw
  rows stay small; the rollup is what reports read).
* ``alerts``         — alert transition rows (fired/resolved), the
  queryable twin of the report's alert table.
* ``snapshot_stats`` — count/first/last of the streamed snapshot file.

v2 is a deliberately small follow-up (an operator ``notes`` column on
``runs`` plus a reject-reason index) that exists mostly so the
migration machinery is exercised by real history rather than trusted on
faith.

v3 stores each report's samples as packed bytes instead of JSON text:
``samples.samples_json`` is renamed ``samples.samples_f64`` and holds
BLOBs of big-endian IEEE-754 doubles in the layout of
:func:`repro.clients.protocol.pack_samples` — the binary wire codec's
sample layout.  Ingest no longer pays a float ``repr`` per sample and a
row shrinks by about a third.  Existing rows are converted in place
inside the v3 transaction by the SQL function ``v2_samples_to_f64``
(JSON text to packed bytes), which :func:`apply_migrations` registers
on the connection, and the column is then renamed (SQLite >= 3.25); a
failure on any row rolls the file back to v2 untouched.  The column
keeps its v1 ``TEXT`` declaration: SQLite stores BLOB values unchanged
under TEXT affinity, and a rename needs no table rebuild.
JSON integers become doubles on the way (``[1]`` reads back as
``[1.0]``); every sample that came over the wire is already a float.
"""

from __future__ import annotations

import json
import sqlite3
from typing import List, Tuple

from repro.clients.protocol import pack_samples

__all__ = [
    "SCHEMA_VERSION",
    "MIGRATIONS",
    "SchemaError",
    "apply_migrations",
    "applied_versions",
    "schema_version",
]

#: Version the code writes; databases at lower versions are migrated
#: forward on open, databases at higher versions are refused.
SCHEMA_VERSION = 3

_V1_DDL = [
    """
    CREATE TABLE schema_migrations (
        version     INTEGER PRIMARY KEY,
        description TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE runs (
        run_id        INTEGER PRIMARY KEY,
        label         TEXT NOT NULL UNIQUE,
        kind          TEXT NOT NULL,
        source        TEXT NOT NULL DEFAULT '',
        epoch_s       REAL NOT NULL,
        manifest_json TEXT,
        warnings_json TEXT NOT NULL DEFAULT '[]'
    )
    """,
    """
    CREATE TABLE samples (
        run_id        INTEGER NOT NULL REFERENCES runs(run_id)
                      ON DELETE CASCADE,
        seq           INTEGER NOT NULL,
        task_id       INTEGER NOT NULL,
        client_id     TEXT NOT NULL,
        network       TEXT NOT NULL,
        kind          TEXT NOT NULL,
        zone_q        INTEGER,
        zone_r        INTEGER,
        start_s       REAL NOT NULL,
        end_s         REAL NOT NULL,
        lat           REAL NOT NULL,
        lon           REAL NOT NULL,
        speed_ms      REAL NOT NULL,
        value         REAL NOT NULL,
        n_samples     INTEGER NOT NULL,
        samples_json  TEXT NOT NULL,
        extras_json   TEXT NOT NULL,
        accepted      INTEGER NOT NULL,
        reject_reason TEXT,
        PRIMARY KEY (run_id, seq)
    )
    """,
    """
    CREATE INDEX idx_samples_stream
        ON samples (run_id, zone_q, zone_r, network, kind)
    """,
    """
    CREATE TABLE rollups (
        run_id       INTEGER NOT NULL REFERENCES runs(run_id)
                     ON DELETE CASCADE,
        zone_q       INTEGER NOT NULL,
        zone_r       INTEGER NOT NULL,
        epoch_index  INTEGER NOT NULL,
        network      TEXT NOT NULL,
        kind         TEXT NOT NULL,
        n_reports    INTEGER NOT NULL,
        n_samples    INTEGER NOT NULL,
        sum_value    REAL NOT NULL,
        sum_sq_value REAL NOT NULL,
        min_value    REAL NOT NULL,
        max_value    REAL NOT NULL,
        first_s      REAL NOT NULL,
        last_s       REAL NOT NULL,
        PRIMARY KEY (run_id, zone_q, zone_r, epoch_index, network, kind)
    )
    """,
    """
    CREATE TABLE metrics (
        run_id      INTEGER NOT NULL REFERENCES runs(run_id)
                    ON DELETE CASCADE,
        metric_kind TEXT NOT NULL CHECK (metric_kind IN ('counter','gauge')),
        name        TEXT NOT NULL,
        value_json  TEXT NOT NULL,
        PRIMARY KEY (run_id, metric_kind, name)
    )
    """,
    """
    CREATE TABLE histograms (
        run_id    INTEGER NOT NULL REFERENCES runs(run_id)
                  ON DELETE CASCADE,
        name      TEXT NOT NULL,
        snap_json TEXT NOT NULL,
        PRIMARY KEY (run_id, name)
    )
    """,
    """
    CREATE TABLE spans (
        run_id    INTEGER NOT NULL REFERENCES runs(run_id)
                  ON DELETE CASCADE,
        key       TEXT NOT NULL,
        snap_json TEXT NOT NULL,
        PRIMARY KEY (run_id, key)
    )
    """,
    """
    CREATE TABLE events (
        run_id       INTEGER NOT NULL REFERENCES runs(run_id)
                     ON DELETE CASCADE,
        seq          INTEGER NOT NULL,
        kind         TEXT NOT NULL,
        t            REAL,
        payload_json TEXT NOT NULL,
        PRIMARY KEY (run_id, seq)
    )
    """,
    """
    CREATE INDEX idx_events_kind ON events (run_id, kind)
    """,
    """
    CREATE TABLE event_rollups (
        run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
        kind   TEXT NOT NULL,
        n      INTEGER NOT NULL,
        PRIMARY KEY (run_id, kind)
    )
    """,
    """
    CREATE TABLE alerts (
        run_id       INTEGER NOT NULL REFERENCES runs(run_id)
                     ON DELETE CASCADE,
        seq          INTEGER NOT NULL,
        t            REAL,
        transition   TEXT NOT NULL,
        rule         TEXT NOT NULL,
        metric       TEXT NOT NULL,
        severity     TEXT NOT NULL,
        payload_json TEXT NOT NULL,
        PRIMARY KEY (run_id, seq)
    )
    """,
    """
    CREATE TABLE snapshot_stats (
        run_id       INTEGER PRIMARY KEY REFERENCES runs(run_id)
                     ON DELETE CASCADE,
        count        INTEGER NOT NULL,
        first_t_json TEXT,
        last_t_json  TEXT
    )
    """,
]

_V2_DDL = [
    "ALTER TABLE runs ADD COLUMN notes TEXT NOT NULL DEFAULT ''",
    "CREATE INDEX idx_samples_reject ON samples (run_id, accepted, reject_reason)",
]

_V3_DDL = [
    "UPDATE samples SET samples_json = v2_samples_to_f64(samples_json)",
    "ALTER TABLE samples RENAME COLUMN samples_json TO samples_f64",
]

#: ``(version, description, [ddl statements])`` in apply order.
MIGRATIONS: List[Tuple[int, str, List[str]]] = [
    (1, "baseline: runs/samples/rollups/metrics/events/alerts", _V1_DDL),
    (2, "runs.notes column + reject-reason index", _V2_DDL),
    (3, "samples.samples_json text -> samples.samples_f64 packed doubles",
     _V3_DDL),
]


def _v2_samples_to_f64(samples_json: str) -> bytes:
    """A v2 ``samples_json`` value as the v3 ``samples_f64`` bytes."""
    return pack_samples(json.loads(samples_json))


class SchemaError(Exception):
    """The database's schema version cannot be reconciled with the code."""


def schema_version(conn: sqlite3.Connection) -> int:
    """Highest migration version recorded in ``conn`` (0 = virgin file)."""
    row = conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' "
        "AND name='schema_migrations'"
    ).fetchone()
    if row is None:
        return 0
    got = conn.execute(
        "SELECT COALESCE(MAX(version), 0) FROM schema_migrations"
    ).fetchone()
    return int(got[0])


def applied_versions(conn: sqlite3.Connection) -> List[int]:
    """Every migration version recorded in ``conn``, ascending."""
    if schema_version(conn) == 0:
        return []
    rows = conn.execute(
        "SELECT version FROM schema_migrations ORDER BY version"
    ).fetchall()
    return [int(r[0]) for r in rows]


def apply_migrations(conn: sqlite3.Connection,
                     target: int = SCHEMA_VERSION) -> List[int]:
    """Bring ``conn`` forward to ``target``; return versions applied.

    Each pending migration runs in its own transaction together with
    its ``schema_migrations`` bookkeeping row, so a crash mid-migration
    leaves the database at the previous version, never between two.
    Expects an autocommit connection (what :func:`repro.store.db.connect`
    hands out) so the explicit BEGIN below owns the transaction, and
    registers on it the SQL functions the migrations call.  Raises
    :class:`SchemaError` when the database is *ahead* of ``target`` —
    that is a downgrade, which is refused.
    """
    known = {m[0] for m in MIGRATIONS}
    if target != 0 and target not in known:
        raise SchemaError(
            f"unknown schema version v{target} (this code knows up to "
            f"v{SCHEMA_VERSION})"
        )
    current = schema_version(conn)
    if current > target:
        raise SchemaError(
            f"database is at schema v{current}, newer than this code's "
            f"v{target}; refusing to downgrade (upgrade the code instead)"
        )
    conn.create_function("v2_samples_to_f64", 1, _v2_samples_to_f64,
                         deterministic=True)
    applied: List[int] = []
    for version, description, statements in MIGRATIONS:
        if version <= current or version > target:
            continue
        conn.execute("BEGIN IMMEDIATE")
        try:
            # Re-check under the write lock: another connection may have
            # applied this version between our read and our BEGIN (two
            # processes opening a fresh store race on v1 otherwise).
            if schema_version(conn) >= version:
                conn.execute("ROLLBACK")
                continue
            for statement in statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_migrations (version, description) "
                "VALUES (?, ?)",
                (version, description),
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        applied.append(version)
    return applied
