"""Schema versioning and migration tests (repro.store.schema)."""

import json
import math
import sqlite3

import pytest

from repro.core.validation import ReportValidator
from repro.store import schema as schema_module
from repro.store.db import StoreError, connect, transaction
from repro.store.queries import logical_dump
from repro.store.schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    MigrationError,
    SchemaError,
    applied_versions,
    apply_migrations,
    schema_version,
)
from repro.store.writers import (
    _ROLLUP_UPSERT,
    create_run,
    default_epoch_s,
    ingest_reports,
)
from repro.sweep.reduce import merge_cells

from tests.store.helpers import default_grid, make_report


def v2_reports():
    """Accepted and rejected reports, with and without sample lists."""
    return [
        make_report(0),  # no samples: stored as [value]
        make_report(1, samples=[1234567.891, 2.5e6 / 3]),
        make_report(2, samples=[0.25] * 12),
        make_report(3, speed_ms=500.0,
                    samples=[math.nan, math.inf, -math.inf]),
        make_report(4, samples=[-0.0, 5e-324, 1e300]),  # implausible
        make_report(5, speed_ms=500.0),  # rejected, no samples
        make_report(6, samples=[2.0, 3.0]),
    ]


def write_v2_samples(conn, run_id, reports):
    """Insert ``reports`` the way schema v2's ``ingest_reports`` did.

    Identical rows and rollups to v3 ingest except that each report's
    samples are canonical JSON text in ``samples.samples_json``.
    """
    grid, validator, epoch = default_grid(), ReportValidator(), default_epoch_s()
    with transaction(conn):
        for seq, report in enumerate(reports):
            outcome = validator.validate(report, report.start_s)
            zone_q, zone_r = (grid.zone_id_for(report.point) if outcome.ok
                              else (None, None))
            samples = (list(report.samples) if report.samples
                       else [report.value])
            conn.execute(
                "INSERT INTO samples (run_id, seq, task_id, client_id,"
                " network, kind, zone_q, zone_r, start_s, end_s, lat, lon,"
                " speed_ms, value, n_samples, samples_json, extras_json,"
                " accepted, reject_reason)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                " ?, ?)",
                (
                    run_id, seq, report.task_id, report.client_id,
                    report.network.value, report.kind.value, zone_q, zone_r,
                    report.start_s, report.end_s, report.point.lat,
                    report.point.lon, report.speed_ms, report.value,
                    len(samples),
                    json.dumps(samples, sort_keys=True,
                               separators=(",", ":")),
                    json.dumps(dict(report.extras), sort_keys=True,
                               separators=(",", ":")),
                    1 if outcome.ok else 0, outcome.reason,
                ),
            )
            if outcome.ok:
                conn.execute(_ROLLUP_UPSERT, (
                    run_id, zone_q, zone_r, int(report.start_s // epoch),
                    report.network.value, report.kind.value, len(samples),
                    sum(samples), sum(x * x for x in samples),
                    min(samples), max(samples),
                    report.start_s, report.start_s,
                ))


def build_v2_store(path, reports):
    """A schema-v2 store file holding one run of v2-format sample rows."""
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        apply_migrations(conn, target=2)
        write_v2_samples(conn, create_run(conn, "live", "wal"), reports)
    finally:
        conn.close()


def dump_text(dump):
    """A logical dump as canonical text (NaN rows compare equal)."""
    return json.dumps(dump, sort_keys=True)


class TestFreshStore:
    def test_connect_migrates_to_current(self, tmp_path):
        conn = connect(str(tmp_path / "s.sqlite"))
        try:
            assert schema_version(conn) == SCHEMA_VERSION
            assert applied_versions(conn) == [m[0] for m in MIGRATIONS]
        finally:
            conn.close()

    def test_version_zero_before_any_migration(self, tmp_path):
        raw = sqlite3.connect(str(tmp_path / "raw.sqlite"),
                              isolation_level=None)
        try:
            assert schema_version(raw) == 0
        finally:
            raw.close()

    def test_every_table_exists(self, tmp_path):
        conn = connect(str(tmp_path / "s.sqlite"))
        try:
            tables = {
                row[0] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        finally:
            conn.close()
        assert {
            "runs", "samples", "rollups", "metrics", "histograms",
            "spans", "events", "event_rollups", "alerts",
            "snapshot_stats", "schema_migrations",
        } <= tables


class TestMigrationPath:
    def test_applies_exactly_once(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        for _ in range(3):  # re-opening must not re-apply or duplicate
            conn = connect(path)
            rows = conn.execute(
                "SELECT version, COUNT(*) FROM schema_migrations"
                " GROUP BY version"
            ).fetchall()
            conn.close()
            assert rows == [(v, 1) for v in
                            [m[0] for m in MIGRATIONS]]

    def test_v1_to_v2_upgrade(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        conn = connect(path, target_version=1)
        assert schema_version(conn) == 1
        cols = {row[1] for row in conn.execute(
            "PRAGMA table_info(runs)")}
        assert "notes" not in cols
        conn.close()

        conn = connect(path)  # default target: migrate forward to v2
        try:
            assert schema_version(conn) == SCHEMA_VERSION
            cols = {row[1] for row in conn.execute(
                "PRAGMA table_info(runs)")}
            assert "notes" in cols
            indexes = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'")}
            assert "idx_samples_reject" in indexes
        finally:
            conn.close()

    def test_upgrade_preserves_rows(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        conn = connect(path, target_version=1)
        conn.execute(
            "INSERT INTO runs (label, kind, epoch_s, warnings_json)"
            " VALUES ('r1', 'wal', 1800.0, '[]')"
        )
        conn.close()
        conn = connect(path)
        try:
            row = conn.execute(
                "SELECT label, notes FROM runs").fetchone()
        finally:
            conn.close()
        assert row == ("r1", "")


class TestPackedSamplesMigration:
    def test_fresh_store_holds_packed_blobs(self, tmp_path):
        conn = connect(str(tmp_path / "s.sqlite"))
        try:
            cols = {row[1] for row in conn.execute(
                "PRAGMA table_info(samples)")}
            ingest_reports(conn, create_run(conn, "live", "wal"),
                           v2_reports(), default_grid())
            types = {row[0] for row in conn.execute(
                "SELECT typeof(samples_f64) FROM samples")}
        finally:
            conn.close()
        assert "samples_f64" in cols and "samples_json" not in cols
        assert types == {"blob"}

    def test_v2_rows_dump_like_a_fresh_v3_ingest(self, tmp_path):
        reports = v2_reports()
        old = str(tmp_path / "v2.sqlite")
        build_v2_store(old, reports)
        migrated = connect(old)
        fresh = connect(str(tmp_path / "v3.sqlite"))
        try:
            assert schema_version(migrated) == SCHEMA_VERSION
            result = ingest_reports(fresh, create_run(fresh, "live", "wal"),
                                    reports, default_grid())
            assert (result.accepted, result.rejected) == (4, 3)
            got, want = logical_dump(migrated), logical_dump(fresh)
        finally:
            migrated.close()
            fresh.close()
        assert got["schema_version"] == want["schema_version"] == 3
        assert dump_text(got) == dump_text(want)
        samples_text = [row[14] for row in got["runs"][0]["samples"]]
        assert samples_text[0] == json.dumps([reports[0].value])
        assert samples_text[1] == "[1234567.891,833333.3333333334]"
        assert samples_text[3] == "[NaN,Infinity,-Infinity]"
        assert samples_text[4] == "[-0.0,5e-324,1e+300]"

    def test_failed_row_leaves_the_file_at_v2(self, tmp_path, monkeypatch):
        path = str(tmp_path / "v2.sqlite")
        build_v2_store(path, v2_reports())

        def read_v2_rows():
            raw = sqlite3.connect(path)
            try:
                return schema_version(raw), raw.execute(
                    "SELECT seq, samples_json FROM samples ORDER BY seq"
                ).fetchall()
            finally:
                raw.close()

        before = read_v2_rows()
        assert before[0] == 2 and len(before[1]) == 7
        calls = []
        real_pack = schema_module.pack_samples

        def pack_then_fail(samples):
            calls.append(samples)
            if len(calls) == 3:
                raise ValueError("injected pack failure")
            return real_pack(samples)

        monkeypatch.setattr(schema_module, "pack_samples", pack_then_fail)
        with pytest.raises(StoreError) as excinfo:
            connect(path)
        assert str(excinfo.value) == (
            f"{path}: schema migration v3 failed (user-defined function "
            f"raised exception); the file was left at schema v2")
        assert len(calls) == 3  # rows 0 and 1 were packed, then abort
        assert read_v2_rows() == before

        monkeypatch.setattr(schema_module, "pack_samples", real_pack)
        conn = connect(path)  # the next open upgrades cleanly
        try:
            assert schema_version(conn) == SCHEMA_VERSION
        finally:
            conn.close()

    def test_raw_failure_is_a_sqlite_error_naming_the_version(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "v2.sqlite")
        build_v2_store(path, v2_reports())

        def pack_fails(samples):
            raise ValueError("injected pack failure")

        monkeypatch.setattr(schema_module, "pack_samples", pack_fails)
        raw = sqlite3.connect(path, isolation_level=None)
        try:
            with pytest.raises(sqlite3.DatabaseError) as excinfo:
                apply_migrations(raw)
            assert isinstance(excinfo.value, MigrationError)
            assert (excinfo.value.version, excinfo.value.left_at) == (3, 2)
            assert schema_version(raw) == 2
        finally:
            raw.close()

    def test_failed_migration_is_a_sweep_reduce_warning(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "v2.sqlite")
        build_v2_store(path, v2_reports())

        def pack_fails(samples):
            raise ValueError("injected pack failure")

        monkeypatch.setattr(schema_module, "pack_samples", pack_fails)
        out = tmp_path / "sweep"
        out.mkdir()
        result = merge_cells(str(out), store_path=path)
        assert result.store_rows is None
        assert any(w.startswith("store ingest failed:")
                   for w in result.warnings)
        raw = sqlite3.connect(path)
        try:
            assert schema_version(raw) == 2
        finally:
            raw.close()


class TestDowngradeRefusal:
    def test_apply_migrations_refuses_downgrade(self, tmp_path):
        conn = connect(str(tmp_path / "s.sqlite"))
        try:
            with pytest.raises(SchemaError, match="downgrade"):
                apply_migrations(conn, target=1)
        finally:
            conn.close()

    def test_connect_refuses_older_target(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        connect(path).close()  # now at SCHEMA_VERSION
        with pytest.raises(SchemaError):
            connect(path, target_version=1)

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            connect(str(tmp_path / "s.sqlite"),
                    target_version=SCHEMA_VERSION + 1)


class TestPathHandling:
    def test_missing_file_without_create(self, tmp_path):
        with pytest.raises(StoreError, match="no such store"):
            connect(str(tmp_path / "absent.sqlite"), create=False)

    def test_directory_is_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="directory"):
            connect(str(tmp_path))

    def test_non_store_file_is_rejected(self, tmp_path):
        junk = tmp_path / "junk.sqlite"
        junk.write_text("this is not a database\n" * 10)
        with pytest.raises(StoreError):
            connect(str(junk))
