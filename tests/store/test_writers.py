"""Ingest-path tests (repro.store.writers): rollup math, idempotence."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro._canon import compact_json, pretty_json
from repro.clients.protocol import unpack_samples
from repro.store import (
    StoreError,
    classify_source,
    connect,
    create_run,
    import_any,
    import_telemetry_dir,
    import_wal,
    ingest_reports,
    list_runs,
)

from tests.store.helpers import (
    EPOCH_S,
    default_grid,
    fold_rollups,
    make_report,
    stored_rollups,
    write_telemetry_dir,
    write_wal,
)


@pytest.fixture
def store(tmp_path):
    conn = connect(str(tmp_path / "store.sqlite"))
    yield conn
    conn.close()


class TestIngestReports:
    def test_rollups_match_pure_python_fold(self, store):
        reports = [make_report(i) for i in range(60)]
        reports += [make_report(i, samples=[0.02, 0.021, 0.022])
                    for i in range(60, 75, 3)]
        run_id = create_run(store, "r", "wal")
        result = ingest_reports(store, run_id, reports, default_grid())
        assert result.accepted == len(reports)
        assert stored_rollups(store, run_id) == fold_rollups(store, run_id)

    def test_rejected_reports_get_row_but_no_rollup(self, store):
        good = make_report(0)
        bad_speed = make_report(1, speed_ms=500.0)
        bad_duration = make_report(2, end_offset_s=-1.0)
        run_id = create_run(store, "r", "wal")
        result = ingest_reports(
            store, run_id, [good, bad_speed, bad_duration], default_grid()
        )
        assert (result.accepted, result.rejected) == (1, 2)
        reasons = dict(store.execute(
            "SELECT reject_reason, COUNT(*) FROM samples"
            " WHERE run_id = ? AND accepted = 0 GROUP BY reject_reason",
            (run_id,),
        ).fetchall())
        assert reasons == {"implausible-speed": 1, "negative-duration": 1}
        n_rollups = store.execute(
            "SELECT COUNT(*) FROM rollups WHERE run_id = ?", (run_id,)
        ).fetchone()[0]
        assert n_rollups == 1  # only the accepted report rolled up

    def test_seq_continues_across_ingest_calls(self, store):
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id,
                       [make_report(i) for i in range(5)], default_grid())
        ingest_reports(store, run_id,
                       [make_report(i) for i in range(5, 8)], default_grid())
        seqs = [row[0] for row in store.execute(
            "SELECT seq FROM samples WHERE run_id = ? ORDER BY seq",
            (run_id,))]
        assert seqs == list(range(8))
        # incremental rollups across both calls still equal one fold
        assert stored_rollups(store, run_id) == fold_rollups(store, run_id)

    def test_scalar_value_becomes_single_sample(self, store):
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id, [make_report(0)], default_grid())
        n_samples, samples_f64 = store.execute(
            "SELECT n_samples, samples_f64 FROM samples WHERE run_id = ?",
            (run_id,)).fetchone()
        assert n_samples == 1
        assert unpack_samples(samples_f64) == [make_report(0).value]

    def test_small_batches_commit_everything(self, store):
        reports = [make_report(i) for i in range(23)]
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id, reports, default_grid(), batch_size=4)
        n = store.execute(
            "SELECT COUNT(*) FROM samples WHERE run_id = ?", (run_id,)
        ).fetchone()[0]
        assert n == 23
        assert stored_rollups(store, run_id) == fold_rollups(store, run_id)

    def test_failed_batch_rolls_back_and_closes_its_transaction(self, store):
        def reports():
            yield from (make_report(i) for i in range(5))
            raise RuntimeError("report source failed mid-batch")

        run_id = create_run(store, "r", "wal")
        with pytest.raises(RuntimeError, match="mid-batch"):
            ingest_reports(store, run_id, reports(), default_grid(),
                           batch_size=2)
        assert not store.in_transaction
        # Batches [0, 1] and [2, 3] committed; [4, <error>] rolled back.
        seqs = [seq for (seq,) in store.execute(
            "SELECT seq FROM samples WHERE run_id = ? ORDER BY seq",
            (run_id,))]
        assert seqs == [0, 1, 2, 3]
        assert stored_rollups(store, run_id) == fold_rollups(store, run_id)
        # The connection is usable for the next write.
        create_run(store, "next", "wal")

    def test_epoch_index_uses_run_epoch(self, store):
        run_id = create_run(store, "r", "wal", epoch_s=600.0)
        report = make_report(0, start_s=1250.0)
        ingest_reports(store, run_id, [report], default_grid(),
                       epoch_s=600.0)
        epoch_index = store.execute(
            "SELECT epoch_index FROM rollups WHERE run_id = ?", (run_id,)
        ).fetchone()[0]
        assert epoch_index == int(1250.0 // 600.0) == 2
        assert stored_rollups(store, run_id) == \
            fold_rollups(store, run_id, epoch_s=600.0)


#: Any value ``json`` can encode: scalars (NaN and the infinities
#: included), then lists and string-keyed objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_cached_encoder_matches_json_dumps(self, obj):
        assert compact_json(obj) == json.dumps(obj, sort_keys=True,
                                               separators=(",", ":"))
        assert pretty_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


class TestCreateRun:
    def test_duplicate_label_refused(self, store):
        create_run(store, "r", "wal")
        with pytest.raises(StoreError, match="already exists"):
            create_run(store, "r", "wal")

    def test_replace_drops_old_run_and_children(self, store):
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id,
                       [make_report(i) for i in range(4)], default_grid())
        create_run(store, "r", "wal", replace=True)
        # the cascade removed the old run's rows table-wide (sqlite may
        # reuse the rowid, so count globally rather than per run_id)
        for table in ("samples", "rollups"):
            n = store.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            assert n == 0, table
        assert [r.label for r in list_runs(store)] == ["r"]


class TestImportWal:
    def test_wal_roundtrip_counts(self, store, tmp_path):
        reports = [make_report(i) for i in range(12)]
        reports.append(make_report(99, speed_ms=500.0))
        wal_dir = write_wal(tmp_path / "wal", reports)
        result = import_wal(store, wal_dir, "w")
        assert (result.accepted, result.rejected) == (12, 1)
        assert result.rows["samples"] == 13
        assert result.rows_ingested > 13  # runs + samples + rollups
        run = list_runs(store)[0]
        assert run.kind == "wal"
        assert run.manifest["radius_m"] == 250.0

    def test_wal_grid_radius_honored(self, store, tmp_path):
        reports = [make_report(i) for i in range(6)]
        wal_dir = write_wal(tmp_path / "wal", reports, radius_m=500.0)
        import_wal(store, wal_dir, "w")
        run_id = list_runs(store)[0].run_id
        from repro.geo.regions import madison_study_area
        from repro.geo.zones import ZoneGrid

        grid = ZoneGrid(madison_study_area().anchor, radius_m=500.0)
        want = {grid.zone_id_for(r.point) for r in reports}
        got = {tuple(row) for row in store.execute(
            "SELECT DISTINCT zone_q, zone_r FROM samples"
            " WHERE run_id = ? AND accepted = 1", (run_id,))}
        assert got == want


class TestFailedWalImport:
    """A WAL import that fails leaves no run behind, so the label
    stays free for a clean import."""

    @pytest.fixture
    def bad_wal(self, tmp_path):
        from repro.serve.wal import WriteAheadLog
        from repro.serve.wire import report_to_wire

        wal_dir = write_wal(tmp_path / "bad",
                            [make_report(i) for i in range(3)])
        bad = report_to_wire(make_report(3))
        bad["task_id"] = 10 ** 30
        with WriteAheadLog(wal_dir) as wal:
            wal.append(bad)
        return wal_dir

    def table_counts(self, store):
        return {table: store.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("runs", "samples", "rollups")}

    @pytest.mark.parametrize("batch_size", [5000, 2])
    def test_leaves_no_run_samples_or_rollups(self, store, bad_wal,
                                              batch_size):
        from repro.serve.wal import WalCorruptionError

        with pytest.raises(WalCorruptionError, match="WAL seq 3"):
            import_wal(store, bad_wal, "w", batch_size=batch_size)
        assert self.table_counts(store) == {
            "runs": 0, "samples": 0, "rollups": 0}
        assert not store.in_transaction

    def test_clean_import_under_the_same_label_succeeds(self, store,
                                                         tmp_path, bad_wal):
        from repro.serve.wal import WalCorruptionError

        with pytest.raises(WalCorruptionError):
            import_wal(store, bad_wal, "w", batch_size=2)
        good = write_wal(tmp_path / "good",
                         [make_report(i) for i in range(4)])
        result = import_wal(store, good, "w", batch_size=2)
        assert (result.accepted, result.rejected) == (4, 0)
        assert [r.label for r in list_runs(store)] == ["w"]
        assert self.table_counts(store)["samples"] == 4


class TestImportAcrossCodecs:
    """One loadgen stream over either codec stores the same rows.

    The server logs decoded wire dicts, so a json session (one report a
    frame) and a binary session (struct-packed REPORT_BATCHes, the other
    sample decode path) write the same WAL bytes, and ``store import``
    of either WAL gives the same ``logical_dump``.
    """

    def serve_wal(self, wal_dir, codec, batch_size):
        import asyncio

        from repro.serve.loadgen import LoadgenConfig, run_loadgen
        from repro.serve.server import CoordinatorServer, ServeConfig

        async def body():
            server = CoordinatorServer(ServeConfig(), wal_dir=str(wal_dir))
            await server.start()
            try:
                #: One session at a time keeps the WAL order fixed.
                return await run_loadgen(LoadgenConfig(
                    port=server.port, clients=4, reports_per_client=12,
                    concurrency=1, codec=codec, batch_size=batch_size,
                ))
            finally:
                await server.stop()

        result = asyncio.run(body())
        assert (result.reports_acked, result.reports_dropped) == (48, 0)
        return str(wal_dir)

    def test_json_and_binary_store_equal_dumps(self, tmp_path):
        from repro.serve.wal import wal_segments
        from repro.store import logical_dump

        dumps, wal_bytes = [], []
        for codec, batch_size in (("json", 1), ("binary", 5)):
            wal_dir = self.serve_wal(tmp_path / codec, codec, batch_size)
            wal_bytes.append(b"".join(
                Path(path).read_bytes() for path in wal_segments(wal_dir)
            ))
            conn = connect(str(tmp_path / f"{codec}.sqlite"))
            try:
                import_wal(conn, wal_dir, "wal")
                dumps.append(json.dumps(logical_dump(conn), sort_keys=True))
            finally:
                conn.close()
        assert wal_bytes[0] == wal_bytes[1]
        assert dumps[0] == dumps[1]


class TestImportTelemetry:
    def test_rows_by_table(self, store, tmp_path):
        out = write_telemetry_dir(tmp_path / "tel")
        result = import_telemetry_dir(store, out, "t")
        assert result.rows["metrics"] == 4      # 2 counters + 2 gauges
        assert result.rows["histograms"] == 1
        assert result.rows["spans"] == 2
        assert result.rows["events"] == 4
        assert result.rows["alerts"] == 2
        assert result.rows["event_rollups"] == 4
        run = list_runs(store)[0]
        assert run.kind == "monitor"  # from the manifest's run_kind

    def test_alert_rows_mirror_events(self, store, tmp_path):
        out = write_telemetry_dir(tmp_path / "tel")
        import_telemetry_dir(store, out, "t")
        run_id = list_runs(store)[0].run_id
        rows = store.execute(
            "SELECT transition, rule FROM alerts WHERE run_id = ?"
            " ORDER BY seq", (run_id,)).fetchall()
        assert rows == [("fired", "slo.under_coverage"),
                        ("resolved", "slo.under_coverage")]


class TestClassifyAndImportAny:
    def test_classify_each_shape(self, store, tmp_path):
        wal_dir = write_wal(tmp_path / "wal", [make_report(0)])
        tel_dir = write_telemetry_dir(tmp_path / "tel")
        assert classify_source(wal_dir) == "wal"
        assert classify_source(tel_dir) == "telemetry"
        with pytest.raises(StoreError, match="no such artifact"):
            classify_source(str(tmp_path / "absent"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(StoreError, match="nothing importable"):
            classify_source(str(empty))

    def test_import_any_defaults_label_to_basename(self, store, tmp_path):
        wal_dir = write_wal(tmp_path / "mywal", [make_report(0)])
        shape, result = import_any(store, wal_dir)
        assert shape == "wal"
        assert result.label == "mywal"
        assert [r.label for r in list_runs(store)] == ["mywal"]
