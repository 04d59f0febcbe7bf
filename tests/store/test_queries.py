"""Read-API tests (repro.store.queries), including both byte contracts."""

import json
import math

import pytest

from repro.store import (
    StoreError,
    alert_history,
    compare_runs,
    connect,
    coverage,
    create_run,
    import_telemetry_dir,
    import_wal,
    ingest_reports,
    list_runs,
    logical_dump,
    merged_metrics,
    render_report_from_store,
    replay_snapshot,
    resolve_run,
    slo_attainment,
    summary_from_store,
)

from tests.store.helpers import (
    default_grid,
    make_report,
    write_telemetry_dir,
    write_wal,
)


@pytest.fixture
def store(tmp_path):
    conn = connect(str(tmp_path / "store.sqlite"))
    yield conn
    conn.close()


class TestReplayContract:
    """Contract 1: store replay == in-memory metrics-registry replay."""

    def test_snapshot_byte_identical_to_registry_replay(
            self, store, tmp_path):
        from repro.serve import replay_wal

        reports = [make_report(i) for i in range(40)]
        reports.append(make_report(100, speed_ms=500.0))
        reports.append(make_report(101, end_offset_s=-2.0))
        wal_dir = write_wal(tmp_path / "wal", reports)

        coordinator = replay_wal(wal_dir)
        want = coordinator.metrics.to_json()

        result = import_wal(store, wal_dir, "w")
        run = resolve_run(store, "w")
        got = json.dumps(replay_snapshot(store, run.run_id),
                         indent=2, sort_keys=True)
        assert got == want
        assert result.accepted == 40 and result.rejected == 2

    def test_empty_run_snapshot_has_no_counters(self, store):
        run_id = create_run(store, "empty", "wal")
        snap = replay_snapshot(store, run_id)
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestReportContract:
    """Contract 2: store summary == file-backed ``obs report`` summary."""

    def test_summary_byte_identical_to_file_path(self, store, tmp_path):
        from repro.obs.report import build_summary, load_artifacts

        out = write_telemetry_dir(tmp_path / "tel")
        import_telemetry_dir(store, out, "t")

        want = build_summary(load_artifacts(out))
        got = summary_from_store(str(tmp_path / "store.sqlite"), run="t")
        assert json.dumps(got, indent=2, sort_keys=True) == \
            json.dumps(want, indent=2, sort_keys=True)

    def test_text_report_matches_file_renderer(self, store, tmp_path):
        from repro.obs.report import render_report_from_dir

        out = write_telemetry_dir(tmp_path / "tel")
        import_telemetry_dir(store, out, "t")

        want = render_report_from_dir(out, title="same")
        got = render_report_from_store(
            str(tmp_path / "store.sqlite"), run="t", title="same")
        assert got == want


class TestCoverage:
    def _filled(self, store):
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id,
                       [make_report(i) for i in range(60)], default_grid())
        return run_id

    def test_filters_and_order(self, store):
        run_id = self._filled(store)
        rows = coverage(store, run_id)
        assert rows == sorted(
            rows, key=lambda r: (r.zone[0], r.zone[1], r.epoch_index,
                                 r.network, r.kind))
        ping = coverage(store, run_id, kind="ping")
        assert ping and all(r.kind == "ping" for r in ping)
        net = ping[0].network
        both = coverage(store, run_id, network=net, kind="ping")
        assert both and all(
            r.network == net and r.kind == "ping" for r in both)
        assert coverage(store, run_id, min_samples=10 ** 6) == []

    def test_mean_and_std_derivation(self, store):
        run_id = create_run(store, "r", "wal")
        samples = [0.02, 0.04, 0.06]
        report = make_report(2, samples=samples)  # i=2 -> ping kind
        ingest_reports(store, run_id, [report], default_grid())
        row, = coverage(store, run_id)
        assert row.n_reports == 1 and row.n_samples == 3
        mean = sum(samples) / 3
        var = sum(s * s for s in samples) / 3 - mean ** 2
        assert row.mean == pytest.approx(mean)
        assert row.std == pytest.approx(math.sqrt(var))

    def test_slo_attainment(self, store):
        run_id = create_run(store, "r", "wal")
        ingest_reports(store, run_id,
                       [make_report(i) for i in range(30)], default_grid())
        slo = slo_attainment(store, run_id, floor=1)
        assert slo["floor"] == 1
        assert slo["streams"] == len(coverage(store, run_id))
        assert slo["covered"] == slo["streams"]  # every cell has >= 1
        assert slo["covered_fraction"] == 1.0
        assert sum(v["streams"] for v in slo["by_network"].values()) \
            == slo["streams"]
        none = slo_attainment(store, run_id, floor=10 ** 6)
        assert none["covered"] == 0 and none["covered_fraction"] == 0.0

    def test_slo_of_empty_run_is_vacuously_covered(self, store):
        run_id = create_run(store, "empty", "wal")
        assert slo_attainment(store, run_id)["covered_fraction"] == 1.0


class TestAlertsAndResolve:
    def test_alert_history_and_rule_filter(self, store, tmp_path):
        out = write_telemetry_dir(tmp_path / "tel")
        import_telemetry_dir(store, out, "t")
        run = resolve_run(store, "t")
        rows = alert_history(store, run.run_id)
        assert [r["transition"] for r in rows] == ["fired", "resolved"]
        assert rows[0]["value"] == 0.4 and rows[1]["value"] == 0.9
        assert alert_history(store, run.run_id, rule="nope") == []

    def test_resolve_run_errors(self, store, tmp_path):
        with pytest.raises(StoreError, match="no runs"):
            resolve_run(store)
        out = write_telemetry_dir(tmp_path / "tel")
        import_telemetry_dir(store, out, "a")
        assert resolve_run(store).label == "a"  # only run: no label needed
        import_telemetry_dir(store, out, "b")
        with pytest.raises(StoreError, match="several runs"):
            resolve_run(store)
        with pytest.raises(StoreError, match="no run 'c'"):
            resolve_run(store, "c")


class TestComparison:
    def test_compare_runs_keeps_only_differences(self, store, tmp_path):
        out_a = write_telemetry_dir(tmp_path / "a")
        out_b = write_telemetry_dir(tmp_path / "b", with_alerts=False)
        import_telemetry_dir(store, out_a, "a")
        import_telemetry_dir(store, out_b, "b")
        diff = compare_runs(store, resolve_run(store, "a"),
                            resolve_run(store, "b"))
        assert diff["run_a"] == "a" and diff["run_b"] == "b"
        # the two dirs differ only in alert events, not in any metric
        assert diff["counters"] == {} and diff["gauges"] == {}

    def test_merged_metrics_matches_reducer_fold(self, store, tmp_path):
        from repro.obs.metrics import merge_snapshots
        from repro.obs.report import load_artifacts

        out_a = write_telemetry_dir(tmp_path / "a")
        out_b = write_telemetry_dir(tmp_path / "b", with_alerts=False)
        import_telemetry_dir(store, out_a, "a")
        import_telemetry_dir(store, out_b, "b")
        runs = list_runs(store)
        want = merge_snapshots(
            [load_artifacts(out_a)["metrics"],
             load_artifacts(out_b)["metrics"]],
            gauges="mean", warnings=[])
        assert merged_metrics(store, runs) == want

    def test_logical_dump_ignores_source_paths(self, tmp_path):
        import shutil

        # byte-identical artifacts in two different directories: the
        # dump must not leak the host path difference
        out_a = write_telemetry_dir(tmp_path / "parent_a" / "tel")
        out_b = str(tmp_path / "parent_b" / "tel")
        shutil.copytree(out_a, out_b)
        dumps = []
        for name, out in (("a.sqlite", out_a), ("b.sqlite", out_b)):
            conn = connect(str(tmp_path / name))
            try:
                import_telemetry_dir(conn, out, "tel")
                dumps.append(json.dumps(logical_dump(conn),
                                        sort_keys=True))
            finally:
                conn.close()
        assert dumps[0] == dumps[1]
