"""Tests for the Telemetry bundle and the ambient global."""

import json
import os

import pytest

from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.telemetry import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    NULL_TELEMETRY,
    SPANS_FILENAME,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.manifest import RunManifest
from repro.obs.snapshots import SnapshotStreamer


class TestBundle:
    def test_enabled_bundle_has_real_parts(self):
        tel = Telemetry()
        assert tel.enabled
        tel.counter("c").inc()
        tel.gauge("g").set(1.0)
        tel.histogram("h").observe(2.0)
        tel.emit("k", 1.0)
        with tel.span("s"):
            pass
        assert tel.metrics.counter_value("c") == 1.0
        assert len(tel.events) == 1
        assert "s" in tel.tracer.snapshot()

    def test_disabled_bundle_uses_shared_nulls(self):
        tel = Telemetry(enabled=False)
        assert not tel.enabled
        assert tel.metrics is NULL_REGISTRY
        assert tel.events is NULL_EVENT_LOG

    def test_write_artifacts(self, tmp_path):
        tel = Telemetry()
        tel.counter("c").inc()
        tel.emit("k", 2.0, note="x")
        with tel.span("s"):
            pass
        manifest = RunManifest("test", 1)
        paths = tel.write_artifacts(tmp_path, manifest=manifest)
        for name in (METRICS_FILENAME, EVENTS_FILENAME, SPANS_FILENAME,
                     MANIFEST_FILENAME):
            assert (tmp_path / name).exists()
        metrics = json.loads((tmp_path / METRICS_FILENAME).read_text())
        assert metrics["counters"]["c"] == 1.0
        assert set(paths) == {"metrics", "events", "spans", "manifest"}

    @pytest.mark.parametrize("make", [
        lambda: Telemetry(enabled=False),
        lambda: Telemetry(events=NULL_EVENT_LOG),
    ], ids=["disabled", "null-events"])
    def test_write_artifacts_returns_only_written_paths(self, tmp_path, make):
        paths = make().write_artifacts(tmp_path)
        assert "events" not in paths
        for path in paths.values():
            assert os.path.exists(path), path


class TestStreamedEvents:
    """``Telemetry(out_dir=...)`` streams ``events.jsonl`` as it goes."""

    def test_events_reach_the_file_before_write_artifacts(self, tmp_path):
        out = tmp_path / "run"
        with Telemetry(out_dir=out) as tel:
            tel.emit("a", 1.0, note="x")
            tel.events.flush()
            assert (out / EVENTS_FILENAME).read_text() == \
                '{"kind":"a","note":"x","seq":0,"t":1.0,"v":1}\n'
            assert len(tel.events) == 0
            tel.emit("b", 2.0)
            paths = tel.write_artifacts(out)
        assert paths["events"] == str(out / EVENTS_FILENAME)
        assert (out / EVENTS_FILENAME).read_text().count("\n") == 2

    def test_past_capacity_nothing_is_dropped(self, tmp_path):
        tel = Telemetry(events=EventLog(capacity=2,
                                        path=tmp_path / EVENTS_FILENAME))
        for i in range(5):
            tel.emit("e", float(i))
        snap = SnapshotStreamer(tel, interval_s=1.0).capture(10.0)
        tel.write_artifacts(tmp_path)
        assert tel.events.dropped == 0 and len(tel.events) == 0
        assert snap["counters"]["obs.events_dropped"] == 0
        metrics = json.loads((tmp_path / METRICS_FILENAME).read_text())
        assert metrics["counters"]["obs.events_dropped"] == 0
        assert len((tmp_path / EVENTS_FILENAME).read_text().splitlines()) == 5

    def test_writing_elsewhere_copies_the_stream(self, tmp_path):
        with Telemetry(out_dir=tmp_path / "a") as tel:
            tel.emit("a", 1.0)
            tel.write_artifacts(tmp_path / "b")
        assert (tmp_path / "b" / EVENTS_FILENAME).read_bytes() == \
            (tmp_path / "a" / EVENTS_FILENAME).read_bytes()

    def test_close_ends_the_stream(self, tmp_path):
        with Telemetry(out_dir=tmp_path) as tel:
            pass
        with pytest.raises(ValueError):
            tel.emit("late", 1.0)

    def test_events_and_out_dir_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            Telemetry(events=EventLog(), out_dir=tmp_path)


class TestAmbient:
    def test_default_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_returns_previous(self):
        tel = Telemetry()
        prev = set_telemetry(tel)
        try:
            assert get_telemetry() is tel
        finally:
            set_telemetry(prev)
        assert get_telemetry() is prev

    def test_use_telemetry_restores_on_exit(self):
        tel = Telemetry()
        with use_telemetry(tel):
            assert get_telemetry() is tel
            with use_telemetry(NULL_TELEMETRY):
                assert get_telemetry() is NULL_TELEMETRY
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_telemetry_restores_on_exception(self):
        tel = Telemetry()
        try:
            with use_telemetry(tel):
                raise RuntimeError
        except RuntimeError:
            pass
        assert get_telemetry() is NULL_TELEMETRY
