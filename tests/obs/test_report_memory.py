"""The operator report streams its telemetry files.

``repro obs report`` folds ``events.jsonl`` and ``snapshots.jsonl`` one
line at a time, so its memory is bounded by the events it renders (the
alert and recalibration events) rather than by the size of the files,
and ``Telemetry.write_artifacts`` writes ``events.jsonl`` line by line
instead of building the whole file as one string first.  A telemetry
given an ``out_dir`` streams its events to the file as they are
emitted, so the run keeps no event log in memory at all.  The golden
digests pin the report's bytes to what the whole-file loader printed.
"""

import hashlib
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from repro.obs.report import render_report_from_dir, summary_from_dir
from repro.obs.telemetry import Telemetry

#: Events in the synthetic log: about 5 MB of ``events.jsonl``.
N_EVENTS = 50_000
#: Every this many events one is an alert transition or a recalibration.
RARE_EVERY = 2_500

#: Pinned ``tracemalloc`` peak of one report over the synthetic dir.
#: Loading the file whole held every event as a dict: about 30 MB.
REPORT_PEAK_BYTES = 512 * 1024
#: Pinned peak of ``write_artifacts``, as a fraction of the file size.
#: Building the file as one string first cost about twice its size.
WRITE_PEAK_FRACTION = 0.1
#: Pinned heap growth of ``N_EVENTS`` emits to a streamed event log.
#: Retained in memory, the same events take about 23 MB; streamed,
#: about 25 KB.
STREAM_PEAK_BYTES = 1024 * 1024


def _telemetry(n_events: int) -> Telemetry:
    """A telemetry whose event log holds ``n_events`` events."""
    return _emit_events(Telemetry(), n_events)


def _emit_events(tel: Telemetry, n_events: int) -> Telemetry:
    """Emit the synthetic log's ``n_events`` events into ``tel``."""
    tel.counter("coordinator.ticks").inc(n_events)
    for i in range(n_events):
        t = float(i)
        if i % RARE_EVERY == 1:
            kind = "alert.fired" if i % (2 * RARE_EVERY) == 1 \
                else "alert.resolved"
            tel.emit(kind, t, rule="r", metric="m", severity="warning",
                     value=float(i))
        elif i % RARE_EVERY == 2:
            tel.emit("calibration.recalibrate", t, zone=[i % 7, 0],
                     network="NetB", metric="ping", budget_before=100,
                     budget=60, epoch_s_before=1800.0, epoch_s=900.0)
        else:
            tel.emit("task.issue", t, client=f"bus-{i % 10}", zone=[i % 7, 0],
                     network="NetB", task="ping")
    return tel


def _peak(fn):
    """``(peak traced bytes allocated while fn() runs, its result)``."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_telemetry():
    return _telemetry(N_EVENTS)


@pytest.fixture(scope="module")
def big_run(tmp_path_factory, big_telemetry):
    out = tmp_path_factory.mktemp("big")
    big_telemetry.write_artifacts(out)
    return out


class TestReportMemory:
    def test_summary_peak_does_not_scale_with_events(self, big_run):
        summary_from_dir(str(big_run))  # warm lazy imports
        peak, summary = _peak(lambda: summary_from_dir(str(big_run)))
        assert peak < REPORT_PEAK_BYTES
        assert summary["events_total"] == N_EVENTS
        assert summary["alerts"]["fired"] == N_EVENTS // RARE_EVERY // 2

    def test_text_report_peak_does_not_scale_with_events(self, big_run):
        render_report_from_dir(str(big_run))  # warm lazy imports
        peak, text = _peak(lambda: render_report_from_dir(str(big_run)))
        assert peak < REPORT_PEAK_BYTES
        assert "sample-budget convergence" in text

    def test_write_artifacts_adds_no_whole_file_copy(self, tmp_path,
                                                     big_telemetry):
        tel = big_telemetry
        peak, _ = _peak(lambda: tel.write_artifacts(tmp_path / "out"))
        size = (tmp_path / "out" / "events.jsonl").stat().st_size
        assert size > 4_000_000
        assert peak < WRITE_PEAK_FRACTION * size
        assert (tmp_path / "out" / "events.jsonl").read_bytes() == \
            tel.events.to_jsonl().encode("utf-8")

    def test_streamed_emits_do_not_grow_the_heap(self, tmp_path,
                                                 big_telemetry):
        with Telemetry(out_dir=tmp_path) as tel:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _emit_events(tel, N_EVENTS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tel.write_artifacts(tmp_path)
        assert peak - before < STREAM_PEAK_BYTES
        assert (tmp_path / "events.jsonl").read_bytes() == \
            big_telemetry.events.to_jsonl().encode("utf-8")


# -- golden report bytes ------------------------------------------------------

#: ``TestMonitorGolden``'s run (tests/test_golden.py), with snapshots,
#: the example alert rules and a blackout so that every report section
#: and an alert transition render.
GOLDEN_ARGV = ["monitor", "--buses", "3", "--hours", "2", "--epoch-mins", "5",
               "--radius", "1000", "--seed", "7", "--gen-seed", "1",
               "--snapshot-every", "900", "--blackout", "0.25-0.75"]
#: Host-independent stand-in for ``spans.json`` (wall-clock timings).
GOLDEN_SPANS = {"sim.run": {"count": 1, "wall_s": 2.5, "mean_wall_s": 2.5,
                            "cpu_s": 2.4}}
#: SHA-256 of each output, computed with the whole-file loader.
GOLDEN_SHA256 = {
    "run/text":
        "8539983b4e6a89c5747d7cee05c144885b382eeb791d53cd09d5bc608780dfd6",
    "run/json":
        "9e16419d83bd50b1f7296a7be6fc4b07ff5079128caae6f9d3f54e81a3f2859c",
    "run/watch":
        "94f74b29c7c41f7367dca92c55e6e93631e317f855b8539f6e8e5eff74043d6c",
    "torn/text":
        "798023e1e9aafbf6f71bfbd6cf5423c914958898f52c2c04b16d44e19295f843",
    "torn/json":
        "4ea048c0f37ad52b993e98c99800d2d181ed40f0f82f4c9b954721cc305a255c",
    "torn/watch":
        "792869b2edbbb50d5dc66de9eedc437bc96a64a550e5db1c122a6945ead9411d",
}


def _cli_output(capsys, argv):
    from repro import cli

    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def golden_dirs(tmp_path_factory):
    """``run/``: the golden run; ``torn/``: the same with torn tails."""
    import contextlib
    import io

    from repro import cli

    root = tmp_path_factory.mktemp("golden")
    run = root / "run"
    rules = str(Path(__file__).resolve().parents[2]
                / "examples" / "alert_rules.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(GOLDEN_ARGV + ["--alerts", rules,
                                       "--telemetry", str(run)]) == 0
    # Pin what depends on the host: versions, platform, wall-clock spans.
    manifest = json.loads((run / "manifest.json").read_text())
    manifest.pop("versions")
    manifest.pop("platform")
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (run / "spans.json").write_text(json.dumps(GOLDEN_SPANS))
    torn = root / "torn"
    shutil.copytree(run, torn)
    # A writer caught mid-flush: cut inside the two-byte "ï".
    line = json.dumps({"kind": "task.issue", "note": "naïve"},
                      ensure_ascii=False).encode("utf-8")
    with open(torn / "events.jsonl", "ab") as fh:
        fh.write(line[:line.index("ï".encode("utf-8")) + 1])
    with open(torn / "snapshots.jsonl", "ab") as fh:
        fh.write(b'{"v": 1, "seq": 99, "t":')
    return root


class TestGoldenReport:
    """``obs report`` text/JSON and ``obs watch`` bytes are pinned."""

    def _digests(self, capsys, monkeypatch, root):
        monkeypatch.chdir(root)
        out = {}
        for name in ("run", "torn"):
            for view, argv in (("text", ["obs", "report", name]),
                               ("json", ["obs", "report", name,
                                         "--format", "json"]),
                               ("watch", ["obs", "watch", name])):
                text = _cli_output(capsys, argv)
                out[f"{name}/{view}"] = hashlib.sha256(
                    text.encode("utf-8")).hexdigest()
        return out

    def test_report_bytes_match_pin(self, capsys, monkeypatch, golden_dirs):
        assert self._digests(capsys, monkeypatch, golden_dirs) == \
            GOLDEN_SHA256

    def test_torn_dir_warns_once_per_file(self, golden_dirs):
        warnings = summary_from_dir(str(golden_dirs / "torn"))["warnings"]
        assert warnings == [
            "events.jsonl: skipped 1 unparseable line(s)",
            "snapshots.jsonl: skipped 1 unparseable line(s)",
        ]

    def test_store_report_of_torn_dir_equals_file_report(
            self, capsys, golden_dirs):
        store = str(golden_dirs / "torn.sqlite")
        _cli_output(capsys, ["store", "import", store,
                             str(golden_dirs / "torn")])
        from_store = _cli_output(capsys, ["obs", "report", store,
                                          "--format", "json"])
        from_dir = _cli_output(capsys, ["obs", "report",
                                        str(golden_dirs / "torn"),
                                        "--format", "json"])
        assert from_store == from_dir
