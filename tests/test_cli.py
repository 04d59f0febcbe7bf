"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("world-info", "catalog", "generate", "map", "monitor"):
            args = parser.parse_args(
                [cmd] + (["standalone"] if cmd == "generate" else [])
            )
            assert callable(args.func)


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert package_version() in out
        # Off PYTHONPATH=src the fallback is the package attribute.
        assert package_version() == repro.__version__

    def test_parser_build_leaves_importlib_metadata_unloaded(self):
        # The version is resolved only when --version is given, so no
        # other command pays for scanning installed distributions.
        import subprocess
        import sys

        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); print('importlib.metadata' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()


class TestCommands:
    def test_world_info(self, capsys):
        assert main(["world-info", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "NetA" in out and "NetB" in out and "NetC" in out
        assert "km^2" in out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "standalone" in out and "wirover" in out

    def test_generate_unknown_dataset(self, capsys):
        assert main(["generate", "bogus"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_generate_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "seg.jsonl"
        code = main([
            "generate", "short-segment", "--days", "1", "--out", str(out_path)
        ])
        assert code == 0
        assert out_path.exists()
        assert out_path.stat().st_size > 1000

    def test_generate_writes_csv(self, tmp_path):
        out_path = tmp_path / "seg.csv"
        code = main([
            "generate", "short-segment", "--days", "1", "--out", str(out_path)
        ])
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("dataset,")

    def test_monitor_runs(self, capsys):
        code = main(["monitor", "--buses", "2", "--hours", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "published estimates" in out

    def test_monitor_with_telemetry_then_report(self, tmp_path, capsys):
        out_dir = tmp_path / "tel"
        code = main([
            "monitor", "--buses", "2", "--hours", "0.5",
            "--telemetry", str(out_dir),
        ])
        assert code == 0
        for name in ("metrics.json", "events.jsonl", "spans.json",
                     "manifest.json"):
            assert (out_dir / name).exists(), name
        capsys.readouterr()

        assert main(["obs", "report", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "coordinator.ticks" in out
        assert "event volume" in out

    def test_obs_report_missing_dir(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope")]) == 2
        assert "no such telemetry directory" in capsys.readouterr().err


class TestLiveTelemetryFlags:
    def test_snapshot_every_requires_telemetry(self, capsys):
        assert main(["monitor", "--hours", "0.5",
                     "--snapshot-every", "300"]) == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_snapshot_every_must_be_positive(self, tmp_path, capsys):
        assert main(["monitor", "--hours", "0.5",
                     "--telemetry", str(tmp_path / "t"),
                     "--snapshot-every", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("minutes", ["0", "-5", "inf", "nan"])
    def test_epoch_mins_must_be_positive_finite(self, minutes, capsys):
        assert main(["monitor", "--hours", "0.5",
                     "--epoch-mins", minutes]) == 2
        err = capsys.readouterr().err
        assert "--epoch-mins must be a positive finite number" in err
        assert "Traceback" not in err

    def test_alerts_require_snapshots(self, tmp_path, capsys):
        assert main(["monitor", "--hours", "0.5",
                     "--telemetry", str(tmp_path / "t"),
                     "--alerts", "examples/alert_rules.json"]) == 2
        assert "--snapshot-every" in capsys.readouterr().err

    def test_bad_blackout_spec(self, capsys):
        assert main(["monitor", "--hours", "0.5",
                     "--blackout", "2-1"]) == 2
        assert "blackout" in capsys.readouterr().err

    def test_bad_alert_rules_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("{not json")
        assert main(["monitor", "--hours", "0.5",
                     "--telemetry", str(tmp_path / "t"),
                     "--snapshot-every", "300",
                     "--alerts", str(rules)]) == 2
        assert "alert rules" in capsys.readouterr().err

    def test_obs_watch_missing_dir(self, tmp_path, capsys):
        assert main(["obs", "watch", str(tmp_path / "nope")]) == 2
        assert "no such telemetry directory" in capsys.readouterr().err

    def test_obs_diff_missing_dir(self, tmp_path, capsys):
        a = tmp_path / "a"
        a.mkdir()
        assert main(["obs", "diff", str(a), str(tmp_path / "nope")]) == 2
        assert "no such telemetry directory" in capsys.readouterr().err


class TestLiveTelemetryEndToEnd:
    @pytest.fixture(scope="class")
    def live_run(self, tmp_path_factory):
        """One blackout monitor run shared by the assertions below."""
        out_dir = tmp_path_factory.mktemp("live") / "tel"
        import contextlib
        import io

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([
                "monitor", "--buses", "2", "--hours", "1.5",
                "--epoch-mins", "5",
                "--telemetry", str(out_dir),
                "--snapshot-every", "300",
                "--blackout", "0.25-0.75",
            ])
        assert code == 0
        return out_dir, stdout.getvalue()

    def test_blackout_fires_then_resolves(self, live_run):
        out_dir, stdout = live_run
        fired = stdout.index("fired slo.under_coverage")
        assert "resolved slo.under_coverage" in stdout[fired:]
        events = [
            json.loads(line)
            for line in (out_dir / "events.jsonl").read_text().splitlines()
        ]
        kinds = [
            e["kind"] for e in events
            if e.get("rule") == "slo.under_coverage"
        ]
        assert "alert.fired" in kinds
        assert kinds.index("alert.fired") < len(kinds) - 1 or \
            "alert.resolved" in kinds

    def test_snapshots_written(self, live_run):
        out_dir, stdout = live_run
        lines = (out_dir / "snapshots.jsonl").read_text().splitlines()
        assert len(lines) >= 10
        assert "snapshots=" in stdout
        assert (out_dir / "metrics.prom").stat().st_size > 0

    def test_obs_watch(self, live_run, capsys):
        out_dir, _ = live_run
        assert main(["obs", "watch", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "snapshots=" in out
        assert "slo" in out

    def test_obs_report_json(self, live_run, capsys):
        out_dir, _ = live_run
        assert main(["obs", "report", str(out_dir),
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["alerts"]["fired"] >= 1
        assert summary["snapshots"]["count"] >= 10
        assert summary["slo"]  # slo.* gauges present

    def test_obs_diff_identical_dir_reports_no_change(self, live_run,
                                                      capsys):
        out_dir, _ = live_run
        assert main(["obs", "diff", str(out_dir), str(out_dir)]) == 0
        assert "no differences" in capsys.readouterr().out


LIVE_ARGV = ["monitor", "--buses", "2", "--hours", "1.5", "--epoch-mins", "5",
             "--snapshot-every", "300", "--blackout", "0.25-0.75"]


class TestStreamedEventsLive:
    """``events.jsonl`` grows during a ``--telemetry`` run."""

    def test_watch_sees_alerts_mid_run(self, tmp_path, monkeypatch):
        import contextlib
        import io

        from repro.obs.report import render_watch
        from repro.obs.snapshots import SnapshotStreamer

        from repro.obs.events import read_jsonl_tolerant

        out_dir = str(tmp_path / "tel")
        watched, alerts_on_disk = [], []
        capture = SnapshotStreamer.capture

        def alert_times():
            events, _ = read_jsonl_tolerant(f"{out_dir}/events.jsonl")
            return [e["t"] for e in events if e["kind"].startswith("alert.")]

        def capture_then_watch(streamer, t):
            # What an operator polling ``obs watch`` sees once the
            # snapshot's subscribers (the alert engine) have run.
            snap = capture(streamer, t)
            if snap is not None:
                watched.append(render_watch(out_dir))
                alerts_on_disk.append((t, alert_times()))
            return snap

        monkeypatch.setattr(SnapshotStreamer, "capture", capture_then_watch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(LIVE_ARGV + ["--telemetry", out_dir]) == 0
        assert len(watched) >= 10
        assert any("ALERT [" in text for text in watched[:-1])
        assert not any("unparseable line" in text for text in watched)
        # Each snapshot's alerts are on disk as soon as it is taken.
        final = alert_times()
        for t, on_disk in alerts_on_disk:
            assert on_disk == [x for x in final if x <= t]

    def test_stream_closed_when_the_run_raises(self, tmp_path, monkeypatch,
                                               capsys):
        import gc
        import warnings

        from repro.obs import get_telemetry
        from repro.sim.engine import EventEngine

        seen = []

        def crash(engine, until=None, max_events=None):
            seen.append(get_telemetry())
            get_telemetry().emit("before.crash", 0.0)
            raise RuntimeError("boom")

        monkeypatch.setattr(EventEngine, "run", crash)
        out_dir = tmp_path / "tel"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RuntimeError, match="boom"):
                main(LIVE_ARGV + ["--telemetry", str(out_dir)])
            telemetry = seen.pop()
            with pytest.raises(ValueError):
                telemetry.emit("after.crash", 1.0)  # the stream is closed
            del telemetry
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert "before.crash" in (out_dir / "events.jsonl").read_text()


class TestSweepCommands:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "paper-grid" in out
        assert "ablation_epoch" in out

    def test_sweep_run_parallel_matches_serial_bytes(self, tmp_path,
                                                     capsys):
        """ISSUE satellite: 2-worker merged metrics == serial, byte-for-byte."""
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        assert main(["sweep", "run", "--preset", "smoke",
                     str(serial)]) == 0
        assert main(["sweep", "run", "--preset", "smoke", str(pooled),
                     "--workers", "2"]) == 0
        capsys.readouterr()
        for filename in ("metrics.json", "summary.jsonl"):
            assert (serial / filename).read_bytes() == \
                (pooled / filename).read_bytes()

    def test_sweep_run_grid_file_and_seed_override(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"name": "g", "scenario": "smoke",
             "matrix": {"draws": [5, 6]}}
        ))
        out = tmp_path / "out"
        assert main(["sweep", "run", "--grid", str(grid), str(out),
                     "--seeds", "3"]) == 0
        summary = [json.loads(line) for line in
                   (out / "summary.jsonl").read_text().splitlines()]
        assert [r["seed"] for r in summary] == [3, 3]

    def test_sweep_run_unknown_preset(self, tmp_path, capsys):
        assert main(["sweep", "run", "--preset", "nope",
                     str(tmp_path / "o")]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_sweep_run_bad_grid_file(self, tmp_path, capsys):
        assert main(["sweep", "run", "--grid", str(tmp_path / "nope.json"),
                     str(tmp_path / "o")]) == 2
        assert "cannot load grid" in capsys.readouterr().err

    def test_sweep_run_bad_seeds(self, tmp_path, capsys):
        assert main(["sweep", "run", "--preset", "smoke",
                     str(tmp_path / "o"), "--seeds", "x,y"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_sweep_run_failing_cell_exits_nonzero(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"name": "g", "scenario": "error",
                                    "seeds": [1]}))
        assert main(["sweep", "run", "--grid", str(grid),
                     str(tmp_path / "o")]) == 1
        assert "1 error" in capsys.readouterr().out

    def test_sweep_status_and_merge(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "run", "--preset", "smoke", str(out),
                     "--no-merge"]) == 0
        capsys.readouterr()
        assert not (out / "summary.jsonl").exists()
        assert main(["sweep", "status", str(out)]) == 0
        status_text = capsys.readouterr().out
        assert "4/4 cells (100%)" in status_text and "4 ok" in status_text
        assert main(["sweep", "merge", str(out)]) == 0
        assert "merged 4 cells" in capsys.readouterr().out
        assert (out / "summary.jsonl").exists()

    @pytest.mark.parametrize("keep", [0, 10])
    def test_sweep_status_truncated_status_file(self, tmp_path, capsys,
                                                keep):
        # The runner rewrites sweep_status.json in place, so a status
        # read racing the end of a sweep can find it empty or cut short.
        out = tmp_path / "out"
        assert main(["sweep", "run", "--preset", "smoke", str(out),
                     "--no-merge"]) == 0
        status_path = out / "sweep_status.json"
        status_path.write_text(status_path.read_text()[:keep])
        capsys.readouterr()
        assert main(["sweep", "status", str(out)]) == 0
        status_text = capsys.readouterr().out
        assert "4/4 cells (100%)" in status_text
        assert "last run: unreadable sweep_status.json" in status_text

    def test_sweep_status_non_sweep_dir(self, tmp_path, capsys):
        assert main(["sweep", "status", str(tmp_path)]) == 2
        assert "sweep_manifest.json" in capsys.readouterr().err

    def test_obs_report_on_sweep_cell_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "run", "--preset", "smoke", str(out)]) == 0
        capsys.readouterr()
        cell = sorted((out / "cells").iterdir())[0]
        assert main(["obs", "report", str(cell)]) == 0
        report = capsys.readouterr().out
        assert "kind=sweep-cell" in report
        assert cell.name in report
