"""Tests for the perf-regression guard (benchmarks/check_regression.py)
and the records ``benchmarks/run_perf.py`` hands it."""

import json

from benchmarks.check_regression import (
    PERF_PATH,
    check,
    load_history,
    main,
)
from benchmarks import run_perf
from benchmarks.run_perf import (
    BENCH_WORKLOADS,
    CLUSTER_MIN_CPUS,
    SWEEP_MIN_CPUS,
    bench_of_record,
    core_bound,
)

#: The guarded name of ingest-single's throughput (a bench median).
SERVE_RATE = "bench.ingest-single.wall.throughput_per_s"


def _bench(workload, **wall):
    return {"bench": {workload: {f"wall.{k}": v for k, v in wall.items()}}}


def _entry(link=30.0, udp=15.0, serve=None):
    entry = {
        "link_state": {"speedup_batch_vs_scalar": link},
        "udp_train": {"speedup_batch_vs_reference": udp},
    }
    if serve is not None:
        entry.update(_bench("ingest-single", throughput_per_s=serve))
    return entry


class TestCheck:
    def test_no_history_passes(self):
        warnings, failures = check(_entry(), [])
        assert warnings == []
        assert failures == []

    def test_steady_speedups_pass(self):
        history = [_entry(30.0, 15.0) for _ in range(5)]
        warnings, failures = check(_entry(29.0, 15.5), history)
        assert warnings == []
        assert failures == []

    def test_moderate_drop_warns(self):
        history = [_entry(30.0, 15.0) for _ in range(5)]
        warnings, failures = check(_entry(24.0, 15.0), history)  # -20%
        assert len(warnings) == 1
        assert "link_state" in warnings[0]
        assert failures == []

    def test_large_drop_fails(self):
        history = [_entry(30.0, 15.0) for _ in range(5)]
        warnings, failures = check(_entry(30.0, 9.0), history)  # -40%
        assert warnings == []
        assert len(failures) == 1
        assert "udp_train" in failures[0]

    def test_fresh_run_excluded_from_its_own_baseline(self):
        """run_perf.py appends the fresh result to history before the
        guard runs; comparing against yourself would hide regressions."""
        history = [_entry(30.0, 15.0) for _ in range(5)] + [_entry(18.0, 15.0)]
        warnings, failures = check(_entry(18.0, 15.0), history)  # -40% real
        assert len(failures) == 1

    def test_baseline_is_median_of_recent_tail(self):
        # One ancient great run must not dominate five recent ones.
        history = [_entry(100.0, 15.0)] + [_entry(20.0, 15.0)] * 5
        warnings, failures = check(_entry(19.0, 15.0), history)
        assert warnings == []
        assert failures == []

    def test_malformed_fresh_result_fails(self):
        warnings, failures = check({"link_state": {}}, [])
        assert failures

    def test_newly_tracked_metric_seeds_its_own_baseline(self):
        """History predating the serve bench still guards the metrics it
        has; the new metric passes until history accumulates it."""
        history = [_entry(30.0, 15.0) for _ in range(5)]  # no serve key
        warnings, failures = check(
            _entry(30.0, 9.0, serve=5000.0), history  # udp -40% is real
        )
        assert len(failures) == 1
        assert "udp_train" in failures[0]

    def test_serve_throughput_wallclock_band_warns_then_fails(self):
        """Absolute loopback throughput is weather-sensitive: a halving
        is inside the warn band, only past it does the guard fail."""
        history = [_entry(serve=5000.0) for _ in range(5)]
        warnings, failures = check(_entry(serve=2500.0), history)  # -50%
        assert len(warnings) == 1
        assert SERVE_RATE in warnings[0]
        assert failures == []
        warnings, failures = check(_entry(serve=2000.0), history)  # -60%
        assert len(failures) == 1
        assert SERVE_RATE in failures[0]

    def test_serve_latency_guard_is_direction_aware(self):
        """ingest-single's ACK latency regresses by *rising*; a doubling
        is the wallclock fail bound, and a big improvement (drop) never
        trips it."""
        def entry(p50):
            return {**_entry(), **_bench("ingest-single", latency_p50_ms=p50)}

        history = [entry(10.0) for _ in range(5)]
        warnings, failures = check(entry(14.0), history)  # +40% rise
        assert len(warnings) == 1 and failures == []
        warnings, failures = check(entry(25.0), history)  # +150% rise
        assert len(failures) == 1
        assert "bench.ingest-single.wall.latency_p50_ms" in failures[0]
        warnings, failures = check(entry(4.0), history)  # big win
        assert warnings == [] and failures == []

    def test_serve_speedup_ratio_guard_is_tight(self):
        """The batched-vs-unbatched ratio self-normalizes box load, so
        it keeps the tight 30% fail threshold."""
        def entry(speedup):
            e = _entry()
            e["serve"] = {"speedup_batched_vs_unbatched": speedup}
            return e

        history = [entry(4.0) for _ in range(5)]
        warnings, failures = check(entry(2.5), history)  # -38%
        assert len(failures) == 1
        assert "speedup_batched_vs_unbatched" in failures[0]

    def test_mixed_era_history_baselines_per_key(self):
        history = ([_entry(30.0, 15.0)] * 3
                   + [_entry(30.0, 15.0, serve=5000.0)] * 2)
        warnings, failures = check(
            _entry(30.0, 15.0, serve=4900.0), history
        )
        assert warnings == []
        assert failures == []


class TestNotMeasured:
    """Core-bound ratios a small host cannot produce are null + reason."""

    def test_ratio_below_cpu_floor_is_null_with_reason(self):
        assert core_bound(4, 4, lambda: {"speedup": 1.4}, "speedup") == {
            "cpu_count": 4, "speedup": 1.4}

        def must_not_run():
            raise AssertionError("started below its CPU floor")

        assert core_bound(1, 8, must_not_run, "rate", "speedup") == {
            "cpu_count": 1,
            "rate": None,
            "rate_reason": "not measured: cpu_count=1",
            "speedup": None,
            "speedup_reason": "not measured: cpu_count=1",
        }

    def test_guard_accepts_null_fresh_and_history(self, tmp_path):
        def entry(ratio, cpu_count):
            e = _entry(serve=5000.0)
            e["cluster"] = core_bound(
                cpu_count, CLUSTER_MIN_CPUS,
                lambda: {"reports_per_s": 7000.0,
                         "speedup_3shard_vs_1shard": ratio},
                "reports_per_s", "speedup_3shard_vs_1shard")
            # A tracked key recorded as null is skipped like a missing one.
            e["serve"] = {"speedup_batched_vs_unbatched": None}
            return e

        history = [entry(0.56, 1), entry(2.8, 8), entry(None, 1)]
        fresh = entry(0.56, 1)
        assert fresh["cluster"]["speedup_3shard_vs_1shard"] is None
        assert fresh["cluster"]["reports_per_s"] is None
        assert check(fresh, history) == ([], [])
        perf = tmp_path / "BENCH_perf.json"
        perf.write_text(json.dumps(fresh))
        hist = tmp_path / "BENCH_history.jsonl"
        hist.write_text("".join(json.dumps(e) + "\n" for e in history))
        assert main(["--perf", str(perf), "--history", str(hist)]) == 0

    def test_committed_record_has_no_ratio_below_its_cpu_floor(self):
        perf = json.loads(PERF_PATH.read_text())
        for section, keys, floor in (
            ("sweep", ("speedup_4workers_vs_serial",), SWEEP_MIN_CPUS),
            ("cluster", ("speedup_3shard_vs_1shard", "reports_per_s"),
             CLUSTER_MIN_CPUS),
        ):
            entry = perf[section]
            if entry["cpu_count"] < floor:
                for key in keys:
                    assert entry[key] is None, section
                    assert entry[f"{key}_reason"] == (
                        f"not measured: cpu_count={entry['cpu_count']}")


def _child_result(workload, correct=True):
    return {
        "workload": workload, "correct": correct,
        "errors": [] if correct else ["3 of 9 operations failed"],
        "metrics": {"setup_s": 0.2, "peak_rss_mb": 40.0,
                    "wall.throughput_per_s": 1000.0,
                    "wall.latency_p50_ms": 2.5},
        "host": {"cpu_count": 2, "seed": 1},
    }


class TestBenchOfRecord:
    """Serve and store rates come from ``bench.run.run_child``."""

    def test_entries_hold_wall_medians_and_host(self, monkeypatch):
        calls = []

        def fake(workload, seed, seconds, trace):
            calls.append((workload, trace))
            return _child_result(workload)

        monkeypatch.setattr(run_perf, "run_child", fake)
        entries, failures = bench_of_record()
        assert failures == []
        assert calls == [(w, False) for w in BENCH_WORKLOADS]
        assert entries["store-live"] == {
            "correct": True, "wall.throughput_per_s": 1000.0,
            "wall.latency_p50_ms": 2.5,
            "host": {"cpu_count": 2, "seed": 1},
        }

    def test_missing_or_incorrect_result_fails(self, monkeypatch):
        results = {"ingest-single": None,
                   "ingest-batch": _child_result("ingest-batch", False),
                   "store-live": _child_result("store-live")}
        monkeypatch.setattr(run_perf, "run_child",
                            lambda w, *args, **kw: results[w])
        entries, failures = bench_of_record()
        assert entries["ingest-single"] is None
        assert entries["ingest-batch"]["correct"] is False
        assert len(failures) == 2
        assert "ingest-single gave no result" in failures[0]
        assert "3 of 9 operations failed" in failures[1]

    def test_guard_reads_the_bench_entries(self):
        def entry(rate):
            return {**_entry(), **_bench("store-live", throughput_per_s=rate)}

        history = [entry(50_000.0) for _ in range(5)]
        warnings, failures = check(entry(20_000.0), history)  # -60%
        assert failures == [
            "bench.store-live.wall.throughput_per_s: 20000.0 vs baseline "
            "50000.0 (median of 5 run(s), +60% drop)"]


class TestHistoryLoading:
    def test_tolerates_truncated_and_junk_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps(_entry()) + "\n"
            + "not json\n"
            + json.dumps({"unrelated": True}) + "\n"
            + json.dumps(_entry(25.0, 12.0))[:-5] + "\n"
        )
        entries = load_history(str(path))
        assert len(entries) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []


class TestMain:
    def _write(self, tmp_path, fresh, history):
        perf = tmp_path / "BENCH_perf.json"
        perf.write_text(json.dumps(fresh))
        hist = tmp_path / "BENCH_history.jsonl"
        hist.write_text("".join(json.dumps(e) + "\n" for e in history))
        return str(perf), str(hist)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        perf, hist = self._write(tmp_path, _entry(), [_entry()] * 3)
        assert main(["--perf", perf, "--history", hist]) == 0
        assert "perf guard OK" in capsys.readouterr().out

    def test_warning_annotation_format(self, tmp_path, capsys):
        perf, hist = self._write(tmp_path, _entry(24.0, 15.0),
                                 [_entry(30.0, 15.0)] * 3)
        assert main(["--perf", perf, "--history", hist]) == 0
        assert "::warning title=perf regression::" in capsys.readouterr().out

    def test_exit_one_on_failure(self, tmp_path, capsys):
        perf, hist = self._write(tmp_path, _entry(10.0, 15.0),
                                 [_entry(30.0, 15.0)] * 3)
        assert main(["--perf", perf, "--history", hist]) == 1
        assert "FAIL:" in capsys.readouterr().out

    def test_unreadable_perf_exits_one(self, tmp_path):
        assert main(["--perf", str(tmp_path / "nope.json"),
                     "--history", str(tmp_path / "nope.jsonl")]) == 1
