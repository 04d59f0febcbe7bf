"""Tests for the sweep execution engine (serial and pooled paths)."""

import json
import os

import pytest

from repro.sweep import (
    CELL_FILENAME,
    CELLS_DIRNAME,
    STATUS_FILENAME,
    SWEEP_MANIFEST_FILENAME,
    SweepGrid,
    SweepManifest,
    SweepRunner,
    load_summary,
    pick_start_method,
)


def _smoke_grid(n=3, seed=1):
    return SweepGrid("t", ["smoke"], seeds=[seed],
                     matrix={"draws": [10 * (i + 1) for i in range(n)]})


class TestStartMethod:
    def test_auto_resolves(self):
        assert pick_start_method("auto") in ("fork", "spawn")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            pick_start_method("no-such-method")


class TestSerialRun:
    def test_writes_full_layout(self, tmp_path):
        out = str(tmp_path / "out")
        result = SweepRunner(_smoke_grid(), out, workers=1).run()
        assert result.success and result.ok == result.total == 3
        assert os.path.isfile(os.path.join(out, SWEEP_MANIFEST_FILENAME))
        assert os.path.isfile(os.path.join(out, STATUS_FILENAME))
        assert os.path.isfile(os.path.join(out, "summary.jsonl"))
        assert os.path.isfile(os.path.join(out, "metrics.json"))
        for record in load_summary(out):
            cell_dir = os.path.join(out, CELLS_DIRNAME, record["cell_id"])
            for fn in (CELL_FILENAME, "metrics.json", "events.jsonl",
                       "spans.json"):
                assert os.path.isfile(os.path.join(cell_dir, fn)), fn

    def test_manifest_written_before_cells_run(self, tmp_path):
        out = str(tmp_path / "out")
        SweepRunner(_smoke_grid(1), out).run(merge=False)
        manifest = SweepManifest.read(
            os.path.join(out, SWEEP_MANIFEST_FILENAME))
        assert manifest["n_cells"] == 1
        assert not os.path.exists(os.path.join(out, "summary.jsonl"))

    def test_scenario_error_is_captured_not_raised(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["error"], seeds=[1],
                         cells=[{"message": "boom"}])
        result = SweepRunner(grid, out).run()
        assert not result.success and result.error == 1
        (record,) = load_summary(out)
        assert record["status"] == "error"
        assert "boom" in record["error"]
        trace = os.path.join(out, CELLS_DIRNAME, record["cell_id"],
                             "traceback.txt")
        assert os.path.isfile(trace)

    def test_status_file_records_schedule(self, tmp_path):
        out = str(tmp_path / "out")
        SweepRunner(_smoke_grid(2), out).run()
        with open(os.path.join(out, STATUS_FILENAME)) as fh:
            status = json.load(fh)
        assert status["cells_total"] == 2
        assert status["workers"] == 1
        assert len(status["durations_s"]) == 2

    def test_invalid_args_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(_smoke_grid(), str(tmp_path), workers=0)
        with pytest.raises(ValueError):
            SweepRunner(_smoke_grid(), str(tmp_path), max_retries=-1)


class TestSharedLandscapes:
    def test_prewarm_fills_shared_store_once(self):
        from repro.sweep import scenarios
        from repro.sweep.scenarios import prewarm_shared_landscapes

        saved = dict(scenarios._SHARED_LANDSCAPES)
        scenarios._SHARED_LANDSCAPES.clear()
        try:
            scenarios._SHARED_LANDSCAPES[("landscape", 3, True, True)] = \
                "sentinel"
            # Seed 3 is already shared: only the sentinel-free seeds
            # would build (none here, so nothing is built at all).
            assert prewarm_shared_landscapes([3, 3]) == 0
        finally:
            scenarios._SHARED_LANDSCAPES.clear()
            scenarios._SHARED_LANDSCAPES.update(saved)

    def test_context_prefers_shared_landscape(self):
        from repro.sweep import scenarios
        from repro.sweep.scenarios import WorkerContext

        saved = dict(scenarios._SHARED_LANDSCAPES)
        scenarios._SHARED_LANDSCAPES.clear()
        try:
            scenarios._SHARED_LANDSCAPES[("landscape", 3, True, True)] = \
                "shared-world"
            ctx = WorkerContext()
            assert ctx.landscape(3) == "shared-world"
            #: Served from the shared store, never copied into the LRU.
            assert ctx.cache_size == 0
        finally:
            scenarios._SHARED_LANDSCAPES.clear()
            scenarios._SHARED_LANDSCAPES.update(saved)

    def test_pool_status_records_prewarm_count(self, tmp_path):
        """Smoke cells never need a landscape, so a pooled smoke run
        records zero prewarmed landscapes (and pays no world build)."""
        out = str(tmp_path / "out")
        SweepRunner(_smoke_grid(), out, workers=2).run(merge=False)
        with open(os.path.join(out, STATUS_FILENAME)) as fh:
            status = json.load(fh)
        assert status["prewarmed_landscapes"] == 0

    def test_prewarm_selects_only_landscape_scenarios(self):
        from repro.sweep.scenarios import get_scenario

        assert get_scenario("smoke").needs_landscape is False
        assert get_scenario("ablation_scheduler").needs_landscape is True


class _Abort(BaseException):
    """Escapes run_cell's ``except Exception``, like a KeyboardInterrupt."""


class TestCellEventStream:
    """A cell's ``events.jsonl`` stream is closed on every exit path."""

    def _run(self, tmp_path, monkeypatch, scenario_fn):
        import gc
        import warnings

        from repro.obs import get_telemetry
        from repro.sweep import runner, scenarios
        from repro.sweep.grid import SweepCell

        seen = []

        def scenario(cell, ctx):
            seen.append(get_telemetry())
            get_telemetry().emit("cell.start", 0.0)
            return scenario_fn(cell, ctx)

        monkeypatch.setattr(scenarios, "get_scenario", lambda name: scenario)
        cell = SweepCell("stub", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                record = runner.run_cell(cell, scenarios.WorkerContext(),
                                         str(tmp_path))
            except _Abort:
                record = None
            telemetry = seen.pop()
            with pytest.raises(ValueError):
                telemetry.emit("late", 1.0)  # the stream is closed
            del telemetry
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        events = tmp_path / CELLS_DIRNAME / cell.cell_id / "events.jsonl"
        assert "cell.start" in events.read_text()
        return record

    def test_scenario_error(self, tmp_path, monkeypatch):
        def fail(cell, ctx):
            raise RuntimeError("scenario error")

        record = self._run(tmp_path, monkeypatch, fail)
        assert record["status"] == "error"

    def test_scenario_abort(self, tmp_path, monkeypatch):
        def abort(cell, ctx):
            raise _Abort

        assert self._run(tmp_path, monkeypatch, abort) is None


class TestContextCache:
    def test_memo_hit_skips_rebuild(self):
        from repro.sweep.scenarios import WorkerContext

        ctx = WorkerContext()
        builds = []
        for _ in range(3):
            value = ctx.memo(("k",), lambda: builds.append(1) or "v")
        assert value == "v"
        assert builds == [1]
        assert ctx.cache_size == 1
        assert ctx.evictions == 0

    def test_lru_evicts_least_recently_used(self):
        from repro.sweep.scenarios import WorkerContext

        ctx = WorkerContext(cache_max=2)
        ctx.memo(("a",), lambda: "A")
        ctx.memo(("b",), lambda: "B")
        ctx.memo(("a",), lambda: "A")  # refresh a: b is now the LRU
        ctx.memo(("c",), lambda: "C")  # evicts b
        assert ctx.evictions == 1
        assert ctx.cache_size == 2
        rebuilt = []
        ctx.memo(("b",), lambda: rebuilt.append(1) or "B")
        assert rebuilt == [1]

    def test_cache_max_validated(self):
        from repro.sweep.scenarios import WorkerContext

        with pytest.raises(ValueError):
            WorkerContext(cache_max=0)
        with pytest.raises(ValueError):
            SweepRunner(_smoke_grid(), "out", context_cache_max=0)

    def test_cap_recorded_in_status_and_metrics(self, tmp_path):
        out = str(tmp_path / "out")
        result = SweepRunner(_smoke_grid(2), out,
                             context_cache_max=4).run()
        assert result.success
        with open(os.path.join(out, STATUS_FILENAME)) as fh:
            status = json.load(fh)
        assert status["context_cache"]["max"] == 4
        assert set(status["context_cache"]["sizes"]) == {"0"}
        (record0, _) = load_summary(out)
        cell_metrics = os.path.join(out, CELLS_DIRNAME,
                                    record0["cell_id"], "metrics.json")
        with open(cell_metrics) as fh:
            metrics = json.load(fh)
        assert metrics["gauges"]["sweep.context_cache_max"] == 4.0

    def test_pool_run_reports_per_worker_sizes(self, tmp_path):
        out = str(tmp_path / "out")
        result = SweepRunner(_smoke_grid(4), out, workers=2,
                             context_cache_max=2).run()
        assert result.success
        with open(os.path.join(out, STATUS_FILENAME)) as fh:
            status = json.load(fh)
        assert status["context_cache"]["max"] == 2
        assert set(status["context_cache"]["sizes"]) == {"0", "1"}


class TestPoolRun:
    def test_pool_completes_all_cells(self, tmp_path):
        out = str(tmp_path / "out")
        result = SweepRunner(_smoke_grid(5), out, workers=2).run()
        assert result.success and result.ok == 5
        assert len(load_summary(out)) == 5

    def test_more_workers_than_cells(self, tmp_path):
        out = str(tmp_path / "out")
        result = SweepRunner(_smoke_grid(1), out, workers=4).run()
        assert result.success and result.total == 1

    def test_worker_death_retried_then_failed(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["crash"], seeds=[1])
        result = SweepRunner(grid, out, workers=2, max_retries=1).run()
        assert result.failed == 1
        assert result.retries >= 1
        (record,) = load_summary(out)
        assert record["status"] == "failed"
        assert "worker died" in record["error"]

    def test_crash_does_not_poison_other_cells(self, tmp_path):
        out = str(tmp_path / "out")
        smoke = _smoke_grid(3).cells()
        crash = SweepGrid("t", ["crash"], seeds=[1]).cells()

        class Mixed(SweepGrid):
            def cells(self):
                return smoke + crash

        result = SweepRunner(Mixed("t", ["smoke"]), out, workers=2,
                             max_retries=1).run()
        statuses = {r["cell_id"]: r["status"] for r in load_summary(out)}
        assert result.failed == 1
        assert all(
            status == "ok"
            for cell_id, status in statuses.items()
            if cell_id.startswith("smoke")
        )
        assert statuses["crash-s1-base"] == "failed"

    def test_in_worker_exception_not_retried(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["error"], seeds=[1])
        result = SweepRunner(grid, out, workers=2).run()
        assert result.error == 1
        assert result.retries == 0
