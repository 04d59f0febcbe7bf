"""Tests for the sweep reducer: folding cells into sweep-level artifacts."""

import json
import os

from repro.obs.metrics import merge_snapshots
from repro.sweep import SweepGrid, SweepRunner, load_summary, merge_cells


def reducer_fold(cell_metrics, warnings=None):
    """The reducer's fold: cell order, averaged gauges, tolerant buckets."""
    return merge_snapshots(cell_metrics, gauges="mean",
                           warnings=[] if warnings is None else warnings)


def _cell_dir(out, cell_id):
    return os.path.join(out, "cells", cell_id)


class TestMergeMetrics:
    def test_counters_sum_and_gauges_average(self):
        merged = reducer_fold([
            {"counters": {"c": 1.0}, "gauges": {"g": 2.0}},
            {"counters": {"c": 3.0}, "gauges": {"g": 4.0}},
            {"counters": {"other": 5.0}, "gauges": {}},
        ])
        assert merged["counters"] == {"c": 4.0, "other": 5.0}
        # g averaged over the two cells that observed it, not all three.
        assert merged["gauges"] == {"g": 3.0}

    def test_histograms_merge_matching_buckets(self):
        snap = {"buckets": [1.0, 2.0], "counts": [1, 2, 3], "count": 6,
                "sum": 7.5, "min": 0.5, "max": 3.0}
        other = {"buckets": [1.0, 2.0], "counts": [2, 0, 1], "count": 3,
                 "sum": 3.0, "min": 0.1, "max": 2.5}
        merged = reducer_fold([{"histograms": {"h": snap}},
                                {"histograms": {"h": other}}])
        h = merged["histograms"]["h"]
        assert h["counts"] == [3, 2, 4]
        assert h["count"] == 9
        assert h["sum"] == 10.5
        assert h["min"] == 0.1 and h["max"] == 3.0

    def test_mismatched_buckets_warn_and_keep_scalars(self):
        warnings = []
        merged = reducer_fold(
            [
                {"histograms": {"h": {"buckets": [1.0], "counts": [1, 0],
                                      "count": 1, "sum": 0.5}}},
                {"histograms": {"h": {"buckets": [2.0], "counts": [0, 1],
                                      "count": 1, "sum": 2.5}}},
            ],
            warnings,
        )
        h = merged["histograms"]["h"]
        assert h["count"] == 2 and h["sum"] == 3.0
        assert h["buckets"] == [1.0] and h["counts"] == [1, 0]
        assert any("bucket layouts differ" in w for w in warnings)

    def test_gauge_mean_ignores_cells_that_did_not_observe_it(self):
        merged = reducer_fold([{"gauges": {"g": 1.0}}, {},
                                {"gauges": {"g": 2.0}}])
        assert merged["gauges"] == {"g": 1.5}
        assert reducer_fold([]) == {"counters": {}, "gauges": {},
                                     "histograms": {}}


class TestMergeCells:
    def test_merge_matches_runner_output(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20]})
        SweepRunner(grid, out).run(merge=True)
        with open(os.path.join(out, "summary.jsonl"), "rb") as fh:
            first = fh.read()
        result = merge_cells(out)
        assert result.cells == result.ok == 2
        assert not result.warnings
        with open(os.path.join(out, "summary.jsonl"), "rb") as fh:
            assert fh.read() == first

    def test_summary_sorted_by_cell_id(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[2, 1],
                         matrix={"draws": [10]})
        SweepRunner(grid, out).run()
        ids = [r["cell_id"] for r in load_summary(out)]
        assert ids == sorted(ids)

    def test_rollup_counters_by_status(self, tmp_path):
        out = str(tmp_path / "out")
        smoke = SweepGrid("t", ["smoke"], seeds=[1]).cells()
        err = SweepGrid("t", ["error"], seeds=[1]).cells()

        class Mixed(SweepGrid):
            def cells(self):
                return smoke + err

        SweepRunner(Mixed("t", ["smoke"]), out).run()
        with open(os.path.join(out, "metrics.json")) as fh:
            counters = json.load(fh)["counters"]
        assert counters["sweep.cells_total"] == 2.0
        assert counters["sweep.cells_ok"] == 1.0
        assert counters["sweep.cells_error"] == 1.0

    def test_missing_cell_record_warns_but_merges_rest(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20]})
        SweepRunner(grid, out).run(merge=False)
        victim = _cell_dir(out, "smoke-s1-draws=10")
        os.remove(os.path.join(victim, "cell.json"))
        result = merge_cells(out)
        assert result.cells == 1
        assert any("missing cell.json" in w for w in result.warnings)
        assert len(load_summary(out)) == 1

    def test_corrupt_cell_record_warns(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1])
        SweepRunner(grid, out).run(merge=False)
        victim = _cell_dir(out, "smoke-s1-base")
        with open(os.path.join(victim, "cell.json"), "w") as fh:
            fh.write("{not json")
        result = merge_cells(out)
        assert result.cells == 0
        assert any("unreadable cell.json" in w for w in result.warnings)

    def test_empty_dir_warns(self, tmp_path):
        result = merge_cells(str(tmp_path))
        assert result.cells == 0
        assert any("no cells/" in w for w in result.warnings)
