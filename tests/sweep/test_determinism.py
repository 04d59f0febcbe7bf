"""The sweep's core guarantee: worker count cannot change results.

Every deterministic artifact — per-cell ``cell.json``/``metrics.json``/
``events.jsonl`` and the reduced ``summary.jsonl``/``metrics.json`` —
must be byte-identical whether the grid ran inline, on 2 workers, or on
4, because all randomness is spawn-keyed off content-derived cell ids.
Two grids are checked: the smoke preset, and a small scheduler
ablation, whose cells build a landscape that the runner prewarms before
it starts its workers.
"""

import os

import pytest

from repro.sweep import (
    CELLS_DIRNAME,
    SweepGrid,
    SweepRunner,
    load_summary,
    preset_grid,
)

#: The artifacts the determinism guarantee covers (spans.json and
#: sweep_status.json hold host timings and are deliberately excluded).
DETERMINISTIC_SWEEP_FILES = ("summary.jsonl", "metrics.json")
DETERMINISTIC_CELL_FILES = ("cell.json", "metrics.json", "events.jsonl")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


#: Each grid checked, with the worker counts it runs at.
GRIDS = {
    "smoke": (lambda: preset_grid("smoke"), (1, 2, 4)),
    "scheduler": (lambda: SweepGrid(
        "determinism-scheduler", ["ablation_scheduler"], seeds=[7, 8],
        matrix={"policy": ["budgeted", "greedy"]},
        base={"hours": 1.0, "n_buses": 1},
    ), (1, 2)),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each grid executed at each of its worker counts."""
    base = tmp_path_factory.mktemp("sweep-determinism")
    dirs = {}
    for name, (grid, worker_counts) in GRIDS.items():
        for workers in worker_counts:
            out = str(base / f"{name}-w{workers}")
            result = SweepRunner(grid(), out, workers=workers).run()
            assert result.success, name
            dirs[name, workers] = out
    return dirs


def _pairs(runs, workers):
    """``(grid, serial dir, dir at workers)`` for each grid run there."""
    return [(name, runs[name, 1], runs[name, workers])
            for name, (_, counts) in GRIDS.items() if workers in counts]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("filename", DETERMINISTIC_SWEEP_FILES)
    def test_merged_artifacts_byte_identical(self, runs, workers, filename):
        for name, serial, pooled in _pairs(runs, workers):
            assert _read(os.path.join(serial, filename)) == \
                _read(os.path.join(pooled, filename)), name

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cell_artifacts_byte_identical(self, runs, workers):
        for name, serial, pooled in _pairs(runs, workers):
            serial_cells = os.path.join(serial, CELLS_DIRNAME)
            for cell_id in sorted(os.listdir(serial_cells)):
                for filename in DETERMINISTIC_CELL_FILES:
                    a = os.path.join(serial_cells, cell_id, filename)
                    b = os.path.join(pooled, CELLS_DIRNAME, cell_id,
                                     filename)
                    assert _read(a) == _read(b), \
                        f"{name}: {cell_id}/{filename}"

    def test_rerun_reproduces_bytes(self, runs, tmp_path):
        out = str(tmp_path / "again")
        assert SweepRunner(preset_grid("smoke"), out, workers=2).run().success
        for filename in DETERMINISTIC_SWEEP_FILES:
            assert _read(os.path.join(out, filename)) == \
                _read(os.path.join(runs["smoke", 1], filename))

    def test_metrics_have_no_wallclock(self, runs):
        """Spot-check: nothing time-of-day-ish leaks into summary lines."""
        for name in GRIDS:
            for record in load_summary(runs[name, 1]):
                assert "wall" not in str(sorted(record)).lower()
                assert "duration" not in str(sorted(record)).lower()


class TestStoreTargetDeterminism:
    """The guarantee extends into the measurement store.

    Two sweeps at different worker counts, ingested into two stores,
    must produce equal logical dumps — run labels come from the out
    dir's basename, so both runs use the same basename under different
    parents (host paths are excluded from the dump by design).
    """

    def _run_with_store(self, parent, workers):
        import json

        from repro.store import connect, logical_dump

        out = str(parent / "sweep")
        store_path = str(parent / "store.sqlite")
        result = SweepRunner(preset_grid("smoke"), out, workers=workers,
                             store_path=store_path).run()
        assert result.success
        with open(os.path.join(out, "sweep_status.json")) as fh:
            status = json.load(fh)
        conn = connect(store_path, create=False)
        try:
            dump = json.dumps(logical_dump(conn), sort_keys=True)
        finally:
            conn.close()
        return status, dump

    def test_store_content_invariant_under_worker_count(
            self, tmp_path_factory):
        status_1, dump_1 = self._run_with_store(
            tmp_path_factory.mktemp("store-serial"), workers=1)
        status_2, dump_2 = self._run_with_store(
            tmp_path_factory.mktemp("store-parallel"), workers=2)
        assert status_1["store"]["rows_ingested"] > 0
        assert status_1["store"]["rows_ingested"] == \
            status_2["store"]["rows_ingested"]
        assert dump_1 == dump_2
