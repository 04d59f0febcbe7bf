"""Parallel sharded experiment sweeps (`repro sweep`).

Shards a declarative grid of (scenario, seed, config-override) cells
across a multiprocessing worker pool with deterministic per-cell RNG:
results are byte-identical regardless of worker count or schedule.  See
DESIGN.md §9 for the architecture and docs/EXPERIMENTS-GUIDE.md for the
paper-figure grids built on top of it.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "grid": (
        "CELL_FILENAME",
        "CELLS_DIRNAME",
        "STATUS_FILENAME",
        "SUMMARY_FILENAME",
        "SWEEP_MANIFEST_FILENAME",
        "SweepCell",
        "SweepGrid",
        "SweepManifest",
    ),
    "reduce": ("MergeResult", "load_summary", "merge_cells"),
    "runner": ("SweepResult", "SweepRunner", "pick_start_method"),
    "scenarios": (
        "WorkerContext",
        "get_scenario",
        "preset_grid",
        "preset_names",
        "scenario",
        "scenario_names",
    ),
})

__all__ = [
    "SweepCell",
    "SweepGrid",
    "SweepManifest",
    "SweepRunner",
    "SweepResult",
    "WorkerContext",
    "MergeResult",
    "merge_cells",
    "load_summary",
    "pick_start_method",
    "scenario",
    "get_scenario",
    "scenario_names",
    "preset_grid",
    "preset_names",
    "SWEEP_MANIFEST_FILENAME",
    "SUMMARY_FILENAME",
    "STATUS_FILENAME",
    "CELLS_DIRNAME",
    "CELL_FILENAME",
]
