"""``repro sweep run|status|merge|list``: sharded experiment sweeps.

A sweep's merged artifacts are byte-identical for any ``--workers``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.common import CommandError, Group, arg, one_of

COMMANDS = Group("sweep", help="parallel sharded experiment sweeps")


def _sweep_grid_from_args(args: argparse.Namespace):
    """Build the grid a ``sweep run`` invocation asked for."""
    from repro.sweep import SweepGrid, preset_grid

    if args.preset:
        try:
            grid = preset_grid(args.preset)
        except KeyError as exc:
            raise CommandError(str(exc.args[0])) from exc
    else:
        try:
            grid = SweepGrid.from_file(args.grid)
        except (OSError, ValueError) as exc:
            raise CommandError(
                f"cannot load grid {args.grid!r}: {exc}") from exc
    if args.seeds:
        try:
            grid.seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise CommandError(f"bad --seeds {args.seeds!r} (expected e.g. "
                               "'7' or '7,8,9')") from exc
    return grid


def _read_json(path: Path):
    """The JSON document at ``path``, or None while it is cut short.

    The sweep rewrites its status files in place, so a reader racing
    the writer can see a truncated or empty file.
    """
    try:
        return json.loads(path.read_text())
    except ValueError:
        return None


@COMMANDS.command(
    "run", "execute a grid of (scenario, seed, override) cells",
    one_of(arg("--preset", help="preset grid name (see 'sweep list')"),
           arg("--grid", help="JSON grid-spec file"),
           required=True),
    arg("out", help="output directory (cells/, merged artifacts)"),
    arg("--workers", type=int, default=1,
        help="worker processes; 1 runs cells inline"),
    arg("--seeds", help="override the grid's world seeds, "
        "comma-separated (e.g. '7,8')"),
    arg("--max-retries", type=int, default=1,
        help="re-runs of a cell whose worker died"),
    arg("--start-method", default="auto",
        choices=("auto", "fork", "spawn", "forkserver"),
        help="multiprocessing start method (auto prefers fork)"),
    arg("--context-cache-max", type=int, default=None, metavar="N",
        help="LRU bound on each worker's memo of landscapes/"
             "traces (caps worker RSS on long grids)"),
    arg("--no-merge", action="store_true",
        help="skip the reduce step (run 'sweep merge' later)"),
    arg("--store", metavar="DB",
        help="after the merge, ingest the whole sweep into this measurement "
             "store (one merged ingest, no per-cell overhead)"),
)
def cmd_sweep_run(args: argparse.Namespace) -> int:
    """``repro sweep run``: execute a preset or grid-file sweep."""
    from repro.sweep import SweepRunner

    grid = _sweep_grid_from_args(args)
    if args.store and args.no_merge:
        raise CommandError("--store requires the merge step (drop "
                           "--no-merge, or run 'sweep merge --store' later)")
    try:
        runner = SweepRunner(
            grid, args.out, workers=args.workers,
            max_retries=args.max_retries, start_method=args.start_method,
            context_cache_max=args.context_cache_max,
            store_path=args.store,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    n = len(grid.cells())
    print(f"sweep {grid.name!r}: {n} cells, {args.workers} worker(s), "
          f"start method {runner.start_method}")
    result = runner.run(merge=not args.no_merge)
    print(f"done in {result.wall_s:.1f}s: {result.ok} ok, "
          f"{result.error} error, {result.failed} failed"
          + (f", {result.retries} retries" if result.retries else ""))
    if not args.no_merge:
        print(f"merged artifacts in {Path(args.out).resolve()} "
              "(metrics.json, summary.jsonl)")
        if args.store:
            print(f"sweep ingested into store {args.store}")
    return 0 if result.success else 1


@COMMANDS.command(
    "status", "progress/status of a sweep output directory",
    arg("out", help="sweep output directory"),
)
def cmd_sweep_status(args: argparse.Namespace) -> int:
    """``repro sweep status``: per-cell progress of a sweep directory."""
    from repro.sweep import (
        CELL_FILENAME,
        CELLS_DIRNAME,
        STATUS_FILENAME,
        SWEEP_MANIFEST_FILENAME,
        SweepManifest,
    )

    out = Path(args.out)
    manifest_path = out / SWEEP_MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise CommandError(f"not a sweep directory (no "
                           f"{SWEEP_MANIFEST_FILENAME}): {out}")
    manifest = SweepManifest.read(str(manifest_path))
    print(f"sweep {manifest['grid'].get('name', '?')!r}: "
          f"{manifest['n_cells']} cells, grid hash "
          f"{manifest['grid_hash'][:12]}, {manifest['workers']} worker(s)")
    counts = {}
    done = 0
    cells_dir = out / CELLS_DIRNAME
    if cells_dir.is_dir():
        for cell in sorted(cells_dir.iterdir()):
            record_path = cell / CELL_FILENAME
            if not record_path.is_file():
                counts["running"] = counts.get("running", 0) + 1
                continue
            record = _read_json(record_path)
            status = ("unreadable" if record is None
                      else record.get("status", "unknown"))
            counts[status] = counts.get(status, 0) + 1
            done += 1
    pct = 100.0 * done / max(1, manifest["n_cells"])
    detail = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"progress: {done}/{manifest['n_cells']} cells ({pct:.0f}%)"
          + (f" — {detail}" if detail else ""))
    status_path = out / STATUS_FILENAME
    if not status_path.is_file():
        print("last run: still in progress (no sweep_status.json yet)")
        return 0
    last = _read_json(status_path)
    if last is None:
        print("last run: unreadable sweep_status.json (a sweep may be "
              "rewriting it)")
    else:
        print(f"last run: {last['wall_s']:.1f}s wall, "
              f"{last['retries']} retries")
    return 0


@COMMANDS.command(
    "merge", "(re-)fold cell artifacts into sweep-level summaries",
    arg("out", help="sweep output directory"),
    arg("--store", metavar="DB", help="also ingest the merged sweep into "
                                      "this measurement store"),
)
def cmd_sweep_merge(args: argparse.Namespace) -> int:
    """``repro sweep merge``: (re-)fold cell outputs into sweep metrics."""
    from repro.sweep import merge_cells

    out = Path(args.out)
    if not out.is_dir():
        raise CommandError(f"no such sweep directory: {out}")
    result = merge_cells(str(out), store_path=args.store)
    print(f"merged {result.cells} cells ({result.ok} ok) into "
          f"{out / 'metrics.json'} and {out / 'summary.jsonl'}")
    if result.store_rows is not None:
        print(f"ingested {result.store_rows} rows into store "
              f"{result.store_path}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0 if result.cells else 1


@COMMANDS.command("list", "available preset grids and scenarios")
def cmd_sweep_list(args: argparse.Namespace) -> int:
    """``repro sweep list``: show available presets and scenarios."""
    from repro.sweep import preset_grid, preset_names, scenario_names

    print("preset grids:")
    for name in preset_names():
        grid = preset_grid(name)
        print(f"  {name:<22} {len(grid.cells()):>3} cells  "
              f"(scenario {', '.join(grid.scenarios)})")
    print("scenarios:")
    for name in scenario_names():
        print(f"  {name}")
    return 0
