"""``repro obs report|watch|diff``: read the telemetry a run left."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import CommandError, Group, arg, print_json
from repro.cli.store import cmd_store_report

COMMANDS = Group("obs", help="observability utilities")


@COMMANDS.command(
    "report", "summarize a telemetry directory (metrics/events/spans)",
    arg("dir", help="telemetry directory written by --telemetry, "
                    "or a measurement store (store.sqlite)"),
    arg("--format", choices=("text", "json"), default="text",
        help="output format (json dumps the same summary model the text "
             "report renders)"),
    arg("--run", help="run label inside a store (defaults to "
                      "the only run; store paths only)"),
)
def cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report``: render a telemetry dir or store (text/JSON).

    A measurement-store path (``store.sqlite`` or a directory holding
    one) is detected automatically and served from its rollup tables;
    the JSON output is byte-identical to the JSONL path on the same
    run.
    """
    from repro.obs.report import render_report_from_dir, summary_from_dir
    from repro.store.db import is_store_path

    out_dir = Path(args.dir)
    if is_store_path(str(out_dir)):
        return cmd_store_report(argparse.Namespace(
            store=str(out_dir), run=args.run, format=args.format))
    if not out_dir.is_dir():
        raise CommandError(f"no such telemetry directory: {out_dir}")
    if args.run:
        raise CommandError("--run applies only to store paths, not "
                           "telemetry directories")
    if args.format == "json":
        print_json(summary_from_dir(str(out_dir)))
    else:
        print(render_report_from_dir(out_dir))
    return 0


@COMMANDS.command(
    "watch", "compact status of a (possibly running) telemetry dir",
    arg("dir", help="telemetry directory written by --telemetry"),
    arg("--follow", action="store_true",
        help="re-render every --interval seconds"),
    arg("--interval", type=float, default=2.0,
        help="seconds between --follow updates"),
    arg("--max-updates", type=int, default=5,
        help="stop --follow after this many renders"),
)
def cmd_obs_watch(args: argparse.Namespace) -> int:
    """``repro obs watch``: tail a live run's snapshot/alert stream."""
    import time

    from repro.obs.report import render_watch

    out_dir = Path(args.dir)
    if not out_dir.is_dir():
        raise CommandError(f"no such telemetry directory: {out_dir}")
    updates = max(1, args.max_updates) if args.follow else 1
    for i in range(updates):
        print(render_watch(str(out_dir)))
        if args.follow and i < updates - 1:
            time.sleep(args.interval)
    return 0


@COMMANDS.command(
    "diff", "compare two runs' final counters/gauges and alerts",
    arg("dir_a", help="baseline telemetry directory or store"),
    arg("dir_b", help="comparison telemetry directory or store"),
    arg("--run-a", help="run label when dir_a is a store"),
    arg("--run-b", help="run label when dir_b is a store"),
)
def cmd_obs_diff(args: argparse.Namespace) -> int:
    """``repro obs diff``: compare two telemetry dirs and/or stores.

    Either side may be a telemetry directory or a measurement store
    (with ``--run-a``/``--run-b`` selecting a run when the store holds
    several); the summaries being diffed are byte-identical across the
    two sources, so mixing them is safe.
    """
    from repro.obs.report import render_diff
    from repro.store.db import is_store_path

    for d in (args.dir_a, args.dir_b):
        if not Path(d).is_dir() and not is_store_path(d):
            raise CommandError(f"no such telemetry directory or store: {d}")
    try:
        print(render_diff(args.dir_a, args.dir_b,
                          run_a=args.run_a, run_b=args.run_b))
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    return 0
