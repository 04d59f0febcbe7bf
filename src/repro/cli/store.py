"""``repro store init|import|query|report|compact``: the SQLite store.

Each handler imports the store itself, so registering these commands
loads no ``sqlite3``.
"""

from __future__ import annotations

import argparse
import sys

from repro._canon import compact_json
from repro.cli.common import CommandError, Group, arg, open_store, print_json

COMMANDS = Group(
    "store", help="embedded queryable measurement store (SQLite)")


@COMMANDS.command(
    "init", "create an empty store (or migrate an existing one)",
    arg("store", help="store file, or a directory to hold store.sqlite"),
)
def cmd_store_init(args: argparse.Namespace) -> int:
    """``repro store init``: create (or migrate) an empty store."""
    from repro.store import SCHEMA_VERSION, resolve_store_path
    from repro.store.schema import schema_version

    with open_store(args.store, create=True) as conn:
        version = schema_version(conn)
    print(f"store {resolve_store_path(args.store)}: schema v{version} "
          f"(current is v{SCHEMA_VERSION})")
    return 0


@COMMANDS.command(
    "import", "backfill a WAL dir, telemetry dir, or sweep root",
    arg("store", help="store file (created if missing)"),
    arg("source", help="artifact directory to import "
                       "(shape is sniffed automatically)"),
    arg("--label", help="run label (default: the source "
                        "directory's basename)"),
    arg("--replace", action="store_true",
        help="re-import over an existing run of this label"),
)
def cmd_store_import(args: argparse.Namespace) -> int:
    """``repro store import``: backfill a WAL/telemetry dir/sweep root."""
    from repro.store import import_any

    with open_store(args.store, create=True) as conn:
        shape, result = import_any(
            conn, args.source, label=args.label, replace=args.replace
        )
    detail = ", ".join(
        f"{n} {table}" for table, n in sorted(result.rows.items())
    )
    print(f"imported {shape} {args.source} as run {result.label!r}: "
          f"{result.rows_ingested} rows ({detail})")
    if result.accepted or result.rejected:
        print(f"reports: {result.accepted} accepted, "
              f"{result.rejected} rejected")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _store_query_payload(conn, args) -> object:
    """Evaluate one ``store query --what`` against an open store."""
    from repro.store import (
        alert_history,
        compare_runs,
        coverage,
        list_runs,
        resolve_run,
        slo_attainment,
        store_stats,
    )

    if args.what == "runs":
        return [
            {"label": r.label, "kind": r.kind, "epoch_s": r.epoch_s,
             "source": r.source}
            for r in list_runs(conn)
        ]
    if args.what == "stats":
        return store_stats(conn)
    if args.what == "compare":
        run_a = resolve_run(conn, args.run_a)
        run_b = resolve_run(conn, args.run_b)
        return compare_runs(conn, run_a, run_b)
    run = resolve_run(conn, args.run)
    if args.what == "coverage":
        return [
            {"zone": list(row.zone), "epoch": row.epoch_index,
             "network": row.network, "kind": row.kind,
             "n_reports": row.n_reports, "n_samples": row.n_samples,
             "mean": row.mean, "min": row.min_value, "max": row.max_value}
            for row in coverage(
                conn, run.run_id, network=args.network, kind=args.kind,
                min_samples=args.min_samples,
            )
        ]
    if args.what == "slo":
        return slo_attainment(conn, run.run_id, floor=args.floor)
    return alert_history(conn, run.run_id, rule=args.rule)


@COMMANDS.command(
    "query", "typed reads: coverage, SLO floors, alerts, runs",
    arg("store", help="store file or directory holding one"),
    arg("--what", required=True, help="which query to run",
        choices=("coverage", "slo", "alerts", "runs", "compare", "stats")),
    arg("--run", help="run label (defaults to the only run)"),
    arg("--network", help="coverage: filter by network id"),
    arg("--kind", help="coverage: filter by measurement kind"),
    arg("--min-samples", type=int, default=0,
        help="coverage: only (zone, epoch) cells with at "
             "least this many samples"),
    arg("--floor", type=int, default=10,
        help="slo: per-(zone, epoch, network) sample floor "
             "(paper Table 2 uses 10)"),
    arg("--rule", help="alerts: filter by rule name"),
    arg("--run-a", help="compare: baseline run label"),
    arg("--run-b", help="compare: comparison run label"),
    arg("--format", choices=("text", "json"), default="text",
        help="text prints one JSON object per line; json "
             "dumps one sorted document"),
)
def cmd_store_query(args: argparse.Namespace) -> int:
    """``repro store query``: typed reads over the rollup tables."""
    if args.what == "compare" and not (args.run_a and args.run_b):
        raise CommandError("--what compare needs --run-a and --run-b")
    with open_store(args.store) as conn:
        payload = _store_query_payload(conn, args)
    if args.format == "json":
        print_json(payload)
    elif isinstance(payload, list):
        for row in payload:
            print(compact_json(row))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {compact_json(value)}")
    return 0


@COMMANDS.command(
    "report", "render the obs report from the store's rollups",
    arg("store", help="store file or directory holding one"),
    arg("--run", help="run label (defaults to the only run)"),
    arg("--format", choices=("text", "json"), default="text",
        help="json byte-matches 'obs report --format json' "
             "on the run's original telemetry directory"),
)
def cmd_store_report(args: argparse.Namespace) -> int:
    """``repro store report`` (and ``obs report`` on a store path)."""
    from repro.store import summary_from_store
    from repro.store.queries import render_report_from_store

    if args.format == "json":
        print_json(summary_from_store(args.store, run=args.run))
    else:
        print(render_report_from_store(args.store, run=args.run))
    return 0


@COMMANDS.command(
    "compact", "retention + ANALYZE + VACUUM + integrity check",
    arg("store", help="store file or directory holding one"),
    arg("--keep-epochs", type=int, default=None, metavar="N",
        help="prune raw samples more than N epochs behind each run's newest "
             "rollup (rollups survive; default keeps everything)"),
)
def cmd_store_compact(args: argparse.Namespace) -> int:
    """``repro store compact``: retention + ANALYZE + VACUUM + check."""
    from repro.store import RetentionPolicy, compact
    from repro.store.maintenance import integrity_check

    with open_store(args.store) as conn:
        result = compact(conn, RetentionPolicy(keep_epochs=args.keep_epochs))
        verdict = integrity_check(conn)
    print(f"compacted: {result.bytes_before} -> {result.bytes_after} bytes "
          f"({result.bytes_reclaimed} reclaimed), "
          f"{result.samples_deleted} samples pruned")
    print(f"integrity: {verdict}")
    return 0 if verdict == "ok" else 1
