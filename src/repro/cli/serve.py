"""``repro serve run|loadgen|replay|cluster``: the coordinator service.

Nothing here imports the store or the WAL at module level, so
``serve run`` loads only the ingest path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import CommandError, Group, arg, open_store, print_json

COMMANDS = Group("serve", help="coordinator-as-a-service utilities")


@COMMANDS.command(
    "run", "run the coordinator as a TCP service",
    arg("--host", default="127.0.0.1"),
    arg("--port", type=int, default=0, help="TCP port (0 picks a free one)"),
    arg("--wal", metavar="DIR",
        help="write-ahead log directory (enables crash "
             "recovery; reused across restarts)"),
    arg("--gen-seed", type=int, default=1),
    arg("--radius", type=float, default=250.0,
        help="zone radius of the coordinator's grid"),
    arg("--max-sessions", type=int, default=4096,
        help="admission control: concurrent session ceiling"),
    arg("--ingest-queue-max", type=int, default=1024,
        help="bounded ingest queue depth (backpressure point)"),
    arg("--idle-timeout", type=float, default=30.0,
        help="close sessions silent for this many seconds"),
    arg("--port-file", metavar="FILE",
        help="write the bound port here once listening "
             "(for harnesses that pass --port 0)"),
    arg("--commit-batch-max", type=int, default=256,
        help="max reports staged per WAL group commit"),
    arg("--wal-fsync-every", type=int, default=64,
        help="fsync after this many WAL records"),
    arg("--wal-fsync-interval", type=float, default=0.0,
        help="also fsync pending WAL records older than this "
             "many seconds (0 disables the time axis)"),
    arg("--shard-id", default="",
        help="this server's shard identity within a cluster "
             "(empty = single-node mode, no REDIRECTs)"),
)
def cmd_serve_run(args: argparse.Namespace) -> int:
    """``repro serve run``: run the coordinator as a TCP service."""
    import asyncio

    from repro.serve import CoordinatorServer, ServeConfig

    cfg = ServeConfig(
        host=args.host, port=args.port,
        gen_seed=args.gen_seed, radius_m=args.radius,
        max_sessions=args.max_sessions,
        ingest_queue_max=args.ingest_queue_max,
        idle_timeout_s=args.idle_timeout,
        commit_batch_max=args.commit_batch_max,
        wal_fsync_every=args.wal_fsync_every,
        wal_fsync_interval_s=args.wal_fsync_interval,
        shard_id=args.shard_id,
    )

    async def serve() -> None:
        server = CoordinatorServer(cfg, wal_dir=args.wal)
        await server.start()
        wal_note = f", WAL in {args.wal}" if args.wal else ", no WAL"
        if args.wal:
            recovered = server.metrics.gauge(
                "serve.wal_recovered_records").value
            if recovered:
                wal_note += f" ({int(recovered)} records recovered)"
        print(f"coordinator service on {cfg.host}:{server.port}{wal_note}")
        sys.stdout.flush()
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted; WAL closed cleanly")
    return 0


@COMMANDS.command(
    "loadgen", "drive a running service with simulated clients",
    arg("--host", default="127.0.0.1"),
    arg("--port", type=int, required=True),
    arg("--clients", type=int, default=100,
        help="total client sessions to run"),
    arg("--reports-per-client", type=int, default=10),
    arg("--concurrency", type=int, default=64,
        help="concurrently open sessions"),
    arg("--codec", choices=("json", "binary"), default="json",
        help="session codec to negotiate (json is the PR-5 wire format)"),
    arg("--batch-size", type=int, default=1,
        help="reports coalesced per REPORT_BATCH frame "
             "(1 keeps the one-REPORT-one-ACK exchange)"),
    arg("--format", choices=("text", "json"), default="text"),
    arg("--cluster", action="store_true",
        help="treat --host/--port as a cluster gateway: fetch the shard map "
             "and route batches to the owning shards directly"),
    arg("--client-offset", type=int, default=0,
        help="added to every client index so parallel loadgen "
             "processes drive disjoint client populations"),
)
def cmd_serve_loadgen(args: argparse.Namespace) -> int:
    """``repro serve loadgen``: stress a running coordinator service."""
    from repro.serve import LoadgenConfig, run_loadgen_sync

    result = run_loadgen_sync(LoadgenConfig(
        host=args.host, port=args.port, clients=args.clients,
        reports_per_client=args.reports_per_client,
        concurrency=args.concurrency, codec=args.codec,
        batch_size=args.batch_size, cluster=args.cluster,
        client_offset=args.client_offset,
    ))
    if args.format == "json":
        print_json(result.to_dict())
    else:
        print(
            f"{result.clients} sessions: {result.sessions_completed} "
            f"completed, {result.sessions_failed} failed"
        )
        print(
            f"reports: {result.reports_sent} sent, {result.reports_acked} "
            f"acked, {result.reports_rejected} rejected, "
            f"{result.retries} retries, {result.reconnects} reconnects, "
            f"{result.reports_dropped} dropped"
        )
        print(
            f"sustained {result.reports_per_s:.0f} reports/s over "
            f"{result.elapsed_s:.2f}s; ACK latency p50 "
            f"{result.ack_p50_ms:.2f} ms, p95 {result.ack_p95_ms:.2f} ms, "
            f"p99 {result.ack_p99_ms:.2f} ms"
        )
        for err in result.errors[:5]:
            print(f"  error: {err}", file=sys.stderr)
    return 0 if result.reports_dropped == 0 and not result.errors else 1


@COMMANDS.command(
    "replay", "rebuild coordinator state offline from a WAL",
    arg("--wal", metavar="DIR", required=True,
        help="WAL directory (or the cluster directory with --cluster)"),
    arg("--format", choices=("text", "json"), default="text",
        help="json prints the full deterministic metrics "
             "snapshot (the recovery byte-compare artifact)"),
    arg("--cluster", action="store_true",
        help="replay every live shard WAL named by "
             "cluster.json and print the aggregated snapshot"),
    arg("--store", metavar="DB",
        help="replay through the measurement store: ingest "
             "the WAL and print the snapshot rebuilt from "
             "rollups (byte-identical to the in-memory path)"),
    arg("--run", help="store run label (default: the WAL "
                      "directory's basename)"),
    arg("--replace", action="store_true",
        help="with --store, re-import over an existing run of the same label"),
)
def cmd_serve_replay(args: argparse.Namespace) -> int:
    """``repro serve replay``: rebuild coordinator state from a WAL.

    With ``--store`` the replay is INSERT-then-SELECT: the WAL is
    ingested into the measurement store (rollups maintained per
    transaction) and the printed JSON snapshot is rebuilt from the
    store's aggregate tables — byte-identical to the in-memory
    metrics-registry replay of the same WAL.
    """
    from repro.serve import replay_cluster, replay_wal

    if not Path(args.wal).is_dir():
        raise CommandError(f"no such WAL directory: {args.wal}")
    if args.store and args.cluster:
        raise CommandError("--store and --cluster are mutually exclusive")
    if args.store:
        from repro.store import import_wal, replay_snapshot, resolve_run

        label = args.run or Path(args.wal).name or "wal"
        with open_store(args.store, create=True) as conn:
            imported = import_wal(conn, args.wal, label,
                                  replace=args.replace)
            run = resolve_run(conn, imported.label)
            snapshot = replay_snapshot(conn, run.run_id)
        if args.format == "json":
            print_json(snapshot)
        else:
            print(
                f"replayed WAL {args.wal} into store run "
                f"{imported.label!r}: {imported.accepted} ingested, "
                f"{imported.rejected} rejected, "
                f"{imported.rows_ingested} rows"
            )
        return 0
    if args.cluster:
        try:
            aggregated, per_shard = replay_cluster(args.wal)
        except FileNotFoundError as exc:
            raise CommandError(str(exc)) from exc
        if args.format == "json":
            print_json(aggregated)
        else:
            ingested = aggregated["counters"].get(
                "coordinator.reports_ingested", 0
            )
            print(
                f"replayed cluster {args.wal}: {len(per_shard)} shard "
                f"WAL(s), {int(ingested)} reports ingested"
            )
        return 0
    coordinator = replay_wal(args.wal)
    if args.format == "json":
        print_json(coordinator.metrics.snapshot())
    else:
        s = coordinator.stats
        print(
            f"replayed WAL {args.wal}: {s.reports_ingested} ingested, "
            f"{s.reports_rejected} rejected, "
            f"{len(coordinator.store)} streams"
        )
    return 0


@COMMANDS.command(
    "cluster", "run a zone-sharded coordinator cluster",
    arg("--dir", metavar="DIR", required=True,
        help="cluster directory (per-shard WALs, logs, and "
             "the cluster.json manifest)"),
    arg("--shards", type=int, default=3,
        help="shard processes to spawn at startup"),
    arg("--port", type=int, default=0,
        help="gateway TCP port (0 picks a free one)"),
    arg("--port-file", metavar="FILE",
        help="write the gateway port here once listening"),
    arg("--gen-seed", type=int, default=1),
    arg("--radius", type=float, default=250.0,
        help="zone radius of the shared grid (map + shards)"),
    arg("--ingest-queue-max", type=int, default=1024,
        help="per-shard bounded ingest queue depth"),
    arg("--commit-batch-max", type=int, default=256,
        help="per-shard WAL group-commit ceiling"),
    arg("--wal-fsync-every", type=int, default=64,
        help="per-shard fsync cadence (records)"),
)
def cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve cluster``: run a sharded cluster behind a gateway."""
    import asyncio
    import signal

    from repro.serve import ClusterConfig, LocalCluster

    cfg = ClusterConfig(
        cluster_dir=args.dir, shards=args.shards, gateway_port=args.port,
        gen_seed=args.gen_seed, radius_m=args.radius,
        ingest_queue_max=args.ingest_queue_max,
        commit_batch_max=args.commit_batch_max,
        wal_fsync_every=args.wal_fsync_every,
    )

    async def run() -> None:
        cluster = LocalCluster(cfg)
        await cluster.start()
        print(
            f"cluster gateway on {cfg.host}:{cluster.gateway_port} "
            f"({len(cluster.live_shards)} shards, map "
            f"{cluster.shard_map.version}); SIGUSR1 adds a shard"
        )
        sys.stdout.flush()
        if args.port_file:
            Path(args.port_file).write_text(f"{cluster.gateway_port}\n")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        if hasattr(signal, "SIGUSR1"):
            loop.add_signal_handler(
                signal.SIGUSR1,
                lambda: asyncio.ensure_future(cluster.add_shard()),
            )
        try:
            await stop.wait()
        finally:
            await cluster.stop()

    asyncio.run(run())
    print("cluster stopped; shard WALs closed cleanly")
    return 0
