"""Command-line interface: ``python -m repro <command>``.

Small operational entry points for exploring the reproduction without
writing code:

* ``world-info``   — describe the synthetic landscape (carriers, regions,
  stations, failure patches);
* ``catalog``      — print the dataset catalog (paper Table 2);
* ``generate``     — generate one of the paper's datasets to JSONL/CSV;
* ``map``          — generate a quick trace and render the city
  throughput map as ASCII (a terminal Fig 1);
* ``monitor``      — run the coordinator over a bus fleet for N sim
  hours and print what WiScape learned; ``--telemetry OUT_DIR``
  additionally captures metrics/events/spans/manifest artifacts, and
  ``--snapshot-every N`` streams periodic metric snapshots through the
  alert/SLO pipeline (``--alerts RULES_FILE``, ``--serve-metrics PORT``);
* ``obs report``   — summarize a telemetry directory (text or
  ``--format json``);
* ``obs watch``    — compact live status of a (running) telemetry dir;
* ``obs diff``     — compare two runs' final counters and alerts;
* ``sweep run``    — execute a (preset or JSON-file) experiment grid
  across a worker pool, byte-identical for any ``--workers``;
* ``sweep status`` — progress/status of a sweep output directory;
* ``sweep merge``  — (re-)fold per-cell artifacts into the sweep-level
  ``metrics.json`` + ``summary.jsonl``;
* ``sweep list``   — available preset grids and scenarios;
* ``serve run``    — run the coordinator as a TCP service (wire protocol
  + optional write-ahead log for crash recovery);
* ``serve loadgen``— drive a running service with simulated client
  sessions and report throughput/latency/backpressure;
* ``serve replay`` — rebuild coordinator state offline from a WAL
  directory (or a whole cluster with ``--cluster``) and print its
  metrics snapshot;
* ``serve cluster``— run a zone-sharded coordinator cluster: N shard
  processes behind a routing gateway (SIGUSR1 adds a shard; a killed
  shard is rebalanced and its WAL drained into the survivors).

``repro --version`` prints the package version (from installed
metadata when available, else the source tree's ``__version__``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Attach the flags shared by every world-building subcommand."""
    parser.add_argument("--seed", type=int, default=7, help="world seed")


def package_version() -> str:
    """The installed package version, else the source ``__version__``.

    ``importlib.metadata`` answers for a pip-installed tree; running
    straight off ``PYTHONPATH=src`` (the repo's usual mode) has no
    installed distribution, so fall back to the package attribute.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except (ImportError, PackageNotFoundError):
        import repro

        return getattr(repro, "__version__", "unknown")


def cmd_world_info(args: argparse.Namespace) -> int:
    """``repro world-info``: summarize the synthetic radio landscape."""
    from repro.radio.network import build_landscape

    landscape = build_landscape(seed=args.seed)
    area = landscape.study_area
    print(f"seed {args.seed}: {len(landscape.networks)} carriers over "
          f"{area.area_km2:.0f} km^2 ({area.name})")
    if landscape.road is not None:
        print(f"road corridor: {landscape.road.name}, {landscape.road.length_km:.0f} km")
    for net in landscape.network_ids():
        network = landscape.network(net)
        stations = sum(len(b.spatial.stations) for b in network.bindings)
        regions = ", ".join(sorted({b.name for b in network.bindings}))
        print(
            f"  {net.value}: {network.params.technology.name}, "
            f"base {network.params.base_downlink_bps / 1e6:.2f} Mbps down, "
            f"{stations} sites, regions [{regions}], "
            f"{len(network.failure_patches)} failure patches"
        )
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    """``repro catalog``: print the table of generatable datasets."""
    from repro.datasets.catalog import catalog_table

    print(catalog_table())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: synthesize one catalog dataset to CSV/JSONL."""
    from repro.datasets.catalog import DATASET_CATALOG
    from repro.datasets.generator import DatasetGenerator
    from repro.datasets.io import write_csv, write_jsonl
    from repro.geo.regions import NEW_BRUNSWICK, madison_spot_locations
    from repro.radio.network import build_landscape
    from repro.radio.technology import NetworkId

    if args.dataset not in DATASET_CATALOG:
        print(f"unknown dataset {args.dataset!r}; options: "
              f"{', '.join(sorted(DATASET_CATALOG))}", file=sys.stderr)
        return 2
    landscape = build_landscape(seed=args.seed)
    generator = DatasetGenerator(landscape, seed=args.gen_seed)

    wi = madison_spot_locations(1)[0]
    builders = {
        "standalone": lambda: generator.standalone(days=args.days),
        "wirover": lambda: generator.wirover(days=args.days),
        "short-segment": lambda: generator.short_segment(days=args.days),
        "static-wi": lambda: generator.static_spot(wi, "wi", days=args.days),
        "static-nj": lambda: generator.static_spot(
            NEW_BRUNSWICK, "nj",
            networks=[NetworkId.NET_B, NetworkId.NET_C], days=args.days,
        ),
        "proximate-wi": lambda: generator.proximate(wi, "wi", days=args.days),
        "proximate-nj": lambda: generator.proximate(
            NEW_BRUNSWICK, "nj",
            networks=[NetworkId.NET_B, NetworkId.NET_C], days=args.days,
        ),
    }
    print(f"generating {args.dataset} ({args.days} days)...")
    records = builders[args.dataset]()
    out = Path(args.out or f"{args.dataset}.jsonl")
    if out.suffix == ".csv":
        write_csv(records, out)
    else:
        write_jsonl(records, out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    """``repro map``: render an ASCII zone-throughput map of the city."""
    from repro.analysis.figures import zone_throughput_map
    from repro.analysis.maps import render_zone_map
    from repro.datasets.generator import DatasetGenerator
    from repro.geo.zones import ZoneGrid
    from repro.radio.network import build_landscape
    from repro.radio.technology import NetworkId

    landscape = build_landscape(seed=args.seed, include_road=False, include_nj=False)
    generator = DatasetGenerator(landscape, seed=args.gen_seed)
    print(f"surveying the city ({args.days} days of bus data)...")
    trace = generator.standalone(days=args.days, interval_s=180.0, ping_count=2)
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=args.radius)
    entries = zone_throughput_map(trace, grid, NetworkId.NET_B, min_samples=10)
    values = {e.zone_id: e.mean_bps for e in entries}
    print(f"\nNetB mean TCP throughput, {len(values)} zones, "
          f"{args.radius:.0f} m radius:")
    print(render_zone_map(values))
    return 0


def _parse_blackout(spec: str) -> Optional[tuple]:
    """Parse ``H1-H2`` (sim hours after run start) into floats."""
    try:
        lo_s, hi_s = spec.split("-", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        return None
    if hi <= lo or lo < 0:
        return None
    return lo, hi


def cmd_monitor(args: argparse.Namespace) -> int:
    """``repro monitor``: run the bus-fleet monitoring simulation."""
    from repro.clients.agent import ClientAgent
    from repro.clients.device import Device, DeviceCategory
    from repro.core.config import WiScapeConfig
    from repro.core.controller import MeasurementCoordinator
    from repro.geo.zones import ZoneGrid
    from repro.mobility.routes import city_bus_routes
    from repro.mobility.vehicles import TransitBus
    from repro.obs import (
        NULL_TELEMETRY,
        AlertEngine,
        MetricsHTTPServer,
        PROM_FILENAME,
        PromFileWriter,
        RunManifest,
        SNAPSHOTS_FILENAME,
        SnapshotStreamer,
        Telemetry,
        default_slo_rules,
        load_rules,
        use_telemetry,
    )
    from repro.radio.network import build_landscape
    from repro.radio.technology import NetworkId
    from repro.sim.engine import EventEngine

    if args.snapshot_every is not None and args.snapshot_every <= 0:
        print("--snapshot-every must be positive", file=sys.stderr)
        return 2
    if args.snapshot_every and not args.telemetry:
        print("--snapshot-every requires --telemetry OUT_DIR", file=sys.stderr)
        return 2
    if args.alerts and not args.snapshot_every:
        print("--alerts requires --snapshot-every (alerts are judged on "
              "streamed snapshots)", file=sys.stderr)
        return 2
    if args.serve_metrics is not None and not args.snapshot_every:
        print("--serve-metrics requires --snapshot-every", file=sys.stderr)
        return 2
    blackout = None
    if args.blackout:
        blackout = _parse_blackout(args.blackout)
        if blackout is None:
            print(f"bad --blackout {args.blackout!r} (expected H1-H2 sim "
                  "hours, H2 > H1 >= 0)", file=sys.stderr)
            return 2

    config = None
    if args.epoch_mins is not None:
        if args.epoch_mins <= 0:
            print("--epoch-mins must be positive", file=sys.stderr)
            return 2
        epoch_s = args.epoch_mins * 60.0
        defaults = WiScapeConfig()
        config = WiScapeConfig(
            default_epoch_s=epoch_s,
            min_epoch_s=min(defaults.min_epoch_s, epoch_s),
            max_epoch_s=max(defaults.max_epoch_s, epoch_s),
        )

    rules = None
    if args.snapshot_every:
        rules = default_slo_rules()
        if args.alerts:
            try:
                rules += load_rules(args.alerts)
            except (OSError, ValueError, RuntimeError) as exc:
                print(f"cannot load alert rules: {exc}", file=sys.stderr)
                return 2

    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    with use_telemetry(telemetry):
        landscape = build_landscape(
            seed=args.seed, include_road=False, include_nj=False
        )
        grid = ZoneGrid(landscape.study_area.anchor, radius_m=args.radius)
        coordinator = MeasurementCoordinator(
            grid, config=config, seed=args.gen_seed, telemetry=telemetry
        )
        routes = city_bus_routes(landscape.study_area, count=8)
        nets = [NetworkId.NET_B, NetworkId.NET_C]
        start = 6.0 * 3600.0
        for b in range(args.buses):
            bus = TransitBus(bus_id=b, routes=routes, seed=b)
            device = Device(f"bus-{b}", DeviceCategory.SBC_PCMCIA, nets, seed=b)
            agent = ClientAgent(f"bus-{b}", device, bus, landscape, seed=b)
            if blackout is not None:
                agent.add_blackout(
                    start + blackout[0] * 3600.0, start + blackout[1] * 3600.0
                )
            coordinator.register_client(agent)

        engine = EventEngine()
        engine.clock.reset(start)
        until = start + args.hours * 3600.0
        print(f"monitoring with {args.buses} buses for {args.hours} sim hours...")
        coordinator.attach(engine, until=until)
        streamer = None
        alert_engine = None
        http_server = None
        if args.snapshot_every:
            streamer = SnapshotStreamer(
                telemetry,
                interval_s=args.snapshot_every,
                out_path=os.path.join(args.telemetry, SNAPSHOTS_FILENAME),
            )
            streamer.add_provider(lambda t: engine.publish_loop_stats())
            streamer.add_provider(
                lambda t: landscape.publish_cache_metrics(telemetry)
            )
            alert_engine = AlertEngine(rules, telemetry)
            streamer.subscribe(alert_engine.evaluate)
            streamer.subscribe(
                PromFileWriter(os.path.join(args.telemetry, PROM_FILENAME))
            )
            if args.serve_metrics is not None:
                http_server = MetricsHTTPServer(port=args.serve_metrics)
                streamer.subscribe(http_server)
                http_server.start()
                print(f"serving metrics on "
                      f"http://{http_server.host}:{http_server.port}/metrics")
            streamer.attach(engine, until=until)
        try:
            engine.run(until=until)
        finally:
            if streamer is not None:
                streamer.close()
            if http_server is not None:
                http_server.stop()

        s = coordinator.stats
        streams = len(coordinator.store)
        published = sum(1 for r in coordinator.store.records() if r.published)
        print(
            f"ticks={s.ticks} tasks={s.tasks_issued} reports={s.reports_ingested} "
            f"epochs={s.epochs_closed} alerts={len(coordinator.alerts)}"
        )
        print(f"{streams} (zone,carrier,kind) streams; {published} published estimates")
        if alert_engine is not None:
            fired = sum(1 for tr in alert_engine.transitions if tr[1] == "fired")
            resolved = len(alert_engine.transitions) - fired
            print(f"snapshots={streamer.snapshots_taken} "
                  f"alerts fired={fired} resolved={resolved}")
            for t, transition, rule, metric, value in alert_engine.transitions:
                print(f"  t={t:.0f}s {transition} {rule} on {metric} "
                      f"(value={value:.6g})")

        if args.telemetry:
            landscape.publish_cache_metrics(telemetry)
            extra = {"buses": args.buses, "hours": args.hours}
            if args.snapshot_every:
                extra["snapshot_every_s"] = args.snapshot_every
            if blackout is not None:
                extra["blackout_hours"] = list(blackout)
            manifest = RunManifest(
                run_kind="monitor",
                seed=args.seed,
                gen_seed=args.gen_seed,
                config=coordinator.config,
                zone_grid={"radius_m": args.radius},
                extra=extra,
            )
            paths = telemetry.write_artifacts(args.telemetry, manifest=manifest)
            print(f"telemetry written to {Path(args.telemetry).resolve()} "
                  f"({', '.join(sorted(paths))})")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report``: render a telemetry dir or store (text/JSON).

    A measurement-store path (``store.sqlite`` or a directory holding
    one) is detected automatically and served from its rollup tables;
    the JSON output is byte-identical to the JSONL path on the same
    run.
    """
    import json

    from repro.obs.report import render_report_from_dir, summary_from_dir
    from repro.store.db import is_store_path

    out_dir = Path(args.dir)
    if is_store_path(str(out_dir)):
        return cmd_store_report(argparse.Namespace(
            store=str(out_dir), run=args.run, format=args.format))
    if not out_dir.is_dir():
        print(f"no such telemetry directory: {out_dir}", file=sys.stderr)
        return 2
    if args.run:
        print("--run applies only to store paths, not telemetry "
              "directories", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary_from_dir(str(out_dir)), indent=2,
                         sort_keys=True))
    else:
        print(render_report_from_dir(out_dir))
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """``repro obs watch``: tail a live run's snapshot/alert stream."""
    import time

    from repro.obs.report import render_watch

    out_dir = Path(args.dir)
    if not out_dir.is_dir():
        print(f"no such telemetry directory: {out_dir}", file=sys.stderr)
        return 2
    updates = max(1, args.max_updates) if args.follow else 1
    for i in range(updates):
        print(render_watch(str(out_dir)))
        if args.follow and i < updates - 1:
            time.sleep(args.interval)
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """``repro obs diff``: compare two telemetry dirs and/or stores.

    Either side may be a telemetry directory or a measurement store
    (with ``--run-a``/``--run-b`` selecting a run when the store holds
    several); the summaries being diffed are byte-identical across the
    two sources, so mixing them is safe.
    """
    from repro.obs.report import render_diff
    from repro.store import StoreError
    from repro.store.db import is_store_path

    for d in (args.dir_a, args.dir_b):
        if not Path(d).is_dir() and not is_store_path(d):
            print(f"no such telemetry directory or store: {d}",
                  file=sys.stderr)
            return 2
    try:
        print(render_diff(args.dir_a, args.dir_b,
                          run_a=args.run_a, run_b=args.run_b))
    except (StoreError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _sweep_grid_from_args(args: argparse.Namespace):
    """Build the grid a ``sweep run`` invocation asked for, or None."""
    from repro.sweep import SweepGrid, preset_grid

    if args.preset:
        try:
            grid = preset_grid(args.preset)
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return None
    else:
        try:
            grid = SweepGrid.from_file(args.grid)
        except (OSError, ValueError) as exc:
            print(f"cannot load grid {args.grid!r}: {exc}", file=sys.stderr)
            return None
    if args.seeds:
        try:
            grid.seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            print(f"bad --seeds {args.seeds!r} (expected e.g. '7' or "
                  "'7,8,9')", file=sys.stderr)
            return None
    return grid


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """``repro sweep run``: execute a preset or grid-file sweep."""
    from repro.sweep import SweepRunner

    grid = _sweep_grid_from_args(args)
    if grid is None:
        return 2
    if args.store and args.no_merge:
        print("--store requires the merge step (drop --no-merge, or run "
              "'sweep merge --store' later)", file=sys.stderr)
        return 2
    try:
        runner = SweepRunner(
            grid, args.out, workers=args.workers,
            max_retries=args.max_retries, start_method=args.start_method,
            context_cache_max=args.context_cache_max,
            store_path=args.store,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
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


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """``repro sweep status``: per-cell progress of a sweep directory."""
    import json

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
        print(f"not a sweep directory (no {SWEEP_MANIFEST_FILENAME}): "
              f"{out}", file=sys.stderr)
        return 2
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
            try:
                status = json.loads(record_path.read_text()).get(
                    "status", "unknown")
            except ValueError:
                status = "unreadable"
            counts[status] = counts.get(status, 0) + 1
            done += 1
    pct = 100.0 * done / max(1, manifest["n_cells"])
    detail = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"progress: {done}/{manifest['n_cells']} cells ({pct:.0f}%)"
          + (f" — {detail}" if detail else ""))
    status_path = out / STATUS_FILENAME
    if status_path.is_file():
        status = json.loads(status_path.read_text())
        print(f"last run: {status['wall_s']:.1f}s wall, "
              f"{status['retries']} retries")
    else:
        print("last run: still in progress (no sweep_status.json yet)")
    return 0


def cmd_sweep_merge(args: argparse.Namespace) -> int:
    """``repro sweep merge``: (re-)fold cell outputs into sweep metrics."""
    from repro.sweep import merge_cells

    out = Path(args.out)
    if not out.is_dir():
        print(f"no such sweep directory: {out}", file=sys.stderr)
        return 2
    result = merge_cells(str(out), store_path=args.store)
    print(f"merged {result.cells} cells ({result.ok} ok) into "
          f"{out / 'metrics.json'} and {out / 'summary.jsonl'}")
    if result.store_rows is not None:
        print(f"ingested {result.store_rows} rows into store "
              f"{result.store_path}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0 if result.cells else 1


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


def cmd_serve_run(args: argparse.Namespace) -> int:
    """``repro serve run``: run the coordinator as a TCP service."""
    import asyncio

    from repro.serve import CoordinatorServer, ServeConfig, install_uvloop

    if args.uvloop and not install_uvloop():
        print("uvloop requested but not installed; using stdlib asyncio",
              file=sys.stderr)
    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        seed=args.seed,
        gen_seed=args.gen_seed,
        radius_m=args.radius,
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


def cmd_serve_loadgen(args: argparse.Namespace) -> int:
    """``repro serve loadgen``: stress a running coordinator service."""
    import json

    from repro.serve import LoadgenConfig, run_loadgen_sync

    cfg = LoadgenConfig(
        host=args.host,
        port=args.port,
        clients=args.clients,
        reports_per_client=args.reports_per_client,
        concurrency=args.concurrency,
        codec=args.codec,
        batch_size=args.batch_size,
        cluster=args.cluster,
        client_offset=args.client_offset,
    )
    result = run_loadgen_sync(cfg)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
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


def cmd_serve_replay(args: argparse.Namespace) -> int:
    """``repro serve replay``: rebuild coordinator state from a WAL.

    With ``--store`` the replay is INSERT-then-SELECT: the WAL is
    ingested into the measurement store (rollups maintained per
    transaction) and the printed JSON snapshot is rebuilt from the
    store's aggregate tables — byte-identical to the in-memory
    metrics-registry replay of the same WAL.
    """
    import json

    from repro.serve import WalCorruptionError, replay_cluster, replay_wal

    if not Path(args.wal).is_dir():
        print(f"no such WAL directory: {args.wal}", file=sys.stderr)
        return 2
    if args.store and args.cluster:
        print("--store and --cluster are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.store:
        from repro.store import (
            StoreError,
            connect,
            import_wal,
            replay_snapshot,
            resolve_run,
            resolve_store_path,
        )

        label = args.run or Path(args.wal).name or "wal"
        try:
            conn = connect(resolve_store_path(args.store))
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            imported = import_wal(conn, args.wal, label,
                                  replace=args.replace)
            run = resolve_run(conn, imported.label)
            snapshot = replay_snapshot(conn, run.run_id)
        except WalCorruptionError as exc:
            print(f"WAL is corrupt: {exc}", file=sys.stderr)
            return 1
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        finally:
            conn.close()
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
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
            print(str(exc), file=sys.stderr)
            return 2
        except WalCorruptionError as exc:
            print(f"WAL is corrupt: {exc}", file=sys.stderr)
            return 1
        if args.format == "json":
            print(json.dumps(aggregated, indent=2, sort_keys=True))
        else:
            ingested = aggregated["counters"].get(
                "coordinator.reports_ingested", 0
            )
            print(
                f"replayed cluster {args.wal}: {len(per_shard)} shard "
                f"WAL(s), {int(ingested)} reports ingested"
            )
        return 0
    try:
        coordinator = replay_wal(args.wal)
    except WalCorruptionError as exc:
        print(f"WAL is corrupt: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(coordinator.metrics.to_json())
    else:
        s = coordinator.stats
        print(
            f"replayed WAL {args.wal}: {s.reports_ingested} ingested, "
            f"{s.reports_rejected} rejected, "
            f"{len(coordinator.store)} streams"
        )
    return 0


def cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve cluster``: run a sharded cluster behind a gateway."""
    import asyncio
    import signal

    from repro.serve import ClusterConfig, LocalCluster

    cfg = ClusterConfig(
        cluster_dir=args.dir,
        shards=args.shards,
        gateway_port=args.port,
        gen_seed=args.gen_seed,
        radius_m=args.radius,
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
        loop = asyncio.get_event_loop()
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


def _open_store(path: str, create: bool):
    """Open the store a CLI argument names, or print the error and None."""
    from repro.store import StoreError, connect, resolve_store_path

    try:
        return connect(resolve_store_path(path), create=create)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return None


def cmd_store_init(args: argparse.Namespace) -> int:
    """``repro store init``: create (or migrate) an empty store."""
    from repro.store import SCHEMA_VERSION, resolve_store_path
    from repro.store.schema import schema_version

    conn = _open_store(args.store, create=True)
    if conn is None:
        return 2
    try:
        version = schema_version(conn)
    finally:
        conn.close()
    print(f"store {resolve_store_path(args.store)}: schema v{version} "
          f"(current is v{SCHEMA_VERSION})")
    return 0


def cmd_store_import(args: argparse.Namespace) -> int:
    """``repro store import``: backfill a WAL/telemetry dir/sweep root."""
    from repro.store import StoreError, import_any

    conn = _open_store(args.store, create=True)
    if conn is None:
        return 2
    try:
        shape, result = import_any(
            conn, args.source, label=args.label, replace=args.replace
        )
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        conn.close()
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


def cmd_store_query(args: argparse.Namespace) -> int:
    """``repro store query``: typed reads over the rollup tables."""
    import json

    from repro.store import StoreError

    if args.what == "compare" and not (args.run_a and args.run_b):
        print("--what compare needs --run-a and --run-b", file=sys.stderr)
        return 2
    conn = _open_store(args.store, create=False)
    if conn is None:
        return 2
    try:
        payload = _store_query_payload(conn, args)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        conn.close()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif isinstance(payload, list):
        for row in payload:
            print(json.dumps(row, sort_keys=True))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    return 0


def cmd_store_report(args: argparse.Namespace) -> int:
    """``repro store report`` (and ``obs report`` on a store path)."""
    import json

    from repro.store import StoreError, summary_from_store
    from repro.store.queries import render_report_from_store

    try:
        if args.format == "json":
            print(json.dumps(
                summary_from_store(args.store, run=args.run),
                indent=2, sort_keys=True,
            ))
        else:
            print(render_report_from_store(args.store, run=args.run))
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """``repro store compact``: retention + ANALYZE + VACUUM + check."""
    from repro.store import RetentionPolicy, StoreError, compact
    from repro.store.maintenance import integrity_check

    conn = _open_store(args.store, create=False)
    if conn is None:
        return 2
    try:
        policy = RetentionPolicy(keep_epochs=args.keep_epochs)
        result = compact(conn, policy)
        verdict = integrity_check(conn)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        conn.close()
    print(f"compacted: {result.bytes_before} -> {result.bytes_after} bytes "
          f"({result.bytes_reclaimed} reclaimed), "
          f"{result.samples_deleted} samples pruned")
    print(f"integrity: {verdict}")
    return 0 if verdict == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser with every subcommand wired."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiScape (IMC 2011) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("world-info", help="describe the synthetic landscape")
    _add_common(p)
    p.set_defaults(func=cmd_world_info)

    p = sub.add_parser("catalog", help="print the dataset catalog (Table 2)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("generate", help="generate one of the paper's datasets")
    _add_common(p)
    p.add_argument("dataset", help="dataset name (see 'catalog')")
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--gen-seed", type=int, default=3)
    p.add_argument("--out", help="output path (.jsonl or .csv)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("map", help="ASCII city throughput map (Fig 1)")
    _add_common(p)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--radius", type=float, default=250.0)
    p.add_argument("--gen-seed", type=int, default=3)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("monitor", help="run the coordinator over a bus fleet")
    _add_common(p)
    p.add_argument("--buses", type=int, default=5)
    p.add_argument("--hours", type=float, default=4.0)
    p.add_argument("--radius", type=float, default=250.0)
    p.add_argument("--gen-seed", type=int, default=1)
    p.add_argument(
        "--telemetry",
        metavar="OUT_DIR",
        help="capture metrics/events/spans/manifest artifacts to OUT_DIR",
    )
    p.add_argument(
        "--snapshot-every",
        type=float,
        metavar="SECONDS",
        help="stream a metrics snapshot every N sim seconds to "
             "snapshots.jsonl (requires --telemetry)",
    )
    p.add_argument(
        "--alerts",
        metavar="RULES_FILE",
        help="extra alert rules (.json, or .toml on Python >= 3.11) "
             "evaluated on every snapshot, on top of the default SLO rules",
    )
    p.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        help="serve the latest snapshot at http://127.0.0.1:PORT/metrics "
             "(Prometheus text format; 0 picks a free port)",
    )
    p.add_argument(
        "--blackout",
        metavar="H1-H2",
        help="fault injection: all buses go radio-dark (present but "
             "refusing tasks) between sim hours H1 and H2 after run start",
    )
    p.add_argument(
        "--epoch-mins",
        type=float,
        metavar="MINUTES",
        help="override the default epoch duration (shorter epochs make "
             "coverage SLO demos fast)",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pr = obs_sub.add_parser(
        "report", help="summarize a telemetry directory (metrics/events/spans)"
    )
    pr.add_argument("dir", help="telemetry directory written by --telemetry, "
                                "or a measurement store (store.sqlite)")
    pr.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json dumps the same summary model the text "
             "report renders)",
    )
    pr.add_argument("--run", help="run label inside a store (defaults to "
                                  "the only run; store paths only)")
    pr.set_defaults(func=cmd_obs_report)
    pw = obs_sub.add_parser(
        "watch", help="compact status of a (possibly running) telemetry dir"
    )
    pw.add_argument("dir", help="telemetry directory written by --telemetry")
    pw.add_argument(
        "--follow", action="store_true",
        help="re-render every --interval seconds",
    )
    pw.add_argument("--interval", type=float, default=2.0,
                    help="seconds between --follow updates")
    pw.add_argument("--max-updates", type=int, default=5,
                    help="stop --follow after this many renders")
    pw.set_defaults(func=cmd_obs_watch)
    pd = obs_sub.add_parser(
        "diff", help="compare two runs' final counters/gauges and alerts"
    )
    pd.add_argument("dir_a", help="baseline telemetry directory or store")
    pd.add_argument("dir_b", help="comparison telemetry directory or store")
    pd.add_argument("--run-a", help="run label when dir_a is a store")
    pd.add_argument("--run-b", help="run label when dir_b is a store")
    pd.set_defaults(func=cmd_obs_diff)

    p = sub.add_parser("sweep", help="parallel sharded experiment sweeps")
    sweep_sub = p.add_subparsers(dest="sweep_command", required=True)
    ps = sweep_sub.add_parser(
        "run", help="execute a grid of (scenario, seed, override) cells"
    )
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset grid name (see 'sweep list')")
    source.add_argument("--grid", help="JSON grid-spec file")
    ps.add_argument("out", help="output directory (cells/, merged artifacts)")
    ps.add_argument("--workers", type=int, default=1,
                    help="worker processes; 1 runs cells inline")
    ps.add_argument("--seeds", help="override the grid's world seeds, "
                    "comma-separated (e.g. '7,8')")
    ps.add_argument("--max-retries", type=int, default=1,
                    help="re-runs of a cell whose worker died")
    ps.add_argument("--start-method", default="auto",
                    choices=("auto", "fork", "spawn", "forkserver"),
                    help="multiprocessing start method (auto prefers fork)")
    ps.add_argument("--context-cache-max", type=int, default=None,
                    metavar="N",
                    help="LRU bound on each worker's memo of landscapes/"
                         "traces (caps worker RSS on long grids)")
    ps.add_argument("--no-merge", action="store_true",
                    help="skip the reduce step (run 'sweep merge' later)")
    ps.add_argument("--store", metavar="DB",
                    help="after the merge, ingest the whole sweep into "
                         "this measurement store (one merged ingest, no "
                         "per-cell overhead)")
    ps.set_defaults(func=cmd_sweep_run)
    ps = sweep_sub.add_parser(
        "status", help="progress/status of a sweep output directory"
    )
    ps.add_argument("out", help="sweep output directory")
    ps.set_defaults(func=cmd_sweep_status)
    ps = sweep_sub.add_parser(
        "merge", help="(re-)fold cell artifacts into sweep-level summaries"
    )
    ps.add_argument("out", help="sweep output directory")
    ps.add_argument("--store", metavar="DB",
                    help="also ingest the merged sweep into this "
                         "measurement store")
    ps.set_defaults(func=cmd_sweep_merge)
    ps = sweep_sub.add_parser(
        "list", help="available preset grids and scenarios"
    )
    ps.set_defaults(func=cmd_sweep_list)

    p = sub.add_parser("serve", help="coordinator-as-a-service utilities")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)
    pv = serve_sub.add_parser(
        "run", help="run the coordinator as a TCP service"
    )
    _add_common(pv)
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 picks a free one)")
    pv.add_argument("--wal", metavar="DIR",
                    help="write-ahead log directory (enables crash "
                         "recovery; reused across restarts)")
    pv.add_argument("--gen-seed", type=int, default=1)
    pv.add_argument("--radius", type=float, default=250.0,
                    help="zone radius of the coordinator's grid")
    pv.add_argument("--max-sessions", type=int, default=4096,
                    help="admission control: concurrent session ceiling")
    pv.add_argument("--ingest-queue-max", type=int, default=1024,
                    help="bounded ingest queue depth (backpressure point)")
    pv.add_argument("--idle-timeout", type=float, default=30.0,
                    help="close sessions silent for this many seconds")
    pv.add_argument("--port-file", metavar="FILE",
                    help="write the bound port here once listening "
                         "(for harnesses that pass --port 0)")
    pv.add_argument("--commit-batch-max", type=int, default=256,
                    help="max reports staged per WAL group commit")
    pv.add_argument("--wal-fsync-every", type=int, default=64,
                    help="fsync after this many WAL records")
    pv.add_argument("--wal-fsync-interval", type=float, default=0.0,
                    help="also fsync pending WAL records older than this "
                         "many seconds (0 disables the time axis)")
    pv.add_argument("--uvloop", action="store_true",
                    help="use uvloop if installed (stdlib asyncio is the "
                         "deterministic default)")
    pv.add_argument("--shard-id", default="",
                    help="this server's shard identity within a cluster "
                         "(empty = single-node mode, no REDIRECTs)")
    pv.set_defaults(func=cmd_serve_run)
    pl = serve_sub.add_parser(
        "loadgen", help="drive a running service with simulated clients"
    )
    pl.add_argument("--host", default="127.0.0.1")
    pl.add_argument("--port", type=int, required=True)
    pl.add_argument("--clients", type=int, default=100,
                    help="total client sessions to run")
    pl.add_argument("--reports-per-client", type=int, default=10)
    pl.add_argument("--concurrency", type=int, default=64,
                    help="concurrently open sessions")
    pl.add_argument("--codec", choices=("json", "binary"), default="json",
                    help="session codec to negotiate (json is the PR-5 "
                         "wire format)")
    pl.add_argument("--batch-size", type=int, default=1,
                    help="reports coalesced per REPORT_BATCH frame "
                         "(1 keeps the one-REPORT-one-ACK exchange)")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.add_argument("--cluster", action="store_true",
                    help="treat --host/--port as a cluster gateway: fetch "
                         "the shard map and route batches to the owning "
                         "shards directly")
    pl.add_argument("--client-offset", type=int, default=0,
                    help="added to every client index so parallel loadgen "
                         "processes drive disjoint client populations")
    pl.set_defaults(func=cmd_serve_loadgen)
    pp = serve_sub.add_parser(
        "replay", help="rebuild coordinator state offline from a WAL"
    )
    pp.add_argument("--wal", metavar="DIR", required=True,
                    help="WAL directory (or the cluster directory with "
                         "--cluster)")
    pp.add_argument("--format", choices=("text", "json"), default="text",
                    help="json prints the full deterministic metrics "
                         "snapshot (the recovery byte-compare artifact)")
    pp.add_argument("--cluster", action="store_true",
                    help="replay every live shard WAL named by "
                         "cluster.json and print the aggregated snapshot")
    pp.add_argument("--store", metavar="DB",
                    help="replay through the measurement store: ingest "
                         "the WAL and print the snapshot rebuilt from "
                         "rollups (byte-identical to the in-memory path)")
    pp.add_argument("--run", help="store run label (default: the WAL "
                                  "directory's basename)")
    pp.add_argument("--replace", action="store_true",
                    help="with --store, re-import over an existing run "
                         "of the same label")
    pp.set_defaults(func=cmd_serve_replay)
    pc = serve_sub.add_parser(
        "cluster", help="run a zone-sharded coordinator cluster"
    )
    pc.add_argument("--dir", metavar="DIR", required=True,
                    help="cluster directory (per-shard WALs, logs, and "
                         "the cluster.json manifest)")
    pc.add_argument("--shards", type=int, default=3,
                    help="shard processes to spawn at startup")
    pc.add_argument("--port", type=int, default=0,
                    help="gateway TCP port (0 picks a free one)")
    pc.add_argument("--port-file", metavar="FILE",
                    help="write the gateway port here once listening")
    pc.add_argument("--gen-seed", type=int, default=1)
    pc.add_argument("--radius", type=float, default=250.0,
                    help="zone radius of the shared grid (map + shards)")
    pc.add_argument("--ingest-queue-max", type=int, default=1024,
                    help="per-shard bounded ingest queue depth")
    pc.add_argument("--commit-batch-max", type=int, default=256,
                    help="per-shard WAL group-commit ceiling")
    pc.add_argument("--wal-fsync-every", type=int, default=64,
                    help="per-shard fsync cadence (records)")
    pc.set_defaults(func=cmd_serve_cluster)

    p = sub.add_parser(
        "store", help="embedded queryable measurement store (SQLite)"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    pi = store_sub.add_parser(
        "init", help="create an empty store (or migrate an existing one)"
    )
    pi.add_argument("store", help="store file, or a directory to hold "
                                  "store.sqlite")
    pi.set_defaults(func=cmd_store_init)
    pm = store_sub.add_parser(
        "import", help="backfill a WAL dir, telemetry dir, or sweep root"
    )
    pm.add_argument("store", help="store file (created if missing)")
    pm.add_argument("source", help="artifact directory to import "
                                   "(shape is sniffed automatically)")
    pm.add_argument("--label", help="run label (default: the source "
                                    "directory's basename)")
    pm.add_argument("--replace", action="store_true",
                    help="re-import over an existing run of this label")
    pm.set_defaults(func=cmd_store_import)
    pq = store_sub.add_parser(
        "query", help="typed reads: coverage, SLO floors, alerts, runs"
    )
    pq.add_argument("store", help="store file or directory holding one")
    pq.add_argument("--what", required=True,
                    choices=("coverage", "slo", "alerts", "runs",
                             "compare", "stats"),
                    help="which query to run")
    pq.add_argument("--run", help="run label (defaults to the only run)")
    pq.add_argument("--network", help="coverage: filter by network id")
    pq.add_argument("--kind", help="coverage: filter by measurement kind")
    pq.add_argument("--min-samples", type=int, default=0,
                    help="coverage: only (zone, epoch) cells with at "
                         "least this many samples")
    pq.add_argument("--floor", type=int, default=10,
                    help="slo: per-(zone, epoch, network) sample floor "
                         "(paper Table 2 uses 10)")
    pq.add_argument("--rule", help="alerts: filter by rule name")
    pq.add_argument("--run-a", help="compare: baseline run label")
    pq.add_argument("--run-b", help="compare: comparison run label")
    pq.add_argument("--format", choices=("text", "json"), default="text",
                    help="text prints one JSON object per line; json "
                         "dumps one sorted document")
    pq.set_defaults(func=cmd_store_query)
    pt = store_sub.add_parser(
        "report", help="render the obs report from the store's rollups"
    )
    pt.add_argument("store", help="store file or directory holding one")
    pt.add_argument("--run", help="run label (defaults to the only run)")
    pt.add_argument("--format", choices=("text", "json"), default="text",
                    help="json byte-matches 'obs report --format json' "
                         "on the run's original telemetry directory")
    pt.set_defaults(func=cmd_store_report)
    pk = store_sub.add_parser(
        "compact", help="retention + ANALYZE + VACUUM + integrity check"
    )
    pk.add_argument("store", help="store file or directory holding one")
    pk.add_argument("--keep-epochs", type=int, default=None, metavar="N",
                    help="prune raw samples more than N epochs behind "
                         "each run's newest rollup (rollups survive; "
                         "default keeps everything)")
    pk.set_defaults(func=cmd_store_compact)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Report-style output piped into `head`/`less` that exits early;
        # redirect stdout so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
