"""``repro world-info|catalog|generate|map|monitor``: the simulation.

``monitor`` runs the coordinator over a bus fleet for N sim hours;
``--telemetry OUT_DIR`` captures metrics/events/spans/manifest
artifacts (``events.jsonl`` is written as the run goes) and
``--snapshot-every N`` streams metric snapshots through the alert/SLO
pipeline.  Each handler imports the simulation itself.
"""

from __future__ import annotations

import argparse
import math
import os
from pathlib import Path
from typing import Tuple

from repro.cli.common import SEED, CommandError, Group, arg

COMMANDS = Group()


@COMMANDS.command("world-info", "describe the synthetic landscape", SEED)
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


@COMMANDS.command("catalog", "print the dataset catalog (Table 2)")
def cmd_catalog(args: argparse.Namespace) -> int:
    """``repro catalog``: print the table of generatable datasets."""
    from repro.datasets.catalog import catalog_table

    print(catalog_table())
    return 0


@COMMANDS.command(
    "generate", "generate one of the paper's datasets",
    SEED,
    arg("dataset", help="dataset name (see 'catalog')"),
    arg("--days", type=int, default=2),
    arg("--gen-seed", type=int, default=3),
    arg("--out", help="output path (.jsonl or .csv)"),
)
def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: synthesize one catalog dataset to CSV/JSONL."""
    from repro.datasets.catalog import DATASET_CATALOG
    from repro.datasets.generator import DatasetGenerator
    from repro.datasets.io import write_csv, write_jsonl
    from repro.geo.regions import NEW_BRUNSWICK, madison_spot_locations
    from repro.radio.network import build_landscape
    from repro.radio.technology import NetworkId

    if args.dataset not in DATASET_CATALOG:
        raise CommandError(f"unknown dataset {args.dataset!r}; options: "
                           f"{', '.join(sorted(DATASET_CATALOG))}")
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


@COMMANDS.command(
    "map", "ASCII city throughput map (Fig 1)",
    SEED,
    arg("--days", type=int, default=2),
    arg("--radius", type=float, default=250.0),
    arg("--gen-seed", type=int, default=3),
)
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


def _parse_blackout(spec: str) -> Tuple[float, float]:
    """Parse ``H1-H2`` (sim hours after run start) into floats."""
    try:
        lo_s, hi_s = spec.split("-", 1)
        lo, hi = float(lo_s), float(hi_s)
        valid = not (hi <= lo or lo < 0)
    except ValueError:
        valid = False
    if not valid:
        raise CommandError(f"bad --blackout {spec!r} (expected H1-H2 sim "
                           "hours, H2 > H1 >= 0)")
    return lo, hi


@COMMANDS.command(
    "monitor", "run the coordinator over a bus fleet",
    SEED,
    arg("--buses", type=int, default=5),
    arg("--hours", type=float, default=4.0),
    arg("--radius", type=float, default=250.0),
    arg("--gen-seed", type=int, default=1),
    arg("--telemetry", metavar="OUT_DIR",
        help="capture metrics/events/spans/manifest artifacts to OUT_DIR"),
    arg("--snapshot-every", type=float, metavar="SECONDS",
        help="stream a metrics snapshot every N sim seconds to "
             "snapshots.jsonl (requires --telemetry)"),
    arg("--alerts", metavar="RULES_FILE",
        help="extra alert rules (.json, or .toml on Python >= 3.11) "
             "evaluated on every snapshot, on top of the default SLO rules"),
    arg("--serve-metrics", type=int, metavar="PORT",
        help="serve the latest snapshot at http://127.0.0.1:PORT/metrics "
             "(Prometheus text format; 0 picks a free port)"),
    arg("--blackout", metavar="H1-H2",
        help="fault injection: all buses go radio-dark (present but "
             "refusing tasks) between sim hours H1 and H2 after run start"),
    arg("--epoch-mins", type=float, metavar="MINUTES",
        help="override the default epoch duration (shorter epochs make "
             "coverage SLO demos fast)"),
)
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
        raise CommandError("--snapshot-every must be positive")
    if args.snapshot_every and not args.telemetry:
        raise CommandError("--snapshot-every requires --telemetry OUT_DIR")
    if args.alerts and not args.snapshot_every:
        raise CommandError("--alerts requires --snapshot-every (alerts are "
                           "judged on streamed snapshots)")
    if args.serve_metrics is not None and not args.snapshot_every:
        raise CommandError("--serve-metrics requires --snapshot-every")
    blackout = _parse_blackout(args.blackout) if args.blackout else None

    config = None
    if args.epoch_mins is not None:
        if not (math.isfinite(args.epoch_mins) and args.epoch_mins > 0):
            raise CommandError("--epoch-mins must be a positive finite number")
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
                raise CommandError(f"cannot load alert rules: {exc}") from exc

    telemetry = (Telemetry(out_dir=args.telemetry) if args.telemetry
                 else NULL_TELEMETRY)
    with telemetry, use_telemetry(telemetry):
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
