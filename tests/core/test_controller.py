"""Tests for the measurement coordinator."""

import dataclasses

import numpy as np
import pytest

from repro.clients.agent import ClientAgent
from repro.clients.device import Device, DeviceCategory
from repro.clients.protocol import MeasurementReport, MeasurementType
from repro.core.config import WiScapeConfig
from repro.core.controller import MeasurementCoordinator
from repro.geo.coords import GeoPoint
from repro.geo.zones import ZoneGrid
from repro.mobility.models import StaticPosition
from repro.radio.technology import NetworkId
from repro.sim.engine import EventEngine

BC = [NetworkId.NET_B, NetworkId.NET_C]


def _coordinator(landscape, **cfg):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    config = WiScapeConfig(**cfg) if cfg else WiScapeConfig()
    return MeasurementCoordinator(grid, config=config, seed=1)


def _static_client(landscape, client_id, offset=(900.0, 400.0), nets=BC):
    device = Device(client_id, DeviceCategory.LAPTOP_USB, nets, seed=hash(client_id) % 1000)
    return ClientAgent(
        client_id, device,
        StaticPosition(landscape.study_area.anchor.offset(*offset)),
        landscape, seed=hash(client_id) % 977,
    )


class TestRegistration:
    def test_register_unregister(self, landscape):
        coord = _coordinator(landscape)
        agent = _static_client(landscape, "c1")
        coord.register_client(agent)
        assert "c1" in coord.clients
        coord.unregister_client("c1")
        assert "c1" not in coord.clients
        coord.unregister_client("missing")  # no-op


class TestTick:
    def test_tick_issues_and_ingests(self, landscape):
        coord = _coordinator(landscape)
        coord.register_client(_static_client(landscape, "c1"))
        total_reports = 0
        for k in range(1, 11):
            total_reports += len(coord.tick(k * 60.0))
        assert coord.stats.ticks == 10
        assert coord.stats.tasks_issued >= 1
        assert total_reports == coord.stats.reports_ingested

    def test_budget_fills_over_epoch(self, landscape):
        coord = _coordinator(landscape, tick_interval_s=60.0, default_epoch_s=1800.0)
        coord.register_client(_static_client(landscape, "c1"))
        for k in range(1, 30):
            coord.tick(k * 60.0)
        # At least one stream should have closed an epoch with samples.
        coord.tick(1860.0)
        published = [r.published for r in coord.store.records() if r.published]
        assert published
        assert any(p.n_samples >= 50 for p in published)

    def test_inactive_clients_not_tasked(self, landscape):
        from repro.mobility.models import RouteFollower
        from repro.mobility.routes import Route

        route = Route(
            name="r",
            waypoints=[landscape.study_area.anchor, landscape.study_area.anchor.offset(2000.0, 0.0)],
        )
        device = Device("cbus", DeviceCategory.SBC_PCMCIA, BC, seed=5)
        agent = ClientAgent(
            "cbus", device, RouteFollower(route, day_start_h=6.0, day_end_h=22.0, seed=5),
            landscape, seed=6,
        )
        coord = _coordinator(landscape)
        coord.register_client(agent)
        coord.tick(3 * 3600.0)  # 03:00, parked
        assert coord.stats.tasks_issued == 0


def _make_report(point, value, t, kind=MeasurementType.UDP_TRAIN):
    return MeasurementReport(
        task_id=0, client_id="x", network=NetworkId.NET_B, kind=kind,
        start_s=t, end_s=t + 1.0, point=point, speed_ms=0.0,
        value=value, samples=[value * (1 + 0.01 * k) for k in range(-2, 3)],
    )


class TestIngestAndChangeDetection:
    def _report(self, point, value, t, kind=MeasurementType.UDP_TRAIN):
        return _make_report(point, value, t, kind)

    def test_ingest_routes_to_zone(self, landscape):
        coord = _coordinator(landscape)
        p = landscape.study_area.anchor
        coord.ingest(self._report(p, 1e6, 10.0))
        zone = coord.grid.zone_id_for(p)
        key = (zone, NetworkId.NET_B, MeasurementType.UDP_TRAIN)
        assert coord.store.peek(key) is not None
        assert len(coord.store.peek(key).open_samples) == 5

    def test_change_alert_on_shift(self, landscape):
        coord = _coordinator(landscape, default_epoch_s=600.0)
        p = landscape.study_area.anchor
        zone = coord.grid.zone_id_for(p)
        key = (zone, NetworkId.NET_B, MeasurementType.UDP_TRAIN)
        # Epoch 1: stable around 1 Mbps.
        for k in range(10):
            coord.ingest(self._report(p, 1e6 + 1e3 * k, 10.0 + k))
        coord._close_and_alert(coord.store.get(key), 600.0)
        assert coord.store.get(key).published is not None
        # Epoch 2: 4x latency... i.e. throughput collapses to 0.25 Mbps.
        for k in range(10):
            coord.ingest(self._report(p, 2.5e5 + 1e3 * k, 610.0 + k))
        coord._close_and_alert(coord.store.get(key), 1200.0)
        assert len(coord.alerts) == 1
        alert = coord.alerts[0]
        assert alert.magnitude_sigma > 2.0
        # Published estimate updated to the new regime.
        assert coord.store.get(key).published.mean < 5e5

    def test_no_alert_on_stable(self, landscape):
        coord = _coordinator(landscape, default_epoch_s=600.0)
        p = landscape.study_area.anchor
        zone = coord.grid.zone_id_for(p)
        key = (zone, NetworkId.NET_B, MeasurementType.UDP_TRAIN)
        for epoch in range(3):
            for k in range(10):
                coord.ingest(
                    self._report(p, 1e6 + 5e3 * k, epoch * 600.0 + 10.0 + k)
                )
            coord._close_and_alert(coord.store.get(key), (epoch + 1) * 600.0)
        assert coord.alerts == []


class TestQueries:
    def test_best_network(self, landscape):
        coord = _coordinator(landscape, default_epoch_s=600.0)
        p = landscape.study_area.anchor
        zone = coord.grid.zone_id_for(p)
        for net, rate in [(NetworkId.NET_B, 8e5), (NetworkId.NET_C, 1.2e6)]:
            key = (zone, net, MeasurementType.UDP_TRAIN)
            rec = coord.store.get(key, 0.0)
            rec.add_samples([rate] * 5, at_s=10.0)
            coord._close_and_alert(rec, 600.0)
        assert coord.best_network(zone, MeasurementType.UDP_TRAIN, BC) is NetworkId.NET_C

    def test_best_network_lower_is_better(self, landscape):
        coord = _coordinator(landscape, default_epoch_s=600.0)
        zone = (5, 5)
        for net, rtt in [(NetworkId.NET_B, 0.1), (NetworkId.NET_C, 0.2)]:
            key = (zone, net, MeasurementType.PING)
            rec = coord.store.get(key, 0.0)
            rec.add_samples([rtt] * 5, at_s=10.0)
            coord._close_and_alert(rec, 600.0)
        best = coord.best_network(zone, MeasurementType.PING, BC, higher_is_better=False)
        assert best is NetworkId.NET_B

    def test_unknown_zone_returns_none(self, landscape):
        coord = _coordinator(landscape)
        assert coord.published_estimate((99, 99), NetworkId.NET_B, MeasurementType.PING) is None
        assert coord.best_network((99, 99), MeasurementType.PING, BC) is None


class TestEngineIntegration:
    def test_attach_runs_ticks(self, landscape):
        coord = _coordinator(landscape, tick_interval_s=300.0)
        coord.register_client(_static_client(landscape, "c1"))
        engine = EventEngine()
        coord.attach(engine, until=3600.0)
        engine.run(until=3600.0)
        assert coord.stats.ticks == 12


class TestLazyTickMachinery:
    """Scheduler and planner are built on first use, from named streams."""

    def test_draws_do_not_depend_on_build_time(self, landscape):
        eager = _coordinator(landscape)
        eager_planner, eager_scheduler = eager.budget_planner, eager.scheduler
        lazy = _coordinator(landscape)
        anchor = landscape.study_area.anchor
        for i in range(100):
            lazy.ingest(_make_report(anchor, 1e6 + i, 60.0 * i))
        assert lazy.stats.reports_ingested == 100
        # Ingest alone builds none of the tick machinery.
        for name in ("scheduler", "epoch_estimator", "budget_planner"):
            assert name not in vars(lazy)
        # Built scheduler-first here, planner-first above.
        lazy_scheduler, lazy_planner = lazy.scheduler, lazy.budget_planner
        assert (lazy_planner._rng.bit_generator.state
                == eager_planner._rng.bit_generator.state)
        first = lazy_scheduler.rng.uniform(size=8)
        np.testing.assert_array_equal(first,
                                      eager_scheduler.rng.uniform(size=8))
        other = MeasurementCoordinator(eager.grid, seed=2)
        assert not np.array_equal(other.scheduler.rng.uniform(size=8), first)

    def test_built_once(self, landscape):
        coord = _coordinator(landscape)
        assert coord.scheduler is coord.scheduler
        assert coord.budget_planner is coord.budget_planner
        assert coord.epoch_estimator is coord.epoch_estimator


class TestStatsView:
    """CoordinatorStats is a view over the metrics registry."""

    def _shift_regime(self, coord, p):
        for k in range(10):
            coord.ingest(_make_report(p, 1e6 + 1e3 * k, 10.0 + k))
        key = (coord.grid.zone_id_for(p), NetworkId.NET_B, MeasurementType.UDP_TRAIN)
        coord._close_and_alert(coord.store.get(key), 600.0)
        for k in range(10):
            coord.ingest(_make_report(p, 2.5e5 + 1e3 * k, 610.0 + k))
        coord._close_and_alert(coord.store.get(key), 1200.0)

    def test_stats_counts_change_alerts(self, landscape):
        coord = _coordinator(landscape, default_epoch_s=600.0)
        self._shift_regime(coord, landscape.study_area.anchor)
        assert len(coord.alerts) == 1
        assert coord.stats.change_alerts == 1
        assert coord.stats.epochs_closed == 2

    def test_stats_backed_by_registry_counters(self, landscape):
        coord = _coordinator(landscape)
        coord.register_client(_static_client(landscape, "c1"))
        for k in range(1, 6):
            coord.tick(k * 60.0)
        s = coord.stats
        assert s.ticks == coord.metrics.counter_value("coordinator.ticks")
        assert s.tasks_issued == coord.metrics.counter_value(
            "coordinator.tasks_issued"
        )

    def test_stats_view_is_read_only(self, landscape):
        # A write to the view would be lost: each access rebuilds it
        # from the registry counters.
        coord = _coordinator(landscape)
        with pytest.raises(dataclasses.FrozenInstanceError):
            coord.stats.ticks = 1

    def test_enabled_telemetry_collects_events(self, landscape):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
        coord = MeasurementCoordinator(
            grid, config=WiScapeConfig(default_epoch_s=600.0),
            seed=1, telemetry=telemetry,
        )
        assert coord.metrics is telemetry.metrics
        coord.register_client(_static_client(landscape, "c1"))
        for k in range(1, 6):
            coord.tick(k * 60.0)
        self._shift_regime(coord, landscape.study_area.anchor)
        kinds = telemetry.events.counts_by_kind()
        assert kinds.get("task.issue", 0) >= 1
        assert kinds.get("epoch.close", 0) == 2
        assert kinds.get("alert.change", 0) == 1
        alert = telemetry.events.events("alert.change")[0]
        assert alert["magnitude_sigma"] > 2.0
