"""Disabled-mode telemetry overhead gates.

The figure/table benches are single-shot reproductions; these two tests
are the timing gates that sit beside them.  They check that telemetry,
when disabled, stays a negligible share of the instrumented hot paths:
the batched UDP-train path and the coordinator tick.
"""

import time

import numpy as np
import pytest

from repro.geo.zones import ZoneGrid
from repro.network.channel import MeasurementChannel
from repro.obs.telemetry import NULL_TELEMETRY, get_telemetry, use_telemetry
from repro.radio.technology import NetworkId


@pytest.fixture()
def point(landscape):
    return landscape.study_area.anchor.offset(1200.0, -500.0)


# There is no un-instrumented build to diff against, so the gates charge
# the instrumented paths a *generous over-count* of their disabled-mode
# telemetry operations (ambient lookup + enabled guard + no-op span,
# plus the coordinator's always-on stats counters) and assert that the
# whole charge stays under 5% of the measured path time.  The real code
# touches telemetry a handful of times per call; the gates bill hundreds.


def _best_of(fn, repeat=5, warmup=1):
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_telemetry_disabled_overhead_udp_train_batch(landscape, point):
    """1000 disabled-mode guards must cost < 5% of one 50-train batch.

    ``udp_train_batch`` performs ~3 guard sequences per call; billing a
    thousand fails loudly if the no-op path ever grows a lock, an
    allocation, or a dict rebuild.  The bill sits at its bound, not far
    under it: two sets of 15 in-process trials on a 2-vCPU Xeon put it
    at 3.9-6.4% of the batch path (medians 5.0% and 5.3%), so this gate
    fails intermittently on such a host (ROADMAP item 6).
    """
    channel = MeasurementChannel(
        landscape, NetworkId.NET_B, np.random.default_rng(7)
    )
    times = [100.0 + 120.0 * k for k in range(50)]
    pts = [point] * len(times)

    with use_telemetry(NULL_TELEMETRY):
        path_s = _best_of(
            lambda: channel.udp_train_batch(pts, times, n_packets=100),
            repeat=5,
        )

        def thousand_guards():
            for _ in range(1000):
                tel = get_telemetry()
                if tel.enabled:
                    tel.metrics.counter("overhead.gate").inc()
                with tel.span("overhead.gate"):
                    pass

        guard_s = _best_of(thousand_guards, repeat=7)

    assert guard_s < 0.05 * path_s, (
        f"1000 no-op telemetry guards took {guard_s * 1e3:.3f} ms vs "
        f"5% budget {path_s * 0.05 * 1e3:.3f} ms of the "
        f"{path_s * 1e3:.3f} ms batch path"
    )


def test_telemetry_disabled_overhead_coordinator_tick(landscape):
    """500 disabled-mode telemetry ops must cost < 5% of a mean tick.

    With telemetry disabled the coordinator still counts into a private
    registry (the ``stats`` view), so the charge mixes real counter
    increments and histogram observations with no-op spans — again a
    large multiple of what one tick actually performs.
    """
    from repro.clients.agent import ClientAgent
    from repro.clients.device import Device, DeviceCategory
    from repro.core.controller import MeasurementCoordinator
    from repro.mobility.routes import city_bus_routes
    from repro.mobility.vehicles import TransitBus

    with use_telemetry(NULL_TELEMETRY):
        grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
        coordinator = MeasurementCoordinator(grid, seed=1)
        assert not coordinator.obs.enabled
        routes = city_bus_routes(landscape.study_area, count=6)
        for b in range(6):
            bus = TransitBus(bus_id=b, routes=routes, seed=b)
            device = Device(
                f"ovh-bus-{b}", DeviceCategory.SBC_PCMCIA,
                [NetworkId.NET_B, NetworkId.NET_C], seed=b,
            )
            coordinator.register_client(
                ClientAgent(f"ovh-bus-{b}", device, bus, landscape, seed=b)
            )

        n_ticks = 60
        t0 = time.perf_counter()
        for k in range(n_ticks):
            coordinator.tick(8 * 3600.0 + 60.0 * k)
        tick_s = (time.perf_counter() - t0) / n_ticks

        registry = coordinator.metrics
        tel = get_telemetry()

        def five_hundred_ops():
            for _ in range(100):
                registry.counter("overhead.gate").inc()
                registry.counter("overhead.gate").inc()
                registry.histogram("overhead.gate").observe(1.0)
                with tel.span("overhead.gate"):
                    pass
                if tel.enabled:
                    tel.metrics.counter("overhead.gate").inc()

        ops_s = _best_of(five_hundred_ops, repeat=7)

    assert ops_s < 0.05 * tick_s, (
        f"500 disabled-mode telemetry ops took {ops_s * 1e3:.3f} ms vs "
        f"5% budget {tick_s * 0.05 * 1e3:.3f} ms of the "
        f"{tick_s * 1e3:.3f} ms mean tick"
    )
