"""The client measurement agent.

Binds a device to a movement model over a landscape, and executes
coordinator tasks: it takes a GPS fix, runs the requested transfer over
the requested carrier, and returns a :class:`MeasurementReport`.  Agents
refuse tasks for carriers they have no modem for, while inactive
(parked/off), or past the task deadline — the opportunistic-availability
reality the coordinator's scheduler has to work around.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clients.device import Device
from repro.clients.energy import EnergyMeter
from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
)
from repro.geo.coords import GeoPoint
from repro.mobility.gps import GpsReader
from repro.mobility.models import MovementModel
from repro.network.channel import MeasurementChannel
from repro.obs.telemetry import get_telemetry
from repro.radio.network import Landscape
from repro.radio.technology import NetworkId
from repro.sim.rng import RngStreams


class ClientAgent:
    """One measurement client: device + mobility + radio channels."""

    def __init__(
        self,
        client_id: str,
        device: Device,
        movement: MovementModel,
        landscape: Landscape,
        seed: int = 0,
    ):
        self.client_id = client_id
        self.device = device
        self.movement = movement
        self.landscape = landscape
        self._streams = RngStreams(seed).fork(f"client:{client_id}")
        self._channels: Dict[NetworkId, MeasurementChannel] = {}
        self.gps = GpsReader(
            movement,
            self._streams.get("gps"),
            position_sigma_m=device.profile.gps_sigma_m,
        )
        self.reports_completed = 0
        self.tasks_refused = 0
        self.blackout_refusals = 0
        self.bytes_transferred = 0
        self.energy = EnergyMeter()
        #: Radio-dark windows: the client stays present (``is_active``
        #: and position unchanged) but refuses every task.  This is the
        #: fault-injection hook the coverage-SLO tests use — presence
        #: without data is exactly what an under-coverage alert watches.
        self._blackouts: List[Tuple[float, float]] = []

    def channel(self, network: NetworkId) -> MeasurementChannel:
        """The (cached) measurement channel for one carrier."""
        ch = self._channels.get(network)
        if ch is None:
            ch = MeasurementChannel(
                self.landscape,
                network,
                self._streams.get(f"chan:{network.value}"),
                rate_bias=self.device.rate_bias(network),
            )
            self._channels[network] = ch
        return ch

    def is_active(self, t: float) -> bool:
        """Whether the client can run tasks right now."""
        return self.movement.is_active(t)

    def add_blackout(self, start_s: float, end_s: float) -> None:
        """Make the radio dark over ``[start_s, end_s)`` sim seconds.

        The client keeps moving and keeps reporting presence — only
        :meth:`execute` refuses.  Models a coverage hole / modem fault
        rather than a powered-off device.
        """
        if end_s <= start_s:
            raise ValueError("blackout end must be after start")
        self._blackouts.append((float(start_s), float(end_s)))

    def in_blackout(self, t: float) -> bool:
        """Whether ``t`` falls inside any injected radio-dark window."""
        return any(start <= t < end for start, end in self._blackouts)

    def position(self, t: float) -> GeoPoint:
        """Ground-truth position (the coordinator only ever sees GPS)."""
        return self.movement.position(t)

    def execute(self, task: MeasurementTask, t: float) -> Optional[MeasurementReport]:
        """Run ``task`` at sim time ``t``; None when the task is refused.

        Refusal reasons: no modem for the carrier, client inactive, or
        task deadline already passed.
        """
        tel = get_telemetry()
        if (
            not self.device.supports(task.network)
            or not self.is_active(t)
            or task.expired(t)
        ):
            self.tasks_refused += 1
            if tel.enabled:
                tel.metrics.counter("client.refusals").inc()
            return None
        if self.in_blackout(t):
            self.tasks_refused += 1
            self.blackout_refusals += 1
            if tel.enabled:
                tel.metrics.counter("client.refusals").inc()
                tel.metrics.counter("client.blackout_refusals").inc()
            return None

        fix = self.gps.fix(t)
        handler = {
            MeasurementType.TCP_DOWNLOAD: self._run_tcp,
            MeasurementType.UDP_TRAIN: self._run_udp,
            MeasurementType.PING: self._run_ping,
        }[task.kind]
        report = handler(task, t, fix.point, fix.speed_ms)
        self.reports_completed += 1
        duration = max(0.0, report.duration_s)
        self.energy.record_transfer(duration)
        if tel.enabled:
            tel.metrics.counter("client.reports").inc()
            tel.metrics.counter("client.energy_transfer_s").inc(duration)
            tel.metrics.histogram(
                "client.task_latency_s",
                buckets=(0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 120.0, 300.0),
            ).observe(duration)
        return report

    # -- task handlers ---------------------------------------------------

    def _run_tcp(
        self, task: MeasurementTask, t: float, point: GeoPoint, speed: float
    ) -> MeasurementReport:
        size = int(task.params.get("size_bytes", 1_000_000))
        result = self.channel(task.network).tcp_download(
            self.movement.position(t), t, size_bytes=size
        )
        self.bytes_transferred += size
        return MeasurementReport(
            task_id=task.task_id,
            client_id=self.client_id,
            network=task.network,
            kind=task.kind,
            start_s=t,
            end_s=t + result.duration_s,
            point=point,
            speed_ms=speed,
            value=result.throughput_bps,
            extras={"duration_s": result.duration_s},
        )

    def _run_udp(
        self, task: MeasurementTask, t: float, point: GeoPoint, speed: float
    ) -> MeasurementReport:
        """Two-phase UDP measurement, as the paper's adaptive pacing.

        Phase 1 saturates the link (back-to-back train) to measure
        throughput; phase 2 re-paces just below the measured rate so
        that inter-arrival variation reflects path jitter rather than
        queueing — matching Table 1's "inter packet delay adaptively
        varies based on available capacity".
        """
        n = int(task.params.get("n_packets", 100))
        size = int(task.params.get("packet_size_bytes", 1200))
        direction = "up" if task.params.get("uplink") else "down"
        channel = self.channel(task.network)
        pos = self.movement.position(t)

        burst = channel.udp_train(
            pos, t, n_packets=n, packet_size_bytes=size,
            inter_packet_delay_s=0.0005, direction=direction,
        )
        self.bytes_transferred += n * size

        jitter_s = burst.jitter_s
        loss = burst.loss_rate
        if burst.throughput_bps > 0:
            paced_ipd = size * 8.0 / (0.85 * burst.throughput_bps)
            paced_n = min(n, 40)
            paced = channel.udp_train(
                pos, t + 1.0, n_packets=paced_n,
                packet_size_bytes=size, inter_packet_delay_s=paced_ipd,
                direction=direction,
            )
            self.bytes_transferred += paced_n * size
            jitter_s = paced.jitter_s
            total = len(burst.records) + len(paced.records)
            lost = burst.loss_rate * len(burst.records) + paced.loss_rate * len(
                paced.records
            )
            loss = lost / total if total else 0.0

        delivered = [r for r in burst.records if not r.lost]
        end = max((r.recv_time_s for r in delivered), default=t)
        return MeasurementReport(
            task_id=task.task_id,
            client_id=self.client_id,
            network=task.network,
            kind=task.kind,
            start_s=t,
            end_s=float(end),
            point=point,
            speed_ms=speed,
            value=burst.throughput_bps,
            samples=burst.rate_samples_bps,
            extras={
                "loss_rate": loss,
                "jitter_s": jitter_s,
            },
        )

    def _run_ping(
        self, task: MeasurementTask, t: float, point: GeoPoint, speed: float
    ) -> MeasurementReport:
        count = int(task.params.get("count", 12))
        interval = float(task.params.get("interval_s", 5.0))
        result = self.channel(task.network).ping_series(
            self.movement.position(t), t, count=count, interval_s=interval
        )
        if result.failures > 0:
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("client.ping_failures").inc(result.failures)
                tel.emit(
                    "failure.blackout",
                    t,
                    client=self.client_id,
                    network=task.network.value,
                    failures=int(result.failures),
                    count=count,
                )
        mean_rtt = result.mean_rtt_s if result.rtts_s else float("nan")
        return MeasurementReport(
            task_id=task.task_id,
            client_id=self.client_id,
            network=task.network,
            kind=task.kind,
            start_s=t,
            end_s=t + count * interval,
            point=point,
            speed_ms=speed,
            value=mean_rtt,
            samples=result.rtts_s,
            extras={"failures": float(result.failures)},
        )
