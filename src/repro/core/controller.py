"""The measurement coordinator (paper section 3.4).

The centralized controller of the WiScape framework.  Each tick it:

1. asks every registered client for its coarse zone (the paper notes
   cellular systems already track this for routing);
2. closes any (zone, carrier, kind) epochs whose window elapsed,
   running >2-sigma change detection against the previous epoch;
3. issues measurement tasks to clients with the scheduler's probability
   so each open epoch converges on its sample budget;
4. ingests the resulting reports into the zone records;
5. periodically recalibrates each zone's epoch duration (Allan
   deviation) and sample budget (NKLD convergence).

The coordinator is synchronous within a tick (a task round-trip is much
shorter than a tick) and integrates with the discrete-event engine via
:meth:`attach`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
)
from repro.core.config import WiScapeConfig
from repro.core.records import (
    ChangeAlert,
    EpochEstimate,
    MetricKey,
    ZoneRecord,
    ZoneRecordStore,
)
from repro.core.validation import ReportValidator
from repro.geo.zones import ZoneGrid, ZoneId
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.radio.technology import NetworkId

if TYPE_CHECKING:
    from repro.clients.agent import ClientAgent
    from repro.core.epochs import EpochEstimator
    from repro.core.sampling import SampleBudgetPlanner
    from repro.core.scheduler import MeasurementScheduler
    from repro.sim.engine import EventEngine

#: Bucket bounds for the scheduler task-probability histogram.
_PROBABILITY_BUCKETS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


@dataclass
class CoordinatorStats:
    """Counters the overhead analysis reads.

    Since the observability refactor this is a *view*: the live values
    are the ``coordinator.*`` counters in the coordinator's metrics
    registry, and :attr:`MeasurementCoordinator.stats` materializes one
    of these on each access.  The dataclass shape (and the attribute
    names existing code reads) is preserved for compatibility.
    """

    ticks: int = 0
    tasks_issued: int = 0
    tasks_refused: int = 0
    reports_ingested: int = 0
    reports_rejected: int = 0
    epochs_closed: int = 0
    recalibrations: int = 0
    change_alerts: int = 0


class MeasurementCoordinator:
    """Central controller orchestrating client-assisted measurement."""

    def __init__(
        self,
        grid: ZoneGrid,
        config: Optional[WiScapeConfig] = None,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        slo_policy: Optional[SloPolicy] = None,
    ):
        self.grid = grid
        self.config = config or WiScapeConfig()
        #: Telemetry sink: injected, else the ambient one (no-op unless
        #: a run installed an enabled telemetry via ``use_telemetry``).
        self.obs = telemetry if telemetry is not None else get_telemetry()
        #: The coordinator's counters must keep counting even with
        #: telemetry disabled (``stats`` is a public API) — so fall back
        #: to a private real registry when the sink is a no-op.
        self.metrics: MetricsRegistry = (
            self.obs.metrics if self.obs.enabled else MetricsRegistry()
        )
        self.store = ZoneRecordStore(
            default_epoch_s=self.config.default_epoch_s,
            default_budget=self.config.default_sample_budget,
        )
        self._seed = seed
        self.clients: Dict[str, ClientAgent] = {}
        self.validator = ReportValidator()
        self.alerts: List[ChangeAlert] = []
        self._task_ids = itertools.count(1)
        #: Coverage/staleness SLO bookkeeping (see repro.obs.slo).  The
        #: tracker always exists (tests may drive it directly) but the
        #: per-tick hooks only run with telemetry enabled, keeping the
        #: disabled-overhead gate honest.
        self.slo = SloTracker(slo_policy)

    # -- tick machinery, built on first use ---------------------------------
    #
    # Only the tick reads these, and they need numpy; a coordinator that
    # just ingests (the network service) never builds them.  Each draws
    # from its own named stream of ``RngStreams(self._seed)``, so the
    # draws do not depend on which is built first, or when.

    @cached_property
    def scheduler(self) -> MeasurementScheduler:
        """Probabilistic task scheduler (the ``scheduler`` stream)."""
        from repro.core.scheduler import MeasurementScheduler
        from repro.sim.rng import RngStreams

        return MeasurementScheduler(
            tick_interval_s=self.config.tick_interval_s,
            samples_per_task={
                MeasurementType.UDP_TRAIN: self.config.udp_packets_per_task,
                MeasurementType.PING: self.config.ping_count_per_task,
                MeasurementType.TCP_DOWNLOAD: 1,
            },
            rng=RngStreams(self._seed).get("scheduler"),
        )

    @cached_property
    def epoch_estimator(self) -> EpochEstimator:
        """Allan-deviation epoch estimator used at recalibration."""
        from repro.core.epochs import EpochEstimator

        return EpochEstimator(
            min_epoch_s=self.config.min_epoch_s,
            max_epoch_s=self.config.max_epoch_s,
        )

    @cached_property
    def budget_planner(self) -> SampleBudgetPlanner:
        """NKLD sample-budget planner (seeded from the ``planner`` stream)."""
        from repro.core.sampling import SampleBudgetPlanner
        from repro.sim.rng import RngStreams

        return SampleBudgetPlanner(
            default_budget=self.config.default_sample_budget,
            min_budget=self.config.min_sample_budget,
            max_budget=self.config.max_sample_budget,
            nkld_threshold=self.config.nkld_threshold,
            seed=RngStreams(self._seed).get("planner").integers(0, 2**31),
        )

    @property
    def stats(self) -> CoordinatorStats:
        """Snapshot of the coordinator counters as the legacy dataclass."""
        m = self.metrics
        return CoordinatorStats(
            ticks=int(m.counter_value("coordinator.ticks")),
            tasks_issued=int(m.counter_value("coordinator.tasks_issued")),
            tasks_refused=int(m.counter_value("coordinator.tasks_refused")),
            reports_ingested=int(
                m.counter_value("coordinator.reports_ingested")
            ),
            reports_rejected=int(
                m.counter_value("coordinator.reports_rejected")
            ),
            epochs_closed=int(m.counter_value("coordinator.epochs_closed")),
            recalibrations=int(
                m.counter_value("coordinator.recalibrations")
            ),
            change_alerts=int(m.counter_value("coordinator.change_alerts")),
        )

    # -- registration ---------------------------------------------------

    def register_client(self, agent: ClientAgent) -> None:
        """Add a client to the measurement pool."""
        self.clients[agent.client_id] = agent

    def unregister_client(self, client_id: str) -> None:
        """Remove a client (device decommissioned / opted out)."""
        self.clients.pop(client_id, None)

    # -- the tick ---------------------------------------------------------

    def _active_clients_by_zone(
        self, now_s: float
    ) -> Dict[ZoneId, List[ClientAgent]]:
        """Coarse zone presence as clients would report it."""
        out: Dict[ZoneId, List[ClientAgent]] = {}
        for agent in self.clients.values():
            if not agent.is_active(now_s):
                continue
            zone_id = self.grid.zone_id_for(agent.position(now_s))
            out.setdefault(zone_id, []).append(agent)
        return out

    def _warm_ground_truth(
        self, by_zone: Dict[ZoneId, List[ClientAgent]], now_s: float
    ) -> None:
        """Precompute per-point link quantities for this tick's clients.

        All tasks issued this tick measure at the clients' current
        positions, so one vectorized batch per carrier fills the
        networks' point caches and every subsequent scalar query inside
        the measurement primitives is a cache hit.
        """
        points = [
            agent.position(now_s)
            for agents in by_zone.values()
            for agent in agents
        ]
        if not points:
            return
        nets = sorted(
            {
                net
                for agents in by_zone.values()
                for agent in agents
                for net in agent.device.networks
            },
            key=lambda n: n.value,
        )
        # All agents share one landscape; warm it once.
        first = next(iter(by_zone.values()))[0]
        first.landscape.warm_cache(points, nets=nets)
        if self.obs.enabled:
            self.metrics.counter("coordinator.cache_warms").inc()
            self.metrics.histogram(
                "coordinator.warm_batch_size"
            ).observe(len(points))
            self.obs.emit(
                "cache.warm", now_s,
                points=len(points), networks=[n.value for n in nets],
            )

    def tick(self, now_s: float) -> List[MeasurementReport]:
        """One coordinator round; returns the reports it ingested."""
        obs = self.obs
        self.metrics.counter("coordinator.ticks").inc()
        reports: List[MeasurementReport] = []
        with obs.span("coordinator.tick"):
            with obs.span("presence"):
                by_zone = self._active_clients_by_zone(now_s)
            with obs.span("warm"):
                self._warm_ground_truth(by_zone, now_s)
            with obs.span("schedule"):
                for zone_id, agents in by_zone.items():
                    for network in self._networks_present(agents):
                        eligible = [
                            a for a in agents if a.device.supports(network)
                        ]
                        for kind in self.config.task_kinds:
                            key: MetricKey = (zone_id, network, kind)
                            record = self.store.get(key, now_s)
                            self._close_and_alert(record, now_s)
                            if obs.enabled and eligible:
                                self.slo.note_demand(key, now_s)
                            decisions = self.scheduler.decide(
                                record, kind,
                                [a.client_id for a in eligible], now_s,
                            )
                            if obs.enabled and decisions:
                                self.metrics.histogram(
                                    "scheduler.task_probability",
                                    _PROBABILITY_BUCKETS,
                                ).observe(decisions[0].probability)
                            for decision in decisions:
                                if not decision.issue:
                                    continue
                                report = self._issue_task(
                                    self.clients[decision.client_id],
                                    network,
                                    kind,
                                    zone_id,
                                    now_s,
                                )
                                if report is not None:
                                    self.ingest(report)
                                    reports.append(report)
            # Epochs in zones with no clients this tick still need closing.
            with obs.span("close_idle"):
                for record in self.store.records():
                    self._close_and_alert(record, now_s)
        if obs.enabled:
            self.metrics.gauge("coordinator.active_zones").set(len(by_zone))
            self.metrics.gauge("coordinator.streams").set(len(self.store))
            self.metrics.histogram(
                "coordinator.reports_per_tick"
            ).observe(len(reports))
            self.slo.update_gauges(self.metrics, now_s)
        return reports

    @staticmethod
    def _networks_present(agents: Sequence[ClientAgent]) -> List[NetworkId]:
        nets = {net for a in agents for net in a.device.networks}
        return sorted(nets, key=lambda n: n.value)

    def _issue_task(
        self,
        agent: ClientAgent,
        network: NetworkId,
        kind: MeasurementType,
        zone_id: ZoneId,
        now_s: float,
    ) -> Optional[MeasurementReport]:
        params: Dict[str, float] = {}
        if kind is MeasurementType.UDP_TRAIN:
            params["n_packets"] = self.config.udp_packets_per_task
        elif kind is MeasurementType.PING:
            params["count"] = self.config.ping_count_per_task
            params["interval_s"] = 1.0
        task = MeasurementTask(
            task_id=next(self._task_ids),
            network=network,
            kind=kind,
            zone_id=zone_id,
            issued_at_s=now_s,
            deadline_s=now_s + self.config.tick_interval_s,
            params=params,
        )
        self.metrics.counter("coordinator.tasks_issued").inc()
        if self.obs.enabled:
            self.obs.emit(
                "task.issue", now_s,
                task_id=task.task_id, client=agent.client_id,
                zone=list(zone_id), network=network.value, metric=kind.value,
            )
        report = agent.execute(task, now_s)
        if report is None:
            self.metrics.counter("coordinator.tasks_refused").inc()
            if self.obs.enabled:
                self.obs.emit(
                    "task.refuse", now_s,
                    task_id=task.task_id, client=agent.client_id,
                    zone=list(zone_id), network=network.value,
                    metric=kind.value,
                )
        elif self.obs.enabled:
            self.metrics.histogram(
                "coordinator.task_duration_s"
            ).observe(max(0.0, report.end_s - report.start_s))
        return report

    # -- ingest -----------------------------------------------------------

    def ingest(self, report: MeasurementReport, now_s: Optional[float] = None) -> bool:
        """Fold one client report into the zone records.

        The report first passes the plausibility validator; rejected
        reports are counted (per reason, see ``validator.rejections``)
        and never touch the records.  Returns True when ingested.
        """
        at_s = report.start_s if now_s is None else now_s
        result = self.validator.validate(report, at_s)
        if not result.ok:
            self.metrics.counter("coordinator.reports_rejected").inc()
            if self.obs.enabled:
                self.metrics.counter(
                    f"validator.reject.{result.reason}"
                ).inc()
                self.obs.emit(
                    "report.reject", at_s,
                    client=report.client_id, network=report.network.value,
                    metric=report.kind.value, reason=result.reason,
                )
            return False
        zone_id = self.grid.zone_id_for(report.point)
        key: MetricKey = (zone_id, report.network, report.kind)
        record = self.store.get(key, report.start_s)
        samples = report.samples if report.samples else [report.value]
        record.add_samples(samples, report.start_s)
        record.note_measurement(report.value, report.start_s)
        self.metrics.counter("coordinator.reports_ingested").inc()
        if self.obs.enabled:
            self.metrics.counter("coordinator.samples_ingested").inc(
                len(samples)
            )
            self.slo.note_samples(key, len(samples), at_s)
        return True

    # -- epoch close / change detection ------------------------------------

    def _close_and_alert(self, record: ZoneRecord, now_s: float) -> None:
        track_slo = self.obs.enabled
        index_before = record.epoch_index if track_slo else 0
        estimate = record.maybe_close_epoch(now_s)
        if track_slo:
            # maybe_close_epoch may sweep several epoch windows at once:
            # at most one carries samples (the estimate); the rest closed
            # empty and count as zero-sample closes for the SLO tracker.
            closed = record.epoch_index - index_before
            if closed > 0:
                if estimate is not None:
                    self.slo.note_epoch_close(
                        record.key, estimate.n_samples, now_s
                    )
                    closed -= 1
                if closed > 0:
                    self.slo.note_epoch_close(
                        record.key, 0, now_s, n_epochs=closed
                    )
        if estimate is None:
            return
        self.metrics.counter("coordinator.epochs_closed").inc()
        if self.obs.enabled:
            zone_id, network, kind = record.key
            self.obs.emit(
                "epoch.close", now_s,
                zone=list(zone_id), network=network.value,
                metric=kind.value, epoch_index=estimate.epoch_index,
                mean=estimate.mean, std=estimate.std,
                n_samples=estimate.n_samples, budget=record.sample_budget,
            )
            self.metrics.histogram(
                "coordinator.epoch_samples"
            ).observe(estimate.n_samples)
        record.epochs_since_calibration += 1
        previous = record.published
        if previous is None:
            record.published = estimate
        else:
            moved = abs(estimate.mean - previous.mean)
            threshold = self.config.change_sigma * previous.std
            if previous.std > 0 and moved > threshold:
                alert = ChangeAlert(
                    key=record.key,
                    at_s=now_s,
                    previous=previous,
                    current=estimate,
                )
                self.alerts.append(alert)
                self.metrics.counter("coordinator.change_alerts").inc()
                if self.obs.enabled:
                    zone_id, network, kind = record.key
                    self.obs.emit(
                        "alert.change", now_s,
                        zone=list(zone_id), network=network.value,
                        metric=kind.value,
                        magnitude_sigma=alert.magnitude_sigma,
                        previous_mean=previous.mean, mean=estimate.mean,
                    )
                record.published = estimate
            elif previous.std == 0:
                record.published = estimate
        if (
            record.epochs_since_calibration
            >= self.config.epochs_between_recalibration
        ):
            self._recalibrate(record, now_s)

    def _recalibrate(self, record: ZoneRecord, now_s: float) -> None:
        """Refresh the zone's epoch duration and sample budget."""
        record.epochs_since_calibration = 0
        self.metrics.counter("coordinator.recalibrations").inc()
        epoch_before = record.epoch_s
        budget_before = record.sample_budget
        with self.obs.span("coordinator.recalibrate"):
            new_epoch = self.epoch_estimator.estimate(
                record.series_times, record.series_values,
                fallback_s=record.epoch_s,
            )
            record.set_epoch_duration(new_epoch)
            record.set_sample_budget(
                self.budget_planner.plan(record.sample_pool)
            )
        if self.obs.enabled:
            zone_id, network, kind = record.key
            self.obs.emit(
                "calibration.recalibrate", now_s,
                zone=list(zone_id), network=network.value,
                metric=kind.value,
                epoch_s_before=epoch_before, epoch_s=record.epoch_s,
                budget_before=budget_before, budget=record.sample_budget,
            )
            self.metrics.histogram(
                "calibration.epoch_s",
                (300.0, 600.0, 1200.0, 1800.0, 3600.0, 7200.0, 14400.0),
            ).observe(record.epoch_s)
            self.metrics.histogram(
                "calibration.budget",
                (30.0, 50.0, 75.0, 100.0, 125.0, 150.0, 200.0),
            ).observe(record.sample_budget)

    # -- queries ------------------------------------------------------------

    def published_estimate(
        self, zone_id: ZoneId, network: NetworkId, kind: MeasurementType
    ) -> Optional[EpochEstimate]:
        """What WiScape currently publishes for a stream (None if unknown)."""
        record = self.store.peek((zone_id, network, kind))
        return record.published if record else None

    def best_network(
        self,
        zone_id: ZoneId,
        kind: MeasurementType,
        networks: Sequence[NetworkId],
        higher_is_better: bool = True,
    ) -> Optional[NetworkId]:
        """The carrier WiScape's data says performs best in a zone.

        This is the lookup the multi-sim and MAR applications use.
        Returns None when no carrier has a published estimate.
        """
        best: Optional[Tuple[float, NetworkId]] = None
        for net in networks:
            est = self.published_estimate(zone_id, net, kind)
            if est is None:
                continue
            score = est.mean if higher_is_better else -est.mean
            if best is None or score > best[0]:
                best = (score, net)
        return best[1] if best else None

    def dominant_network(
        self,
        zone_id: ZoneId,
        kind: MeasurementType,
        networks: Sequence[NetworkId],
        higher_is_better: bool = True,
        min_samples: int = 20,
    ) -> Optional[NetworkId]:
        """Live persistent-dominance query from published estimates.

        Applies the paper's 5/95-percentile rule (section 4.2.1) to the
        carriers' current published epochs: a carrier dominates when its
        pessimistic percentile beats every rival's optimistic one.
        """
        published = {}
        for net in networks:
            est = self.published_estimate(zone_id, net, kind)
            if est is not None and est.n_samples >= min_samples:
                published[net] = est
        if len(published) < 2:
            return None
        for net, est in published.items():
            others = [e for n, e in published.items() if n != net]
            if higher_is_better:
                if all(est.p5 > o.p95 for o in others):
                    return net
            else:
                if all(est.p95 < o.p5 for o in others):
                    return net
        return None

    # -- event-engine integration --------------------------------------------

    def attach(self, engine: EventEngine, until: Optional[float] = None) -> None:
        """Schedule the periodic tick on a discrete-event engine."""
        engine.schedule_every(
            self.config.tick_interval_s,
            lambda: self.tick(engine.now),
            name="coordinator-tick",
            until=until,
        )
