"""Tests for the client-side driver (repro.serve.driver)."""

import asyncio

import pytest

from repro.clients.protocol import MeasurementReport, MeasurementType
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId
from repro.serve.driver import ServedClient, ServeSession
from repro.serve.server import CoordinatorServer, ServeConfig
from repro.serve.wire import WireError


class _StubDevice:
    def __init__(self, networks):
        self.networks = set(networks)


class _StubAgent:
    """The driver's view of an agent, without landscape or radio model."""

    def __init__(self, client_id="stub-1", refuse_every=0):
        self.client_id = client_id
        self.device = _StubDevice({NetworkId.NET_A, NetworkId.NET_B})
        self.refuse_every = refuse_every
        self.executed = []

    def position(self, t):
        return GeoPoint(43.0731 + t * 1e-6, -89.4012)

    def execute(self, task, t):
        self.executed.append(task)
        if self.refuse_every and len(self.executed) % self.refuse_every == 0:
            return None
        value = 2e6 if task.kind is MeasurementType.UDP_TRAIN else 0.040
        return MeasurementReport(
            task_id=task.task_id,
            client_id=self.client_id,
            network=task.network,
            kind=task.kind,
            start_s=t,
            end_s=t + 1.0,
            point=self.position(t),
            speed_ms=2.0,
            value=value,
            samples=[value],
            extras={},
        )


def with_server(scenario, **config_overrides):
    async def body():
        server = CoordinatorServer(ServeConfig(**config_overrides))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


class TestServeSession:
    def test_context_manager_handshake(self):
        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="s-1",
                                    networks=["NetA"]) as session:
                assert session.welcome["type"] == "WELCOME"
                stats = await session.stats()
                assert stats["sessions_active"] == 1

        with_server(scenario)

    def test_open_raises_on_refusal(self):
        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="s-1", networks=[]):
                session = ServeSession("127.0.0.1", server.port,
                                       client_id="s-2", networks=[])
                with pytest.raises(WireError):
                    await session.open()
                await session.close()

        with_server(scenario, max_sessions=1)

    def test_send_report_retry_budget(self):
        async def scenario(server):
            # Park the worker so every report meets a full queue.
            server._ingest_task.cancel()
            try:
                await server._ingest_task
            except asyncio.CancelledError:
                pass
            await server._ingest_queue.put(({}, 0, 0.0))  # fill depth 1
            from repro.serve.loadgen import synthetic_report

            async with ServeSession("127.0.0.1", server.port,
                                    client_id="s-1",
                                    networks=["NetA"]) as session:
                with pytest.raises(WireError):
                    await session.send_report(
                        synthetic_report(0, 0), max_retries=2
                    )
            # Leave a live worker behind so stop() can drain the queue.
            server._ingest_queue.get_nowait()
            server._ingest_queue.task_done()
            server._ingest_task = asyncio.ensure_future(
                server._ingest_worker()
            )

        with_server(scenario, ingest_queue_max=1, retry_after_s=0.01)


class TestServedClient:
    def test_poll_execute_report_loop(self):
        async def scenario(server):
            agent = _StubAgent()
            client = ServedClient(agent, "127.0.0.1", server.port)
            stats = await client.run(n_polls=6)
            assert stats.polls == 6
            assert stats.tasks_received == 6
            assert stats.reports_sent == 6
            assert stats.reports_acked == 6
            assert stats.reports_rejected == 0
            assert len(stats.ack_latencies_s) == 6
            # The server's planner round-robins this agent's two
            # networks; the agent executed both.
            networks = {t.network for t in agent.executed}
            assert networks == {NetworkId.NET_A, NetworkId.NET_B}
            assert server.metrics.counter("serve.tasks_issued").value == 6

        with_server(scenario)

    def test_drives_a_real_client_agent(self, city_only_landscape):
        from repro.clients.agent import ClientAgent
        from repro.clients.device import Device, DeviceCategory
        from repro.mobility.models import StaticPosition

        point = city_only_landscape.study_area.anchor.offset(1100.0, -300.0)
        device = Device("dev-1", DeviceCategory.LAPTOP_USB,
                        [NetworkId.NET_A, NetworkId.NET_B], seed=1)
        agent = ClientAgent("agent-1", device, StaticPosition(point),
                            city_only_landscape, seed=2)

        async def scenario(server):
            client = ServedClient(agent, "127.0.0.1", server.port)
            stats = await client.run(n_polls=4)
            assert stats.tasks_received == 4
            assert stats.reports_sent == 4 - stats.tasks_refused
            assert stats.reports_acked + stats.reports_rejected \
                == stats.reports_sent
            assert stats.reports_acked > 0

        with_server(scenario)

    def test_refused_tasks_are_counted_not_sent(self):
        async def scenario(server):
            agent = _StubAgent(refuse_every=2)
            client = ServedClient(agent, "127.0.0.1", server.port)
            stats = await client.run(n_polls=4)
            assert stats.tasks_received == 4
            assert stats.tasks_refused == 2
            assert stats.reports_sent == 2
            assert stats.reports_acked == 2

        with_server(scenario)
