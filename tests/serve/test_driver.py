"""Tests for the client-side driver (repro.serve.driver)."""

import asyncio

import pytest

from repro.clients.protocol import MeasurementReport, MeasurementType
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId
from repro.serve.driver import ServedClient, ServeSession
from repro.serve.loadgen import synthetic_report
from repro.serve.server import CoordinatorServer, ServeConfig
from repro.serve.wire import (
    PROTOCOL_VERSION,
    ProtocolError,
    WireError,
    encode_frame,
    read_frame,
)


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


def with_stub_server(replies, scenario):
    """Run ``scenario(port)`` against a one-session stub server.

    The stub welcomes the client, answers its first frame with
    ``replies`` verbatim, and closes once the next frame (the client's
    BYE) arrives.
    """

    async def handle(reader, writer):
        await read_frame(reader)
        writer.write(encode_frame({"type": "WELCOME", "session_id": 1,
                                   "v": PROTOCOL_VERSION, "codec": "json"}))
        await read_frame(reader)
        for reply in replies:
            writer.write(encode_frame(reply))
        await writer.drain()
        await read_frame(reader)
        writer.close()

    async def body():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        try:
            return await scenario(server.sockets[0].getsockname()[1])
        finally:
            server.close()
            await server.wait_closed()

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

    def check_retry_budget(self, n_reports):
        """A send the server never admits fails once the budget is spent.

        Holding the ingest budget full makes the server answer every
        frame with RETRY: the first send plus ``max_retries`` resends,
        each rejecting all of its reports.
        """
        reports = [synthetic_report(0, i) for i in range(n_reports)]

        async def scenario(server):
            server._ingest_pending = server.config.ingest_queue_max
            try:
                async with ServeSession("127.0.0.1", server.port,
                                        client_id="s-1",
                                        networks=["NetA"]) as session:
                    with pytest.raises(WireError,
                                       match="not accepted after 2 retries"):
                        if n_reports == 1:
                            await session.send_report(reports[0],
                                                      max_retries=2)
                        else:
                            await session.send_report_batch(reports,
                                                            max_retries=2)
            finally:
                server._ingest_pending = 0
            assert server.metrics.counter_value(
                "serve.backpressure_rejections") == 3 * n_reports
            #: Every send is one REPORT_BATCH: 1 + max_retries frames.
            assert server.metrics.counter_value("serve.report_batches") == 3
            sizes = server.metrics.histogram("serve.report_batch_size")
            assert (sizes.total, sizes.min, sizes.max) == (
                3, n_reports, n_reports)

        with_server(scenario, ingest_queue_max=1, retry_after_s=0.01)

    def test_send_report_retry_budget(self):
        self.check_retry_budget(1)

    def test_send_report_batch_retry_budget(self):
        self.check_retry_budget(3)

    def test_retry_tail_of_one_is_resent_as_a_batch_of_one(self):
        """A 3-report batch over a budget of 2: the RETRY tail is one
        report, which goes back as a REPORT_BATCH of one and settles."""

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="load-00000",
                                    networks=["NetA"]) as session:
                summary = await session.send_report_batch(
                    [synthetic_report(0, i) for i in range(3)]
                )
            assert summary["accepted"] == 3
            assert summary["rejected"] == 0
            assert summary["_retries"] >= 1
            #: The first frame plus one frame per resend.
            assert server.metrics.counter_value(
                "serve.report_batches") == summary["_retries"] + 1
            sizes = server.metrics.histogram("serve.report_batch_size")
            assert (sizes.max, sizes.min) == (3.0, 1.0)
            assert server.metrics.counter_value(
                "serve.backpressure_rejections") == summary["_retries"]
            assert server.metrics.counter_value(
                "serve.reports_ingested") == 3

        with_server(scenario, ingest_queue_max=2, retry_after_s=0.01)

    def check_bad_reply(self, replies, match):
        """A reply that settles no unsettled slice is a ProtocolError."""

        async def scenario(port):
            async with ServeSession("127.0.0.1", port, client_id="s-1",
                                    networks=["NetA"]) as session:
                with pytest.raises(ProtocolError, match=match):
                    await asyncio.wait_for(session.send_report_batch(
                        [synthetic_report(0, i) for i in range(2)]
                    ), timeout=5.0)

        with_stub_server(replies, scenario)

    def test_reply_without_a_range_is_a_protocol_error(self):
        self.check_bad_reply([{"type": "ACK_BATCH", "accepted": 2}],
                             "without an integer seq_lo")

    @pytest.mark.parametrize("replies", [
        #: Past the frame's end.
        [{"type": "RETRY", "seq_lo": 2, "seq_hi": 2}],
        #: The already settled head, named twice.
        [{"type": "ACK_BATCH", "seq_lo": 0, "seq_hi": 0, "accepted": 1},
         {"type": "ACK_BATCH", "seq_lo": 0, "seq_hi": 0, "accepted": 1}],
        #: An empty range.
        [{"type": "ACK_BATCH", "seq_lo": 1, "seq_hi": 0, "accepted": 0}],
    ])
    def test_reply_outside_the_unsettled_frame_is_a_protocol_error(
            self, replies):
        self.check_bad_reply(replies, "not an unsettled part of frame 0..1")


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

    def test_batched_client_flushes_full_buffers_then_the_rest(self):
        async def scenario(server):
            client = ServedClient(_StubAgent(), "127.0.0.1", server.port,
                                  batch_size=4)
            stats = await client.run(n_polls=10)
            assert stats.reports_sent == 10
            assert stats.reports_acked == stats.reports_sent
            assert len(stats.ack_latencies_s) == 10
            #: Two full buffers of 4, then the last 2 at session end.
            assert server.metrics.counter_value("serve.report_batches") == 3
            sizes = server.metrics.histogram("serve.report_batch_size")
            assert (sizes.total, sizes.sum) == (3, 10.0)
            assert (sizes.min, sizes.max) == (2.0, 4.0)

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
