"""Tests for the asyncio coordinator service (repro.serve.server).

No pytest-asyncio in the toolchain: every test is a sync function that
drives one ``asyncio.run()`` scenario end to end over loopback TCP.
"""

import asyncio

from repro.core.controller import MeasurementCoordinator
from repro.geo.zones import ZoneGrid
from repro.obs.telemetry import Telemetry
from repro.serve.loadgen import synthetic_report
from repro.serve.server import (
    CoordinatorServer,
    ServeConfig,
    build_coordinator,
    replay_wal,
)
from repro.serve.wire import (
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    report_from_wire,
)


async def send(writer, message):
    writer.write(encode_frame(message))
    await writer.drain()


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def handshake(server, client_id="c-1", networks=("NetA",)):
    reader, writer = await connect(server)
    await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                        "client_id": client_id,
                        "networks": list(networks)})
    welcome = await read_frame(reader)
    assert welcome["type"] == "WELCOME", welcome
    return reader, writer


def serve_scenario(scenario, **config_overrides):
    """Start a server, run ``scenario(server)``, always stop the server."""

    async def body():
        server = CoordinatorServer(ServeConfig(**config_overrides))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


class TestHandshake:
    def test_welcome_carries_session_terms(self):
        async def scenario(server):
            reader, writer = await connect(server)
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                                "client_id": "c-1", "networks": ["NetA"]})
            welcome = await read_frame(reader)
            assert welcome["type"] == "WELCOME"
            assert welcome["v"] == PROTOCOL_VERSION
            assert welcome["session_id"] >= 1
            assert welcome["heartbeat_s"] == server.config.heartbeat_s
            assert welcome["max_frame_bytes"] == server.config.max_frame_bytes
            assert server.sessions_active == 1
            writer.close()

        serve_scenario(scenario)

    def test_version_mismatch_is_typed_error(self):
        async def scenario(server):
            reader, writer = await connect(server)
            await send(writer, {"type": "HELLO", "v": 999,
                                "client_id": "c-1"})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "version-mismatch"
            assert await read_frame(reader) is None  # session closed
            assert server.metrics.counter(
                "serve.error.version-mismatch").value == 1

        serve_scenario(scenario)

    def test_hello_without_client_id(self):
        async def scenario(server):
            reader, writer = await connect(server)
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"

        serve_scenario(scenario)

    def test_first_frame_must_be_hello(self):
        async def scenario(server):
            reader, writer = await connect(server)
            await send(writer, {"type": "PING"})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"

        serve_scenario(scenario)

    def test_admission_control_server_full(self):
        async def scenario(server):
            r1, w1 = await handshake(server)
            reader, writer = await connect(server)
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                                "client_id": "c-2"})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "server-full"
            assert "retry" in error["detail"]
            assert server.metrics.counter(
                "serve.admission_rejections").value == 1
            w1.close()

        serve_scenario(scenario, max_sessions=1)


class TestProtocolEdges:
    """Malformed input maps to one typed ERROR frame, never a traceback."""

    def test_unknown_frame_type(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            await send(writer, {"type": "BOGUS"})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"
            assert "BOGUS" in error["detail"]
            assert await read_frame(reader) is None

        serve_scenario(scenario)

    def test_server_to_client_type_rejected(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            await send(writer, {"type": "ACK", "seq": 1})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"

        serve_scenario(scenario)

    def test_oversized_frame(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            writer.write(encode_frame(
                {"type": "PING", "pad": "x" * (1 << 12)}
            ))
            await writer.drain()
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "frame-too-large"

        serve_scenario(scenario, max_frame_bytes=1 << 10)

    def test_truncated_frame(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            frame = encode_frame({"type": "PING", "seq": 1})
            writer.write(frame[:-4])
            await writer.drain()
            writer.write_eof()  # EOF mid-frame; read side stays open
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "truncated-frame"

        serve_scenario(scenario)

    def test_undecodable_payload(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            bogus = b"{not json"
            writer.write(len(bogus).to_bytes(4, "big") + bogus)
            await writer.drain()
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"

        serve_scenario(scenario)

    def test_malformed_report_payload(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            await send(writer, {"type": "REPORT",
                                "report": {"task_id": "x"}})
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"

        serve_scenario(scenario)

    def test_idle_timeout(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "idle-timeout"
            assert server.metrics.counter("serve.idle_timeouts").value == 1

        serve_scenario(scenario, idle_timeout_s=0.2)

    def test_ping_resets_idle_clock(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            for seq in range(3):
                await asyncio.sleep(0.1)
                await send(writer, {"type": "PING", "seq": seq})
                pong = await read_frame(reader)
                assert pong == {"type": "PONG", "seq": seq}
            writer.close()

        serve_scenario(scenario, idle_timeout_s=0.25)


class TestSessionTraffic:
    def test_report_acked_and_ingested(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            payload = synthetic_report(0, 0)
            await send(writer, {"type": "REPORT", "report": payload})
            ack = await read_frame(reader)
            #: The exact wire reply: no WAL here, so no sequence number.
            assert ack == {"type": "ACK", "task_id": payload["task_id"],
                           "seq": None, "accepted": True}
            assert server.metrics.counter("serve.reports_ingested").value == 1
            writer.close()

        serve_scenario(scenario)

    def test_single_node_report_bins_its_zone_once(self, monkeypatch):
        calls = []
        bin_zone = ZoneGrid.zone_id_for

        def counting(grid, point):
            calls.append(point)
            return bin_zone(grid, point)

        monkeypatch.setattr(ZoneGrid, "zone_id_for", counting)

        async def scenario(server):
            reader, writer = await handshake(server)
            for seq in range(3):
                await send(writer, {"type": "REPORT",
                                    "report": synthetic_report(0, seq)})
                ack = await read_frame(reader)
                assert ack["type"] == "ACK" and ack["accepted"] is True
            writer.close()

        serve_scenario(scenario)
        #: Only coordinator ingest bins a report; single-node mode has
        #: no ownership check to bin it first.
        assert len(calls) == 3

    def test_implausible_report_is_acked_but_rejected(self):
        async def scenario(server):
            payload = synthetic_report(0, 0)
            payload["value"] = 1e12  # far beyond max plausible throughput
            payload["samples"] = []
            reader, writer = await handshake(server)
            await send(writer, {"type": "REPORT", "report": payload})
            ack = await read_frame(reader)
            assert ack["type"] == "ACK"
            assert ack["accepted"] is False
            assert server.metrics.counter("serve.reports_rejected").value == 1
            writer.close()

        serve_scenario(scenario)

    def test_backpressure_retry_then_ack(self):
        async def scenario(server):
            # Park the ingest worker so the depth-1 queue stays full.
            server._ingest_task.cancel()
            try:
                await server._ingest_task
            except asyncio.CancelledError:
                pass
            reader, writer = await handshake(server)
            first, second = synthetic_report(0, 0), synthetic_report(0, 1)
            await send(writer, {"type": "REPORT", "report": first})
            await send(writer, {"type": "REPORT", "report": second})
            retry = await read_frame(reader)
            assert retry == {"type": "RETRY", "task_id": second["task_id"],
                             "retry_after_s": server.config.retry_after_s}
            assert server.metrics.counter(
                "serve.backpressure_rejections").value == 1
            # Worker returns; the queued report drains and is ACKed.
            server._ingest_task = asyncio.ensure_future(
                server._ingest_worker()
            )
            ack = await read_frame(reader)
            assert ack == {"type": "ACK", "task_id": first["task_id"],
                           "seq": None, "accepted": True}
            writer.close()

        serve_scenario(scenario, ingest_queue_max=1)

    def test_poll_round_robins_network_kind_pairs(self):
        async def scenario(server):
            reader, writer = await handshake(
                server, networks=("NetA", "NetB")
            )
            issued = []
            for seq in range(4):
                await send(writer, {"type": "POLL", "t": seq * 60.0,
                                    "lat": 43.0731, "lon": -89.4012,
                                    "seq": seq})
                reply = await read_frame(reader)
                assert reply["type"] == "TASK"
                task = reply["task"]
                assert task["zone_id"] is not None
                issued.append((task["network"], task["kind"]))
            assert issued == [("NetA", "udp"), ("NetA", "ping"),
                              ("NetB", "udp"), ("NetB", "ping")]
            writer.close()

        serve_scenario(scenario)

    def test_poll_without_networks_gets_pong(self):
        async def scenario(server):
            reader, writer = await handshake(server, networks=())
            await send(writer, {"type": "POLL", "t": 0.0,
                                "lat": 43.0731, "lon": -89.4012, "seq": 1})
            reply = await read_frame(reader)
            assert reply["type"] == "PONG"
            writer.close()

        serve_scenario(scenario)

    def test_stats_reply_shape(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            await send(writer, {"type": "STATS"})
            reply = await read_frame(reader)
            assert reply["type"] == "STATS_REPLY"
            assert "coordinator" in reply and "serve" in reply
            assert reply["sessions_active"] == 1
            writer.close()

        serve_scenario(scenario)

    def test_bye_is_answered_and_closes(self):
        async def scenario(server):
            reader, writer = await handshake(server)
            await send(writer, {"type": "BYE"})
            assert (await read_frame(reader))["type"] == "BYE"
            assert await read_frame(reader) is None
            # Session slot is released (poll until the server notices).
            for _ in range(50):
                if server.sessions_active == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.sessions_active == 0

        serve_scenario(scenario)


class TestServedEventLog:
    """The served coordinator counts rejects but retains no events."""

    N = 500

    def test_rejected_reports_retain_no_events(self):
        served = build_coordinator()
        reference = MeasurementCoordinator(served.grid, seed=1,
                                           telemetry=Telemetry())
        for seq in range(self.N):
            payload = synthetic_report(seq % 7, seq)
            payload["value"] = 1e12  # far beyond max plausible throughput
            payload["samples"] = []
            for coordinator in (served, reference):
                assert not coordinator.ingest(report_from_wire(payload))
        assert len(reference.obs.events) == self.N
        assert len(served.obs.events) == 0 and served.obs.events.dropped == 0
        counters = served.metrics.snapshot()["counters"]
        assert counters["coordinator.reports_rejected"] == self.N
        assert any(name.startswith("validator.reject.") for name in counters)
        assert served.metrics.to_json() == reference.metrics.to_json()


class TestWalRecovery:
    def drive(self, wal_dir, reports, stop_cleanly=True):
        """Run one server incarnation, push ``reports``, snapshot state."""

        async def body():
            server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
            await server.start()
            try:
                reader, writer = await handshake(server)
                for payload in reports:
                    await send(writer, {"type": "REPORT", "report": payload})
                    ack = await read_frame(reader)
                    assert ack["type"] == "ACK"
                writer.close()
                return server.coordinator.metrics.to_json()
            finally:
                if stop_cleanly:
                    await server.stop()
                else:
                    #: Crash-style teardown: no queue drain, no WAL
                    #: close/fsync — whatever append() flushed survives.
                    server._server.close()
                    server._ingest_task.cancel()

        return asyncio.run(body())

    def test_restart_rebuilds_byte_identical_state(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        reports = [synthetic_report(c, s) for c in range(3) for s in range(4)]
        before = self.drive(wal_dir, reports)

        async def restarted():
            server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
            await server.start()
            try:
                recovered = server.metrics.gauge(
                    "serve.wal_recovered_records").value
                return recovered, server.coordinator.metrics.to_json()
            finally:
                await server.stop()

        recovered, after = asyncio.run(restarted())
        assert recovered == len(reports)
        assert after == before  # byte-identical registry

    def test_offline_replay_matches_live_state(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        reports = [synthetic_report(c, s) for c in range(2) for s in range(3)]
        before = self.drive(wal_dir, reports)
        replayed = replay_wal(wal_dir)
        assert replayed.metrics.to_json() == before

    def test_ungraceful_kill_loses_nothing_acked(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        reports = [synthetic_report(0, s) for s in range(5)]
        before = self.drive(wal_dir, reports, stop_cleanly=False)
        assert replay_wal(wal_dir).metrics.to_json() == before

    def test_replay_into_explicit_coordinator(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        before = self.drive(wal_dir, [synthetic_report(0, 0)])
        coordinator = build_coordinator()
        assert replay_wal(wal_dir, coordinator) is coordinator
        assert coordinator.metrics.to_json() == before
