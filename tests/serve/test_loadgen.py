"""Tests for the load-generation harness (repro.serve.loadgen)."""

import asyncio

from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenResult,
    _percentile,
    run_loadgen,
    synthetic_report,
)
from repro.serve.server import CoordinatorServer, ServeConfig, replay_wal
from repro.serve.wire import report_from_wire


class TestSyntheticReports:
    def test_deterministic(self):
        assert synthetic_report(3, 7) == synthetic_report(3, 7)
        assert synthetic_report(3, 7) != synthetic_report(3, 8)
        assert synthetic_report(3, 7) != synthetic_report(4, 7)

    def test_wire_decodable(self):
        for client in range(5):
            for seq in range(5):
                report = report_from_wire(synthetic_report(client, seq))
                assert report.client_id == f"load-{client:05d}"

    def test_passes_the_plausibility_validator(self):
        from repro.serve.server import build_coordinator

        coordinator = build_coordinator()
        for client in range(4):
            for seq in range(4):
                report = report_from_wire(synthetic_report(client, seq))
                assert coordinator.ingest(report), (client, seq)

    def test_percentile_nearest_rank(self):
        assert _percentile([], 0.99) == 0.0
        cases = [
            ([1.0, 2.0, 3.0, 4.0], {0.0: 1.0, 0.99: 4.0}),
            ([1.0, 2.0], {0.50: 1.0, 0.95: 2.0}),
            ([7.5], {0.50: 7.5, 0.95: 7.5, 0.99: 7.5}),
            ([float(v) for v in range(1, 21)],
             {0.50: 10.0, 0.95: 19.0, 0.99: 20.0}),
            ([float(v) for v in range(1, 101)],
             {0.50: 50.0, 0.95: 95.0, 0.99: 99.0}),
        ]
        for values, expected in cases:
            for q, want in expected.items():
                assert _percentile(values, q) == want, (len(values), q)

    def test_result_to_dict_caps_errors(self):
        result = LoadgenResult(errors=[f"e{i}" for i in range(20)])
        assert len(result.to_dict()["errors"]) == 10


class TestLoadgenRun:
    def run_against_server(self, wal_dir=None, **shape):
        async def body():
            server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
            await server.start()
            try:
                cfg = LoadgenConfig(port=server.port, **shape)
                result = await run_loadgen(cfg)
                return result, server.coordinator.metrics.to_json()
            finally:
                await server.stop()

        return asyncio.run(body())

    def test_zero_drops_and_full_accounting(self):
        clients, per_client = 8, 5
        result, _ = self.run_against_server(
            clients=clients, reports_per_client=per_client, concurrency=4
        )
        assert result.sessions_completed == clients
        assert result.sessions_failed == 0
        assert result.reports_sent == clients * per_client
        assert result.reports_acked == clients * per_client
        assert result.reports_dropped == 0
        assert result.errors == []
        assert result.reports_per_s > 0
        assert result.ack_p99_ms >= result.ack_p50_ms >= 0

    def test_wal_replay_matches_loaded_coordinator(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        result, live_metrics = self.run_against_server(
            wal_dir=wal_dir, clients=4, reports_per_client=4, concurrency=4
        )
        assert result.reports_dropped == 0
        assert replay_wal(wal_dir).metrics.to_json() == live_metrics

    def test_reconnects_ride_over_a_restart(self, tmp_path):
        """Kill the server mid-run; loadgen reconnects and drops nothing."""
        wal_dir = str(tmp_path / "wal")
        clients, per_client = 4, 100

        async def crash(server):
            #: SIGKILL-style teardown: drop every session on the floor,
            #: no queue drain, no graceful BYE.  Whatever append()
            #: flushed to the WAL survives; nothing else does.
            server._closing = True
            server._server.close()
            await server._server.wait_closed()
            for session in list(server._sessions.values()):
                session.writer.close()
            server._sessions.clear()
            server._ingest_task.cancel()
            try:
                await server._ingest_task
            except asyncio.CancelledError:
                pass
            if server.wal is not None:
                server.wal.close()

        async def body():
            server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
            await server.start()
            port = server.port
            cfg = LoadgenConfig(
                port=port, clients=clients, reports_per_client=per_client,
                concurrency=clients, reconnect_delay_s=0.05,
            )
            load = asyncio.ensure_future(run_loadgen(cfg))
            # Kill only once real traffic is flowing, well short of done.
            while server.metrics.counter(
                    "serve.reports_received").value < 20:
                await asyncio.sleep(0.005)
            await crash(server)
            restarted = CoordinatorServer(
                ServeConfig(port=port), wal_dir=wal_dir
            )
            await restarted.start()
            try:
                return await load
            finally:
                await restarted.stop()

        result = asyncio.run(body())
        assert result.reports_dropped == 0
        assert result.reports_acked == clients * per_client
        # The restart was actually exercised, not raced past.
        assert result.reconnects > 0
