"""Tests for PR 6's serve hot path: batched REPORT frames, codec
negotiation, partial backpressure rejection, and WAL group commit.

Same conventions as test_server.py — no pytest-asyncio, each test is a
sync function driving one ``asyncio.run()`` scenario over loopback TCP.
"""

import asyncio
import json
import os
import tempfile

from repro.serve.driver import ServeSession
from repro.serve.loadgen import LoadgenConfig, run_loadgen, synthetic_report
from repro.serve.server import (
    CoordinatorServer,
    ServeConfig,
    replay_wal,
)
from repro.serve.wal import iter_wal_records, wal_segments
from repro.serve.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)


def serve_scenario(scenario, wal_dir=None, **config_overrides):
    """Start a server, run ``scenario(server)``, always stop the server."""

    async def body():
        server = CoordinatorServer(ServeConfig(**config_overrides),
                                   wal_dir=wal_dir)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


def batch_frame(reports, seq_lo=0):
    return {"type": "REPORT_BATCH", "seq_lo": seq_lo, "reports": reports}


class TestCodecNegotiation:
    def test_no_codecs_key_stays_json(self):
        """A PR-5 client (no codecs in HELLO) gets the PR-5 session."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_frame({
                "type": "HELLO", "v": PROTOCOL_VERSION,
                "client_id": "old", "networks": ["NetA"],
            }))
            await writer.drain()
            welcome = await read_frame(reader)
            assert welcome["codec"] == CODEC_JSON
            assert server.metrics.counter(
                "serve.sessions_codec.json").value == 1
            writer.close()

        serve_scenario(scenario)

    def test_binary_preference_wins(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="c",
                networks=["NetA"], codecs=[CODEC_BINARY, CODEC_JSON],
            ) as session:
                assert session.codec == CODEC_BINARY
                assert session.welcome["codec"] == CODEC_BINARY
                # Post-negotiation traffic works end to end.
                reply = await session.request({"type": "PING", "seq": 3})
                assert reply == {"type": "PONG", "seq": 3}
            assert server.metrics.counter(
                "serve.sessions_codec.binary").value == 1

        serve_scenario(scenario)

    def test_server_trimmed_to_json_refuses_binary(self):
        """A json-only server falls back to json for binary-preferring
        clients (preference intersects with what the server speaks)."""

        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="c",
                networks=["NetA"], codecs=[CODEC_BINARY, CODEC_JSON],
            ) as session:
                assert session.codec == CODEC_JSON

        serve_scenario(scenario, codecs=("json",))

    def test_binary_session_close_is_not_a_protocol_error(self):
        """BYE and its answer travel in the negotiated codec."""

        async def scenario(server):
            session = ServeSession("127.0.0.1", server.port, client_id="c",
                                   networks=["NetA"], codecs=[CODEC_BINARY])
            await session.open()
            assert session.codec == CODEC_BINARY
            await session.close()
            assert server.metrics.counter_value(
                "serve.protocol_errors") == 0
            assert server.metrics.counter_value(
                "serve.error.bad-frame") == 0

        serve_scenario(scenario)


class TestBatchIngest:
    def test_batch_gets_one_range_ack(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                reports = [synthetic_report(0, i) for i in range(10)]
                ack = await session.send_report_batch(reports)
                assert ack["accepted"] == 10
                assert ack["rejected"] == 0
                assert ack["_retries"] == 0
            assert server.metrics.counter(
                "serve.report_batches").value == 1
            assert server.metrics.counter(
                "serve.reports_ingested").value == 10

        serve_scenario(scenario)

    def test_ack_batch_carries_wal_seq_range(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                await session._send_frame(batch_frame(
                    [synthetic_report(0, i) for i in range(5)], seq_lo=7
                ))
                ack = await session._read_reply()
                assert ack["type"] == "ACK_BATCH"
                assert (ack["seq_lo"], ack["seq_hi"]) == (7, 11)
                assert ack["wal_seq_hi"] - ack["wal_seq_lo"] == 4
                assert ack["accepted"] == 5
                assert ack["rejected_seqs"] == []

        with tempfile.TemporaryDirectory() as tmp:
            serve_scenario(scenario, wal_dir=os.path.join(tmp, "wal"))

    def test_partial_rejection_retries_only_the_tail(self):
        """A batch over the ingest budget gets the admitted prefix
        range-ACKed and the tail RETRYed; the client resends just the
        tail and every report lands exactly once."""

        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                reports = [synthetic_report(0, i) for i in range(12)]
                ack = await session.send_report_batch(reports)
                assert ack["accepted"] == 12
                assert ack["_retries"] >= 1
            assert server.metrics.counter(
                "serve.backpressure_rejections").value > 0
            assert server.metrics.counter(
                "serve.reports_ingested").value == 12
            # Every report ingested exactly once despite the retries.
            assert server.coordinator.metrics.counter(
                "coordinator.reports_ingested").value == 12

        serve_scenario(scenario, ingest_queue_max=4)

    def test_validator_rejections_reported_in_rejected_seqs(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                good = synthetic_report(0, 0)
                bad = dict(synthetic_report(0, 1))
                bad["speed_ms"] = 9000.0  # fails plausibility validation
                await session._send_frame(batch_frame([good, bad],
                                                      seq_lo=0))
                ack = await session._read_reply()
                assert ack["type"] == "ACK_BATCH"
                assert ack["accepted"] == 1
                assert ack["rejected_seqs"] == [1]

        serve_scenario(scenario)

    def test_malformed_report_fails_whole_batch_before_admission(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_frame({
                "type": "HELLO", "v": PROTOCOL_VERSION,
                "client_id": "c", "networks": ["NetA"],
            }))
            await writer.drain()
            await read_frame(reader)
            writer.write(encode_frame(batch_frame(
                [synthetic_report(0, 0), {"not": "a report"}]
            )))
            await writer.drain()
            error = await read_frame(reader)
            assert error["type"] == "ERROR"
            assert error["code"] == "bad-frame"
            # Nothing from the batch was admitted.
            assert server.metrics.counter(
                "serve.reports_ingested").value == 0
            writer.close()

        serve_scenario(scenario)


class TestGroupCommit:
    def test_one_commit_covers_a_whole_batch(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                reports = [synthetic_report(0, i) for i in range(32)]
                await session.send_report_batch(reports)
            assert server.wal.records_logged == 32
            #: The whole 32-report frame arrived as one queue item, so
            #: the writer staged it in very few commits (one, unless the
            #: event loop sliced the drain).
            assert server.wal.group_commits <= 2

        with tempfile.TemporaryDirectory() as tmp:
            serve_scenario(scenario, wal_dir=os.path.join(tmp, "wal"))

    def test_commit_policy_recorded_in_meta(self):
        async def scenario(server):
            return None

        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = os.path.join(tmp, "wal")
            serve_scenario(scenario, wal_dir=wal_dir,
                           wal_fsync_interval_s=0.25)
            with open(os.path.join(wal_dir, "wal_meta.json")) as fh:
                meta = json.load(fh)
            policy = meta["commit_policy"]
            assert policy["fsync_every"] == 64
            assert policy["fsync_interval_s"] == 0.25

    def test_stats_reports_group_commits(self):
        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"],
            ) as session:
                await session.send_report_batch(
                    [synthetic_report(0, i) for i in range(4)]
                )
                stats = await session.stats()
            wal = stats["wal"]
            assert wal["records_logged"] == 4
            assert wal["group_commits"] >= 1
            assert "commit_policy" in wal

        with tempfile.TemporaryDirectory() as tmp:
            serve_scenario(scenario, wal_dir=os.path.join(tmp, "wal"))


class TestReplayIdentityAcrossCodecs:
    def test_same_stream_same_wal_bytes_and_registry(self):
        """The same deterministic report stream, pushed once per codec
        (batched binary vs unbatched json), must leave byte-identical
        WAL segments and an identical replayed coordinator registry."""

        def run_shape(wal_dir, codec, batch_size):
            async def body():
                server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
                await server.start()
                try:
                    await run_loadgen(LoadgenConfig(
                        port=server.port, clients=4,
                        reports_per_client=25, concurrency=4,
                        codec=codec, batch_size=batch_size,
                    ))
                    return server.coordinator.metrics.to_json()
                finally:
                    await server.stop()

            return asyncio.run(body())

        with tempfile.TemporaryDirectory() as tmp:
            wal_json = os.path.join(tmp, "wal-json")
            wal_bin = os.path.join(tmp, "wal-bin")
            live_json = run_shape(wal_json, "json", 1)
            live_bin = run_shape(wal_bin, "binary", 25)
            #: Replay of each WAL reproduces its live registry ...
            assert replay_wal(wal_json).metrics.to_json() == live_json
            assert replay_wal(wal_bin).metrics.to_json() == live_bin
            #: ... and the two WALs hold the same records.  Arrival
            #: order differs across runs (concurrent sessions), so
            #: compare as canonical-line multisets.
            lines_json = sorted(
                json.dumps(r, sort_keys=True)
                for r in iter_wal_records(wal_json)
            )
            lines_bin = sorted(
                json.dumps(r, sort_keys=True)
                for r in iter_wal_records(wal_bin)
            )
            assert lines_json == lines_bin


class TestOneReportSends:
    """A one-report send is a REPORT_BATCH of one on either codec."""

    def send_one(self, wal_dir, codec):
        """One ``send_report`` over a ``codec`` session.

        Returns the frame bytes the send wrote and the server's
        ``serve.report_batches`` count.
        """
        sent = []

        async def scenario(server):
            async with ServeSession(
                "127.0.0.1", server.port, client_id="load-00000",
                networks=["NetA"], codecs=[codec],
            ) as session:
                assert session.codec == codec
                write = session._writer.write

                def recording(data):
                    sent.append(bytes(data))
                    write(data)

                session._writer.write = recording
                summary = await session.send_report(synthetic_report(0, 0))
                session._writer.write = write
            assert (summary["accepted"], summary["rejected"],
                    summary["_retries"]) == (1, 0, 0)
            return server.metrics.counter_value("serve.report_batches")

        batches = serve_scenario(scenario, wal_dir=wal_dir)
        assert len(sent) == 1
        return sent[0], batches

    def test_binary_one_report_send_is_struct_packed(self):
        with tempfile.TemporaryDirectory() as tmp:
            frame, batches = self.send_one(os.path.join(tmp, "wal"),
                                           CODEC_BINARY)
        #: Payload tag 0x01: the packed REPORT_BATCH, not the JSON hatch.
        assert frame[4] == 0x01
        assert batches == 1

    def test_one_report_wal_bytes_equal_across_codecs(self):
        segments = {}
        with tempfile.TemporaryDirectory() as tmp:
            for codec in (CODEC_JSON, CODEC_BINARY):
                wal_dir = os.path.join(tmp, codec)
                frame, _ = self.send_one(wal_dir, codec)
                segments[codec] = [open(path, "rb").read()
                                   for path in wal_segments(wal_dir)]
                if codec == CODEC_JSON:
                    assert json.loads(frame[4:])["type"] == "REPORT_BATCH"
        assert len(segments[CODEC_JSON]) == 1
        assert segments[CODEC_JSON] == segments[CODEC_BINARY]


class TestLoadgenBatchKnobs:
    def test_batched_binary_loadgen_zero_drops(self):
        async def body():
            server = CoordinatorServer(ServeConfig())
            await server.start()
            try:
                result = await run_loadgen(LoadgenConfig(
                    port=server.port, clients=8, reports_per_client=30,
                    concurrency=4, codec="binary", batch_size=10,
                ))
            finally:
                await server.stop()
            assert result.reports_acked == 240
            assert result.reports_dropped == 0
            assert not result.errors
            return server

        server = asyncio.run(body())
        assert server.metrics.counter(
            "serve.sessions_codec.binary").value == 8
        assert server.metrics.counter("serve.report_batches").value == 24
