"""Tests for shard mode, REDIRECT, the gateway, and STATS aggregation.

In-process only (no subprocesses): a shard here is a
:class:`CoordinatorServer` with a ``shard_id`` and an installed
:class:`ShardMap`; the cluster edges under test are the protocol ones —
REDIRECT on foreign zones, shard-map version negotiation in
HELLO/WELCOME, MAP_UPDATE adoption mid-handoff, per-shard WAL purity
across a restart, and the cross-shard snapshot merge.
"""

import asyncio
import os
import tempfile

import pytest

from repro.obs.metrics import merge_snapshots
from repro.serve.driver import Redirected, ServeSession
from repro.serve.gateway import GatewayConfig, GatewayServer
from repro.serve.loadgen import synthetic_report
from repro.serve.server import CoordinatorServer, ServeConfig, replay_wal
from repro.serve.shardmap import ShardInfo, ShardMap
from repro.serve.wire import PROTOCOL_VERSION, encode_frame, read_frame

ANCHOR = (43.0731, -89.4012)


def two_shard_map():
    """shard-0 (the in-process server) plus a fake shard-1 endpoint."""
    return ShardMap(
        [ShardInfo("shard-0", "127.0.0.1", 1), ShardInfo("shard-1", "127.0.0.1", 2)],
        *ANCHOR,
    )


def position_owned_by(smap, shard_id):
    """Some (lat, lon) whose zone the named shard owns."""
    for i in range(2000):
        lat = ANCHOR[0] + (i % 50 - 25) * 0.002
        lon = ANCHOR[1] + (i // 50 - 20) * 0.002
        owner = smap.owner_for_position(lat, lon)
        if owner is not None and owner.shard_id == shard_id:
            return lat, lon
    raise AssertionError(f"no position owned by {shard_id}")


def report_at(lat, lon, seq=0):
    """A valid synthetic report pinned to a specific position."""
    payload = synthetic_report(0, seq)
    payload["lat"], payload["lon"] = lat, lon
    return payload


def shard_fold(per_shard):
    """The gateway's STATS fold: sorted shard ids, summed gauges, strict."""
    return merge_snapshots((per_shard[s] for s in sorted(per_shard)),
                           gauges="sum", warnings=None)


async def send(writer, message):
    writer.write(encode_frame(message))
    await writer.drain()


def shard_scenario(scenario, shard_map=None, wal_dir=None,
                   **config_overrides):
    """Run ``scenario(server)`` against a shard-mode server."""

    async def body():
        config_overrides.setdefault("shard_id", "shard-0")
        server = CoordinatorServer(ServeConfig(**config_overrides),
                                   wal_dir=wal_dir)
        server.shard_map = shard_map if shard_map is not None \
            else two_shard_map()
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(body())


class TestShardModeRedirect:
    def test_foreign_report_is_redirected_not_admitted(self):
        smap = two_shard_map()
        lat, lon = position_owned_by(smap, "shard-1")

        payload = report_at(lat, lon)

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                with pytest.raises(Redirected) as exc:
                    await session.send_report(payload)
            frame = exc.value.frame
            assert frame["type"] == "REDIRECT"
            assert frame["task_id"] == payload["task_id"]
            assert frame["shard_id"] == "shard-1"
            assert frame["port"] == 2
            assert frame["map_version"] == smap.version
            assert frame["shard_map"]["version"] == smap.version
            #: Never admitted: nothing reached the coordinator or WAL.
            assert server.coordinator.stats.reports_ingested == 0
            assert server.metrics.counter("serve.redirects").value == 1

        shard_scenario(scenario, shard_map=smap)

    def test_owned_report_is_accepted(self):
        smap = two_shard_map()
        lat, lon = position_owned_by(smap, "shard-0")

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                ack = await session.send_report(report_at(lat, lon))
            assert ack["accepted"] is True
            assert server.coordinator.stats.reports_ingested == 1

        shard_scenario(scenario, shard_map=smap)

    def test_batch_with_any_foreign_report_redirects_whole_frame(self):
        smap = two_shard_map()
        mine = position_owned_by(smap, "shard-0")
        theirs = position_owned_by(smap, "shard-1")

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                batch = [report_at(*mine, seq=0),
                         report_at(*theirs, seq=1)]
                summary = await session.send_report_batch(batch)
            #: All-or-nothing: the frame was refused unprocessed.
            assert summary["accepted"] == 0
            assert summary["redirected"] == batch
            assert summary["redirect"]["shard_id"] == "shard-1"
            assert server.coordinator.stats.reports_ingested == 0

        shard_scenario(scenario, shard_map=smap)

    def test_poll_for_foreign_zone_is_redirected_with_seq(self):
        smap = two_shard_map()
        lat, lon = position_owned_by(smap, "shard-1")

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                                "client_id": "c-1", "networks": ["NetA"]})
            assert (await read_frame(reader))["type"] == "WELCOME"
            await send(writer, {"type": "POLL", "lat": lat, "lon": lon,
                                "speed_ms": 0.0, "seq": 42})
            reply = await read_frame(reader)
            assert reply["type"] == "REDIRECT"
            assert reply["shard_id"] == "shard-1"
            assert reply["seq"] == 42
            writer.close()

        shard_scenario(scenario, shard_map=smap)

    def test_single_node_mode_never_redirects(self):
        smap = two_shard_map()
        lat, lon = position_owned_by(smap, "shard-1")

        async def scenario(server):
            #: No shard_id: the map alone must not trigger REDIRECTs.
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                ack = await session.send_report(report_at(lat, lon))
            assert ack["accepted"] is True

        shard_scenario(scenario, shard_map=smap, shard_id="")


class TestMapNegotiation:
    def test_stale_hello_version_gets_the_full_map(self):
        smap = two_shard_map()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                                "client_id": "c-1", "networks": [],
                                "shard_map_version": "000000000000"})
            welcome = await read_frame(reader)
            assert welcome["shard_id"] == "shard-0"
            assert welcome["shard_map_version"] == smap.version
            assert welcome["shard_map"]["version"] == smap.version
            writer.close()

        shard_scenario(scenario, shard_map=smap)

    def test_current_hello_version_omits_the_map(self):
        smap = two_shard_map()

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send(writer, {"type": "HELLO", "v": PROTOCOL_VERSION,
                                "client_id": "c-1", "networks": [],
                                "shard_map_version": smap.version})
            welcome = await read_frame(reader)
            assert welcome["shard_map_version"] == smap.version
            assert "shard_map" not in welcome
            writer.close()

        shard_scenario(scenario, shard_map=smap)

    def test_map_update_adopts_and_acks_idempotently(self):
        old = two_shard_map()
        new = old.without("shard-1")

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="sup",
                                    networks=[]) as session:
                for _ in range(2):  # second push is a no-op
                    reply = await session.request(
                        {"type": "MAP_UPDATE", "shard_map": new.to_wire()}
                    )
                    assert reply["type"] == "MAP_ACK"
                    assert reply["map_version"] == new.version
            assert server.shard_map.version == new.version
            assert server.metrics.counter("serve.map_updates").value == 1

        shard_scenario(scenario, shard_map=old)

    def test_mid_handoff_report_redirects_after_map_update(self):
        """A report legal under map v1 bounces after v2 arrives."""
        v1 = ShardMap([ShardInfo("shard-0", "127.0.0.1", 1)], *ANCHOR)
        v2 = two_shard_map()
        lat, lon = position_owned_by(v2, "shard-1")

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                ack = await session.send_report(report_at(lat, lon))
                assert ack["accepted"] is True
                reply = await session.request(
                    {"type": "MAP_UPDATE", "shard_map": v2.to_wire()}
                )
                assert reply["type"] == "MAP_ACK"
                with pytest.raises(Redirected) as exc:
                    await session.send_report(report_at(lat, lon, seq=1))
                assert exc.value.frame["map_version"] == v2.version

        shard_scenario(scenario, shard_map=v1)

    def test_stats_reply_names_shard_and_map_version(self):
        smap = two_shard_map()

        async def scenario(server):
            async with ServeSession("127.0.0.1", server.port,
                                    client_id="c-1",
                                    networks=[]) as session:
                reply = await session.stats()
            assert reply["shard_id"] == "shard-0"
            assert reply["shard_map_version"] == smap.version

        shard_scenario(scenario, shard_map=smap)


class TestShardWalRestart:
    def test_per_shard_wal_replay_is_byte_identical_across_restart(self):
        smap = two_shard_map()
        mine = position_owned_by(smap, "shard-0")
        theirs = position_owned_by(smap, "shard-1")

        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = os.path.join(tmp, "wal")

            async def scenario(server):
                async with ServeSession("127.0.0.1", server.port,
                                        client_id="c-1",
                                        networks=["NetA"]) as session:
                    for seq in range(6):
                        await session.send_report(
                            report_at(*mine, seq=seq)
                        )
                    #: Foreign reports bounce and must stay out of the
                    #: WAL — the shard's WAL is a pure function of the
                    #: reports it owns.
                    with pytest.raises(Redirected):
                        await session.send_report(
                            report_at(*theirs, seq=6)
                        )
                return server.coordinator.metrics.to_json()

            live = shard_scenario(scenario, shard_map=smap,
                                  wal_dir=wal_dir)
            assert replay_wal(wal_dir).metrics.to_json() == live

            async def restarted(server):
                return server.coordinator.metrics.to_json()

            recovered = shard_scenario(restarted, shard_map=smap,
                                       wal_dir=wal_dir)
            assert recovered == live


def gateway_scenario(scenario, shard_map):
    """Run ``scenario(gateway)`` against an in-process gateway."""

    async def body():
        gateway = GatewayServer(GatewayConfig(), shard_map=shard_map)
        await gateway.start()
        try:
            return await scenario(gateway)
        finally:
            await gateway.stop()

    return asyncio.run(body())


class TestGateway:
    def test_welcome_carries_the_map(self):
        smap = two_shard_map()

        async def scenario(gateway):
            async with ServeSession("127.0.0.1", gateway.port,
                                    client_id="c-1",
                                    networks=[]) as session:
                welcome = session.welcome
            assert welcome["shard_id"] == "gateway"
            assert welcome["shard_map"]["version"] == smap.version

        gateway_scenario(scenario, smap)

    def test_report_batch_is_steered_to_the_owner(self):
        smap = two_shard_map()
        lat, lon = position_owned_by(smap, "shard-1")

        async def scenario(gateway):
            async with ServeSession("127.0.0.1", gateway.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                summary = await session.send_report_batch(
                    [report_at(lat, lon)]
                )
            assert summary["accepted"] == 0
            assert summary["redirect"]["shard_id"] == "shard-1"
            assert gateway.metrics.counter("cluster.redirects").value == 1

        gateway_scenario(scenario, smap)

    def test_empty_map_answers_retry_not_redirect(self):
        """All shards down: there is no owner to name, only 'later'."""
        empty = ShardMap([], *ANCHOR)

        async def scenario(gateway):
            async with ServeSession("127.0.0.1", gateway.port,
                                    client_id="c-1",
                                    networks=["NetA"]) as session:
                reply = await session.request(
                    {"type": "POLL", "lat": ANCHOR[0], "lon": ANCHOR[1],
                     "speed_ms": 0.0, "seq": 1}
                )
            assert reply["type"] == "RETRY"
            assert reply["retry_after_s"] > 0
            assert gateway.metrics.counter(
                "cluster.no_shard_retries").value == 1

        gateway_scenario(scenario, empty)

    def test_stats_fans_out_and_aggregates_reachable_shards(self):
        async def body():
            shard = CoordinatorServer(ServeConfig(shard_id="shard-0"))
            await shard.start()
            try:
                smap = ShardMap(
                    [ShardInfo("shard-0", "127.0.0.1", shard.port),
                     ShardInfo("shard-1", "127.0.0.1", 1)],  # unreachable
                    *ANCHOR,
                )
                shard.shard_map = smap
                lat, lon = position_owned_by(smap, "shard-0")
                gateway = GatewayServer(GatewayConfig(stats_timeout_s=2.0),
                                        shard_map=smap)
                await gateway.start()
                try:
                    async with ServeSession("127.0.0.1", shard.port,
                                            client_id="c-1",
                                            networks=["NetA"]) as s:
                        await s.send_report(report_at(lat, lon))
                    async with ServeSession("127.0.0.1", gateway.port,
                                            client_id="c-2",
                                            networks=[]) as s:
                        reply = await s.stats()
                    return reply, shard.coordinator.metrics.snapshot()
                finally:
                    await gateway.stop()
            finally:
                await shard.stop()

        reply, shard_snapshot = asyncio.run(body())
        assert reply["shards_reachable"] == 1
        #: One reachable shard: the aggregate IS that shard's registry.
        assert reply["coordinator"] == shard_fold({"shard-0": shard_snapshot})
        assert reply["shards"]["shard-0"]["sessions_active"] >= 0
        assert reply["cluster"]["counters"]["cluster.stats_fanouts"] == 1


class TestAggregateSnapshots:
    def test_counters_and_gauges_sum_across_shards(self):
        merged = shard_fold({
            "b": {"counters": {"x": 2.0}, "gauges": {"g": 1.0},
                  "histograms": {}},
            "a": {"counters": {"x": 3.0, "y": 1.0}, "gauges": {},
                  "histograms": {}},
        })
        assert merged["counters"] == {"x": 5.0, "y": 1.0}
        assert merged["gauges"] == {"g": 1.0}
        assert list(merged["counters"]) == ["x", "y"]  # sorted

    def test_histograms_merge_elementwise_with_min_max(self):
        h1 = {"buckets": [1.0, 2.0], "counts": [1, 0, 2], "count": 3,
              "sum": 4.5, "min": 0.5, "max": 3.0}
        h2 = {"buckets": [1.0, 2.0], "counts": [0, 1, 1], "count": 2,
              "sum": 3.5, "min": 1.5, "max": 9.0}
        merged = shard_fold({
            "a": {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
            "b": {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
        })["histograms"]["h"]
        assert merged["counts"] == [1, 1, 3]
        assert merged["count"] == 5
        assert merged["sum"] == 8.0
        assert merged["min"] == 0.5
        assert merged["max"] == 9.0

    def test_histogram_none_min_max_is_ignored_in_the_merge(self):
        empty = {"buckets": [1.0], "counts": [0, 0], "count": 0,
                 "sum": 0.0, "min": None, "max": None}
        full = {"buckets": [1.0], "counts": [1, 0], "count": 1,
                "sum": 0.5, "min": 0.5, "max": 0.5}
        merged = shard_fold({
            "a": {"counters": {}, "gauges": {}, "histograms": {"h": empty}},
            "b": {"counters": {}, "gauges": {}, "histograms": {"h": full}},
        })["histograms"]["h"]
        assert (merged["min"], merged["max"]) == (0.5, 0.5)

    def test_mismatched_buckets_raise(self):
        h1 = {"buckets": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0,
              "min": None, "max": None}
        h2 = {"buckets": [2.0], "counts": [0, 0], "count": 0, "sum": 0.0,
              "min": None, "max": None}
        with pytest.raises(ValueError):
            shard_fold({
                "a": {"histograms": {"h": h1}},
                "b": {"histograms": {"h": h2}},
            })

    def test_empty_input_yields_the_empty_shape(self):
        assert shard_fold({}) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_fold_order_is_shard_id_sorted_hence_deterministic(self):
        shards = {
            f"s-{i}": {"counters": {"x": 0.1 * i}, "gauges": {},
                       "histograms": {}}
            for i in range(8)
        }
        a = shard_fold(shards)
        b = shard_fold(dict(reversed(list(shards.items()))))
        assert a == b
