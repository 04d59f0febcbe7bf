"""Tests for the zone->shard map (repro.serve.shardmap).

The map's contract: content-hashed versions (order-independent, not
trustable from the wire), rendezvous ownership that moves only ~1/N of
the zones on membership change, and a grid that lets clients route
without asking anyone.
"""

import pytest

from repro.serve.shardmap import ShardInfo, ShardMap
from repro.serve.wire import ProtocolError

ANCHOR = (43.0731, -89.4012)


def make_map(n=3, radius_m=250.0):
    shards = [ShardInfo(f"shard-{i}", "127.0.0.1", 7000 + i)
              for i in range(n)]
    return ShardMap(shards, *ANCHOR, radius_m=radius_m)


class TestVersion:
    def test_version_is_content_hashed_and_order_independent(self):
        a = ShardMap([ShardInfo("s-0", "h", 1), ShardInfo("s-1", "h", 2)],
                     *ANCHOR)
        b = ShardMap([ShardInfo("s-1", "h", 2), ShardInfo("s-0", "h", 1)],
                     *ANCHOR)
        assert a.version == b.version
        assert len(a.version) == 12

    def test_version_changes_with_membership_and_grid(self):
        base = make_map(3)
        assert base.without("shard-1").version != base.version
        assert make_map(3, radius_m=500.0).version != base.version
        moved = base.with_shard(ShardInfo("shard-1", "127.0.0.1", 9999))
        assert moved.version != base.version

    def test_version_bytes_are_pinned(self):
        # A golden literal: a change to the hash input, its canonical
        # JSON or the hash itself moves it, and every running map's too.
        assert make_map(3).version == "68dff2df229e"

    def test_duplicate_shard_ids_are_rejected(self):
        with pytest.raises(ValueError):
            ShardMap([ShardInfo("s-0", "h", 1), ShardInfo("s-0", "h", 2)],
                     *ANCHOR)


class TestOwnership:
    def test_every_zone_has_exactly_one_owner(self):
        smap = make_map(3)
        for zx in range(-5, 6):
            for zy in range(-5, 6):
                owner = smap.owner_of((zx, zy))
                assert owner is not None
                assert smap.shard(owner.shard_id) is owner

    def test_owners_are_pinned(self):
        # Golden rendezvous winners for the pinned map above.
        smap = make_map(3)
        owners = {
            (0, 0): "shard-0", (1, 0): "shard-1", (0, 1): "shard-1",
            (-1, -1): "shard-0", (3, -7): "shard-2", (12, 5): "shard-2",
            (-20, 14): "shard-2", (100, -100): "shard-0",
        }
        assert {zone: smap.owner_of(zone).shard_id
                for zone in owners} == owners

    def test_empty_map_owns_nothing(self):
        smap = ShardMap([], *ANCHOR)
        assert smap.owner_of((0, 0)) is None
        assert smap.owner_for_position(*ANCHOR) is None

    def test_removal_moves_only_the_dead_shards_zones(self):
        smap = make_map(4)
        shrunk = smap.without("shard-2")
        zones = [(zx, zy) for zx in range(-10, 11)
                 for zy in range(-10, 11)]
        for zone in zones:
            before = smap.owner_of(zone)
            after = shrunk.owner_of(zone)
            if before.shard_id != "shard-2":
                #: Rendezvous hashing: survivors keep their zones.
                assert after.shard_id == before.shard_id
            else:
                assert after.shard_id != "shard-2"

    def test_addition_only_gains_zones_for_the_newcomer(self):
        smap = make_map(3)
        grown = smap.with_shard(ShardInfo("shard-9", "127.0.0.1", 7999))
        zones = [(zx, zy) for zx in range(-10, 11)
                 for zy in range(-10, 11)]
        for zone in zones:
            before = smap.owner_of(zone)
            after = grown.owner_of(zone)
            if after.shard_id != "shard-9":
                assert after.shard_id == before.shard_id

    def test_ownership_is_deterministic_across_instances(self):
        a, b = make_map(3), make_map(3)
        for zone in [(-3, 2), (0, 0), (7, -4)]:
            assert a.owner_of(zone).shard_id == b.owner_of(zone).shard_id


class TestWire:
    def test_roundtrip_preserves_version_and_membership(self):
        smap = make_map(3)
        back = ShardMap.from_wire(smap.to_wire())
        assert back.version == smap.version
        assert back.shards == smap.shards
        assert back.radius_m == smap.radius_m

    def test_from_wire_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            ShardMap.from_wire(["not", "a", "map"])

    def test_from_wire_rejects_missing_fields(self):
        data = make_map(2).to_wire()
        del data["grid"]
        with pytest.raises(ProtocolError):
            ShardMap.from_wire(data)

    def test_from_wire_recomputes_and_rejects_forged_version(self):
        data = make_map(2).to_wire()
        data["version"] = "deadbeef0000"
        with pytest.raises(ProtocolError):
            ShardMap.from_wire(data)

    def test_from_wire_accepts_omitted_version(self):
        data = make_map(2).to_wire()
        del data["version"]
        assert ShardMap.from_wire(data).version == make_map(2).version
