"""Zone -> shard assignment for the sharded coordinator cluster.

A :class:`ShardMap` names the cluster's shards (``shard_id``, host,
port), the zone grid they partition (origin + radius, so *clients* can
compute zone ids without talking to anyone), and a content-hashed
``version`` string.  Ownership uses **rendezvous (highest-random-weight)
hashing**: every ``(zone, shard)`` pair gets a deterministic score and
the highest score owns the zone.  Adding or removing one shard
therefore moves only the zones that shard gains or loses (~1/N of the
keyspace) — every other zone keeps its owner, which is what makes
rebalance cheap and REDIRECT storms small.

The ``version`` is the first 12 hex chars of the SHA-256 of the map's
canonical JSON, so two maps agree on their version iff they agree on
membership and grid — it is negotiated in HELLO/WELCOME, carried by
every REDIRECT, and pushed to shards via MAP_UPDATE (see DESIGN.md
§11 for the full state machine).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geo.coords import GeoPoint
from repro.geo.zones import ZoneGrid
from repro.serve.wire import ProtocolError

__all__ = ["ShardInfo", "ShardMap"]

#: Zone ids are the grid's integer lattice pairs.
ZoneId = Tuple[int, int]


@dataclass(frozen=True)
class ShardInfo:
    """One shard's identity and wire endpoint."""

    shard_id: str
    host: str
    port: int

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready dict (the shape carried inside a shard map)."""
        return {"shard_id": self.shard_id, "host": self.host,
                "port": self.port}


def _rendezvous_score(zone: ZoneId, shard_id: str) -> bytes:
    """Deterministic per-(zone, shard) weight for HRW hashing."""
    key = f"{zone[0]},{zone[1]}|{shard_id}".encode("utf-8")
    return hashlib.sha256(key).digest()


class ShardMap:
    """Immutable zone->shard assignment with a content-hashed version.

    Construction sorts the shard list by ``shard_id`` so the version
    hash (and the wire encoding) is independent of caller order.
    Ownership lookups are memoized per zone — rendezvous hashing costs
    one SHA-256 per (zone, shard) pair, which the report hot path must
    not pay twice for the same zone.
    """

    def __init__(
        self,
        shards: Sequence[ShardInfo],
        origin_lat: float,
        origin_lon: float,
        radius_m: float = 250.0,
    ):
        self.shards: Tuple[ShardInfo, ...] = tuple(
            sorted(shards, key=lambda s: s.shard_id)
        )
        seen = set()
        for s in self.shards:
            if s.shard_id in seen:
                raise ValueError(f"duplicate shard_id {s.shard_id!r}")
            seen.add(s.shard_id)
        self.origin_lat = float(origin_lat)
        self.origin_lon = float(origin_lon)
        self.radius_m = float(radius_m)
        self.version = self._hash_version()
        self._by_id: Dict[str, ShardInfo] = {
            s.shard_id: s for s in self.shards
        }
        self._grid = ZoneGrid(GeoPoint(self.origin_lat, self.origin_lon),
                              radius_m=self.radius_m)
        self._owner_cache: Dict[ZoneId, Optional[ShardInfo]] = {}

    def _hash_version(self) -> str:
        """First 12 hex chars of the SHA-256 of the canonical map JSON."""
        canonical = json.dumps(
            {
                "shards": [[s.shard_id, s.host, s.port]
                           for s in self.shards],
                "grid": [self.origin_lat, self.origin_lon, self.radius_m],
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()[:12]

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        """Number of shards in the map."""
        return len(self.shards)

    def shard(self, shard_id: str) -> Optional[ShardInfo]:
        """The shard with this id, or None when not a member."""
        return self._by_id.get(shard_id)

    def zone_for(self, lat: float, lon: float) -> ZoneId:
        """Zone id of a position, on the map's own grid."""
        return self._grid.zone_id_for(GeoPoint(lat, lon))

    def owner_of(self, zone: ZoneId) -> Optional[ShardInfo]:
        """The shard owning a zone (HRW winner); None on an empty map."""
        try:
            return self._owner_cache[zone]
        except KeyError:
            pass
        owner: Optional[ShardInfo] = None
        best: Optional[bytes] = None
        for s in self.shards:
            score = _rendezvous_score(zone, s.shard_id)
            #: Ties are impossible in practice (SHA-256 collisions), and
            #: the sorted shard order makes even a tie deterministic.
            if best is None or score > best:
                best, owner = score, s
        self._owner_cache[zone] = owner
        return owner

    def owner_for_position(self, lat: float, lon: float
                           ) -> Optional[ShardInfo]:
        """Owner of the zone containing a position (None on empty map)."""
        return self.owner_of(self.zone_for(lat, lon))

    def partition(self, payloads: Iterable[Dict[str, Any]]
                  ) -> Tuple[Dict[ShardInfo, List[Dict[str, Any]]],
                             List[Dict[str, Any]]]:
        """Group wire reports by owning shard: ``(groups, unowned)``.

        ``groups`` maps each owner, in shard-id order, to its reports in
        input order; ``unowned`` holds the reports no shard owns, which
        happens only on an empty map.
        """
        groups: Dict[ShardInfo, List[Dict[str, Any]]] = {
            s: [] for s in self.shards
        }
        unowned: List[Dict[str, Any]] = []
        for p in payloads:
            owner = self.owner_for_position(float(p["lat"]), float(p["lon"]))
            (unowned if owner is None else groups[owner]).append(p)
        return {s: g for s, g in groups.items() if g}, unowned

    # -- membership edits (return new maps; a ShardMap never mutates) ----

    def without(self, shard_id: str) -> "ShardMap":
        """A new map with one shard removed (same grid)."""
        return ShardMap(
            [s for s in self.shards if s.shard_id != shard_id],
            self.origin_lat, self.origin_lon, self.radius_m,
        )

    def with_shard(self, shard: ShardInfo) -> "ShardMap":
        """A new map with one shard added/replaced (same grid)."""
        kept = [s for s in self.shards if s.shard_id != shard.shard_id]
        return ShardMap(kept + [shard], self.origin_lat, self.origin_lon,
                        self.radius_m)

    # -- wire ------------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready dict (what WELCOME/REDIRECT/MAP_UPDATE carry)."""
        return {
            "version": self.version,
            "shards": [s.to_wire() for s in self.shards],
            "grid": {
                "origin_lat": self.origin_lat,
                "origin_lon": self.origin_lon,
                "radius_m": self.radius_m,
            },
        }

    def redirect(self, owner: ShardInfo) -> Dict[str, Any]:
        """The REDIRECT frame naming ``owner`` and carrying this map.

        One frame both bounces a misrouted request and refreshes the
        sender's map; the caller adds the fields naming the request.
        """
        return {
            "type": "REDIRECT",
            "shard_id": owner.shard_id,
            "host": owner.host,
            "port": owner.port,
            "map_version": self.version,
            "shard_map": self.to_wire(),
        }

    def welcome_fields(self, hello: Dict[str, Any]) -> Dict[str, Any]:
        """The map keys a WELCOME answering ``hello`` carries.

        The version always; the full map only when the HELLO's cached
        ``shard_map_version`` is absent or stale.
        """
        fields: Dict[str, Any] = {"shard_map_version": self.version}
        if hello.get("shard_map_version") != self.version:
            fields["shard_map"] = self.to_wire()
        return fields

    @classmethod
    def from_wire(cls, data: Any) -> "ShardMap":
        """Wire dict -> ShardMap (:class:`ProtocolError` if malformed).

        The carried ``version`` is recomputed, not trusted: a map whose
        content hash disagrees with its claimed version is malformed.
        """
        if not isinstance(data, dict):
            raise ProtocolError("shard_map must be an object")
        try:
            grid = data["grid"]
            shards = [
                ShardInfo(str(s["shard_id"]), str(s["host"]),
                          int(s["port"]))
                for s in data["shards"]
            ]
            smap = cls(
                shards,
                float(grid["origin_lat"]),
                float(grid["origin_lon"]),
                float(grid["radius_m"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed shard_map: {exc}") from None
        claimed = data.get("version")
        if claimed is not None and claimed != smap.version:
            raise ProtocolError(
                f"shard_map version {claimed!r} does not match content "
                f"hash {smap.version!r}"
            )
        return smap
