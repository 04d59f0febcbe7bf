"""The coordinator as a network service.

The in-process simulation calls :class:`MeasurementCoordinator` methods
directly; this package puts the same coordinator behind an asyncio TCP
service speaking a versioned, length-prefixed JSON protocol
(:mod:`repro.serve.wire`), with durable WAL-backed ingest
(:mod:`repro.serve.wal`), a session layer with heartbeats and
backpressure (:mod:`repro.serve.server`), a client driver that runs
existing agents over the wire (:mod:`repro.serve.driver`), and a
load-generation harness (:mod:`repro.serve.loadgen`).

Scale-out lives in three more modules: :mod:`repro.serve.shardmap`
(rendezvous-hashed zone->shard assignment with content-hashed
versions), :mod:`repro.serve.gateway` (the cluster's control plane:
map distribution, REDIRECT steering, aggregated STATS), and
:mod:`repro.serve.cluster` (a local supervisor that spawns shard
processes, rebalances on death, and drains dead WALs into survivors).

Nothing here is imported by the simulation path — goldens are
bit-identical when the service is unused.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "cluster": ("ClusterConfig", "LocalCluster", "replay_cluster"),
    "driver": ("DriverStats", "Redirected", "ServedClient", "ServeSession"),
    "gateway": ("GatewayConfig", "GatewayServer"),
    "loadgen": (
        "LoadgenConfig",
        "LoadgenResult",
        "run_loadgen",
        "run_loadgen_sync",
    ),
    "server": (
        "CoordinatorServer",
        "ServeConfig",
        "build_coordinator",
        "install_uvloop",
        "replay_wal",
    ),
    "shardmap": ("ShardInfo", "ShardMap"),
    "wal": ("WalCorruptionError", "WriteAheadLog"),
    "wire": (
        "CODEC_BINARY",
        "CODEC_JSON",
        "FrameTooLargeError",
        "MAX_FRAME_BYTES",
        "PROTOCOL_VERSION",
        "ProtocolError",
        "SUPPORTED_CODECS",
        "TruncatedFrameError",
        "VersionMismatchError",
        "WireError",
    ),
})

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "CODEC_JSON",
    "CODEC_BINARY",
    "SUPPORTED_CODECS",
    "WireError",
    "FrameTooLargeError",
    "TruncatedFrameError",
    "ProtocolError",
    "VersionMismatchError",
    "WriteAheadLog",
    "WalCorruptionError",
    "CoordinatorServer",
    "ServeConfig",
    "build_coordinator",
    "install_uvloop",
    "replay_wal",
    "ServeSession",
    "ServedClient",
    "DriverStats",
    "Redirected",
    "LoadgenConfig",
    "LoadgenResult",
    "run_loadgen",
    "run_loadgen_sync",
    "ShardInfo",
    "ShardMap",
    "GatewayConfig",
    "GatewayServer",
    "ClusterConfig",
    "LocalCluster",
    "replay_cluster",
]
