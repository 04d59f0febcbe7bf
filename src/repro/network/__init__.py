"""Packet-level measurement simulation.

Measurements in WiScape are plain transfers: UDP packet trains, TCP
downloads, and UDP/ICMP pings (the paper found dedicated tools like
Pathload/WBest too inaccurate on cellular links, see ``repro.bwest``).
This package simulates those transfers against a ground-truth
:class:`~repro.radio.network.LinkState` at per-packet granularity, so
throughput / loss / RFC 3393 jitter estimators run the same arithmetic
they would on a real packet trace.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "packet": ("PacketRecord",),
    "metrics": ("goodput_bps", "ipdv_jitter_s", "loss_rate", "summarize_rtts"),
    "channel": (
        "MeasurementChannel",
        "PingResult",
        "TcpDownloadResult",
        "UdpTrainResult",
    ),
})

__all__ = [
    "PacketRecord",
    "goodput_bps",
    "ipdv_jitter_s",
    "loss_rate",
    "summarize_rtts",
    "MeasurementChannel",
    "PingResult",
    "TcpDownloadResult",
    "UdpTrainResult",
]
