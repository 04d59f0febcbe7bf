"""Figure 5: CDFs of 30-minute averages at the Spot locations.

Panels (a)-(d): Madison — NetA offers >50% higher throughput than the
worst network; all carriers show <0.15 relative variation in 30-min
averages, loss <1%, jitter ~3 ms (NetB/NetC) vs ~7 ms (NetA).
Panels (e)-(h): New Brunswick — NetB/NetC are faster but more variable
than in Madison; jitter and loss stay low.
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId


def _binned_means(records, kind, net, bin_s=1800.0):
    bins = {}
    for r in records:
        if r.kind is not kind or r.network is not net or math.isnan(r.value):
            continue
        bins.setdefault(int(r.time_s // bin_s), []).append(r.value)
    return np.array([np.mean(v) for v in bins.values() if len(v) >= 5])


def _metric_rows(records, nets):
    rows = {}
    for net in nets:
        tcp = _binned_means(records, MeasurementType.TCP_DOWNLOAD, net)
        udp = _binned_means(records, MeasurementType.UDP_TRAIN, net)
        jit = np.array([
            r.jitter_s for r in records
            if r.kind is MeasurementType.UDP_TRAIN and r.network is net
        ])
        loss = np.array([
            r.loss_rate for r in records
            if r.kind is MeasurementType.UDP_TRAIN and r.network is net
        ])
        rows[net] = {
            "tcp": tcp, "udp": udp,
            "jitter_ms": jit * 1e3, "loss_pct": loss * 100.0,
        }
    return rows


def _run(spot_traces):
    wi = _metric_rows(
        spot_traces["wi"],
        [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C],
    )
    nj = _metric_rows(spot_traces["nj"], [NetworkId.NET_B, NetworkId.NET_C])
    return wi, nj


def test_fig05_spot_location_cdfs(spot_traces):
    wi, nj = _run(spot_traces)

    for label, rows in (("WI (Madison)", wi), ("NJ (New Brunswick)", nj)):
        table = TextTable(
            ["net", "TCP Kbps (30m)", "rel var", "UDP Kbps (30m)", "jitter ms", "loss %"],
            formats=["", ".0f", ".3f", ".0f", ".2f", ".3f"],
        )
        for net, m in rows.items():
            table.add_row(
                net.value,
                float(m["tcp"].mean()) / 1e3,
                float(m["tcp"].std() / m["tcp"].mean()),
                float(m["udp"].mean()) / 1e3,
                float(m["jitter_ms"].mean()),
                float(m["loss_pct"].mean()),
            )
        print(f"\nFig 5 — 30-minute averages at the {label} spot")
        print(table.render())

    # --- Madison shape (panels a-d) ---
    worst_tcp = min(m["tcp"].mean() for m in wi.values())
    assert wi[NetworkId.NET_A]["tcp"].mean() > 1.2 * worst_tcp  # NetA on top
    for m in wi.values():
        assert m["tcp"].std() / m["tcp"].mean() < 0.15  # stable 30-min bins
        assert m["loss_pct"].mean() < 1.0
    assert wi[NetworkId.NET_A]["jitter_ms"].mean() > 1.5 * wi[NetworkId.NET_B]["jitter_ms"].mean()
    assert 1.5 < wi[NetworkId.NET_B]["jitter_ms"].mean() < 5.0

    # --- New Brunswick shape (panels e-h) ---
    for net in (NetworkId.NET_B, NetworkId.NET_C):
        assert nj[net]["tcp"].mean() > 1.3 * wi[net]["tcp"].mean()  # NJ faster
        assert nj[net]["loss_pct"].mean() < 1.0
        assert nj[net]["jitter_ms"].mean() < 5.0
    # NJ more variable than Madison for the same carriers.
    nj_var = np.mean([m["tcp"].std() / m["tcp"].mean() for m in nj.values()])
    wi_var = np.mean([
        wi[n]["tcp"].std() / wi[n]["tcp"].mean()
        for n in (NetworkId.NET_B, NetworkId.NET_C)
    ])
    assert nj_var > wi_var
