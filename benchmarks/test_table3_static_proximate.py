"""Table 3: Static vs Proximate closeness.

Client-sourced measurements collected while driving around a zone
(Proximate) approximate the static ground truth at the zone's center:
the paper reports means agreeing within a few percent for every
network/metric, e.g. NetB-WI UDP 876 vs 855 Kbps (<1% error).
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId


def _mean_std(records, kind, net):
    vals = [
        r.value for r in records
        if r.kind is kind and r.network is net and not math.isnan(r.value)
    ]
    arr = np.asarray(vals)
    return float(arr.mean()), float(arr.std())


def _jitter_mean(records, net):
    vals = [
        r.jitter_s for r in records
        if r.kind is MeasurementType.UDP_TRAIN and r.network is net
    ]
    return float(np.mean(vals)) * 1e3


def _build(spot_traces, proximate_traces):
    out = {}
    pairs = [
        ("WI", spot_traces["wi"], proximate_traces["wi"],
         [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]),
        ("NJ", spot_traces["nj"], proximate_traces["nj"],
         [NetworkId.NET_B, NetworkId.NET_C]),
    ]
    for region, static, proximate, nets in pairs:
        for net in nets:
            s_mean, s_std = _mean_std(static, MeasurementType.UDP_TRAIN, net)
            p_mean, p_std = _mean_std(proximate, MeasurementType.UDP_TRAIN, net)
            out[(region, net)] = {
                "static_udp": (s_mean, s_std),
                "prox_udp": (p_mean, p_std),
                "static_jitter_ms": _jitter_mean(static, net),
                "prox_jitter_ms": _jitter_mean(proximate, net),
            }
    return out


def test_table3_static_vs_proximate(spot_traces, proximate_traces):
    rows = _build(spot_traces, proximate_traces)

    table = TextTable(
        ["net-region", "Static UDP Kbps", "Prox UDP Kbps", "err %",
         "Static jit ms", "Prox jit ms"],
        formats=["", ".0f", ".0f", ".1f", ".2f", ".2f"],
    )
    errors = {}
    for (region, net), m in rows.items():
        s_mean = m["static_udp"][0]
        p_mean = m["prox_udp"][0]
        err = abs(p_mean - s_mean) / s_mean
        errors[(region, net)] = err
        table.add_row(
            f"{net.value}-{region}", s_mean / 1e3, p_mean / 1e3, err * 100.0,
            m["static_jitter_ms"], m["prox_jitter_ms"],
        )
    print("\nTable 3 — Static (ground truth) vs Proximate (client-sourced)")
    print(table.render())

    # Shape: client-sourced means within a few percent of static truth
    # for every network/region; jitter agrees too.
    for (region, net), err in errors.items():
        assert err < 0.10, f"{net.value}-{region} off by {err:.1%}"
    for m in rows.values():
        assert m["prox_jitter_ms"] == np.float64(m["prox_jitter_ms"])  # finite
        assert abs(m["prox_jitter_ms"] - m["static_jitter_ms"]) < max(
            2.0, 0.5 * m["static_jitter_ms"]
        )
