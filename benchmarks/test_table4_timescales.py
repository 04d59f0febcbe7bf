"""Table 4: standard deviation at coarse (30 min) vs fine (10 s) bins.

The paper's point: fine-timescale variation is several times larger
than coarse-timescale variation for every network and metric, which
"effectively rules out the use of small and infrequent measurements" —
motivating per-epoch sample budgets instead.
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId


def _std_at_binning(records, kind, net, bin_s):
    bins = {}
    for r in records:
        if r.kind is not kind or r.network is not net or math.isnan(r.value):
            continue
        bins.setdefault(int(r.time_s // bin_s), []).append(r.value)
    means = [np.mean(v) for v in bins.values()]
    return float(np.std(means)) if len(means) >= 2 else float("nan")


def _build(spot_traces):
    out = {}
    for region, nets in (
        ("WI", [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]),
        ("NJ", [NetworkId.NET_B, NetworkId.NET_C]),
    ):
        records = spot_traces[region.lower()]
        for net in nets:
            for kind, label in (
                (MeasurementType.TCP_DOWNLOAD, "TCP"),
                (MeasurementType.UDP_TRAIN, "UDP"),
            ):
                long_std = _std_at_binning(records, kind, net, 1800.0)
                # Samples arrive every ~40 s per (net, kind); the "short"
                # timescale bins individual samples (the paper's 10 s).
                short_std = _std_at_binning(records, kind, net, 60.0)
                out[(region, net, label)] = (long_std, short_std)
    return out


def test_table4_long_vs_short_timescale(spot_traces):
    rows = _build(spot_traces)

    table = TextTable(
        ["net-region", "metric", "std 30min (Kbps)", "std fine (Kbps)", "ratio"],
        formats=["", "", ".0f", ".0f", ".2f"],
    )
    ratios = []
    for (region, net, label), (long_std, short_std) in rows.items():
        ratio = short_std / long_std if long_std > 0 else float("inf")
        ratios.append(ratio)
        table.add_row(
            f"{net.value}-{region}", label, long_std / 1e3, short_std / 1e3, ratio
        )
    print("\nTable 4 — std of coarse (30 min) vs fine time bins")
    print(table.render())

    # Shape: fine-timescale std exceeds coarse-timescale std for every
    # network and metric — typically by 2x or more in the paper.
    assert all(r > 1.2 for r in ratios)
    assert np.mean(ratios) > 1.8
