"""Figure 13: per-zone TCP throughput along the road, three carriers.

The paper plots each carrier's average TCP throughput across ~45 zones
of the 20 km stretch: the lines cross repeatedly, with zone-level gaps
of 30-42% between the best and second-best carrier at specific zones.
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId

ALL = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]


def _zone_means(records, grid):
    by_zone = {}
    for r in records:
        if r.kind is not MeasurementType.TCP_DOWNLOAD or math.isnan(r.value):
            continue
        by_zone.setdefault(grid.zone_id_for(r.point), {}).setdefault(
            r.network, []
        ).append(r.value)
    out = {}
    for zone, per_net in by_zone.items():
        if all(len(per_net.get(net, [])) >= 10 for net in ALL):
            out[zone] = {net: float(np.mean(per_net[net])) for net in ALL}
    return out


def test_fig13_road_throughput_profile(short_segment_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    zone_means = _zone_means(short_segment_trace, grid)

    zones = sorted(zone_means)
    table = TextTable(
        ["zone #", "NetA Kbps", "NetB Kbps", "NetC Kbps", "best", "lead (%)"],
        formats=["", ".0f", ".0f", ".0f", "", ".0f"],
    )
    winners = []
    leads = []
    for i, zone in enumerate(zones):
        means = zone_means[zone]
        ordered = sorted(means.items(), key=lambda kv: kv[1], reverse=True)
        lead = (ordered[0][1] - ordered[1][1]) / ordered[1][1]
        winners.append(ordered[0][0])
        leads.append(lead)
        table.add_row(
            i, means[NetworkId.NET_A] / 1e3, means[NetworkId.NET_B] / 1e3,
            means[NetworkId.NET_C] / 1e3, ordered[0][0].value, lead * 100.0,
        )
    print("\nFig 13 — per-zone TCP throughput along the 20 km stretch")
    print(table.render())

    # Shape: ~40+ zones; the winner changes along the road; at some
    # zones the best carrier leads by >=25% (paper: 30-42%).
    assert len(zones) >= 30
    assert len(set(winners)) >= 2
    assert max(leads) >= 0.25
    # Each carrier's profile varies along the road (coverage structure).
    for net in ALL:
        series = np.array([zone_means[z][net] for z in zones])
        assert series.max() > 1.3 * series.min()
