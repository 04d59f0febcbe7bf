"""Figure 12: road-stretch dominance map.

The 20 km short segment colored by dominant carrier: the paper's inset
counts 52% of zones with a persistent TCP winner (NetA 26%, NetB 13%,
NetC 13%) and 48% with none.
"""

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.core.dominance import zone_dominance
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId


def test_fig12_road_dominance_map(short_segment_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)

    result = zone_dominance(
        short_segment_trace, grid, MeasurementType.TCP_DOWNLOAD,
        higher_is_better=True, min_samples=10, min_networks=3,
    )

    counts = result.counts()
    table = TextTable(["dominant carrier", "zones", "share (%)"], formats=["", "", ".0f"])
    for key in [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C, None]:
        n = counts.get(key, 0)
        label = key.value if key else "None"
        table.add_row(label, n, 100.0 * n / max(result.n_zones, 1))
    print("\nFig 12 — dominant carrier per road zone (inset table)")
    print(table.render())
    # The "map": zones in road order with their winner.
    strip = []
    for zone_id in sorted(result.by_zone):
        winner = result.by_zone[zone_id]
        strip.append(winner.value[-1] if winner else ".")
    print("road strip (A/B/C = dominant, . = none):")
    print("".join(strip))

    # Shape (paper: 52% of zones dominated; several carriers win):
    assert result.n_zones >= 30
    assert 0.25 <= result.dominance_ratio <= 0.80
    winners = {net for net in result.by_zone.values() if net is not None}
    assert len(winners) >= 2
