"""Figure 11: persistent network dominance vs zone size.

For most zones one carrier's latency is persistently better (its 95th
percentile beats the rival's 5th): the paper finds ~85% of zones have a
dominant network, roughly independent of zone radius — what makes
infrequent WiScape measurements useful for network selection.
"""

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.core.dominance import zone_dominance
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId

RADII = [50.0, 100.0, 250.0, 500.0, 1000.0]


def _run(wirover_trace, origin):
    out = {}
    for radius in RADII:
        grid = ZoneGrid(origin, radius_m=radius)
        out[radius] = zone_dominance(
            wirover_trace, grid, MeasurementType.PING,
            higher_is_better=False, min_samples=10,
        )
    return out


def test_fig11_dominance_vs_radius(wirover_trace, landscape):
    results = _run(wirover_trace, landscape.study_area.anchor)

    table = TextTable(
        ["radius (m)", "zones", "dominated (%)", "NetB (%)", "NetC (%)"],
        formats=["", "", ".0f", ".0f", ".0f"],
    )
    ratios = {}
    for radius, result in results.items():
        ratios[radius] = result.dominance_ratio
        table.add_row(
            int(radius), result.n_zones,
            result.dominance_ratio * 100.0,
            result.share(NetworkId.NET_B) * 100.0,
            result.share(NetworkId.NET_C) * 100.0,
        )
    print("\nFig 11 — zones with a persistently dominant carrier (latency)")
    print(table.render())

    # Shape (paper: ~85% dominated, at every radius):
    for radius, ratio in ratios.items():
        assert ratio >= 0.60, f"radius {radius}: only {ratio:.0%} dominated"
    assert ratios[250.0] >= 0.70
    # Both carriers win somewhere (no global winner).
    r250 = results[250.0]
    assert r250.share(NetworkId.NET_B) > 0.05
    assert r250.share(NetworkId.NET_C) > 0.05
