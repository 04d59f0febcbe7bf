"""Figure 1: city-wide TCP throughput snapshot.

The paper's opening figure: the Standalone dataset binned into 250 m
zones across the ~155 km^2 study area, each dot showing a zone's mean
1 MB-download TCP throughput and its variance shading.
"""

import numpy as np

from repro.analysis.figures import zone_throughput_map
from repro.analysis.tables import TextTable
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId


def test_fig01_city_throughput_map(standalone_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)

    entries = zone_throughput_map(
        standalone_trace, grid, NetworkId.NET_B, min_samples=50,
    )

    means = np.array([e.mean_bps for e in entries]) / 1e3
    rels = np.array([e.rel_std for e in entries])

    table = TextTable(
        ["statistic", "value"], formats=["", ".1f"]
    )
    table.add_row("zones mapped", float(len(entries)))
    table.add_row("mean TCP tput (Kbps)", float(means.mean()))
    table.add_row("min zone mean (Kbps)", float(means.min()))
    table.add_row("max zone mean (Kbps)", float(means.max()))
    table.add_row("median rel std (%)", float(np.median(rels) * 100.0))
    print("\nFig 1 — city-wide TCP throughput map (NetB, 250 m zones)")
    print(table.render())
    sample = TextTable(
        ["zone", "lat", "lon", "mean Kbps", "rel std"],
        formats=["", ".4f", ".4f", ".0f", ".3f"],
    )
    for e in entries[:10]:
        sample.add_row(str(e.zone_id), e.center.lat, e.center.lon, e.mean_bps / 1e3, e.rel_std)
    print(sample.render())

    # Shape: a city-wide map of >100 zones; zone means within the
    # EV-DO envelope; spatial variation across the city is substantial
    # (coverage differs zone to zone), as in the paper's Fig 1 spread.
    assert len(entries) > 100
    assert 300.0 < means.mean() < 3100.0
    assert means.max() > 1.5 * means.min()
