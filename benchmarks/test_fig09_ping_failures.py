"""Figure 9: ping failures flag highly variable zones.

Infrequent throughput sampling cannot spot high-variance zones directly
— but zones with persistent daily ping failures turn out to be exactly
the high-variance ones.  The paper: zones with 20+ consecutive failure
days show ~40% relative std of TCP throughput, vs <8% for the rest.
"""

import numpy as np

from repro.analysis.tables import TextTable
from repro.apps.operator_tools import variable_zone_report
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId


def test_fig09_failing_zones_are_variable(standalone_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)

    report = variable_zone_report(
        standalone_trace, grid, min_samples=100, min_fail_days=4,
        network=NetworkId.NET_B,
    )

    failing = np.asarray(report.failing_rel_stds)
    healthy = np.asarray(report.healthy_rel_stds)

    table = TextTable(["population", "zones", "median rel std", "p90 rel std"],
                      formats=["", "", ".3f", ".3f"])
    table.add_row("all healthy zones", healthy.size,
                  float(np.median(healthy)), float(np.quantile(healthy, 0.9)))
    table.add_row("persistent ping failures", failing.size,
                  float(np.median(failing)), float(np.quantile(failing, 0.9)))
    print("\nFig 9 — TCP throughput variability: healthy vs ping-failing zones")
    print(table.render())

    # Shape: the failing population exists and is dramatically more
    # variable than the healthy one.
    assert failing.size >= 2
    assert healthy.size >= 50
    assert np.median(failing) > 2.5 * np.median(healthy)
    # Most of the very-high-variance zones are in the failing set
    # (paper: 97% of zones with rel std > 20% had back-to-back failures).
    threshold = 0.2
    failing_high = np.sum(failing > threshold)
    healthy_high = np.sum(healthy > threshold)
    if failing_high + healthy_high > 0:
        assert failing_high >= healthy_high
