"""Ablation: what the zone radius trades off.

Section 3.1 wants zones "small enough to ensure similar performance ...
but big enough to ensure enough measurement samples".  This ablation
makes the trade-off measurable: smaller zones are individually more
homogeneous but far fewer of them reach a workable sample count;
larger zones are plentiful-per-zone but smear together genuinely
different locations.

The binning/homogeneity core is :func:`repro.sweep.scenarios.
zone_radius_stats` (shared with the ``ablation-radius`` sweep preset);
this benchmark runs it at paper scale and asserts the trade-off.
"""

from repro.analysis.tables import TextTable
from repro.sweep.scenarios import ZONE_RADII_M, zone_radius_stats

MIN_SAMPLES = 100


def _run(standalone_trace, origin):
    return {
        radius: zone_radius_stats(
            standalone_trace, origin, radius, min_samples=MIN_SAMPLES
        )
        for radius in ZONE_RADII_M
    }


def test_ablation_zone_radius(standalone_trace, landscape):
    results = _run(standalone_trace, landscape.study_area.anchor)

    table = TextTable(
        ["radius (m)", "zones seen", f"zones with {MIN_SAMPLES}+",
         "qualified (%)", "median rel std (%)"],
        formats=["", "", "", ".0f", ".1f"],
    )
    for radius, m in results.items():
        table.add_row(
            int(radius), m["zones_total"], m["zones_qualified"],
            m["qualified_fraction"] * 100.0, m["median_relstd"] * 100.0,
        )
    print("\nAblation — the zone-radius trade-off (NetB TCP, Standalone)")
    print(table.render())

    # Sample-density side: bigger zones qualify at a higher rate.
    fractions = [results[r]["qualified_fraction"] for r in ZONE_RADII_M]
    assert fractions[-1] > fractions[0]
    # Homogeneity side: bigger zones are more internally variable.
    assert results[1000.0]["median_relstd"] > results[125.0]["median_relstd"]
    # The paper's 250 m already qualifies a healthy share of zones.
    assert results[250.0]["zones_qualified"] >= 50
