"""Figure 4: relative std-dev of TCP throughput vs zone radius.

The paper sweeps circular zones of radius 50-750 m over the Standalone
data and finds per-zone relative standard deviation that is low overall
(80% of zones between ~2.5% and ~7-8%) and grows only modestly with
radius — the justification for 250 m zones.

Note on methodology: our zone statistic is the noise-corrected
between-cell relative std (see ``relstd_cdf_by_radius``); the paper does
not specify its aggregation and a raw per-sample std would be dominated
by fast fading (cf. its own Table 4).  EXPERIMENTS.md discusses the
substitution.
"""

import numpy as np

from repro.analysis.figures import relstd_cdf_by_radius
from repro.analysis.tables import TextTable
from repro.radio.technology import NetworkId

RADII = [50.0, 150.0, 250.0, 350.0, 450.0, 550.0, 650.0, 750.0]


def test_fig04_relstd_vs_zone_radius(standalone_trace, landscape):
    result = relstd_cdf_by_radius(
        standalone_trace, landscape.study_area.anchor, RADII, NetworkId.NET_B,
        min_samples=100,
    )

    table = TextTable(
        ["radius (m)", "zones", "p20 (%)", "median (%)", "p80 (%)", ">15% (%)"],
        formats=["", "", ".1f", ".1f", ".1f", ".1f"],
    )
    p80 = {}
    medians = {}
    for radius in RADII:
        rels = np.array(result[radius])
        if rels.size == 0:
            continue
        p80[radius] = float(np.quantile(rels, 0.8))
        medians[radius] = float(np.median(rels))
        table.add_row(
            int(radius), rels.size,
            float(np.quantile(rels, 0.2)) * 100.0,
            medians[radius] * 100.0,
            p80[radius] * 100.0,
            float(np.mean(rels > 0.15)) * 100.0,
        )
    print("\nFig 4 — per-zone relative std of TCP throughput vs zone radius (NetB)")
    print(table.render())

    # Shape assertions:
    # (1) variability is low overall: the 80th percentile stays in
    #     single digits at the paper's chosen 250 m radius;
    assert p80[250.0] < 0.10
    # (2) variability grows with radius (50 m -> 750 m), but only
    #     modestly ("tends to vary only slightly");
    assert medians[750.0] > medians[50.0]
    assert p80[750.0] < 3.0 * max(p80[250.0], 0.03)
    # (3) only a small tail of zones is highly variable.
    all_rels = np.concatenate([np.array(result[r]) for r in (250.0,)])
    assert np.mean(all_rels > 0.15) < 0.10
