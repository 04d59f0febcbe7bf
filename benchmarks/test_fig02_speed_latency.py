"""Figure 2: latency vs vehicle speed.

(a) latency is ~120 ms across 0-120 km/h with no visible trend;
(b) the CDF of per-zone speed-latency correlation coefficients shows
95% of zones below 0.16 — the justification for collecting ground truth
from moving buses.
"""

import numpy as np

from repro.analysis.figures import speed_latency_analysis
from repro.analysis.tables import TextTable
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId


def test_fig02_speed_vs_latency(wirover_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)

    analysis = speed_latency_analysis(wirover_trace, grid, min_samples_per_zone=20)

    speeds = np.array([s for s, _ in analysis.scatter])
    lats = np.array([l for _, l in analysis.scatter])
    corrs = np.array(analysis.correlations())

    # Fig 2a: mean latency per speed band.
    bands = TextTable(["speed band (km/h)", "n", "mean latency (ms)"], formats=["", "", ".1f"])
    for lo in range(0, 120, 20):
        mask = (speeds >= lo) & (speeds < lo + 20)
        if mask.sum() >= 20:
            bands.add_row(f"{lo}-{lo+20}", int(mask.sum()), float(lats[mask].mean()))
    print("\nFig 2a — latency vs vehicle speed (UDP pings, NetB+NetC)")
    print(bands.render())

    # Fig 2b: correlation CDF summary.
    frac_016 = analysis.fraction_below(0.16)
    summary = TextTable(["statistic", "value"], formats=["", ".3f"])
    summary.add_row("zones with correlation", float(len(corrs)))
    summary.add_row("median |corr|", float(np.median(np.abs(corrs))))
    summary.add_row("fraction |corr| < 0.16", frac_016)
    print("Fig 2b — per-zone speed-latency correlation CDF")
    print(summary.render())

    # Shape: latencies ~100-200 ms at every speed; no speed trend
    # (fast band within 15% of slow band); >=90% of zones below |0.16|
    # correlation (paper: 95%).
    assert len(corrs) >= 30
    slow = lats[speeds < 30.0].mean()
    fast = lats[speeds > 60.0].mean()
    assert abs(fast - slow) / slow < 0.15
    assert frac_016 >= 0.90
