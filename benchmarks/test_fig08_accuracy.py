"""Figure 8: WiScape estimation error vs exhaustive ground truth.

The validation of the whole framework: split the Standalone dataset
into a sparse "client-sourced" share and an exhaustive "ground truth"
share, estimate every zone from a budget-sized sample of the client
share, and compare.  The paper reports <4% error for >70% of zones and
a maximum error around 15%.
"""

import numpy as np

from repro.analysis.figures import wiscape_error_cdf
from repro.analysis.tables import TextTable
from repro.geo.zones import ZoneGrid


def test_fig08_wiscape_estimation_error(standalone_trace, landscape):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)

    errors = wiscape_error_cdf(
        standalone_trace, grid, client_fraction=0.1, sample_budget=100,
        min_truth_samples=100, seed=5,
    )
    errs = np.asarray(errors)

    table = TextTable(["statistic", "value"], formats=["", ".3f"])
    table.add_row("zones compared", float(errs.size))
    for q in (0.5, 0.7, 0.9, 0.95):
        table.add_row(f"error p{int(q*100)}", float(np.quantile(errs, q)))
    table.add_row("max error", float(errs.max()))
    table.add_row("fraction < 4% error", float(np.mean(errs < 0.04)))
    print("\nFig 8 — WiScape client-sourced estimate vs ground truth (TCP)")
    print(table.render())

    # Shape (paper: <4% error for >70% of zones; max ~15%):
    assert errs.size >= 100
    assert np.mean(errs < 0.04) >= 0.70
    # The worst zones are the persistently-failing patches (Fig 9),
    # whose wild swings resist sparse estimation by design.
    assert errs.max() < 0.35
    assert np.quantile(errs, 0.95) < 0.15
