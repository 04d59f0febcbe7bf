"""Ablation: estimation error vs per-epoch sample budget.

The paper settles on ~100 samples per (zone, epoch) via NKLD
convergence.  This ablation sweeps the budget and shows the error knee:
accuracy improves steeply up to several tens of samples and flattens
near the paper's choice — more samples buy little beyond ~100.

The error core is :func:`repro.sweep.scenarios.sample_budget_errors`
(shared with the ``ablation-budget`` sweep preset); this benchmark runs
it at paper scale and asserts the knee.
"""

import numpy as np

from repro.analysis.tables import TextTable
from repro.sweep.scenarios import SAMPLE_BUDGETS, sample_budget_errors


def _run(standalone_trace, origin):
    return {
        budget: sample_budget_errors(standalone_trace, origin, budget)
        for budget in SAMPLE_BUDGETS
    }


def test_ablation_sample_budget(standalone_trace, landscape):
    results = _run(standalone_trace, landscape.study_area.anchor)

    table = TextTable(
        ["budget", "zones", "median err (%)", "p90 err (%)"],
        formats=["", "", ".2f", ".2f"],
    )
    medians = {}
    for budget, errs in results.items():
        medians[budget] = float(np.median(errs))
        table.add_row(
            budget, errs.size, medians[budget] * 100.0,
            float(np.quantile(errs, 0.9)) * 100.0,
        )
    print("\nAblation — WiScape estimation error vs per-epoch sample budget")
    print(table.render())

    # The knee: tiny budgets are clearly worse; beyond ~100 samples the
    # returns are marginal (the paper's choice sits on the plateau).
    assert medians[5] > 1.5 * medians[100]
    assert medians[200] > 0.7 * medians[100]  # plateau: <30% further gain
    # Error decreases (weakly) monotonically with budget.
    ordered = [medians[b] for b in SAMPLE_BUDGETS]
    assert all(a >= b * 0.8 for a, b in zip(ordered, ordered[1:]))
