"""Ablation: does the Allan-selected epoch actually help?

An epoch's estimate is WiScape's prediction of the zone until the next
update.  Too-short epochs chase fast noise; too-long epochs average
across genuine drift.  We measure the one-epoch-ahead prediction error
of the zone's mean for a sweep of epoch lengths and check that the
Allan-selected epoch sits near the error minimum.

The math lives in :mod:`repro.sweep.scenarios` (shared with the
``ablation-epoch`` sweep preset); this benchmark runs it at paper scale
and asserts the paper's claims.
"""

from repro.analysis.tables import TextTable
from repro.core.epochs import EpochEstimator
from repro.sweep.scenarios import (
    CANDIDATE_EPOCHS_MIN,
    epoch_prediction_error,
    measurement_series,
)


def _run(proximate_traces):
    out = {}
    for region in ("wi", "nj"):
        times, values = measurement_series(proximate_traces[region])
        errors = {
            e: epoch_prediction_error(times, values, e * 60.0)
            for e in CANDIDATE_EPOCHS_MIN
        }
        estimator = EpochEstimator(
            min_epoch_s=300.0, max_epoch_s=4.0 * 3600.0, grid_s=45.0
        )
        selected = estimator.estimate(list(times), list(values), fallback_s=1800.0)
        out[region] = (errors, selected)
    return out


def test_ablation_epoch_length(proximate_traces):
    results = _run(proximate_traces)

    for region, (errors, selected) in results.items():
        table = TextTable(
            ["epoch (min)", "next-epoch prediction err (%)"],
            formats=["", ".2f"],
        )
        for e in CANDIDATE_EPOCHS_MIN:
            table.add_row(int(e), errors[e] * 100.0)
        print(f"\nAblation — prediction error vs epoch length, {region.upper()} zone")
        print(table.render())
        print(f"Allan-selected epoch: {selected / 60.0:.0f} min")

    for region, (errors, selected) in results.items():
        best = min(errors, key=errors.get)
        # The Allan-selected epoch performs within 30% of the sweep's
        # best epoch — it finds the flat part of the error curve.
        nearest = min(
            CANDIDATE_EPOCHS_MIN, key=lambda e: abs(e * 60.0 - selected)
        )
        assert errors[nearest] <= errors[best] * 1.6
        # And clearly beats chasing fast noise with tiny epochs.
        assert errors[nearest] < errors[5.0]
