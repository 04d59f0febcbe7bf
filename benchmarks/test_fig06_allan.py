"""Figure 6: Allan deviation vs averaging interval — epoch selection.

The Allan deviation of a zone's UDP throughput series has a minimum at
the interval where the metric is most stable: ~75 minutes for the
Madison-like zone, ~15 minutes for the busier New Brunswick zone.  That
interval is the zone's epoch.
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.core.epochs import EpochEstimator
from repro.radio.technology import NetworkId
from repro.stats.allan import select_epoch_from_profile


def _series(records, net):
    pts = sorted(
        (r.time_s, r.value)
        for r in records
        if r.kind is MeasurementType.UDP_TRAIN
        and r.network is net
        and not math.isnan(r.value)
    )
    return [t for t, _ in pts], [v for _, v in pts]


def _profiles(proximate_traces):
    estimator = EpochEstimator(
        min_epoch_s=120.0, max_epoch_s=4.0 * 3600.0, grid_s=45.0,
        candidate_count=22,
    )
    out = {}
    for region in ("wi", "nj"):
        times, values = _series(proximate_traces[region], NetworkId.NET_B)
        profile = estimator.profile(times, values)
        out[region] = (profile, select_epoch_from_profile(profile))
    return out


def test_fig06_allan_deviation_epochs(proximate_traces):
    result = _profiles(proximate_traces)

    epochs = {}
    for region, (profile, epoch) in result.items():
        table = TextTable(["tau (min)", "Allan dev"], formats=[".1f", ".4f"])
        for tau, sigma in profile:
            table.add_row(tau / 60.0, sigma)
        print(f"\nFig 6 — Allan deviation profile, NetB, {region.upper()} zone")
        print(table.render())
        print(f"selected epoch: {epoch / 60.0:.1f} minutes")
        epochs[region] = epoch

    # Shape (paper: WI ~75 min, NJ ~15 min):
    assert 40.0 * 60.0 <= epochs["wi"] <= 150.0 * 60.0
    assert 5.0 * 60.0 <= epochs["nj"] <= 40.0 * 60.0
    assert epochs["wi"] > 2.0 * epochs["nj"]

    # The profile is genuinely non-monotonic: deviation at the epoch is
    # clearly below both the short-tau and long-tau ends.
    for region, (profile, epoch) in result.items():
        sigmas = dict(profile)
        taus = sorted(sigmas)
        at_epoch = min(s for t, s in profile if abs(t - epoch) < 1.0)
        assert sigmas[taus[0]] > 1.2 * at_epoch
