"""Figure 7: NKLD convergence with sample count.

How many client samples make the observed distribution "similar" to the
zone's long-term truth?  The paper accumulates samples taken (a) at the
same spot at different times and (b) at different spots at the same
time, and finds the symmetric normalized KL divergence drops below 0.1
once ~50-120 samples are gathered (more in the variable NJ zone).
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId
from repro.stats.nkld import (
    SIMILARITY_THRESHOLD,
    nkld_from_samples,
    samples_until_similar,
)

COUNTS = [20, 40, 60, 80, 100, 120, 150, 200]


def _pool(records, net):
    pool = []
    for r in records:
        if r.kind is MeasurementType.UDP_TRAIN and r.network is net:
            pool.extend(r.samples)
    return np.asarray(pool)


def _curve(pool, rng, iterations=60):
    curve = []
    for n in COUNTS:
        if n >= pool.size:
            break
        divs = [
            nkld_from_samples(rng.choice(pool, size=n, replace=False), pool)
            for _ in range(iterations)
        ]
        curve.append((n, float(np.mean(divs))))
    return curve


def _run(proximate_traces):
    rng = np.random.default_rng(17)
    out = {}
    for region in ("wi", "nj"):
        pool = _pool(proximate_traces[region], NetworkId.NET_B)
        out[region] = _curve(pool, rng)
    return out


def test_fig07_nkld_convergence(proximate_traces):
    curves = _run(proximate_traces)

    crossings = {}
    for region, curve in curves.items():
        table = TextTable(["n samples", "mean NKLD"], formats=["", ".3f"])
        for n, v in curve:
            table.add_row(n, v)
        crossing = samples_until_similar(curve, SIMILARITY_THRESHOLD)
        crossings[region] = crossing
        print(f"\nFig 7 — NKLD vs sample count, NetB, {region.upper()} zone")
        print(table.render())
        print(f"samples until NKLD < {SIMILARITY_THRESHOLD}: {crossing}")

    # Shape: curves decrease monotonically (to tolerance) and cross the
    # 0.1 threshold within ~40-200 samples; the paper's "around 100".
    for region, curve in curves.items():
        values = [v for _, v in curve]
        assert values[0] > values[-1]
        assert crossings[region] is not None
        assert 40 <= crossings[region] <= 200
