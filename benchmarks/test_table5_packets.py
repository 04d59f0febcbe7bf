"""Table 5: packets needed for 97%-accurate throughput estimation.

The paper finds 40-120 back-to-back measurement packets suffice to
estimate a zone's UDP/TCP throughput within 97% of the long-term value,
with more packets needed for the more variable networks (NetA in
Madison) and locations (New Brunswick).
"""

import math

import numpy as np

from repro.analysis.tables import TextTable
from repro.clients.protocol import MeasurementType
from repro.radio.technology import NetworkId
from repro.stats.sampling import min_samples_for_accuracy

CANDIDATES = list(range(10, 310, 10))


def _pool(records, net):
    pool = []
    for r in records:
        if r.kind is MeasurementType.UDP_TRAIN and r.network is net:
            pool.extend(r.samples)
    return np.asarray(pool)


def _run(proximate_traces):
    rng = np.random.default_rng(23)
    results = {}
    plan = [
        ("WI", "wi", [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]),
        ("NJ", "nj", [NetworkId.NET_B, NetworkId.NET_C]),
    ]
    for region, key, nets in plan:
        for net in nets:
            pool = _pool(proximate_traces[key], net)
            truth = float(pool.mean())

            def draw(n, pool=pool):
                return rng.choice(pool, size=n, replace=False)

            needed = min_samples_for_accuracy(
                draw, truth, accuracy=0.97, trials=60, candidates=CANDIDATES
            )
            results[(region, net)] = (needed, float(pool.std() / pool.mean()))
    return results


def test_table5_packets_for_97pct(proximate_traces):
    results = _run(proximate_traces)

    table = TextTable(
        ["network-location", "packets needed", "per-packet rel std"],
        formats=["", "", ".2f"],
    )
    for (region, net), (needed, relstd) in results.items():
        table.add_row(f"{net.value}-{region}", needed, relstd)
    print("\nTable 5 — packets for 97% throughput accuracy (UDP)")
    print(table.render())

    # Shape (paper: 40-120 packets; NJ > WI; NetA worst in WI):
    for (region, net), (needed, _) in results.items():
        assert needed is not None, f"{net.value}-{region} never converged"
        assert 20 <= needed <= 200

    wi_b = results[("WI", NetworkId.NET_B)][0]
    nj_b = results[("NJ", NetworkId.NET_B)][0]
    assert nj_b >= wi_b  # the variable NJ zone needs at least as many

    wi_counts = [v[0] for (r, _), v in results.items() if r == "WI"]
    assert results[("WI", NetworkId.NET_A)][0] >= min(wi_counts)
