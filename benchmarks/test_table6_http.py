"""Table 6: HTTP latency for multi-sim and MAR, WiScape vs baselines.

A client drives the road stretch fetching 1000 SURGE pages.
Multi-sim: picking the per-zone best carrier from WiScape data beats
the best fixed carrier (paper: 87.66 s vs NetA's 124.26 s, ~30%).
MAR: a WiScape-informed striper beats round-robin striping
(paper: 25.72 s vs 36.80 s, ~32%).
"""

import numpy as np

from repro.analysis.tables import TextTable
from repro.apps.mar import MarGateway
from repro.apps.multisim import (
    BestZoneSelector,
    FixedSelector,
    MultiSimClient,
    ZonePerformanceMap,
)
from repro.apps.webworkload import surge_page_pool
from repro.geo.regions import short_segment_road
from repro.geo.zones import ZoneGrid
from repro.mobility.routes import Route
from repro.mobility.vehicles import Car
from repro.radio.technology import NetworkId

ALL = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]
N_PAGES = 1000
REPEATS = 3


def _run(landscape, short_segment_trace):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    pmap = ZonePerformanceMap.from_records(short_segment_trace, grid)
    road = short_segment_road()
    route = Route(name="seg", waypoints=road.waypoints)
    pages = surge_page_pool(count=N_PAGES, seed=5)
    start = 10.0 * 3600.0

    multisim = {}
    for name, make_sel in [
        ("WiScape", lambda: BestZoneSelector(pmap, ALL)),
        ("NetA", lambda: FixedSelector(NetworkId.NET_A)),
        ("NetB", lambda: FixedSelector(NetworkId.NET_B)),
        ("NetC", lambda: FixedSelector(NetworkId.NET_C)),
    ]:
        runs = []
        for rep in range(REPEATS):
            car = Car(car_id=50 + rep, route=route, seed=100 + rep)
            client = MultiSimClient(landscape, car, grid, ALL, seed=200 + rep)
            runs.append(client.fetch(pages, make_sel(), start).total_duration_s)
        multisim[name] = (float(np.mean(runs)), float(np.std(runs)))

    mar = {"MAR-WiScape": [], "MAR-RR": []}
    for rep in range(REPEATS * 2):
        car = Car(car_id=80 + rep, route=route, seed=300 + rep)
        gw = MarGateway(landscape, car, grid, ALL, seed=400 + rep)
        mar["MAR-RR"].append(
            gw.run_round_robin(pages, start).total_duration_s
        )
        car2 = Car(car_id=80 + rep, route=route, seed=300 + rep)
        gw2 = MarGateway(landscape, car2, grid, ALL, seed=400 + rep)
        mar["MAR-WiScape"].append(
            gw2.run_wiscape(pages, start, pmap).total_duration_s
        )
    mar_stats = {k: (float(np.mean(v)), float(np.std(v))) for k, v in mar.items()}
    return multisim, mar_stats


def test_table6_http_latency(landscape, short_segment_trace):
    multisim, mar = _run(landscape, short_segment_trace)

    table = TextTable(["scheme", "avg (s)", "std (s)"], formats=["", ".2f", ".2f"])
    for name, (mean, std) in {**multisim, **mar}.items():
        table.add_row(name, mean, std)
    print(f"\nTable 6 — HTTP latency for {N_PAGES} SURGE pages on the road drive")
    print(table.render())

    best_fixed = min(multisim[n][0] for n in ("NetA", "NetB", "NetC"))
    ms_improvement = 1.0 - multisim["WiScape"][0] / best_fixed
    mar_improvement = 1.0 - mar["MAR-WiScape"][0] / mar["MAR-RR"][0]
    print(f"multi-sim improvement over best fixed carrier: {ms_improvement:.1%}")
    print(f"MAR-WiScape improvement over MAR-RR:           {mar_improvement:.1%}")

    # Shape (paper: ~30% multi-sim, ~32% MAR):
    assert multisim["WiScape"][0] <= best_fixed  # never worse than best fixed
    assert ms_improvement >= 0.05
    assert mar["MAR-WiScape"][0] < mar["MAR-RR"][0]
    assert mar_improvement >= 0.05
    # MAR aggregates three links: far faster than any single-SIM scheme.
    assert mar["MAR-RR"][0] < 0.6 * multisim["WiScape"][0]
