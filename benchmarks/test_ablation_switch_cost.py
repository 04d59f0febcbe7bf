"""Ablation: multi-sim gains vs carrier-switching cost.

The paper's caveat (section 4.2.2): its application numbers ignore "time
to switch between links".  This ablation prices the switch in: as the
per-switch delay grows, the naive best-zone selector's advantage erodes
(it switches on every small per-zone difference) while a hysteresis
selector — only switch for a >=20% predicted gain — holds on to most of
the benefit with a fraction of the switches.

The per-(scheme, delay) trial is :func:`repro.sweep.scenarios.
switch_cost_trial` (shared with the ``ablation-switch`` sweep preset);
this benchmark runs the full grid at paper scale and asserts the
erosion story.
"""

from repro.analysis.tables import TextTable
from repro.apps.multisim import ZonePerformanceMap
from repro.apps.webworkload import surge_page_pool
from repro.geo.zones import ZoneGrid
from repro.sweep.scenarios import SWITCH_DELAYS_S, switch_cost_trial

N_PAGES = 300
SCHEMES = ("greedy", "hysteresis", "fixed-best")


def _run(landscape, short_segment_trace):
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    pmap = ZonePerformanceMap.from_records(short_segment_trace, grid)
    pages = surge_page_pool(count=N_PAGES, seed=5)
    start = 10.0 * 3600.0

    # Aggregate over start offsets so the drives cover the whole road
    # (one short fetch only sees a handful of zones).
    starts = [start + k * 500.0 for k in range(6)]

    rows = []
    for delay in SWITCH_DELAYS_S:
        times = {}
        switches = {}
        for scheme in SCHEMES:
            trial = switch_cost_trial(
                landscape, pmap, scheme, delay, pages, starts
            )
            times[scheme] = trial["total_s"]
            switches[scheme] = trial["switches"]
        rows.append((delay, times, switches))
    return rows


def test_ablation_switch_cost(landscape, short_segment_trace):
    rows = _run(landscape, short_segment_trace)

    table = TextTable(
        ["switch delay (s)", "greedy (s)", "hysteresis (s)", "best fixed (s)",
         "greedy switches", "hysteresis switches"],
        formats=["", ".0f", ".0f", ".0f", "", ""],
    )
    for delay, times, switches in rows:
        table.add_row(
            delay, times["greedy"], times["hysteresis"], times["fixed-best"],
            switches["greedy"], switches["hysteresis"],
        )
    print("\nAblation — multi-sim schedulers vs carrier-switch delay")
    print(table.render())

    # Hysteresis never switches more than greedy.
    for _, times, switches in rows:
        assert switches["hysteresis"] <= switches["greedy"]
    # With free switching the informed selector beats or matches fixed.
    free = rows[0][1]
    assert free["greedy"] <= free["fixed-best"] * 1.05
    # Switch cost genuinely prices in: greedy degrades as delay grows.
    greedy_times = [times["greedy"] for _, times, _ in rows]
    assert greedy_times[-1] > greedy_times[0]
    # The cost-aware selector's *switching overhead* stays smaller: the
    # extra time each scheme pays going from free to costly switching.
    greedy_penalty = greedy_times[-1] - greedy_times[0]
    hyst_times = [times["hysteresis"] for _, times, _ in rows]
    hyst_penalty = hyst_times[-1] - hyst_times[0]
    assert hyst_penalty <= greedy_penalty + 1e-6
