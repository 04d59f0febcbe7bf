"""Ablation: budgeted probabilistic scheduling vs always-measure.

WiScape's core overhead claim: the budgeted scheduler asks clients for
a small, bounded amount of measurement while losing little accuracy
against a greedy monitor that measures on every tick.  We run both
policies over the same fleet and compare client overhead (tasks, bytes,
Joules) and the published estimates' accuracy.

The policy runners and accuracy/overhead metrics live in
:mod:`repro.sweep.scenarios` (shared with the ``ablation-scheduler``
sweep preset); this benchmark runs them at paper scale (4 buses, 4 h)
and asserts the overhead/accuracy claim.
"""

from repro.analysis.tables import TextTable
from repro.sweep.scenarios import (
    client_overhead,
    estimation_accuracy,
    run_budgeted,
    run_greedy,
)

HOURS = 4


def _run(landscape):
    budgeted = run_budgeted(landscape, hours=float(HOURS), n_buses=4)
    greedy = run_greedy(landscape, hours=float(HOURS), n_buses=4)
    return (
        (client_overhead(budgeted), estimation_accuracy(budgeted, landscape)),
        (client_overhead(greedy), estimation_accuracy(greedy, landscape)),
    )


def test_ablation_scheduler_overhead(landscape):
    (b_over, b_acc), (g_over, g_acc) = _run(landscape)

    table = TextTable(
        ["policy", "tasks", "MB", "Joules", "median est err (%)"],
        formats=["", "", ".1f", ".0f", ".1f"],
    )
    table.add_row("budgeted (WiScape)", b_over["tasks"], b_over["mbytes"],
                  b_over["joules"], b_acc * 100.0)
    table.add_row("greedy (every tick)", g_over["tasks"], g_over["mbytes"],
                  g_over["joules"], g_acc * 100.0)
    print("\nAblation — budgeted scheduler vs greedy always-measure "
          f"(4 buses, {HOURS} h)")
    print(table.render())

    # The budgeted scheduler does materially less work...
    assert b_over["tasks"] < 0.8 * g_over["tasks"]
    assert b_over["joules"] < 0.8 * g_over["joules"]
    # ...for comparable accuracy (within 3 percentage points).
    assert b_acc < g_acc + 0.03
