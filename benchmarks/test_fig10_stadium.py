"""Figure 10: the football-game latency surge.

80,000 people pack the stadium for ~3 hours and ping latency in the
surrounding zone rises from ~113 ms to ~418 ms (3.7x) on NetB, with a
smaller surge on NetC — persistent long enough for WiScape's infrequent
sampling to catch it and alert the operator.
"""

import numpy as np
import pytest

from repro.analysis.tables import TextTable
from repro.apps.operator_tools import detect_latency_surges
from repro.network.channel import MeasurementChannel
from repro.radio.events import football_game_event
from repro.radio.network import build_landscape
from repro.radio.technology import NetworkId

GAME_DAY = 5


def _run():
    land = build_landscape(seed=7, include_road=False, include_nj=False)
    land.add_event(
        football_game_event(land.stadium, game_day=GAME_DAY, kickoff_hour=11.0),
        nets=[NetworkId.NET_B, NetworkId.NET_C],
    )
    rng = np.random.default_rng(4)
    out = {}
    for net in (NetworkId.NET_B, NetworkId.NET_C):
        channel = MeasurementChannel(land, net, rng)
        series = []
        base_t = GAME_DAY * 86400.0 + 6.0 * 3600.0
        for k in range(12 * 30):  # 06:00-18:00 on game day, every 2 min
            t = base_t + k * 120.0
            result = channel.ping_series(land.stadium, t, count=5, interval_s=1.0)
            if result.rtts_s:
                series.append((t, float(np.mean(result.rtts_s))))
        alerts = detect_latency_surges(series, (0, 0), net)
        out[net] = (series, alerts)
    return out


def test_fig10_stadium_latency_surge():
    result = _run()

    table = TextTable(
        ["network", "baseline ms", "peak ms", "ratio", "surge duration h"],
        formats=["", ".0f", ".0f", ".2f", ".2f"],
    )
    stats = {}
    for net, (series, alerts) in result.items():
        values = np.array([v for _, v in series]) * 1e3
        baseline = float(np.median(values))
        peak = float(values.max())
        duration = alerts[0].duration_s / 3600.0 if alerts else 0.0
        stats[net] = (baseline, peak, alerts)
        table.add_row(net.value, baseline, peak, peak / baseline, duration)
    print("\nFig 10 — latency near the stadium on game day (10-min averages)")
    print(table.render())

    # Shape (paper: NetB 113 -> 418 ms, ~3.7x, ~3 h; NetC smaller):
    b_base, b_peak, b_alerts = stats[NetworkId.NET_B]
    c_base, c_peak, c_alerts = stats[NetworkId.NET_C]
    assert 90.0 < b_base < 160.0
    assert 2.8 < b_peak / b_base < 4.8
    assert b_peak / b_base > c_peak / c_base  # NetB hit hardest
    # The operator tool raises exactly one sustained alert, ~3 h long.
    assert len(b_alerts) == 1
    assert 2.0 <= b_alerts[0].duration_s / 3600.0 <= 4.5
    assert b_alerts[0].magnitude > 2.5
