"""Cellular radio substrate: the synthetic ground truth.

The paper's ground truth is >1 year of traces from three commercial
carriers.  This package replaces the carriers with parametric models that
reproduce the *statistics* the paper reports:

* per-technology rate caps (NetA: GSM HSPA; NetB/NetC: CDMA2000 1xEV-DO
  Rev.A, Table 1);
* smooth spatial performance fields driven by base-station placement, so
  within-zone relative standard deviation is small and grows with zone
  radius (Fig 4) and per-zone network dominance is persistent (Figs 11-13);
* temporal processes (diurnal load, mean-reverting drift, white noise)
  whose Allan deviation has a minimum at the paper's epoch durations
  (Fig 6: ~75 min for the Madison-like region, ~15 min NJ-like);
* scheduled load events such as the football-game latency surge (Fig 10);
* persistent-failure zones used for the operator-alert analysis (Fig 9).
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "technology": ("EVDO_REV_A", "HSPA", "NetworkId", "RadioTechnology"),
    "basestation": ("BaseStation", "place_base_stations"),
    "field": ("SpatialField",),
    "temporal": ("TemporalProcess", "TemporalParams"),
    "events": ("LoadEvent", "football_game_event"),
    "network": (
        "CellularNetwork",
        "Landscape",
        "LinkState",
        "NetworkParams",
        "build_landscape",
    ),
})
