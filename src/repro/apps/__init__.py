"""Applications of WiScape (paper section 4).

* :mod:`repro.apps.webworkload` — SURGE-like page pools and the named
  web-site bundles used for the latency experiments (Fig 14);
* :mod:`repro.apps.multisim` — a multi-SIM phone selecting its carrier
  per zone from WiScape data (Table 6, Fig 14a);
* :mod:`repro.apps.mar` — a MAR-style multi-network vehicle gateway
  striping requests across carriers (Table 6, Fig 14b);
* :mod:`repro.apps.operator_tools` — operator-side analyses: variable-
  performance zone detection via ping failures (Fig 9) and latency-surge
  alerting (Fig 10).
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "webworkload": (
        "WebPage",
        "surge_page_pool",
        "website_bundle",
        "WELL_KNOWN_SITES",
    ),
    "multisim": (
        "BestZoneSelector",
        "FixedSelector",
        "MultiSimClient",
        "RoundRobinSelector",
        "ZonePerformanceMap",
    ),
    "mar": ("MarGateway", "MarRunResult"),
    "operator_tools": (
        "SurgeAlert",
        "detect_latency_surges",
        "variable_zone_report",
    ),
})
