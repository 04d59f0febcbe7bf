"""Analysis helpers: the data behind each paper figure and table.

Benchmarks and examples share these builders so that "regenerate Fig 4"
is one function call returning plain data (series, rows) plus a text
renderer for terminal output.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "tables": ("TextTable",),
    "spots": ("select_representative_spot", "spot_flatness"),
    "figures": (
        "relstd_cdf_by_radius",
        "speed_latency_analysis",
        "wiscape_error_cdf",
        "zone_throughput_map",
    ),
})

__all__ = [
    "TextTable",
    "relstd_cdf_by_radius",
    "speed_latency_analysis",
    "wiscape_error_cdf",
    "zone_throughput_map",
    "select_representative_spot",
    "spot_flatness",
]
