"""Trace datasets: schema, I/O, and generators for the paper's Table 2.

The paper's ground truth is seven trace collections (Static-WI/NJ,
Proximate-WI/NJ, Short segment, WiRover, Standalone).  Since the real
CRAWDAD traces are unavailable, :class:`DatasetGenerator` synthesizes
each against the ground-truth landscape using the same collection
pattern (vehicles, intervals, metrics) the paper describes; records
round-trip through CSV/JSONL so every analysis downstream is genuinely
trace-driven.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "records": ("TraceRecord",),
    "io": ("read_csv", "read_jsonl", "write_csv", "write_jsonl"),
    "generator": ("DatasetGenerator",),
    "catalog": ("DATASET_CATALOG", "DatasetSpec"),
})
