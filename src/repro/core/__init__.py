"""WiScape proper: the client-assisted monitoring framework.

The pieces follow the paper's section 3 design flow:

* :mod:`repro.core.config` — the framework's tunable parameters (zone
  radius, NKLD threshold, sample budgets, change-detection sigma);
* :mod:`repro.core.records` — per-(zone, network, metric) epoch
  estimates and their history;
* :mod:`repro.core.epochs` — Allan-deviation epoch selection (3.2.2);
* :mod:`repro.core.sampling` — NKLD-driven sample budgets (3.3);
* :mod:`repro.core.scheduler` — probabilistic task assignment (3.4);
* :mod:`repro.core.controller` — the measurement coordinator tying it
  together, with >2-sigma change detection and operator alerts;
* :mod:`repro.core.estimation` — offline trace-driven estimation (the
  validation path behind Fig 8);
* :mod:`repro.core.dominance` — persistent network dominance (4.2.1).
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "config": ("WiScapeConfig",),
    "records": (
        "ChangeAlert",
        "EpochEstimate",
        "MetricKey",
        "ZoneRecord",
        "ZoneRecordStore",
    ),
    "epochs": ("EpochEstimator",),
    "sampling": ("SampleBudgetPlanner",),
    "scheduler": ("MeasurementScheduler",),
    "controller": ("MeasurementCoordinator",),
    "estimation": ("ZoneEstimate", "estimate_zones"),
    "export": ("export_published", "load_performance_map", "save_published"),
    "validation": ("ReportValidator", "ValidationLimits"),
    "dominance": ("DominanceResult", "dominant_network"),
})

__all__ = [
    "WiScapeConfig",
    "ChangeAlert",
    "EpochEstimate",
    "MetricKey",
    "ZoneRecord",
    "ZoneRecordStore",
    "EpochEstimator",
    "SampleBudgetPlanner",
    "MeasurementScheduler",
    "MeasurementCoordinator",
    "ZoneEstimate",
    "estimate_zones",
    "DominanceResult",
    "dominant_network",
    "export_published",
    "load_performance_map",
    "save_published",
    "ReportValidator",
    "ValidationLimits",
]
