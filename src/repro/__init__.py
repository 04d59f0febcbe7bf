"""WiScape: client-assisted monitoring of wide-area wireless networks.

A full reproduction of Sen, Yoon, Hare, Ormont & Banerjee, "Can they
hear me now? A case for a client-assisted approach to monitoring
wide-area wireless networks" (IMC 2011), including every substrate the
paper's evaluation depends on: a three-carrier synthetic cellular
landscape, vehicular/static client mobility, packet-level measurement
simulation, the WiScape coordinator (zones, epochs, sample budgets,
probabilistic scheduling, change detection), trace datasets, baseline
bandwidth estimators, and the multi-network applications.

Quick start::

    from repro import build_landscape, MeasurementCoordinator, ZoneGrid

    landscape = build_landscape(seed=7)
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    coordinator = MeasurementCoordinator(grid)
    # register ClientAgents, attach to an EventEngine, run...

See ``examples/quickstart.py`` for the complete loop and DESIGN.md for
the system inventory.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "clients": (
        "ClientAgent",
        "Device",
        "DeviceCategory",
        "MeasurementReport",
        "MeasurementTask",
        "MeasurementType",
    ),
    "core": (
        "ChangeAlert",
        "EpochEstimate",
        "EpochEstimator",
        "MeasurementCoordinator",
        "MeasurementScheduler",
        "SampleBudgetPlanner",
        "WiScapeConfig",
        "ZoneRecord",
        "ZoneRecordStore",
        "estimate_zones",
    ),
    "datasets": ("DatasetGenerator", "TraceRecord"),
    "geo": ("GeoPoint", "Zone", "ZoneGrid"),
    "network": ("MeasurementChannel",),
    "radio": (
        "Landscape",
        "LinkState",
        "NetworkId",
        "build_landscape",
        "football_game_event",
    ),
    "sim": ("EventEngine", "SimClock"),
})

__version__ = "1.0.0"

#: ``lazy_exports`` set ``__all__`` from the table above.
__all__.append("__version__")
