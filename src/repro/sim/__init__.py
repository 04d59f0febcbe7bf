"""Simulation substrate: virtual time, discrete events, seeded randomness.

Everything in the reproduction that "happens over time" — client
movement, measurement tasks, coordinator epochs — runs against the
discrete-event engine here, so a full year of measurement activity can be
simulated in seconds and every run is reproducible from a single seed.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "clock": ("SimClock", "SimTime", "format_sim_time"),
    "engine": ("Event", "EventEngine", "StopSimulation"),
    "rng": ("RngStreams", "derive_seed"),
})

__all__ = [
    "SimClock",
    "SimTime",
    "format_sim_time",
    "Event",
    "EventEngine",
    "StopSimulation",
    "RngStreams",
    "derive_seed",
]
