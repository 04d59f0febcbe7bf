"""Client side of WiScape: devices, the task/report protocol, the agent.

A client is a device (laptop / single-board computer / phone class, each
with its own radio front-end bias) riding a movement model.  It
periodically tells the coordinator which coarse zone it is in, receives
measurement tasks, runs them over its cellular interfaces, and reports
results tagged with a GPS fix — exactly the user-agent the paper
envisions bundled with NIC drivers (section 3.4).
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "device": ("Device", "DeviceCategory", "default_profile"),
    "protocol": ("MeasurementReport", "MeasurementTask", "MeasurementType"),
    "agent": ("ClientAgent",),
    "energy": ("EnergyMeter", "RadioEnergyModel"),
    "normalize": ("CategoryNormalizer", "CategoryObservation"),
})

__all__ = [
    "Device",
    "DeviceCategory",
    "default_profile",
    "MeasurementReport",
    "MeasurementTask",
    "MeasurementType",
    "ClientAgent",
    "EnergyMeter",
    "RadioEnergyModel",
    "CategoryNormalizer",
    "CategoryObservation",
]
