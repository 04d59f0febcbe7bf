"""Client mobility: routes, movement models, vehicles, GPS.

The paper's measurement nodes rode Madison transit buses (randomly
re-assigned to routes each day, 6am-midnight), two intercity buses on the
Madison-Chicago stretch, personal cars driven over fixed loops near the
static spots, and fixed indoor locations.  This package reproduces those
sampling patterns: where a client is at time t, how fast it is moving,
and what its GPS reports.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "models": (
        "MovementModel",
        "ProximateLoop",
        "RouteFollower",
        "StaticPosition",
    ),
    "routes": ("Route", "city_bus_routes"),
    "vehicles": ("Car", "IntercityBus", "TransitBus", "VehicleBase"),
    "gps": ("GpsFix", "GpsReader"),
})

__all__ = [
    "MovementModel",
    "ProximateLoop",
    "RouteFollower",
    "StaticPosition",
    "Route",
    "city_bus_routes",
    "Car",
    "IntercityBus",
    "TransitBus",
    "VehicleBase",
    "GpsFix",
    "GpsReader",
]
