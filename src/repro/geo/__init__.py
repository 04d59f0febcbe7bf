"""Geographic substrate: coordinates, zone binning, and study regions.

The paper bins GPS fixes into circular *zones* (radius swept 50-750 m,
250 m chosen) laid over a city-scale area and a long road stretch.  This
package provides the coordinate math (haversine distances, a local planar
projection good to well under GPS error at city scale), the zone lattice
used to bin measurement samples, and definitions of the synthetic study
regions that stand in for Madison WI, the Madison-Chicago road stretch,
and the New Jersey spot locations.
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "coords": (
        "EARTH_RADIUS_M",
        "GeoPoint",
        "LocalProjection",
        "destination_point",
        "haversine_m",
        "initial_bearing_deg",
        "interpolate",
        "path_length_m",
        "resample_path",
    ),
    "regions": (
        "Region",
        "RoadStretch",
        "StudyArea",
        "madison_study_area",
        "madison_chicago_road",
        "new_jersey_spots",
        "short_segment_road",
    ),
    "zones": ("Zone", "ZoneGrid", "ZoneId"),
})

__all__ = [
    "EARTH_RADIUS_M",
    "GeoPoint",
    "LocalProjection",
    "destination_point",
    "haversine_m",
    "initial_bearing_deg",
    "interpolate",
    "path_length_m",
    "resample_path",
    "Zone",
    "ZoneGrid",
    "ZoneId",
    "Region",
    "RoadStretch",
    "StudyArea",
    "madison_study_area",
    "madison_chicago_road",
    "new_jersey_spots",
    "short_segment_road",
]
