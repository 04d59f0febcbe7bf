"""Coordinate primitives and great-circle geometry.

All distances are in meters and all angles in degrees unless stated
otherwise.  At the city scales WiScape operates over (tens of km) a local
equirectangular projection is accurate to centimeters, far below GPS
error, so :class:`LocalProjection` is used for fast zone binning while
:func:`haversine_m` remains the reference distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """A WGS-84 latitude/longitude pair.

    Latitude is clamped-checked to [-90, 90]; longitude is normalized to
    [-180, 180) on construction so that points compare consistently.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        # Normalize longitude into [-180, 180).
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        object.__setattr__(self, "lon", lon)

    def distance_to(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in meters."""
        return haversine_m(self, other)

    def offset(self, east_m: float, north_m: float) -> "GeoPoint":
        """Return the point displaced by the given local east/north meters."""
        dlat = math.degrees(north_m / EARTH_RADIUS_M)
        dlon = math.degrees(
            east_m / (EARTH_RADIUS_M * math.cos(math.radians(self.lat)))
        )
        return GeoPoint(self.lat + dlat, self.lon + dlon)


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_m_batch(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized :func:`haversine_m` over degree arrays (broadcasting).

    Same formula as the scalar reference, so batch and scalar code paths
    agree to floating-point noise.
    """
    import numpy as np

    phi1 = np.radians(np.asarray(lat1, dtype=float))
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    dphi = np.radians(np.asarray(lat2, dtype=float) - np.asarray(lat1, dtype=float))
    dlam = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float))
    h = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from ``a`` to ``b``, degrees in [0, 360)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(
        phi2
    ) * math.cos(dlam)
    return (math.degrees(math.atan2(y, x)) + 360.0) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached travelling ``distance_m`` along ``bearing_deg`` from origin."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


def interpolate(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Linear interpolation between two nearby points.

    Adequate for segment lengths well under ~100 km, which covers every
    route in the study.  ``fraction`` is clamped to [0, 1].
    """
    f = min(1.0, max(0.0, fraction))
    return GeoPoint(a.lat + (b.lat - a.lat) * f, a.lon + (b.lon - a.lon) * f)


def path_length_m(points: Sequence[GeoPoint]) -> float:
    """Total polyline length in meters."""
    return sum(
        haversine_m(points[i], points[i + 1]) for i in range(len(points) - 1)
    )


def resample_path(points: Sequence[GeoPoint], spacing_m: float) -> List[GeoPoint]:
    """Resample a polyline at (approximately) uniform spacing.

    The returned path always starts at the first input point and ends at
    the last; intermediate points fall every ``spacing_m`` meters of
    arc-length along the polyline.
    """
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    if len(points) < 2:
        return list(points)
    out: List[GeoPoint] = [points[0]]
    carried = 0.0
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        seg = haversine_m(a, b)
        if seg == 0.0:
            continue
        pos = spacing_m - carried
        while pos < seg:
            out.append(interpolate(a, b, pos / seg))
            pos += spacing_m
        carried = (carried + seg) % spacing_m
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out


class LocalProjection:
    """Equirectangular projection around a reference point.

    Maps lat/lon to local (east, north) meters.  Error is O(d^2 / R) and
    negligible over the <200 km extents used here; it exists so that zone
    binning is a cheap rounding operation instead of repeated spherical
    trigonometry.
    """

    def __init__(self, origin: GeoPoint):
        self.origin = origin
        self._cos_lat = math.cos(math.radians(origin.lat))

    def to_xy(self, point: GeoPoint) -> Tuple[float, float]:
        """Project ``point`` to local (east, north) meters."""
        x = (
            math.radians(point.lon - self.origin.lon)
            * EARTH_RADIUS_M
            * self._cos_lat
        )
        y = math.radians(point.lat - self.origin.lat) * EARTH_RADIUS_M
        return x, y

    def to_xy_batch(self, lat, lon) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_xy` over degree arrays."""
        import numpy as np

        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        x = np.radians(lon - self.origin.lon) * EARTH_RADIUS_M * self._cos_lat
        y = np.radians(lat - self.origin.lat) * EARTH_RADIUS_M
        return x, y

    def to_geo_batch(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_geo`; returns (lat, lon) degree arrays."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        lat = self.origin.lat + np.degrees(y / EARTH_RADIUS_M)
        lon = self.origin.lon + np.degrees(x / (EARTH_RADIUS_M * self._cos_lat))
        return lat, lon

    def to_geo(self, x: float, y: float) -> GeoPoint:
        """Inverse of :meth:`to_xy`."""
        lat = self.origin.lat + math.degrees(y / EARTH_RADIUS_M)
        lon = self.origin.lon + math.degrees(
            x / (EARTH_RADIUS_M * self._cos_lat)
        )
        return GeoPoint(lat, lon)

    def distance_xy(self, a: GeoPoint, b: GeoPoint) -> float:
        """Planar distance between two projected points, in meters."""
        ax, ay = self.to_xy(a)
        bx, by = self.to_xy(b)
        return math.hypot(ax - bx, ay - by)


def bounding_box(points: Iterable[GeoPoint]) -> Tuple[GeoPoint, GeoPoint]:
    """Return (southwest, northeast) corners of the axis-aligned bbox."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding_box of empty sequence")
    lats = [p.lat for p in pts]
    lons = [p.lon for p in pts]
    return GeoPoint(min(lats), min(lons)), GeoPoint(max(lats), max(lons))
