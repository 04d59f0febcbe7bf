"""Spatial performance fields.

A network's sustained performance at a point is modeled as::

    value(p) = smooth(p) * (1 + texture(p))

``smooth`` is a base-station-driven coverage surface with km-scale
structure: it is what differs between carriers and makes dominance
persistent per zone.  ``texture`` is small-amplitude value-noise with a
short correlation length; it supplies the *within-zone* spatial spread
that makes the paper's Fig 4 relative standard deviation grow with zone
radius.  Both parts are deterministic functions of (seed, location), so
the ground truth can be queried at random access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.coords import GeoPoint, LocalProjection
from repro.radio.basestation import BaseStation

_UINT32 = 0xFFFFFFFF


def _hash01(seed: int, ix: int, iy: int) -> float:
    """Stable integer hash of a lattice corner, uniform in [0, 1)."""
    h = (ix * 374761393 + iy * 668265263 + seed * 2246822519) & _UINT32
    h = ((h ^ (h >> 13)) * 1274126177) & _UINT32
    h ^= h >> 16
    return h / float(_UINT32 + 1)


def _smoothstep(t: float) -> float:
    """C1-continuous interpolation weight."""
    return t * t * (3.0 - 2.0 * t)


def value_noise(seed: int, x: float, y: float, scale_m: float) -> float:
    """Bilinear value noise in [-1, 1] with correlation length ``scale_m``."""
    u = x / scale_m
    v = y / scale_m
    ix = math.floor(u)
    iy = math.floor(v)
    fu = _smoothstep(u - ix)
    fv = _smoothstep(v - iy)
    ix = int(ix)
    iy = int(iy)
    v00 = _hash01(seed, ix, iy)
    v10 = _hash01(seed, ix + 1, iy)
    v01 = _hash01(seed, ix, iy + 1)
    v11 = _hash01(seed, ix + 1, iy + 1)
    top = v00 + (v10 - v00) * fu
    bot = v01 + (v11 - v01) * fu
    return 2.0 * (top + (bot - top) * fv) - 1.0


def _hash01_batch(seed: int, ix: np.ndarray, iy) -> np.ndarray:
    """Vectorized :func:`_hash01`; bit-exact against the scalar path.

    All integer arithmetic stays within int64 (inputs are lattice
    indices, |ix| << 2**31) and is masked to uint32 exactly as the
    scalar hash does; the seed term is pre-masked in Python because a
    63-bit seed times the mix constant would overflow int64.
    """
    seed_term = (int(seed) * 2246822519) & _UINT32
    h = (ix * np.int64(374761393) + iy * np.int64(668265263) + seed_term) & np.int64(_UINT32)
    h = ((h ^ (h >> 13)) * np.int64(1274126177)) & np.int64(_UINT32)
    h = h ^ (h >> 16)
    return h / float(_UINT32 + 1)


def value_noise_batch(seed: int, x, y, scale_m: float) -> np.ndarray:
    """Vectorized :func:`value_noise`: array-in, array-out hash lattice.

    Broadcasts ``x`` against ``y`` and returns float64 noise in [-1, 1].
    Uses the exact same lattice hashing and interpolation arithmetic as
    the scalar function, so results are bit-identical elementwise.
    """
    u = np.asarray(x, dtype=float) / scale_m
    v = np.asarray(y, dtype=float) / scale_m
    u, v = np.broadcast_arrays(u, v)
    iu = np.floor(u)
    iv = np.floor(v)
    tu = u - iu
    tv = v - iv
    fu = tu * tu * (3.0 - 2.0 * tu)
    fv = tv * tv * (3.0 - 2.0 * tv)
    ix = iu.astype(np.int64)
    iy = iv.astype(np.int64)
    v00 = _hash01_batch(seed, ix, iy)
    v10 = _hash01_batch(seed, ix + 1, iy)
    v01 = _hash01_batch(seed, ix, iy + 1)
    v11 = _hash01_batch(seed, ix + 1, iy + 1)
    top = v00 + (v10 - v00) * fu
    bot = v01 + (v11 - v01) * fu
    return 2.0 * (top + (bot - top) * fv) - 1.0


@dataclass
class SpatialField:
    """Deterministic per-network performance surface.

    Parameters
    ----------
    stations:
        The network's cell sites (city and/or road corridor).
    origin:
        Projection origin; any fixed point near the study region.
    texture_amp:
        Amplitude of the short-range multiplicative texture (e.g. 0.04
        means +/-4% small-scale spatial variation).
    texture_scale_m:
        Correlation length of the texture.  ~200 m makes variation
        within a 50 m zone tiny and within a 750 m zone a few percent,
        matching Fig 4.
    value_floor / value_ceil:
        Range of the smooth surface: a point with no coverage tends to
        ``value_floor`` and a point saturated by towers to ``value_ceil``
        (both are multipliers on the network's nominal sustained rate).
    seed:
        Texture seed (derive one per network).
    """

    stations: List[BaseStation]
    origin: GeoPoint
    texture_amp: float = 0.08
    texture_scale_m: float = 250.0
    value_floor: float = 0.35
    value_ceil: float = 1.65
    seed: int = 0
    _proj: LocalProjection = field(init=False, repr=False)
    _station_xy: List[tuple] = field(init=False, repr=False)
    _q_ref: float = field(init=False, default=1.0, repr=False)

    def __post_init__(self) -> None:
        if not self.stations:
            raise ValueError("SpatialField needs at least one base station")
        self._proj = LocalProjection(self.origin)
        self._station_xy = [
            (*self._proj.to_xy(s.location), s.capacity_scale, s.range_m)
            for s in self.stations
        ]
        self._q_ref = 1.0
        # Precomputed station arrays for the vectorized batch path.
        self._sx = np.array([s[0] for s in self._station_xy], dtype=float)
        self._sy = np.array([s[1] for s in self._station_xy], dtype=float)
        self._scap = np.array([s[2] for s in self._station_xy], dtype=float)
        rng_m = np.array([s[3] for s in self._station_xy], dtype=float)
        self._inv_two_r2 = 1.0 / (2.0 * rng_m * rng_m)

    def calibrate(self, sample_points: Sequence[GeoPoint]) -> None:
        """Set the coverage normalization from typical points in the region.

        After calibration the *median* sample point maps to the middle of
        the [floor, ceil] value range; without it the raw tower signal
        scale would leak into absolute throughputs.
        """
        signals = sorted(self._signal(p) for p in sample_points)
        if not signals:
            raise ValueError("calibrate needs at least one sample point")
        median = signals[len(signals) // 2]
        self._q_ref = max(median, 1e-12)

    def _signal(self, point: GeoPoint) -> float:
        """Raw additive tower signal at ``point`` (arbitrary units)."""
        x, y = self._proj.to_xy(point)
        total = 0.0
        for sx, sy, cap, rng_m in self._station_xy:
            d2 = (x - sx) ** 2 + (y - sy) ** 2
            total += cap * math.exp(-d2 / (2.0 * rng_m * rng_m))
        return total

    def smooth(self, point: GeoPoint) -> float:
        """Km-scale coverage surface value (multiplier in [floor, ceil])."""
        q = self._signal(point)
        frac = q / (q + self._q_ref)  # in (0, 1); 0.5 at the median point
        return self.value_floor + (self.value_ceil - self.value_floor) * frac

    def texture(self, point: GeoPoint) -> float:
        """Short-range multiplicative perturbation in [-amp, amp]."""
        x, y = self._proj.to_xy(point)
        # Two octaves: dominant at texture_scale, half-amplitude at 1/3 scale.
        n = 0.75 * value_noise(self.seed, x, y, self.texture_scale_m)
        n += 0.25 * value_noise(self.seed + 1, x, y, self.texture_scale_m / 3.0)
        return self.texture_amp * n

    def value(self, point: GeoPoint) -> float:
        """Full field value: smooth coverage times (1 + texture)."""
        return self.smooth(point) * (1.0 + self.texture(point))

    # -- batch path -------------------------------------------------------

    def project_batch(self, lat, lon) -> Tuple[np.ndarray, np.ndarray]:
        """Project degree arrays into this field's local (x, y) meters."""
        return self._proj.to_xy_batch(lat, lon)

    def signal_batch(self, x, y) -> np.ndarray:
        """Vectorized :meth:`_signal` over projected-xy arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = x[..., None] - self._sx
        dy = y[..., None] - self._sy
        return (
            self._scap * np.exp(-(dx * dx + dy * dy) * self._inv_two_r2)
        ).sum(axis=-1)

    def smooth_batch(self, x, y) -> np.ndarray:
        """Vectorized :meth:`smooth` over projected-xy arrays."""
        q = self.signal_batch(x, y)
        frac = q / (q + self._q_ref)
        return self.value_floor + (self.value_ceil - self.value_floor) * frac

    def texture_batch(self, x, y) -> np.ndarray:
        """Vectorized :meth:`texture` over projected-xy arrays."""
        n = 0.75 * value_noise_batch(self.seed, x, y, self.texture_scale_m)
        n = n + 0.25 * value_noise_batch(
            self.seed + 1, x, y, self.texture_scale_m / 3.0
        )
        return self.texture_amp * n
