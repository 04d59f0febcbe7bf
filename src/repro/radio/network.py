"""Per-carrier ground-truth models and the combined landscape.

:class:`CellularNetwork` answers the single question every other layer
asks: *what does carrier X's link look like at point p at time t?* — as a
:class:`LinkState` (sustained capacity, RTT, jitter, loss, availability).
:class:`Landscape` bundles the three carriers plus shared geography
(study area, roads, stadium, failure patches) into one queryable world.

Parameter values are tuned to the paper's published statistics: sustained
rates and jitter per network/region from Tables 3-4, base RTT ~113 ms
(Fig 10), near-zero loss, and NJ roughly 1.8-2.2x faster than Madison for
NetB/NetC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geo.coords import GeoPoint, LocalProjection
from repro.geo.spatial_index import UniformGridIndex
from repro.geo.regions import (
    RoadStretch,
    StudyArea,
    madison_chicago_road,
    madison_study_area,
    new_jersey_spots,
)
from repro.radio.basestation import (
    BaseStation,
    place_along_road,
    place_base_stations,
)
from repro.obs.telemetry import get_telemetry
from repro.radio.events import LoadEvent
from repro.radio.field import SpatialField, value_noise, value_noise_batch
from repro.radio.pointcache import PointCache
from repro.radio.technology import (
    EVDO_REV_A,
    HSPA,
    NetworkId,
    RadioTechnology,
)
from repro.radio.temporal import TemporalParams, TemporalProcess
from repro.sim.rng import RngStreams, derive_seed


@dataclass(frozen=True)
class LinkState:
    """Ground-truth link characteristics for one carrier at one (p, t).

    ``downlink_bps``/``uplink_bps`` are sustainable UDP saturation rates;
    TCP achieves slightly less (the transport model accounts for that).
    ``available`` is False when the link is blacked out (persistent
    failure patches); pings sent then are lost.
    """

    network: NetworkId
    downlink_bps: float
    uplink_bps: float
    rtt_s: float
    jitter_std_s: float
    loss_rate: float
    available: bool = True


@dataclass
class LinkStateBatch:
    """Struct-of-arrays ground truth for one carrier at N (point, time) pairs.

    The array layout keeps the batch query path allocation-light and lets
    measurement primitives (UDP trains, ping series) and dataset
    generators consume whole vectors at once.  ``state(i)`` materializes
    one row as a scalar :class:`LinkState` for legacy call sites.
    """

    network: NetworkId
    downlink_bps: np.ndarray
    uplink_bps: np.ndarray
    rtt_s: np.ndarray
    jitter_std_s: np.ndarray
    loss_rate: np.ndarray
    available: np.ndarray  # bool
    binding_idx: Optional[np.ndarray] = None
    patch_idx: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.downlink_bps.shape[0])

    def state(self, i: int) -> LinkState:
        """Materialize row ``i`` as a scalar :class:`LinkState`."""
        return LinkState(
            network=self.network,
            downlink_bps=float(self.downlink_bps[i]),
            uplink_bps=float(self.uplink_bps[i]),
            rtt_s=float(self.rtt_s[i]),
            jitter_std_s=float(self.jitter_std_s[i]),
            loss_rate=float(self.loss_rate[i]),
            available=bool(self.available[i]),
        )

    def states(self) -> List[LinkState]:
        """Materialize every row (convenience for tests/small batches)."""
        return [self.state(i) for i in range(len(self))]

    def scaled(self, rate_bias: float) -> "LinkStateBatch":
        """A copy with down/uplink rates scaled by a client's rate bias."""
        return LinkStateBatch(
            network=self.network,
            downlink_bps=self.downlink_bps * rate_bias,
            uplink_bps=self.uplink_bps * rate_bias,
            rtt_s=self.rtt_s,
            jitter_std_s=self.jitter_std_s,
            loss_rate=self.loss_rate,
            available=self.available,
            binding_idx=self.binding_idx,
            patch_idx=self.patch_idx,
        )


def _as_latlon(points):
    """Normalize a points argument to ``(lat, lon)`` float arrays.

    Accepts a single :class:`GeoPoint`, a sequence of GeoPoints, a
    ``(lat_array, lon_array)`` pair, or an ``(N, 2)`` array of lat/lon
    rows.
    """
    if isinstance(points, GeoPoint):
        return (
            np.array([points.lat], dtype=float),
            np.array([points.lon], dtype=float),
        )
    if isinstance(points, (list, tuple)) and len(points) == 0:
        return np.empty(0, dtype=float), np.empty(0, dtype=float)
    if isinstance(points, tuple) and len(points) == 2 and not isinstance(points[0], float):
        lat = np.atleast_1d(np.asarray(points[0], dtype=float))
        lon = np.atleast_1d(np.asarray(points[1], dtype=float))
        if lat.shape != lon.shape:
            raise ValueError("lat and lon arrays must have the same shape")
        return lat, lon
    arr = np.asarray(points)
    if arr.dtype == object or arr.ndim == 1 and arr.size and isinstance(arr.flat[0], GeoPoint):
        lat = np.array([p.lat for p in points], dtype=float)
        lon = np.array([p.lon for p in points], dtype=float)
        return lat, lon
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
    if arr.ndim == 1 and arr.shape == (2,):
        return np.array([arr[0]]), np.array([arr[1]])
    raise TypeError(
        "points must be a GeoPoint, a sequence of GeoPoints, a (lat, lon) "
        "array pair, or an (N, 2) lat/lon array"
    )


def _distinct(idx: np.ndarray) -> np.ndarray:
    """The distinct values of a non-negative index array, ascending.

    What ``np.unique(idx)`` returns, without its import of ``numpy.ma``:
    numpy 2 asks ``np.ma.is_masked`` on that path, which loads the whole
    masked-array package into every process that simulates.  The indices
    name bindings or failure patches, so a count per index stays small.
    """
    flat = idx.ravel()
    assert flat.size == 0 or flat.min() >= 0, "indices must be >= 0"
    return np.flatnonzero(np.bincount(flat))


@dataclass(frozen=True)
class FailurePatch:
    """A small area with a persistently sick link (paper Fig 9).

    Inside the patch the link suffers repeated ping blackouts and large
    slow swings in capacity — the "zones with at least one failed ping
    per day for 20+ days" whose TCP relative standard deviation the paper
    shows is dramatically higher than healthy zones.
    """

    patch_id: int
    center: GeoPoint
    radius_m: float
    blackout_prob: float = 0.08
    blackout_bin_s: float = 120.0
    swing_amp: float = 0.45
    swing_bin_s: float = 600.0

    def contains(self, point: GeoPoint) -> bool:
        return self.center.distance_to(point) <= self.radius_m


@dataclass
class RegionBinding:
    """One region's flavor of a network: field + temporal + scales."""

    name: str
    anchor: GeoPoint
    radius_m: Optional[float]  # None marks the fallback (road corridor)
    spatial: SpatialField
    temporal: TemporalProcess
    rate_scale: float = 1.0
    jitter_scale: float = 1.0

    def matches(self, point: GeoPoint) -> bool:
        if self.radius_m is None:
            return True
        return self.anchor.distance_to(point) <= self.radius_m


@dataclass(frozen=True)
class NetworkParams:
    """Tunable knobs for one carrier."""

    network: NetworkId
    technology: RadioTechnology
    base_downlink_bps: float
    base_uplink_bps: float
    base_rtt_s: float
    base_jitter_s: float
    base_loss: float = 0.0005
    # Exponent coupling spatial quality to latency: better-covered spots
    # see proportionally lower RTT.
    rtt_spatial_exp: float = 0.8
    # Relative std of the fast per-bin RTT noise.
    rtt_fast_std: float = 0.06


class CellularNetwork:
    """One carrier's ground truth across all study regions."""

    def __init__(
        self,
        params: NetworkParams,
        bindings: Sequence[RegionBinding],
        failure_patches: Sequence[FailurePatch] = (),
        events: Sequence[LoadEvent] = (),
        seed: int = 0,
    ):
        if not bindings:
            raise ValueError("need at least one region binding")
        if not any(b.radius_m is None for b in bindings):
            # Ensure a total function over the globe: make the last
            # binding the fallback.
            bindings = list(bindings)
            last = bindings[-1]
            bindings[-1] = RegionBinding(
                name=last.name,
                anchor=last.anchor,
                radius_m=None,
                spatial=last.spatial,
                temporal=last.temporal,
                rate_scale=last.rate_scale,
                jitter_scale=last.jitter_scale,
            )
        self.params = params
        self.bindings = list(bindings)
        self.failure_patches = list(failure_patches)
        self.events = list(events)
        self.seed = int(seed)

        # Spatial acceleration: a local projection anchored at the first
        # binding, uniform-grid indexes for region bindings and failure
        # patches (replacing linear haversine scans), and a quantized-xy
        # LRU cache for the time-invariant per-point quantities.
        self._proj = LocalProjection(self.bindings[0].anchor)
        self._fallback_idx = next(
            i for i, b in enumerate(self.bindings) if b.radius_m is None
        )
        self._binding_index = UniformGridIndex(self._proj, cell_m=2500.0)
        self._indexed_bindings: List[int] = []
        for i, b in enumerate(self.bindings):
            if b.radius_m is not None:
                self._binding_index.insert(b.anchor, b.radius_m)
                self._indexed_bindings.append(i)
        self._patch_index = UniformGridIndex(self._proj, cell_m=1000.0)
        for patch in self.failure_patches:
            self._patch_index.insert(patch.center, patch.radius_m)
        self.point_cache = PointCache()

    @property
    def network_id(self) -> NetworkId:
        return self.params.network

    def add_event(self, event: LoadEvent) -> None:
        """Attach a scheduled load event (e.g. the stadium game)."""
        self.events.append(event)

    def binding_for(self, point: GeoPoint) -> RegionBinding:
        """The region binding governing ``point``."""
        return self.bindings[self._binding_idx_for(point)]

    def _binding_idx_for(self, point: GeoPoint) -> int:
        x, y = self._proj.to_xy(point)
        for idx_id in self._binding_index.candidates(x, y):
            i = self._indexed_bindings[idx_id]
            if self.bindings[i].matches(point):
                return i
        return self._fallback_idx

    def _patch_at(self, point: GeoPoint) -> Optional[FailurePatch]:
        i = self._patch_idx_at(point)
        return self.failure_patches[i] if i >= 0 else None

    def _patch_idx_at(self, point: GeoPoint) -> int:
        i = self._patch_index.query_point(point)
        return -1 if i is None else i

    def _event_factors(self, point: GeoPoint, t: float):
        lat = 1.0
        cap = 1.0
        for ev in self.events:
            lat *= ev.latency_factor(self.network_id, point, t)
            cap *= ev.capacity_factor(self.network_id, point, t)
        return lat, cap

    def link_state(self, point: GeoPoint, t: float) -> LinkState:
        """Ground-truth link state for this carrier at ``point``, ``t``.

        This is the scalar reference path: it evaluates the spatial
        fields at the exact point (no quantization).  The hot paths use
        :meth:`link_state_fast` / :meth:`link_state_batch` instead.
        """
        b = self.binding_for(point)
        spatial = b.spatial.value(point)
        smooth = b.spatial.smooth(point)
        patch = self._patch_at(point)
        return self._compose_state(b, point, t, smooth, spatial, patch)

    def _compose_state(
        self,
        b: RegionBinding,
        point: GeoPoint,
        t: float,
        smooth: float,
        spatial: float,
        patch: Optional[FailurePatch],
    ) -> LinkState:
        """Assemble a scalar LinkState from per-point quantities at ``t``."""
        temporal = b.temporal.multiplier(t)
        ev_lat, ev_cap = self._event_factors(point, t)

        capacity = (
            self.params.base_downlink_bps
            * b.rate_scale
            * spatial
            * temporal
            * ev_cap
        )
        uplink = (
            self.params.base_uplink_bps * b.rate_scale * spatial * temporal * ev_cap
        )

        load = b.temporal.load(t)
        rtt = (
            self.params.base_rtt_s
            * smooth ** (-self.params.rtt_spatial_exp)
            * (0.7 + 0.3 * load)
            * ev_lat
        )
        # Fast RTT noise, iid across 5 s bins, deterministic in (seed, t).
        rtt_bin = int(t // 5.0)
        rtt *= max(
            0.5,
            1.0
            + self.params.rtt_fast_std
            * value_noise(self.seed ^ 0x5A5A, rtt_bin, 0, 1.0),
        )

        jitter = self.params.base_jitter_s * b.jitter_scale * (0.8 + 0.4 * load)
        loss = self.params.base_loss * (1.0 + 3.0 * (ev_lat - 1.0))
        available = True

        if patch is not None:
            swing_bin = int(t // patch.swing_bin_s)
            swing = value_noise(
                self.seed + patch.patch_id * 7919, swing_bin, patch.patch_id, 1.0
            )
            capacity *= max(0.15, 1.0 + patch.swing_amp * 1.6 * swing)
            loss = min(0.05, loss + 0.01)
            blackout_bin = int(t // patch.blackout_bin_s)
            u = (
                value_noise(
                    self.seed + patch.patch_id * 104729,
                    blackout_bin,
                    1,
                    1.0,
                )
                + 1.0
            ) / 2.0
            if u < patch.blackout_prob:
                available = False

        tech = self.params.technology
        return LinkState(
            network=self.network_id,
            downlink_bps=tech.clamp_downlink(capacity),
            uplink_bps=tech.clamp_uplink(uplink),
            rtt_s=max(0.02, rtt),
            jitter_std_s=max(1e-4, jitter),
            loss_rate=min(0.10, max(0.0, loss)),
            available=available,
        )

    # -- batch query path --------------------------------------------------

    def _point_quantities(self, lat, lon):
        """Time-invariant per-point quantities, computed vectorized.

        Returns ``(binding_idx, smooth, value, patch_idx)`` arrays; the
        spatial fields are evaluated at the exact coordinates given.
        """
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        xy = self._proj.to_xy_batch(lat, lon)
        raw = self._binding_index.query_batch(lat, lon, xy=xy)
        bidx = np.full(lat.shape, self._fallback_idx, dtype=np.int64)
        hit = raw >= 0
        if hit.any():
            remap = np.asarray(self._indexed_bindings, dtype=np.int64)
            bidx[hit] = remap[raw[hit]]
        if self.failure_patches:
            pidx = self._patch_index.query_batch(lat, lon, xy=xy)
        else:
            pidx = np.full(lat.shape, -1, dtype=np.int64)
        smooth = np.empty(lat.shape, dtype=float)
        value = np.empty(lat.shape, dtype=float)
        for bi in _distinct(bidx):
            m = bidx == bi
            f = self.bindings[int(bi)].spatial
            fx, fy = f.project_batch(lat[m], lon[m])
            s = f.smooth_batch(fx, fy)
            smooth[m] = s
            value[m] = s * (1.0 + f.texture_batch(fx, fy))
        return bidx, smooth, value, pidx

    def _point_quantities_cached(self, lat, lon):
        """Cached :meth:`_point_quantities` keyed by quantized location.

        Cache misses are evaluated at the quantization-cell *centers*, so
        a result depends only on the quantized location — never on query
        order or batch composition (see :mod:`repro.radio.pointcache`).
        """
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        cache = self.point_cache
        x, y = self._proj.to_xy_batch(lat, lon)
        q = cache.quantum_m
        kx = np.round(x / q).astype(np.int64).tolist()
        ky = np.round(y / q).astype(np.int64).tolist()
        n = lat.size
        bidx = np.empty(n, dtype=np.int64)
        smooth = np.empty(n, dtype=float)
        value = np.empty(n, dtype=float)
        pidx = np.empty(n, dtype=np.int64)
        missing: Dict[tuple, List[int]] = {}
        for i in range(n):
            key = (kx[i], ky[i])
            tup = cache.get(key)
            if tup is None:
                missing.setdefault(key, []).append(i)
            else:
                bidx[i], smooth[i], value[i], pidx[i] = tup
        if missing:
            keys = list(missing)
            cx = np.array([k[0] for k in keys], dtype=float) * q
            cy = np.array([k[1] for k in keys], dtype=float) * q
            clat, clon = self._proj.to_geo_batch(cx, cy)
            b2, s2, v2, p2 = self._point_quantities(clat, clon)
            for j, key in enumerate(keys):
                tup = (int(b2[j]), float(s2[j]), float(v2[j]), int(p2[j]))
                cache.put(key, tup)
                for i in missing[key]:
                    bidx[i], smooth[i], value[i], pidx[i] = tup
        return bidx, smooth, value, pidx

    def warm_point_cache(self, points) -> int:
        """Precompute cache entries for ``points``; returns entry count.

        Dataset generators and the coordinator call this with a whole
        day's (or tick's) worth of positions so the expensive per-point
        field math runs once, vectorized, instead of per measurement.
        """
        lat, lon = _as_latlon(points)
        tel = get_telemetry()
        with tel.span("radio.warm_point_cache"):
            self._point_quantities_cached(lat, lon)
        if tel.enabled:
            tel.metrics.counter("radio.cache_warms").inc()
            tel.metrics.counter("radio.cache_warm_points").inc(lat.size)
        return len(self.point_cache)

    def link_state_fast(self, point: GeoPoint, t: float) -> LinkState:
        """Scalar link state via the point cache (quantized location).

        Matches :meth:`link_state` up to the cache's quantization error;
        the per-point field evaluation is served from the cache after the
        first visit to a location.
        """
        x, y = self._proj.to_xy(point)
        cache = self.point_cache
        key = cache.key_for(x, y)
        tup = cache.get(key)
        if tup is None:
            cx, cy = cache.center_xy(key)
            clat, clon = self._proj.to_geo_batch(
                np.array([cx]), np.array([cy])
            )
            b2, s2, v2, p2 = self._point_quantities(clat, clon)
            tup = (int(b2[0]), float(s2[0]), float(v2[0]), int(p2[0]))
            cache.put(key, tup)
        bi, smooth, value, pi = tup
        patch = self.failure_patches[pi] if pi >= 0 else None
        return self._compose_state(
            self.bindings[bi], point, t, smooth, value, patch
        )

    def link_state_batch(self, points, times, use_cache: bool = True) -> LinkStateBatch:
        """Vectorized ground truth over N (point, time) pairs.

        ``points`` may be a single :class:`GeoPoint` (broadcast over
        ``times``), a sequence of GeoPoints, a ``(lat, lon)`` array pair,
        or an ``(N, 2)`` array of lat/lon rows; ``times`` a scalar or
        array (broadcast against points).  With ``use_cache`` the
        time-invariant per-point quantities go through the quantized
        point cache; disable it to evaluate at exact coordinates (the
        equivalence tests compare that against :meth:`link_state`).

        Simulation times are assumed non-negative (the scalar path
        truncates time bins toward zero, the batch path floors them).
        """
        tel = get_telemetry()
        lat, lon = _as_latlon(points)
        if tel.enabled:
            tel.metrics.counter("radio.batch_queries").inc()
            tel.metrics.histogram(
                "radio.batch_size",
                (1.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0),
            ).observe(lat.size)
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if use_cache:
            bidx, smooth, value, pidx = self._point_quantities_cached(lat, lon)
        else:
            bidx, smooth, value, pidx = self._point_quantities(lat, lon)
        # Broadcast points against times.
        if lat.size == 1 and t.size > 1:
            n = t.size
            lat = np.full(n, lat[0])
            lon = np.full(n, lon[0])
            bidx = np.full(n, bidx[0])
            smooth = np.full(n, smooth[0])
            value = np.full(n, value[0])
            pidx = np.full(n, pidx[0])
        elif t.size == 1 and lat.size != 1:
            t = np.full(lat.size, t[0])
        elif lat.size != t.size:
            raise ValueError(
                f"points ({lat.size}) and times ({t.size}) do not broadcast"
            )
        n = t.size
        p = self.params

        temporal = np.empty(n, dtype=float)
        load = np.empty(n, dtype=float)
        rate_scale = np.empty(n, dtype=float)
        jitter_scale = np.empty(n, dtype=float)
        for bi in _distinct(bidx):
            m = bidx == bi
            b = self.bindings[int(bi)]
            temporal[m] = b.temporal.multiplier_batch(t[m])
            load[m] = b.temporal.load_batch(t[m])
            rate_scale[m] = b.rate_scale
            jitter_scale[m] = b.jitter_scale

        ev_lat = np.ones(n, dtype=float)
        ev_cap = np.ones(n, dtype=float)
        for ev in self.events:
            l_f, c_f = ev.factors_batch(self.network_id, lat, lon, t)
            ev_lat *= l_f
            ev_cap *= c_f

        capacity = p.base_downlink_bps * rate_scale * value * temporal * ev_cap
        uplink = p.base_uplink_bps * rate_scale * value * temporal * ev_cap

        rtt = (
            p.base_rtt_s
            * smooth ** (-p.rtt_spatial_exp)
            * (0.7 + 0.3 * load)
            * ev_lat
        )
        rtt_bin = np.floor(t / 5.0)
        rtt = rtt * np.maximum(
            0.5,
            1.0
            + p.rtt_fast_std
            * value_noise_batch(self.seed ^ 0x5A5A, rtt_bin, 0.0, 1.0),
        )

        jitter = p.base_jitter_s * jitter_scale * (0.8 + 0.4 * load)
        loss = p.base_loss * (1.0 + 3.0 * (ev_lat - 1.0))
        available = np.ones(n, dtype=bool)

        patched = pidx >= 0
        if patched.any():
            for pi in _distinct(pidx[patched]):
                patch = self.failure_patches[int(pi)]
                m = pidx == pi
                tm = t[m]
                swing = value_noise_batch(
                    self.seed + patch.patch_id * 7919,
                    np.floor(tm / patch.swing_bin_s),
                    float(patch.patch_id),
                    1.0,
                )
                capacity[m] *= np.maximum(
                    0.15, 1.0 + patch.swing_amp * 1.6 * swing
                )
                loss[m] = np.minimum(0.05, loss[m] + 0.01)
                u = (
                    value_noise_batch(
                        self.seed + patch.patch_id * 104729,
                        np.floor(tm / patch.blackout_bin_s),
                        1.0,
                        1.0,
                    )
                    + 1.0
                ) / 2.0
                available[m] = u >= patch.blackout_prob

        tech = p.technology
        return LinkStateBatch(
            network=self.network_id,
            downlink_bps=np.clip(capacity, 0.0, tech.max_downlink_bps),
            uplink_bps=np.clip(uplink, 0.0, tech.max_uplink_bps),
            rtt_s=np.maximum(0.02, rtt),
            jitter_std_s=np.maximum(1e-4, jitter),
            loss_rate=np.clip(loss, 0.0, 0.10),
            available=available,
            binding_idx=bidx,
            patch_idx=pidx,
        )


class Landscape:
    """The full synthetic world: three carriers plus shared geography."""

    def __init__(
        self,
        networks: Dict[NetworkId, CellularNetwork],
        study_area: StudyArea,
        road: Optional[RoadStretch] = None,
        stadium: Optional[GeoPoint] = None,
        seed: int = 0,
    ):
        self.networks = dict(networks)
        self.study_area = study_area
        self.road = road
        self.stadium = stadium
        self.seed = seed

    def network(self, net: NetworkId) -> CellularNetwork:
        return self.networks[net]

    def network_ids(self) -> List[NetworkId]:
        return sorted(self.networks.keys(), key=lambda n: n.value)

    def link_state(self, net: NetworkId, point: GeoPoint, t: float) -> LinkState:
        """Ground truth for carrier ``net`` at ``point`` and time ``t``."""
        return self.networks[net].link_state(point, t)

    def link_state_fast(self, net: NetworkId, point: GeoPoint, t: float) -> LinkState:
        """Cached-point ground truth for carrier ``net`` (hot path)."""
        return self.networks[net].link_state_fast(point, t)

    def link_state_batch(
        self, net: NetworkId, points, times, use_cache: bool = True
    ) -> LinkStateBatch:
        """Vectorized ground truth for carrier ``net`` over N pairs."""
        return self.networks[net].link_state_batch(points, times, use_cache=use_cache)

    def warm_cache(self, points, nets: Optional[Sequence[NetworkId]] = None) -> None:
        """Precompute per-point cache entries on some (default: all) carriers."""
        for net in (self.network_ids() if nets is None else nets):
            self.networks[net].warm_point_cache(points)

    def publish_cache_metrics(self, telemetry=None) -> None:
        """Export per-carrier point-cache statistics as gauges.

        Called at the end of a telemetry-enabled run (cache counters are
        cumulative, so a final snapshot captures the whole run).
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        if not tel.enabled:
            return
        for net in self.network_ids():
            cache = self.networks[net].point_cache
            prefix = f"radio.pointcache.{net.value}"
            tel.metrics.gauge(f"{prefix}.hits").set(cache.hits)
            tel.metrics.gauge(f"{prefix}.misses").set(cache.misses)
            tel.metrics.gauge(f"{prefix}.entries").set(len(cache))
            tel.metrics.gauge(f"{prefix}.hit_rate").set(cache.hit_rate)

    def add_event(self, event: LoadEvent, nets: Optional[Sequence[NetworkId]] = None) -> None:
        """Attach a load event to some (default: all) carriers.

        ``nets`` distinguishes "not given" (None -> all carriers) from an
        explicitly empty sequence (attach to none) — a ``nets or ...``
        test here once silently broadcast events passed ``nets=[]``.
        """
        for net in (self.network_ids() if nets is None else nets):
            self.networks[net].add_event(event)


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

#: Sustained-rate and latency presets per carrier, tuned to paper Tables 3-4.
_DEFAULT_PARAMS: Dict[NetworkId, NetworkParams] = {
    NetworkId.NET_A: NetworkParams(
        network=NetworkId.NET_A,
        technology=HSPA,
        base_downlink_bps=1.42e6,
        base_uplink_bps=0.55e6,
        base_rtt_s=0.105,
        # IPDV of consecutive paced packets reports ~1.6x the per-packet
        # delay std; bases are scaled so *measured* jitter matches the
        # paper (NetA ~7.4 ms, NetB ~3.0 ms, NetC ~3.4 ms in Madison).
        base_jitter_s=0.0124,
    ),
    NetworkId.NET_B: NetworkParams(
        network=NetworkId.NET_B,
        technology=EVDO_REV_A,
        base_downlink_bps=1.02e6,
        base_uplink_bps=0.62e6,
        base_rtt_s=0.113,
        base_jitter_s=0.0029,
    ),
    NetworkId.NET_C: NetworkParams(
        network=NetworkId.NET_C,
        technology=EVDO_REV_A,
        base_downlink_bps=1.12e6,
        base_uplink_bps=0.60e6,
        base_rtt_s=0.121,
        base_jitter_s=0.0037,
    ),
}

#: NJ sustained rates are ~1.8-2.2x Madison's for NetB/NetC (Table 3).
_NJ_RATE_SCALE = {
    NetworkId.NET_A: 1.0,
    NetworkId.NET_B: 1.90,
    NetworkId.NET_C: 2.10,
}
_NJ_JITTER_SCALE = {
    NetworkId.NET_A: 1.0,
    NetworkId.NET_B: 1.39,
    NetworkId.NET_C: 0.73,
}

#: Sustained-rate scaling on the intercity road corridor.  The HSPA
#: carrier's rural corridor coverage is thinner than in the city, which
#: levels the three carriers on the road and produces the heavily
#: crossing per-zone winners of the paper's Fig 13.
_ROAD_RATE_SCALE = {
    NetworkId.NET_A: 0.80,
    NetworkId.NET_B: 1.02,
    NetworkId.NET_C: 0.98,
}


def build_landscape(
    seed: int = 7,
    include_road: bool = True,
    include_nj: bool = True,
    city_stations_per_network: int = 10,
    failure_patch_count: int = 16,
    networks: Optional[Sequence[NetworkId]] = None,
) -> Landscape:
    """Construct the full paper-like world, deterministically from ``seed``.

    The returned landscape has the three carriers over a Madison-like
    155 km^2 study area, optionally the 240 km road corridor and the NJ
    spot regions, a stadium location for the football-game event (the
    event itself is attached by callers/benches that need it), and
    ``failure_patch_count`` sick patches for NetB (the Standalone
    dataset, from which Fig 9 is computed, is NetB-only).
    """
    streams = RngStreams(seed)
    area = madison_study_area()
    road = madison_chicago_road() if include_road else None
    nj = new_jersey_spots() if include_nj else []
    nets = list(networks) if networks else list(_DEFAULT_PARAMS.keys())

    # Calibration points shared across networks (field normalization).
    city_points = area.grid_points(spacing_m=800.0)
    road_points = road.sample_every(2000.0) if road else []

    built: Dict[NetworkId, CellularNetwork] = {}
    for net in nets:
        params = _DEFAULT_PARAMS[net]
        rng = streams.get(f"stations:{net.value}")
        bindings: List[RegionBinding] = []

        city_stations = place_base_stations(
            area.anchor, area.radius_m, city_stations_per_network, rng
        )
        city_field = SpatialField(
            stations=city_stations,
            origin=area.anchor,
            seed=derive_seed(seed, f"texture:{net.value}:city"),
        )
        city_field.calibrate(city_points)
        bindings.append(
            RegionBinding(
                name="madison",
                anchor=area.anchor,
                radius_m=area.radius_m + 2000.0,
                spatial=city_field,
                temporal=TemporalProcess(
                    TemporalParams.madison_like(),
                    derive_seed(seed, f"temporal:{net.value}:madison"),
                ),
            )
        )

        for region in nj:
            nj_stations = place_base_stations(
                region.anchor, 4000.0, 7,
                streams.get(f"njstations:{net.value}:{region.name}"),
                mean_range_m=2500.0,
            )
            nj_field = SpatialField(
                stations=nj_stations,
                origin=region.anchor,
                seed=derive_seed(seed, f"texture:{net.value}:{region.name}"),
            )
            nj_field.calibrate(
                [region.anchor.offset(dx, dy) for dx in (-2000.0, 0.0, 2000.0) for dy in (-2000.0, 0.0, 2000.0)]
            )
            bindings.append(
                RegionBinding(
                    name=region.name,
                    anchor=region.anchor,
                    radius_m=5000.0,
                    spatial=nj_field,
                    temporal=TemporalProcess(
                        TemporalParams.new_jersey_like(),
                        derive_seed(seed, f"temporal:{net.value}:{region.name}"),
                    ),
                    rate_scale=_NJ_RATE_SCALE[net],
                    jitter_scale=_NJ_JITTER_SCALE[net],
                )
            )

        if road is not None:
            road_stations = place_along_road(
                road.waypoints, 5000.0, streams.get(f"roadstations:{net.value}")
            )
            road_field = SpatialField(
                stations=road_stations,
                origin=area.anchor,
                seed=derive_seed(seed, f"texture:{net.value}:road"),
            )
            road_field.calibrate(road_points)
            bindings.append(
                RegionBinding(
                    name="road",
                    anchor=area.anchor,
                    radius_m=None,  # fallback region
                    spatial=road_field,
                    temporal=TemporalProcess(
                        TemporalParams.madison_like(),
                        derive_seed(seed, f"temporal:{net.value}:road"),
                    ),
                    rate_scale=_ROAD_RATE_SCALE[net],
                )
            )
        else:
            # Make the city binding the fallback if there is no road.
            last = bindings[0]
            bindings.append(
                RegionBinding(
                    name=last.name,
                    anchor=last.anchor,
                    radius_m=None,
                    spatial=last.spatial,
                    temporal=last.temporal,
                    rate_scale=last.rate_scale,
                    jitter_scale=last.jitter_scale,
                )
            )

        patches: List[FailurePatch] = []
        if net is NetworkId.NET_B and failure_patch_count > 0:
            prng = streams.get("failure-patches")
            from repro.geo.coords import destination_point

            for i in range(failure_patch_count):
                r = area.radius_m * float(np.sqrt(prng.uniform(0.04, 0.95)))
                theta = float(prng.uniform(0.0, 360.0))
                patches.append(
                    FailurePatch(
                        patch_id=i,
                        center=destination_point(area.anchor, theta, r),
                        radius_m=float(prng.uniform(250.0, 450.0)),
                    )
                )

        built[net] = CellularNetwork(
            params=params,
            bindings=bindings,
            failure_patches=patches,
            seed=derive_seed(seed, f"net:{net.value}"),
        )

    stadium = area.anchor.offset(-1800.0, 600.0)
    return Landscape(
        networks=built,
        study_area=area,
        road=road,
        stadium=stadium,
        seed=seed,
    )
