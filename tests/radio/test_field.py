"""Tests for spatial performance fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.regions import madison_study_area
from repro.radio.basestation import BaseStation, place_base_stations
from repro.radio.field import SpatialField, value_noise
from repro.radio.network import build_landscape


def _field(seed=0, calibrated=True):
    area = madison_study_area()
    stations = place_base_stations(
        area.anchor, area.radius_m, 10, np.random.default_rng(seed)
    )
    f = SpatialField(stations=stations, origin=area.anchor, seed=seed)
    if calibrated:
        f.calibrate(area.grid_points(1500.0))
    return f, area


class TestValueNoise:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-50_000, max_value=50_000),
        st.floats(min_value=-50_000, max_value=50_000),
    )
    @settings(max_examples=100)
    def test_bounded(self, seed, x, y):
        assert -1.0 <= value_noise(seed, x, y, 200.0) <= 1.0

    def test_deterministic(self):
        assert value_noise(1, 123.4, 567.8, 200.0) == value_noise(1, 123.4, 567.8, 200.0)

    def test_continuous_across_lattice(self):
        # Values straddling a lattice corner should be close.
        a = value_noise(1, 199.999, 50.0, 200.0)
        b = value_noise(1, 200.001, 50.0, 200.0)
        assert abs(a - b) < 0.01

    def test_decorrelates_beyond_scale(self):
        vals = [value_noise(3, x, 0.0, 100.0) for x in range(0, 100_000, 997)]
        assert np.std(vals) > 0.2  # genuinely varying


class TestSpatialField:
    def test_requires_stations(self):
        with pytest.raises(ValueError):
            SpatialField(stations=[], origin=madison_study_area().anchor)

    def test_smooth_within_bounds(self):
        f, area = _field()
        for p in area.grid_points(2000.0):
            assert f.value_floor <= f.smooth(p) <= f.value_ceil

    def test_calibration_centers_median(self):
        f, area = _field()
        vals = sorted(f.smooth(p) for p in area.grid_points(1500.0))
        median = vals[len(vals) // 2]
        middle = (f.value_floor + f.value_ceil) / 2.0
        assert median == pytest.approx(middle, rel=0.05)

    def test_texture_bounded(self):
        f, area = _field()
        for p in area.grid_points(2500.0):
            assert abs(f.texture(p)) <= f.texture_amp

    def test_value_combines(self):
        f, area = _field()
        p = area.anchor.offset(1200.0, -800.0)
        assert f.value(p) == pytest.approx(
            f.smooth(p) * (1.0 + f.texture(p))
        )

    def test_nearby_points_similar(self):
        f, area = _field()
        a = area.anchor.offset(500.0, 500.0)
        b = area.anchor.offset(510.0, 505.0)
        assert abs(f.value(a) - f.value(b)) / f.value(a) < 0.02

    def test_fields_with_different_seeds_differ(self):
        f1, area = _field(seed=1)
        f2, _ = _field(seed=2)
        diffs = [
            abs(f1.value(p) - f2.value(p)) for p in area.grid_points(2500.0)
        ]
        assert max(diffs) > 0.1

    def test_calibrate_empty_rejected(self):
        f, _ = _field(calibrated=False)
        with pytest.raises(ValueError):
            f.calibrate([])


def _scalar_calibrate(self, sample_points):
    """:meth:`SpatialField.calibrate` over the scalar ``_signal``."""
    signals = sorted(self._signal(p) for p in sample_points)
    self._q_ref = max(signals[len(signals) // 2], 1e-12)


def _q_refs(landscape):
    return [binding.spatial._q_ref.hex()
            for network in landscape.networks.values()
            for binding in network.bindings]


#: A local offset in meters, out to a few station ranges past the city.
_OFFSET = st.floats(min_value=-40_000.0, max_value=40_000.0)


class TestSignalColumn:
    @given(
        stations=st.lists(
            st.tuples(_OFFSET, _OFFSET,
                      st.floats(min_value=0.05, max_value=3.0),
                      st.floats(min_value=100.0, max_value=8_000.0)),
            min_size=1, max_size=12),
        points=st.lists(st.tuples(_OFFSET, _OFFSET), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_exact_against_scalar_signal(self, stations, points):
        anchor = madison_study_area().anchor
        field = SpatialField(
            stations=[BaseStation(i, anchor.offset(x, y), cap, rng_m)
                      for i, (x, y, cap, rng_m) in enumerate(stations)],
            origin=anchor,
        )
        pts = [anchor.offset(x, y) for x, y in points]
        column = field.signal_column(pts)
        assert column.dtype == np.float64 and column.shape == (len(pts),)
        assert [v.hex() for v in column.tolist()] == [
            field._signal(p).hex() for p in pts]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_landscape_q_ref_matches_scalar_calibration(self, seed,
                                                        monkeypatch):
        calibrated = _q_refs(build_landscape(seed=seed))
        monkeypatch.setattr(SpatialField, "calibrate", _scalar_calibrate)
        assert calibrated == _q_refs(build_landscape(seed=seed))
