"""Tests for the carrier ground-truth models and the landscape."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo.regions import NEW_BRUNSWICK, madison_spot_locations
from repro.radio.events import football_game_event
from repro.radio.network import _distinct, build_landscape
from repro.radio.technology import NetworkId

ALL = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]


class TestBuildLandscape:
    def test_three_networks(self, landscape):
        assert landscape.network_ids() == ALL

    def test_deterministic(self):
        a = build_landscape(seed=3, include_road=False, include_nj=False)
        b = build_landscape(seed=3, include_road=False, include_nj=False)
        p = a.study_area.anchor.offset(900.0, 400.0)
        for net in ALL:
            sa = a.link_state(net, p, 1000.0)
            sb = b.link_state(net, p, 1000.0)
            assert sa.downlink_bps == sb.downlink_bps
            assert sa.rtt_s == sb.rtt_s

    def test_subset_of_networks(self):
        land = build_landscape(
            seed=1, include_road=False, include_nj=False,
            networks=[NetworkId.NET_B],
        )
        assert land.network_ids() == [NetworkId.NET_B]

    def test_stadium_inside_city(self, landscape):
        assert landscape.study_area.contains(landscape.stadium)


class TestLinkState:
    def test_rates_within_technology_caps(self, landscape):
        p = landscape.study_area.anchor.offset(1500.0, -700.0)
        for net in ALL:
            for t in (0.0, 40_000.0, 90_000.0):
                ls = landscape.link_state(net, p, t)
                tech = landscape.network(net).params.technology
                assert 0.0 < ls.downlink_bps <= tech.max_downlink_bps
                assert 0.0 < ls.uplink_bps <= tech.max_uplink_bps

    def test_sane_latency_and_loss(self, landscape):
        p = landscape.study_area.anchor.offset(-2000.0, 800.0)
        for net in ALL:
            ls = landscape.link_state(net, p, 7200.0)
            assert 0.02 <= ls.rtt_s <= 1.0
            assert 0.0 <= ls.loss_rate <= 0.10
            assert ls.jitter_std_s > 0

    def test_nj_faster_than_madison_for_evdo(self, landscape):
        """Paper Table 3: NJ rates ~1.8-2.2x Madison for NetB/NetC."""
        wi = madison_spot_locations(1)[0]
        ts = np.arange(0.0, 86400.0, 1800.0)
        for net in (NetworkId.NET_B, NetworkId.NET_C):
            wi_mean = np.mean([landscape.link_state(net, wi, t).downlink_bps for t in ts])
            nj_mean = np.mean(
                [landscape.link_state(net, NEW_BRUNSWICK, t).downlink_bps for t in ts]
            )
            assert nj_mean > 1.3 * wi_mean

    def test_failure_patches_only_netb(self, landscape):
        assert landscape.network(NetworkId.NET_B).failure_patches
        assert not landscape.network(NetworkId.NET_A).failure_patches
        assert not landscape.network(NetworkId.NET_C).failure_patches

    def test_blackouts_occur_in_patches(self, landscape):
        patch = landscape.network(NetworkId.NET_B).failure_patches[0]
        states = [
            landscape.link_state(NetworkId.NET_B, patch.center, t)
            for t in np.arange(0.0, 5 * 86400.0, 600.0)
        ]
        assert any(not s.available for s in states)
        assert any(s.available for s in states)

    def test_no_blackouts_outside_patches(self, landscape):
        net = landscape.network(NetworkId.NET_B)
        p = landscape.study_area.anchor
        if net._patch_at(p) is not None:  # extremely unlikely
            pytest.skip("patch landed on the city center")
        for t in np.arange(0.0, 86400.0, 3600.0):
            assert net.link_state(p, t).available


class TestEvents:
    def test_event_raises_latency_and_cuts_capacity(self):
        land = build_landscape(seed=11, include_road=False, include_nj=False)
        before = land.link_state(NetworkId.NET_B, land.stadium, 5 * 86400 + 12 * 3600)
        land.add_event(football_game_event(land.stadium), nets=[NetworkId.NET_B])
        during = land.link_state(NetworkId.NET_B, land.stadium, 5 * 86400 + 12 * 3600)
        assert during.rtt_s > 2.0 * before.rtt_s
        assert during.downlink_bps < 0.6 * before.downlink_bps

    def test_event_scoped_in_space(self):
        land = build_landscape(seed=11, include_road=False, include_nj=False)
        land.add_event(football_game_event(land.stadium), nets=[NetworkId.NET_B])
        t = 5 * 86400 + 12 * 3600
        far = land.stadium.offset(6000.0, 0.0)
        near_rtt = land.link_state(NetworkId.NET_B, land.stadium, t).rtt_s
        far_rtt = land.link_state(NetworkId.NET_B, far, t).rtt_s
        assert near_rtt > 2.0 * far_rtt


class TestRegionBindings:
    def test_city_points_use_city_binding(self, landscape):
        net = landscape.network(NetworkId.NET_B)
        assert net.binding_for(landscape.study_area.anchor).name == "madison"

    def test_nj_points_use_nj_binding(self, landscape):
        net = landscape.network(NetworkId.NET_B)
        assert net.binding_for(NEW_BRUNSWICK).name == "new-brunswick"

    def test_far_points_fall_back_to_road(self, landscape):
        net = landscape.network(NetworkId.NET_B)
        mid_road = landscape.road.sample_every(120_000.0)[1]
        assert net.binding_for(mid_road).name == "road"


class TestDistinct:
    @given(st.lists(st.integers(0, 40), max_size=60))
    def test_matches_np_unique(self, values):
        idx = np.asarray(values, dtype=np.int64)
        assert _distinct(idx).tolist() == np.unique(idx).tolist()

    def test_two_dimensional(self):
        idx = np.array([[3, 1], [1, 7]], dtype=np.int64)
        assert _distinct(idx).tolist() == [1, 3, 7]

    def test_negative_index_refused(self):
        with pytest.raises(AssertionError):
            _distinct(np.array([0, -1], dtype=np.int64))
