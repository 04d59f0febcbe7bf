"""Golden regression pins.

The reproducibility promise: the same seeds reproduce every number
bit-for-bit.  These tests pin a handful of exact model outputs at fixed
seeds so that *any* accidental change to the ground-truth models, RNG
plumbing, or measurement arithmetic shows up as a failure — and a
deliberate change forces a conscious update of these constants (and a
re-read of EXPERIMENTS.md, whose numbers would shift too).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.network.channel import MeasurementChannel
from repro.radio.technology import NetworkId

REL = 1e-9  # bit-for-bit up to float printing


class TestLinkStateGolden:
    POINT_OFFSET = (1234.0, -567.0)
    AT = 12345.0
    EXPECTED = {
        NetworkId.NET_A: (1031793.6044079768, 0.11665357488343824),
        NetworkId.NET_B: (911238.847447598, 0.11673775164950882),
        NetworkId.NET_C: (1358898.1526179572, 0.11483660815931246),
    }

    def test_link_states_pinned(self, landscape):
        point = landscape.study_area.anchor.offset(*self.POINT_OFFSET)
        for net, (downlink, rtt) in self.EXPECTED.items():
            state = landscape.link_state(net, point, self.AT)
            assert state.downlink_bps == pytest.approx(downlink, rel=REL)
            assert state.rtt_s == pytest.approx(rtt, rel=REL)


class TestMeasurementGolden:
    def test_udp_train_pinned(self, landscape):
        point = landscape.study_area.anchor.offset(1234.0, -567.0)
        channel = MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(42)
        )
        result = channel.udp_train(
            point, 999.0, n_packets=50, inter_packet_delay_s=0.0005
        )
        # Re-pinned when udp_train moved to pre-drawn RNG blocks (the
        # draw order changed; agreement with the original per-packet
        # implementation is distribution-level, covered by the
        # equivalence tests).  udp_train_reference still reproduces the
        # previous pin, 787234.2290743778.
        assert result.throughput_bps == pytest.approx(842948.3730709758, rel=REL)
        assert result.loss_rate == 0.0

    def test_udp_train_reference_pinned(self, landscape):
        point = landscape.study_area.anchor.offset(1234.0, -567.0)
        channel = MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(42)
        )
        result = channel.udp_train_reference(
            point, 999.0, n_packets=50, inter_packet_delay_s=0.0005
        )
        # The original per-packet implementation (and its exact
        # scalar-field link query) is frozen: this is the seed repo's
        # original udp_train pin, byte for byte.
        assert result.throughput_bps == pytest.approx(787234.2290743778, rel=REL)
        assert result.loss_rate == 0.0

    def test_tcp_download_pinned(self, landscape):
        point = landscape.study_area.anchor.offset(1234.0, -567.0)
        channel = MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(42)
        )
        result = channel.tcp_download(point, 999.0, size_bytes=500_000)
        assert result.duration_s == pytest.approx(4.335648295502714, rel=REL)


class TestWorldGolden:
    def test_same_seed_same_world_twice(self):
        from repro.radio.network import build_landscape

        a = build_landscape(seed=99, include_road=False, include_nj=False)
        b = build_landscape(seed=99, include_road=False, include_nj=False)
        p = a.study_area.anchor.offset(800.0, 200.0)
        for net in a.network_ids():
            sa = a.link_state(net, p, 777.0)
            sb = b.link_state(net, p, 777.0)
            assert sa.downlink_bps == sb.downlink_bps
            assert sa.rtt_s == sb.rtt_s
            assert sa.jitter_std_s == sb.jitter_std_s

    def test_different_seed_different_world(self):
        from repro.radio.network import build_landscape

        a = build_landscape(seed=99, include_road=False, include_nj=False)
        b = build_landscape(seed=100, include_road=False, include_nj=False)
        p = a.study_area.anchor.offset(800.0, 200.0)
        assert (
            a.link_state(NetworkId.NET_B, p, 777.0).downlink_bps
            != b.link_state(NetworkId.NET_B, p, 777.0).downlink_bps
        )


class TestMonitorGolden:
    """Epoch closes and recalibrations of a short ``repro monitor`` run.

    The pin was computed while zone records still held their samples in
    lists of floats.  It holds the arithmetic over those samples (means,
    stds, the Allan epoch choice and the NKLD budget) fixed across
    storage changes.  Event ``seq`` numbers are left out: they count
    every event kind, not just these two.
    """

    ARGV = ["monitor", "--buses", "3", "--hours", "2", "--epoch-mins", "5",
            "--radius", "1000", "--seed", "7", "--gen-seed", "1"]
    COUNTS = {"epoch.close": 371, "calibration.recalibrate": 7}
    SHA256 = "a4ae936e4d798068745b2e0c7d8e631417908524f7fe2042745dc697626885d9"

    def test_epoch_and_calibration_events_pinned(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(self.ARGV + ["--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256()
        counts = dict.fromkeys(self.COUNTS, 0)
        with open(tmp_path / "events.jsonl") as fh:
            for line in fh:
                event = json.loads(line)
                if event["kind"] not in counts:
                    continue
                counts[event["kind"]] += 1
                del event["seq"]
                digest.update(json.dumps(event, sort_keys=True).encode())
                digest.update(b"\n")
        assert counts == self.COUNTS
        assert digest.hexdigest() == self.SHA256
