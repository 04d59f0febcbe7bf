"""Tests for the coordinator/client protocol types."""

import math
import struct
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
    pack_samples,
    unpack_samples,
)
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId

P = GeoPoint(43.0, -89.4)


class TestMeasurementTask:
    def test_expiry(self):
        task = MeasurementTask(
            task_id=1,
            network=NetworkId.NET_B,
            kind=MeasurementType.PING,
            issued_at_s=0.0,
            deadline_s=100.0,
        )
        assert not task.expired(50.0)
        assert not task.expired(100.0)
        assert task.expired(100.1)

    def test_no_deadline_never_expires(self):
        task = MeasurementTask(
            task_id=1, network=NetworkId.NET_B, kind=MeasurementType.PING
        )
        assert not task.expired(1e12)

    def test_params_default_empty(self):
        task = MeasurementTask(
            task_id=1, network=NetworkId.NET_A, kind=MeasurementType.UDP_TRAIN
        )
        assert task.params == {}


class TestMeasurementReport:
    def _report(self, value=1e6, kind=MeasurementType.UDP_TRAIN, **extras):
        return MeasurementReport(
            task_id=1,
            client_id="c",
            network=NetworkId.NET_B,
            kind=kind,
            start_s=10.0,
            end_s=12.0,
            point=P,
            speed_ms=3.0,
            value=value,
            extras=dict(extras),
        )

    def test_duration(self):
        assert self._report().duration_s == 2.0

    def test_nan_value_is_failure(self):
        assert self._report(value=float("nan")).is_failure()
        assert not self._report(value=5.0).is_failure()

    def test_samples_are_packed_doubles(self):
        assert self._report().samples == array("d")
        report = MeasurementReport(
            task_id=1, client_id="c", network=NetworkId.NET_B,
            kind=MeasurementType.PING, start_s=10.0, end_s=12.0, point=P,
            speed_ms=3.0, value=0.1, samples=[0.1, 1, True],
        )
        assert type(report.samples) is array
        assert report.samples.typecode == "d"
        assert list(report.samples) == [0.1, 1.0, 1.0]

    def test_packed_samples_are_kept_not_copied(self):
        samples = array("d", [0.25, 0.5])
        report = MeasurementReport(
            task_id=1, client_id="c", network=NetworkId.NET_B,
            kind=MeasurementType.PING, start_s=10.0, end_s=12.0, point=P,
            speed_ms=3.0, value=0.1, samples=samples,
        )
        assert report.samples is samples

    def test_kind_round_trips_as_string(self):
        assert MeasurementType("udp") is MeasurementType.UDP_TRAIN
        assert str(MeasurementType.TCP_DOWNLOAD) == "tcp"


def ieee_bits(xs):
    """Each float's 64 bits: compares NaN payloads and the sign of zero."""
    return [struct.pack(">d", x) for x in xs]


class TestPackedSamples:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True)))
    @example([])
    @example([math.nan, math.inf, -math.inf, -0.0, 0.0])
    @example([5e-324, -2.2250738585072e-308, 1.7976931348623157e308])
    def test_round_trip_is_bit_exact(self, xs):
        packed = pack_samples(xs)
        assert len(packed) == 8 * len(xs)
        assert ieee_bits(unpack_samples(packed)) == ieee_bits(xs)

    def test_layout_is_big_endian_doubles(self):
        assert pack_samples([1.0, -2.5]) == struct.pack(">2d", 1.0, -2.5)
        assert pack_samples([]) == b""

    def test_unpacks_a_memoryview_slice(self):
        buf = memoryview(b"\x00" + pack_samples([0.25, 4.0]) + b"\x00")
        assert unpack_samples(buf[1:17]) == [0.25, 4.0]

    def test_ragged_length_is_refused(self):
        with pytest.raises(struct.error):
            unpack_samples(pack_samples([1.0])[:7])


#: Doubles drawn from their 64 bits, so NaNs carry arbitrary payloads
#: and sign bits; ``st.floats`` alone yields few distinct NaNs.
any_bits_floats = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack(">d", bits.to_bytes(8, "big"))[0]
)


class TestPackedArraySamples:
    """``pack_samples`` of an ``array("d")`` equals the ``struct`` bytes."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_bits_floats
                    | st.floats(allow_nan=True, allow_infinity=True,
                                allow_subnormal=True)))
    @example([])
    @example([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0])
    @example([5e-324, -5e-324, 2.2250738585072e-308, 1.7976931348623157e308])
    def test_array_path_is_bit_identical(self, xs):
        packed = array("d", xs)
        expected = struct.pack(f">{len(xs)}d", *xs)
        assert pack_samples(packed) == expected
        assert pack_samples(packed) == pack_samples(list(xs))
        # The array itself is not byte-swapped in place.
        assert packed.tobytes() == array("d", xs).tobytes()

    @pytest.mark.parametrize("bits", [
        "7ff8000000c0ffee",  # quiet NaN with a payload
        "fff8000000000001",  # negative quiet NaN
        "7ff0000000000001",  # signalling NaN
    ])
    def test_nan_payload_survives(self, bits):
        nan = struct.unpack(">d", bytes.fromhex(bits))[0]
        assert pack_samples(array("d", [nan])) == bytes.fromhex(bits)
        assert pack_samples(array("d", [nan])) == pack_samples([nan])
