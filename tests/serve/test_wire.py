"""Tests for the length-prefixed wire protocol (repro.serve.wire)."""

import asyncio
import json
import math
import struct
from array import array

import pytest

from repro.clients.protocol import (
    MeasurementReport,
    MeasurementTask,
    MeasurementType,
)
from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId
from repro.serve.wire import (
    FRAME_TYPES,
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    ProtocolError,
    TruncatedFrameError,
    WireError,
    decode_payload,
    encode_frame,
    read_frame,
    reply_ids,
    report_from_wire,
    report_payloads,
    report_to_wire,
    task_from_wire,
    task_to_wire,
)


def read_from_bytes(data: bytes, max_frame_bytes: int = MAX_FRAME_BYTES):
    """Run read_frame against an in-memory stream fed exactly ``data``."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader, max_frame_bytes)

    return asyncio.run(scenario())


class TestFraming:
    def test_round_trip(self):
        message = {"type": "PING", "seq": 7}
        assert read_from_bytes(encode_frame(message)) == message

    def test_prefix_is_big_endian_length(self):
        frame = encode_frame({"type": "BYE"})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"type": "BYE"}

    def test_canonical_payload_bytes(self):
        # Key order in the dict must not affect the bytes on the wire.
        a = encode_frame({"type": "ACK_BATCH", "seq_lo": 1, "seq_hi": 2})
        b = encode_frame({"seq_hi": 2, "seq_lo": 1, "type": "ACK_BATCH"})
        assert a == b

    def test_clean_eof_between_frames_is_none(self):
        assert read_from_bytes(b"") is None

    def test_truncated_length_prefix(self):
        with pytest.raises(TruncatedFrameError):
            read_from_bytes(b"\x00\x00")

    def test_truncated_payload(self):
        frame = encode_frame({"type": "PING"})
        with pytest.raises(TruncatedFrameError):
            read_from_bytes(frame[:-3])

    def test_oversized_length_prefix(self):
        data = LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            read_from_bytes(data)

    def test_oversized_against_negotiated_limit(self):
        frame = encode_frame({"type": "PING", "pad": "x" * 128})
        with pytest.raises(FrameTooLargeError):
            read_from_bytes(frame, max_frame_bytes=64)

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"type": "PING", "pad": "x" * 128},
                         max_frame_bytes=64)

    def test_encode_requires_type(self):
        with pytest.raises(ProtocolError):
            encode_frame({"seq": 1})

    def test_payload_not_json(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"{nope")

    def test_payload_not_utf8(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe")

    def test_payload_not_object(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1,2]")

    def test_payload_without_string_type(self):
        with pytest.raises(ProtocolError):
            decode_payload(b'{"type": 3}')

    def test_every_error_is_a_wire_error_with_code(self):
        for exc_type, code in [
            (FrameTooLargeError, "frame-too-large"),
            (TruncatedFrameError, "truncated-frame"),
            (ProtocolError, "bad-frame"),
        ]:
            exc = exc_type("detail")
            assert isinstance(exc, WireError)
            assert exc.code == code

    def test_frame_types_cover_protocol(self):
        for kind in ("HELLO", "WELCOME", "POLL", "TASK", "REPORT_BATCH",
                     "ACK_BATCH", "RETRY", "PING", "PONG", "STATS",
                     "STATS_REPLY", "ERROR", "BYE"):
            assert kind in FRAME_TYPES
        #: One report frame pair: REPORT and ACK left with version 1.
        assert "REPORT" not in FRAME_TYPES and "ACK" not in FRAME_TYPES
        assert len(FRAME_TYPES) == 16
        assert PROTOCOL_VERSION == 2


class TestReportFrames:
    def test_a_batch_of_one_has_an_integer_seq_lo(self):
        message = {"type": "REPORT_BATCH", "seq_lo": "3",
                   "reports": [{"task_id": 1}]}
        assert report_payloads(message) == ([{"task_id": 1}], 3)

    @pytest.mark.parametrize("message", [
        {"type": "REPORT", "report": {"task_id": 1}},
        {"type": "REPORT_BATCH", "reports": [{"task_id": 1}]},
        {"type": "REPORT_BATCH", "seq_lo": 0, "reports": []},
        {"type": "REPORT_BATCH", "seq_lo": 0, "reports": [3]},
    ])
    def test_malformed_report_frames_raise(self, message):
        with pytest.raises(ProtocolError, match="REPORT_BATCH"):
            report_payloads(message)

    def test_reply_ids_name_a_range(self):
        assert reply_ids(1, 7) == {"seq_lo": 7, "seq_hi": 7}
        assert reply_ids(5, 7, offset=3) == {"seq_lo": 10, "seq_hi": 11}


class TestTaskCodec:
    def make_task(self, **overrides):
        fields = dict(
            task_id=42,
            network=NetworkId.NET_B,
            kind=MeasurementType.UDP_TRAIN,
            zone_id=(3, -2),
            issued_at_s=120.0,
            deadline_s=180.0,
            params={"n_packets": 50.0},
        )
        fields.update(overrides)
        return MeasurementTask(**fields)

    def test_round_trip(self):
        task = self.make_task()
        assert task_from_wire(task_to_wire(task)) == task

    def test_round_trip_through_json(self):
        task = self.make_task(zone_id=None, deadline_s=None)
        wire_dict = json.loads(json.dumps(task_to_wire(task)))
        assert task_from_wire(wire_dict) == task

    def test_malformed_raises_protocol_error(self):
        good = task_to_wire(self.make_task())
        for key, value in [("network", "NetZ"), ("kind", "bogus"),
                           ("task_id", None), ("zone_id", [1])]:
            broken = dict(good)
            broken[key] = value
            with pytest.raises(ProtocolError):
                task_from_wire(broken)


class TestReportCodec:
    def make_report(self, **overrides):
        fields = dict(
            task_id=42,
            client_id="c-001",
            network=NetworkId.NET_A,
            kind=MeasurementType.PING,
            start_s=60.0,
            end_s=61.0,
            point=GeoPoint(43.0731, -89.4012),
            speed_ms=3.5,
            value=0.042,
            samples=[0.040, 0.042, 0.044],
            extras={"loss": 0.1},
        )
        fields.update(overrides)
        return MeasurementReport(**fields)

    def test_round_trip(self):
        report = self.make_report()
        assert report_from_wire(report_to_wire(report)) == report

    def test_floats_survive_json_exactly(self):
        # The WAL byte-identity guarantee rests on exact float
        # round-trips through repr-based JSON serialization.
        report = self.make_report(value=0.1 + 0.2, speed_ms=1.0 / 3.0)
        wire_dict = json.loads(json.dumps(
            report_to_wire(report), sort_keys=True, separators=(",", ":")
        ))
        restored = report_from_wire(wire_dict)
        assert restored.value == report.value
        assert restored.speed_ms == report.speed_ms

    def test_nan_value_round_trips(self):
        # A failed ping's primary value is NaN; non-strict JSON carries it.
        report = self.make_report(value=float("nan"), samples=[])
        wire_dict = json.loads(json.dumps(report_to_wire(report)))
        assert math.isnan(report_from_wire(wire_dict).value)

    def test_malformed_raises_protocol_error(self):
        good = report_to_wire(self.make_report())
        for key, value in [("network", "NetZ"), ("kind", "bogus"),
                           ("lat", "north"), ("start_s", None)]:
            broken = dict(good)
            broken[key] = value
            with pytest.raises(ProtocolError):
                report_from_wire(broken)

    def test_missing_key_raises_protocol_error(self):
        good = report_to_wire(self.make_report())
        del good["client_id"]
        with pytest.raises(ProtocolError):
            report_from_wire(good)

    @pytest.mark.parametrize("field", [
        "value", "start_s", "end_s", "lat", "lon", "speed_ms", "sample",
        "extra",
    ])
    def test_integer_too_large_for_a_double_is_protocol_error(self, field):
        # Valid JSON, but float() of it raises OverflowError.
        huge = 10 ** 400
        wire = json.loads(json.dumps(report_to_wire(self.make_report())))
        if field == "sample":
            wire["samples"][1] = huge
        elif field == "extra":
            wire["extras"]["loss"] = huge
        else:
            wire[field] = huge
        with pytest.raises(ProtocolError, match="malformed REPORT"):
            report_from_wire(wire)

    @pytest.mark.parametrize("task_id", [10 ** 30, -2 ** 63 - 1])
    def test_task_id_outside_int64_is_protocol_error(self, task_id):
        # The store keeps task_id in an SQLite INTEGER (int64).
        wire = report_to_wire(self.make_report(task_id=task_id))
        with pytest.raises(ProtocolError, match="malformed REPORT"):
            report_from_wire(wire)

    @pytest.mark.parametrize("task_id", [2 ** 63 - 1, -2 ** 63])
    def test_task_id_at_the_int64_bounds_is_accepted(self, task_id):
        wire = report_to_wire(self.make_report(task_id=task_id))
        assert report_from_wire(wire).task_id == task_id

    def test_integer_too_large_in_a_task_is_protocol_error(self):
        wire = task_to_wire(MeasurementTask(
            task_id=1, network=NetworkId.NET_A, kind=MeasurementType.PING,
        ))
        wire["deadline_s"] = 10 ** 400
        with pytest.raises(ProtocolError, match="malformed TASK"):
            task_from_wire(wire)

    def test_samples_decode_as_packed_doubles(self):
        wire = report_to_wire(self.make_report())
        assert type(wire["samples"]) is list
        samples = report_from_wire(wire).samples
        assert type(samples) is array and samples.typecode == "d"
        assert list(samples) == wire["samples"]

    @pytest.mark.parametrize("samples,expected", [
        ([1, True, 0.5], [1.0, 1.0, 0.5]),
        (["0.25", "nan", 2], [0.25, None, 2.0]),
        ("12", [1.0, 2.0]),
        ([], []),
        (None, []),
    ])
    def test_sample_inputs_accepted_as_float_accepts_them(self, samples,
                                                          expected):
        wire = report_to_wire(self.make_report())
        wire["samples"] = samples
        got = list(report_from_wire(wire).samples)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert math.isnan(g) if e is None else g == e

    @pytest.mark.parametrize("samples", [
        ["north"], [None], [[1.0]], 5, 2.5,
    ])
    def test_sample_inputs_float_refuses_are_protocol_errors(self, samples):
        wire = report_to_wire(self.make_report())
        wire["samples"] = samples
        with pytest.raises(ProtocolError):
            report_from_wire(wire)
