"""Tests for the structured JSONL event log."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    NULL_EVENT_LOG,
    SCHEMA_VERSION,
    EventLog,
    read_events,
    read_jsonl_tolerant,
)


class TestEmit:
    def test_record_shape_and_sequence(self):
        log = EventLog()
        log.emit("epoch.close", 120.0, zone=[1, 2], n=5)
        log.emit("task.issue", 180.0, client="bus-0")
        records = log.events()
        assert records[0]["v"] == SCHEMA_VERSION
        assert records[0]["seq"] == 0 and records[1]["seq"] == 1
        assert records[0]["t"] == 120.0
        assert records[0]["zone"] == [1, 2]
        assert len(log) == 2

    def test_filter_by_kind_and_counts(self):
        log = EventLog()
        log.emit("a", 1.0)
        log.emit("b", 2.0)
        log.emit("a", 3.0)
        assert len(log.events("a")) == 2
        assert log.counts_by_kind() == {"a": 2, "b": 1}

    def test_capacity_drops_oldest(self):
        log = EventLog(capacity=2)
        for k in range(4):
            log.emit("e", float(k))
        assert len(log) == 2
        assert log.dropped == 2
        assert [e["t"] for e in log.events()] == [2.0, 3.0]


class TestSerialization:
    def test_jsonl_is_canonical(self):
        log = EventLog()
        log.emit("z.kind", 5.0, b=1, a=2)
        line = log.to_jsonl().strip()
        # keys sorted, compact separators: byte-stable representation
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert line.index('"a"') < line.index('"b"')

    def test_write_and_read_roundtrip(self, tmp_path):
        log = EventLog()
        log.emit("x", 1.0, v2=True)
        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        back = read_events(str(path))
        assert back == log.events()

    def test_read_from_iterable(self):
        lines = ['{"kind":"a","t":1.0}', "", '{"kind":"b","t":2.0}']
        assert [e["kind"] for e in read_events(lines)] == ["a", "b"]

    def test_streamed_write_matches_to_jsonl(self, tmp_path):
        log = EventLog()
        for k in range(50):
            log.emit("k%d" % (k % 3), float(k), note="naïve", n=k)
        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        assert path.read_bytes() == log.to_jsonl().encode("utf-8")

    def test_strict_reader_raises_on_a_bad_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"a"}\n{"kind":\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(str(path))


def _split_reader(data: bytes):
    """The whole-buffer tolerant reader, kept as the reference.

    This is how ``read_jsonl_tolerant`` read a file before it streamed:
    one ``read()``, then ``split(b"\n")``.
    """
    records, bad = [], 0
    for raw in data.split(b"\n"):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            bad += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            bad += 1
    return records, bad


_DICT_LINES = st.dictionaries(
    st.sampled_from(["kind", "t", "note", "seq"]),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
              st.none()),
    max_size=4,
).map(lambda d: json.dumps(d, ensure_ascii=False).encode("utf-8"))
_NON_DICT_LINES = st.sampled_from(
    [b"[1, 2]", b"3", b'"text"', b"null", b"true", b"-0.5"])
_GARBAGE_LINES = st.one_of(
    st.binary(max_size=12).filter(lambda b: b"\n" not in b),
    st.sampled_from([b"{", b'{"kind":', b"\xff\xfe", b"\xef\xbb\xbf{}",
                     b'{"note":"\xc3"}', b"\x0b{}", b"{}\x0c", b"NaN",
                     b"\x1c", b"\xc2\x85"]),
)
_BLANK_LINES = st.sampled_from([b"", b" ", b"\t", b"  \t ", b"\r", b"\x0b"])


@st.composite
def _jsonl_bytes(draw):
    """A JSONL file mixing good, non-object, garbage and blank lines."""
    lines = draw(st.lists(
        st.one_of(_DICT_LINES, _NON_DICT_LINES, _GARBAGE_LINES, _BLANK_LINES),
        max_size=12,
    ))
    ends = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    data = b"".join(line + end for line, end in zip(lines, ends))
    tail = draw(st.sampled_from(["none", "unterminated", "torn-utf8"]))
    if tail == "unterminated":
        data += draw(_DICT_LINES)
    elif tail == "torn-utf8":
        line = json.dumps({"kind": "x", "note": "naïve €"},
                          ensure_ascii=False).encode("utf-8")
        cut = line.index("€".encode("utf-8")) + draw(st.integers(1, 2))
        data += line[:cut]
    return data


class TestTolerantReader:
    """The streamed reader returns exactly what the split-based one did."""

    @settings(max_examples=300, deadline=None)
    @given(data=_jsonl_bytes())
    def test_matches_split_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("jsonl") / "events.jsonl"
        path.write_bytes(data)
        assert read_jsonl_tolerant(path) == _split_reader(data)

    def test_counts_a_line_cut_inside_a_utf8_sequence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"kind":"a"}\r\n\n[1]\n{"note":"\xe2\x82')
        assert read_jsonl_tolerant(path) == ([{"kind": "a"}], 2)


_FIELD_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False),
                       st.text(max_size=4)), max_size=3),
)
_EMITS = st.lists(
    st.tuples(
        st.sampled_from(["epoch.close", "task.issue", "alert.fired", "ü.k"]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.dictionaries(st.sampled_from(["zone", "note", "n", "a", "value"]),
                        _FIELD_VALUES, max_size=4),
    ),
    max_size=30,
)


class TestStreamedLog:
    """``EventLog(path=...)`` writes what the in-memory log would."""

    @settings(max_examples=200, deadline=None)
    @given(emits=_EMITS)
    def test_file_bytes_match_in_memory_jsonl(self, tmp_path_factory, emits):
        path = tmp_path_factory.mktemp("stream") / "events.jsonl"
        memory, streamed = EventLog(), EventLog(path=path)
        for kind, t, fields in emits:
            memory.emit(kind, t, **fields)
            streamed.emit(kind, t, **fields)
        streamed.close()
        assert path.read_bytes() == memory.to_jsonl().encode("utf-8")
        assert len(streamed) == 0 and streamed.events() == []

    def test_file_only_ever_holds_whole_lines(self, tmp_path):
        """Each event is one ``write()``: a reader never sees half a line."""
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        with open(path, "rb") as reader:
            for k in range(3000):
                log.emit("task.issue", float(k), note="x" * (k % 97))
                size = os.fstat(reader.fileno()).st_size
                if size:
                    assert os.pread(reader.fileno(), 1, size - 1) == b"\n"
            log.flush()
            assert len(reader.read().splitlines()) == 3000
        log.close()

    def test_write_jsonl_closes_or_copies(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        log.emit("a", 1.0)
        log.write_jsonl(path)
        with pytest.raises(ValueError):
            log.emit("b", 2.0)  # the stream is closed
        log.write_jsonl(tmp_path / "copy.jsonl")
        assert (tmp_path / "copy.jsonl").read_bytes() == path.read_bytes()
        log.close()  # idempotent


class TestNullEventLog:
    def test_records_nothing(self):
        NULL_EVENT_LOG.emit("x", 1.0, field=3)
        assert len(NULL_EVENT_LOG) == 0
        assert NULL_EVENT_LOG.events() == []
        assert NULL_EVENT_LOG.to_jsonl() == ""
