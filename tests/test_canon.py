"""One home for the canonical JSON spellings (``repro._canon``).

The byte-identity contracts compare JSON bytes written by many modules.
The contract test feeds one set of awkward values through every
compact writer and requires its bytes to be the codec home's; the
source scan keeps any other module from growing its own sorted-key
encoder.
"""

import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro._canon import compact_json, pretty_json
from repro.obs.events import EventLog
from repro.obs.snapshots import SnapshotStreamer
from repro.obs.telemetry import Telemetry
from repro.serve.loadgen import synthetic_report
from repro.serve.shardmap import ShardInfo, ShardMap
from repro.serve.wal import WAL_META_FILENAME, WriteAheadLog
from repro.serve.wire import (
    CODEC_BINARY, CODEC_JSON, LENGTH_PREFIX, encode_frame, report_from_wire,
)
from repro.store import connect, create_run, ingest_reports

from tests.store.helpers import default_grid

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
HOME = SRC / "_canon.py"

INT64_MAX = 2 ** 63 - 1
INT64_MIN = -(2 ** 63)

#: Floats whose text is easy to get wrong, and keys that need escaping.
AWKWARD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "neg_zero": -0.0,
    "subnormal": 5e-324,
    "int64_max": INT64_MAX,
    "int64_min": INT64_MIN,
    "zöne": "Straße",
    "区域": {"nested": {"b": [1.5, -0.0, {"z": 1, "a": 2}], "a": None}},
}


def test_home_spells_awkward_values_as_json_dumps_does():
    text = compact_json(AWKWARD)
    assert text == json.dumps(AWKWARD, sort_keys=True, separators=(",", ":"))
    assert pretty_json(AWKWARD) == json.dumps(AWKWARD, indent=2,
                                              sort_keys=True)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text
    assert "5e-324" in text and str(INT64_MIN) in text
    assert "\\u00f6" in text  # ASCII-escaped, as json.dumps does
    assert text.index('"inf"') < text.index('"nan"')  # sorted keys
    assert pretty_json(AWKWARD).startswith('{\n  "-inf": -Infinity,')


class TestEveryCompactWriterSpellsTheHome:
    def test_wire_json_frame(self):
        message = {"type": "STATS", **AWKWARD}
        frame = encode_frame(message, codec=CODEC_JSON)
        assert frame[LENGTH_PREFIX.size:] == compact_json(message).encode()

    def test_binary_json_tag(self):
        message = {"type": "STATS", **AWKWARD}
        payload = encode_frame(message, codec=CODEC_BINARY)[
            LENGTH_PREFIX.size:]
        assert payload[1:] == compact_json(message).encode()

    def test_wal_payload(self, tmp_path):
        line = WriteAheadLog.encode_record(AWKWARD)
        assert line[9:] == compact_json(AWKWARD).encode() + b"\n"
        with WriteAheadLog(str(tmp_path / "wal")) as wal:
            wal.write_meta(AWKWARD)
        meta = (tmp_path / "wal" / WAL_META_FILENAME).read_text()
        assert meta == pretty_json(AWKWARD) + "\n"

    def test_event_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path))
        log.emit("probe", 1.5, **AWKWARD)
        log.close()
        record = {"v": 1, "seq": 0, "t": 1.5, "kind": "probe", **AWKWARD}
        assert path.read_text() == compact_json(record) + "\n"

    def test_snapshot_line(self, tmp_path):
        tel = Telemetry()
        for name, value in AWKWARD.items():
            if isinstance(value, float):
                tel.gauge(name).set(value)
        tel.gauge("zöne.区域").set(-0.0)
        tel.counter("int64_max").inc(INT64_MAX)
        path = tmp_path / "snapshots.jsonl"
        with SnapshotStreamer(tel, 60.0, out_path=str(path)) as streamer:
            snap = streamer.capture(60.0)
        assert path.read_text() == compact_json(snap) + "\n"

    def test_store_extras_column(self, tmp_path):
        report = report_from_wire(synthetic_report(0, 0))
        report.extras.update(AWKWARD)
        conn = connect(str(tmp_path / "s.sqlite"))
        try:
            ingest_reports(conn, create_run(conn, "r", "wal"), [report],
                           default_grid())
            (extras,) = conn.execute(
                "SELECT extras_json FROM samples").fetchone()
        finally:
            conn.close()
        assert extras == compact_json(report.extras)

    def test_shard_map_hash_input(self):
        shards = [ShardInfo("shärd-1", "hôst", INT64_MAX),
                  ShardInfo("shard-0", "127.0.0.1", 0)]
        smap = ShardMap(shards, -0.0, 5e-324, radius_m=1e300)
        canonical = compact_json({
            "shards": [["shard-0", "127.0.0.1", 0],
                       ["shärd-1", "hôst", INT64_MAX]],
            "grid": [-0.0, 5e-324, 1e300],
        })
        assert smap.version == hashlib.sha256(
            canonical.encode()).hexdigest()[:12]


def _sorted_key_encoders(path):
    """Line numbers of ``dump(s)``/``JSONEncoder`` calls that sort keys."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name not in ("dump", "dumps", "JSONEncoder"):
            continue
        for kw in node.keywords:
            sorts = kw.arg == "sort_keys" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False)
            if sorts or kw.arg is None:  # a **kwargs may carry sort_keys
                lines.append(node.lineno)
    return lines


def test_only_the_codec_home_builds_sorted_key_encoders():
    assert len(_sorted_key_encoders(HOME)) == 2  # compact and pretty
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py")) if path != HOME
        for found in [_sorted_key_encoders(path)] if found
    }
    assert offenders == {}


@pytest.mark.parametrize("source, found", [
    ("json.dumps(x, sort_keys=True)", [1]),
    ("json.JSONEncoder(sort_keys=flag).encode", [1]),
    ("json.dump(x, fh, indent=2, sort_keys=True)", [1]),
    ("dumps(x, **options)", [1]),
    ("json.dumps(x, sort_keys=False)", []),
    ("json.dumps(x)", []),
])
def test_scan_catches_each_spelling(tmp_path, source, found):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert _sorted_key_encoders(path) == found
