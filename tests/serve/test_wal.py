"""Tests for the coordinator service's write-ahead log (repro.serve.wal)."""

import json
import os
import zlib

import pytest

from repro.serve.wal import (
    WalCorruptionError,
    WriteAheadLog,
    iter_wal_records,
    read_wal,
    wal_segments,
)


def records(n, start=0):
    return [{"task_id": i, "value": float(i) * 1.5} for i in
            range(start, start + n)]


class TestAppendAndReplay:
    def test_round_trip_in_order(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            seqs = [wal.append(r) for r in records(10)]
        assert seqs == list(range(10))
        assert list(iter_wal_records(wal_dir)) == records(10)

    def test_record_line_format(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"a": 1})
        (segment,) = wal_segments(wal_dir)
        line = open(segment, "rb").read().rstrip(b"\n")
        crc_hex, payload = line[:8], line[9:]
        assert int(crc_hex, 16) == zlib.crc32(payload) & 0xFFFFFFFF
        assert json.loads(payload) == {"a": 1}

    def test_reopen_continues_sequence(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            for r in records(5):
                wal.append(r)
        with WriteAheadLog(wal_dir) as wal:
            assert wal.records_logged == 5
            assert wal.append({"task_id": 5}) == 5
        assert len(list(iter_wal_records(wal_dir))) == 6

    def test_reopen_starts_fresh_segment(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"a": 1})
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"b": 2})
        assert len(wal_segments(wal_dir)) == 2

    def test_empty_dir(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        assert list(iter_wal_records(wal_dir)) == []
        assert wal_segments(wal_dir) == []


class TestRotationAndFsync:
    def test_rotates_at_segment_max_bytes(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, segment_max_bytes=200) as wal:
            for r in records(20):
                wal.append(r)
        assert wal.segments_rotated >= 2
        assert len(wal_segments(wal_dir)) == wal.segments_rotated + 1
        # Rotation never splits or drops a record.
        assert list(iter_wal_records(wal_dir)) == records(20)

    def test_fsync_batching(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=4) as wal:
            for r in records(10):
                wal.append(r)
            assert wal.fsyncs == 2  # after records 4 and 8
        assert wal.fsyncs == 3  # close() syncs the pending tail

    def test_invalid_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "a"), segment_max_bytes=0)
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "b"), fsync_every=0)
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "c"), fsync_interval_s=-1.0)


class TestGroupCommit:
    def test_append_many_returns_contiguous_seqs(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            seqs = wal.append_many(records(8))
            more = wal.append_many(records(3, start=8))
        assert seqs == list(range(8))
        assert more == [8, 9, 10]
        assert list(iter_wal_records(wal_dir)) == records(11)

    def test_append_many_is_one_group_commit(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"),
                           fsync_every=100) as wal:
            wal.append_many(records(50))
            assert wal.group_commits == 1
            assert wal.fsyncs == 0  # below the count threshold
            wal.append_many(records(60, start=50))
            assert wal.group_commits == 2
            assert wal.fsyncs == 1  # 110 pending >= 100 tripped once

    def test_append_many_empty_is_noop(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal")) as wal:
            assert wal.append_many([]) == []
            assert wal.group_commits == 0

    def test_time_axis_fsync(self, tmp_path):
        import time as time_mod

        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=10_000,
                           fsync_interval_s=0.01) as wal:
            wal.append(records(1)[0])
            assert wal.fsyncs == 0
            time_mod.sleep(0.02)
            #: Next append finds the oldest pending record past the
            #: window and forces the fsync the count axis never would.
            wal.append(records(1, start=1)[0])
            assert wal.fsyncs == 1

    def test_commit_policy_property(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "wal"), fsync_every=7,
                           fsync_interval_s=0.5,
                           segment_max_bytes=1234) as wal:
            assert wal.commit_policy == {
                "fsync_every": 7,
                "fsync_interval_s": 0.5,
                "segment_max_bytes": 1234,
            }

    def test_rotation_mid_batch_stream_keeps_every_record(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, segment_max_bytes=150) as wal:
            for lo in range(0, 30, 5):
                wal.append_many(records(5, start=lo))
        assert wal.segments_rotated >= 2
        assert list(iter_wal_records(wal_dir)) == records(30)

    def test_torn_batched_write_repairs_like_single_appends(self, tmp_path):
        """A torn append_many tail is the same legal shape (prefix of
        complete records + one partial line) the repair already fixes."""
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append_many(records(6))
        seg = wal_segments(wal_dir)[-1]
        with open(seg, "rb") as fh:
            data = fh.read()
        with open(seg, "wb") as fh:
            fh.write(data[:-9])  # tear into the final record
        assert list(iter_wal_records(wal_dir)) == records(5)
        with WriteAheadLog(wal_dir) as wal:
            wal.append_many(records(2, start=6))
        assert list(iter_wal_records(wal_dir)) == records(5) + \
            records(2, start=6)


class TestCrashDamage:
    def fill(self, tmp_path, n=6, **kwargs):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir, **kwargs) as wal:
            for r in records(n):
                wal.append(r)
        return wal_dir

    def test_torn_tail_in_final_segment_is_tolerated(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        with open(segment, "ab") as fh:
            fh.write(b"deadbeef {\"torn\":")  # crash mid-write, no newline
        assert list(iter_wal_records(wal_dir)) == records(6)

    def test_crc_mismatch_on_final_line_is_tolerated(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        with open(segment, "ab") as fh:
            fh.write(b"00000000 " + b'{"torn": true}' + b"\n")
        assert list(iter_wal_records(wal_dir)) == records(6)

    def test_mid_segment_corruption_raises(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        data = open(segment, "rb").read()
        lines = data.split(b"\n")
        lines[2] = b"00000000 garbage"
        with open(segment, "wb") as fh:
            fh.write(b"\n".join(lines))
        with pytest.raises(WalCorruptionError):
            list(iter_wal_records(wal_dir))

    def test_torn_non_final_segment_raises(self, tmp_path):
        wal_dir = self.fill(tmp_path, n=20, segment_max_bytes=200)
        first = wal_segments(wal_dir)[0]
        with open(first, "ab") as fh:
            fh.write(b"deadbeef partial")
        with pytest.raises(WalCorruptionError):
            list(iter_wal_records(wal_dir))

    def test_reopen_repairs_torn_tail(self, tmp_path):
        wal_dir = self.fill(tmp_path)
        (segment,) = wal_segments(wal_dir)
        size_before = os.path.getsize(segment)
        with open(segment, "ab") as fh:
            fh.write(b"deadbeef {\"torn\":")
        with WriteAheadLog(wal_dir) as wal:
            assert wal.records_logged == 6
            wal.append({"task_id": 6})
        # The torn bytes were truncated away, not left for replay.
        assert os.path.getsize(segment) == size_before
        assert len(list(iter_wal_records(wal_dir))) == 7


class TestMeta:
    def test_meta_round_trip(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.write_meta({"seed": 7, "gen_seed": 1, "radius_m": 250.0})
            wal.append({"a": 1})
        recs, meta = read_wal(wal_dir)
        assert recs == [{"a": 1}]
        assert meta == {"seed": 7, "gen_seed": 1, "radius_m": 250.0}

    def test_meta_absent(self, tmp_path):
        assert WriteAheadLog.read_meta(str(tmp_path)) is None


class TestUnparseableRecord:
    """A well-formed record the wire parser refuses stops replay loudly."""

    @pytest.fixture
    def wal_dir(self, tmp_path):
        from repro.serve.loadgen import synthetic_report

        bad = synthetic_report(0, 1)
        bad["task_id"] = 10 ** 30  # outside int64
        wal_dir = str(tmp_path / "wal")
        with WriteAheadLog(wal_dir) as wal:
            wal.append_many([synthetic_report(0, 0), bad])
        return wal_dir

    def test_iter_wal_reports_names_the_wal_seq(self, wal_dir):
        from repro.serve.wal import iter_wal_reports

        reports = iter_wal_reports(wal_dir)
        assert next(reports).task_id == 1
        with pytest.raises(WalCorruptionError,
                           match=r"WAL seq 1: .*outside int64"):
            next(reports)

    def test_server_recovery_raises_before_binding(self, wal_dir):
        import asyncio

        from repro.serve.server import CoordinatorServer, ServeConfig

        server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
        with pytest.raises(WalCorruptionError, match="WAL seq 1"):
            asyncio.run(server.start())
        assert server.port == 0
