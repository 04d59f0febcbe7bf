"""CLI surface tests for ``repro store`` and the store-aware commands."""

import json
import sqlite3

import pytest

from repro.cli import main

from tests.store.helpers import make_report, write_telemetry_dir, write_wal


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def wal_dir(tmp_path):
    reports = [make_report(i) for i in range(25)]
    reports.append(make_report(90, speed_ms=500.0))
    return write_wal(tmp_path / "wal", reports)


@pytest.fixture
def tel_dir(tmp_path):
    return write_telemetry_dir(tmp_path / "tel")


class TestStoreLifecycle:
    def test_init_import_query_report_compact(self, capsys, tmp_path,
                                              wal_dir):
        db = str(tmp_path / "db.sqlite")
        rc, out, _ = run_cli(capsys, "store", "init", db)
        assert rc == 0 and "schema v4" in out

        rc, out, _ = run_cli(capsys, "store", "import", db, wal_dir)
        assert rc == 0
        assert "imported wal" in out and "as run 'wal'" in out
        assert "25 accepted, 1 rejected" in out

        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "runs", "--format", "json")
        assert rc == 0
        runs = json.loads(out)
        assert [r["label"] for r in runs] == ["wal"]
        assert runs[0]["kind"] == "wal"

        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "coverage", "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert rows and all(r["n_samples"] >= 1 for r in rows)

        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "slo", "--floor", "1", "--format", "json")
        assert rc == 0
        assert json.loads(out)["covered_fraction"] == 1.0

        rc, out, _ = run_cli(capsys, "store", "compact", db)
        assert rc == 0 and "integrity: ok" in out

    def test_import_twice_needs_replace(self, capsys, tmp_path, wal_dir):
        db = str(tmp_path / "db.sqlite")
        assert run_cli(capsys, "store", "import", db, wal_dir)[0] == 0
        rc, _, err = run_cli(capsys, "store", "import", db, wal_dir)
        assert rc == 2 and "already exists" in err
        rc, _, _ = run_cli(capsys, "store", "import", db, wal_dir,
                           "--replace")
        assert rc == 0

    def test_query_text_format_is_line_oriented(self, capsys, tmp_path,
                                                wal_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, wal_dir)
        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "runs")
        assert rc == 0
        assert json.loads(out.splitlines()[0])["label"] == "wal"
        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "stats")
        assert rc == 0 and any(
            line.startswith("samples: ") for line in out.splitlines())

    def test_query_compare(self, capsys, tmp_path, tel_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "a")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "b")
        rc, _, err = run_cli(capsys, "store", "query", db, "--what",
                             "compare")
        assert rc == 2 and "--run-a and --run-b" in err
        rc, out, _ = run_cli(capsys, "store", "query", db, "--what",
                             "compare", "--run-a", "a", "--run-b", "b",
                             "--format", "json")
        assert rc == 0
        diff = json.loads(out)
        assert diff["run_a"] == "a" and diff["counters"] == {}


class TestStoreErrors:
    def test_query_missing_store(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "store", "query",
                             str(tmp_path / "nope.sqlite"),
                             "--what", "runs")
        assert rc == 2 and "no such store" in err

    def test_compact_missing_store(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "store", "compact",
                             str(tmp_path / "nope.sqlite"))
        assert rc == 2 and "no such store" in err

    def test_query_newer_schema_is_a_one_line_error(self, capsys,
                                                    tmp_path):
        db = str(tmp_path / "db.sqlite")
        assert run_cli(capsys, "store", "init", db)[0] == 0
        raw = sqlite3.connect(db)
        with raw:
            raw.execute("INSERT INTO schema_migrations (version, description)"
                        " VALUES (99, 'written by newer code')")
        raw.close()
        rc, out, err = run_cli(capsys, "store", "query", db, "--what", "runs")
        assert rc == 2 and out == ""
        assert err == (f"{db}: database is at schema v99, newer than this "
                       f"code's v4; refusing to downgrade (upgrade the code "
                       f"instead)\n")

    def test_import_unimportable_dir(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc, _, err = run_cli(capsys, "store", "import",
                             str(tmp_path / "db.sqlite"), str(empty))
        assert rc == 2 and "nothing importable" in err


class TestServeReplayStore:
    def test_store_replay_matches_plain_replay(self, capsys, tmp_path,
                                               wal_dir):
        db = str(tmp_path / "db.sqlite")
        rc, plain, _ = run_cli(capsys, "serve", "replay", "--wal",
                               wal_dir, "--format", "json")
        assert rc == 0
        rc, stored, _ = run_cli(capsys, "serve", "replay", "--wal",
                                wal_dir, "--store", db, "--format",
                                "json")
        assert rc == 0
        assert stored == plain  # contract 1, through the real CLI

    def test_store_replay_text_and_replace(self, capsys, tmp_path,
                                           wal_dir):
        db = str(tmp_path / "db.sqlite")
        rc, out, _ = run_cli(capsys, "serve", "replay", "--wal", wal_dir,
                             "--store", db)
        assert rc == 0 and "25 ingested, 1 rejected" in out
        rc, _, err = run_cli(capsys, "serve", "replay", "--wal", wal_dir,
                             "--store", db)
        assert rc == 2 and "already exists" in err
        rc, _, _ = run_cli(capsys, "serve", "replay", "--wal", wal_dir,
                           "--store", db, "--replace")
        assert rc == 0

    def test_store_and_cluster_exclusive(self, capsys, tmp_path, wal_dir):
        rc, _, err = run_cli(capsys, "serve", "replay", "--wal", wal_dir,
                             "--store", str(tmp_path / "db.sqlite"),
                             "--cluster")
        assert rc == 2 and "mutually exclusive" in err


class TestServeReplayCorruptWal:
    """A WAL damaged mid-segment exits 1 under every replay form."""

    @pytest.fixture
    def corrupt_wal(self, wal_dir):
        from repro.serve.wal import wal_segments

        (segment,) = wal_segments(wal_dir)
        with open(segment, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[2] = b"00000000 garbage"
        with open(segment, "wb") as fh:
            fh.write(b"\n".join(lines))
        return wal_dir

    @pytest.mark.parametrize("form", ["plain", "cluster", "store"])
    def test_exits_1_with_corrupt_message(self, capsys, tmp_path,
                                          corrupt_wal, form):
        argv = ["serve", "replay", "--wal", corrupt_wal]
        if form == "cluster":
            cluster_dir = tmp_path / "cluster"
            cluster_dir.mkdir()
            (cluster_dir / "cluster.json").write_text(json.dumps(
                {"shards": [{"shard_id": "shard-0", "wal": corrupt_wal}]}))
            argv = ["serve", "replay", "--wal", str(cluster_dir),
                    "--cluster"]
        elif form == "store":
            argv += ["--store", str(tmp_path / "db.sqlite")]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert err.startswith("WAL is corrupt: ")
        assert out == ""


class TestUnparseableWalRecord:
    """A WAL record the wire parser refuses (a ``task_id`` outside
    int64, as older code could log) is a one-line error, not a
    traceback."""

    @pytest.fixture
    def bad_wal(self, tmp_path):
        from repro.serve.wal import WriteAheadLog
        from repro.serve.wire import report_to_wire

        wal_dir = write_wal(tmp_path / "wal", [make_report(0)])
        bad = report_to_wire(make_report(1))
        bad["task_id"] = 10 ** 30
        with WriteAheadLog(wal_dir) as wal:
            wal.append(bad)
        return wal_dir

    @pytest.mark.parametrize("command", ["replay", "import"])
    def test_exits_1_naming_the_record(self, capsys, tmp_path, bad_wal,
                                       command):
        db = str(tmp_path / "db.sqlite")
        argv = (["serve", "replay", "--wal", bad_wal] if command == "replay"
                else ["store", "import", db, bad_wal])
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert err.startswith("WAL is corrupt: record at WAL seq 1: ")
        assert "outside int64" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""


class TestObsOnStores:
    def test_obs_report_json_from_store_matches_dir(self, capsys,
                                                    tmp_path, tel_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "t")
        rc, from_dir, _ = run_cli(capsys, "obs", "report", tel_dir,
                                  "--format", "json")
        assert rc == 0
        rc, from_store, _ = run_cli(capsys, "obs", "report", db,
                                    "--run", "t", "--format", "json")
        assert rc == 0
        assert from_store == from_dir  # contract 2, through the real CLI

    def test_obs_report_run_flag_needs_store(self, capsys, tel_dir):
        rc, _, err = run_cli(capsys, "obs", "report", tel_dir,
                             "--run", "t")
        assert rc == 2 and "--run applies only to store" in err

    def test_obs_diff_store_vs_dir(self, capsys, tmp_path, tel_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "t")
        rc, out, _ = run_cli(capsys, "obs", "diff", tel_dir, db,
                             "--run-b", "t")
        assert rc == 0
        assert "no differences in final counters/gauges" in out

    def test_obs_diff_rejects_bad_path(self, capsys, tmp_path, tel_dir):
        rc, _, err = run_cli(capsys, "obs", "diff", tel_dir,
                             str(tmp_path / "absent"))
        assert rc == 2


class TestStoreReportCommand:
    def test_text_report_names_the_run(self, capsys, tmp_path, tel_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "t")
        rc, out, _ = run_cli(capsys, "store", "report", db, "--run", "t")
        assert rc == 0
        assert "run=t" in out and "coordinator.ticks" in out

    def test_ambiguous_run_is_an_error(self, capsys, tmp_path, tel_dir):
        db = str(tmp_path / "db.sqlite")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "a")
        run_cli(capsys, "store", "import", db, tel_dir, "--label", "b")
        rc, _, err = run_cli(capsys, "store", "report", db)
        assert rc == 2 and "several runs" in err
