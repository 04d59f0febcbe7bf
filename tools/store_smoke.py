"""CI smoke test for the measurement store's byte-identity contracts.

Exercises the store against real artifacts produced by real processes,
end to end through the CLI::

    serve run + loadgen -> WAL -> serve replay --store  (contract 1)
    monitor --telemetry -> store import -> obs report   (contract 2)
    store compact -> re-verify both                     (durability)

and asserts the two promises the store subsystem makes:

* **replay identity** — ``repro serve replay --store`` (ingest the WAL,
  answer from the rollup tables) prints a JSON snapshot byte-identical
  to the in-memory metrics-registry replay of the same WAL.  It is
  checked once per session codec: a json session (one report a
  REPORT_BATCH) and a binary one (struct-packed 10-report
  REPORT_BATCHes) decode samples on different paths before the WAL
  logs them;
* **report identity** — ``repro obs report --format json`` pointed at
  the store prints bytes identical to the same command pointed at the
  telemetry directory the run was imported from — and still does after
  ``repro store compact`` has pruned, ANALYZEd, and VACUUMed the file.

Run from the repo root::

    PYTHONPATH=src python tools/store_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

CLIENTS = 20
REPORTS_PER_CLIENT = 10
START_TIMEOUT_S = 30.0
#: Each codec's loadgen shape: json sends one report a frame, binary
#: packs ten.
CODECS = (("json", 1), ("binary", 10))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def run_cli(*argv: str) -> str:
    """Run one ``repro`` subcommand; return stdout (check=True)."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, check=True,
    )
    return out.stdout


def build_wal(tmp: str, codec: str, batch_size: int) -> str:
    """A short real serve session: server + loadgen, clean SIGINT stop."""
    wal_dir = os.path.join(tmp, f"wal-{codec}")
    port_file = os.path.join(tmp, f"port-{codec}")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run",
         "--port", "0", "--wal", wal_dir, "--port-file", port_file],
        env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + START_TIMEOUT_S
        port = None
        while time.monotonic() < deadline:
            if os.path.exists(port_file):
                text = Path(port_file).read_text().strip()
                if text:
                    port = int(text)
                    break
            if proc.poll() is not None:
                out = proc.stdout.read() if proc.stdout else ""
                raise RuntimeError(f"server exited during startup:\n{out}")
            time.sleep(0.05)
        if port is None:
            raise RuntimeError("server did not write its port file in time")
        run_cli("serve", "loadgen", "--port", str(port),
                "--clients", str(CLIENTS),
                "--reports-per-client", str(REPORTS_PER_CLIENT),
                "--concurrency", "8", "--codec", codec,
                "--batch-size", str(batch_size))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30.0)
    return wal_dir


def check_replay(wal_dir: str, store: str, run: str, failures,
                 replace: bool = False) -> str:
    """Contract 1 for one WAL; returns the in-memory replay snapshot."""
    plain = run_cli("serve", "replay", "--wal", wal_dir, "--format", "json")
    stored = run_cli("serve", "replay", "--wal", wal_dir, "--store", store,
                     "--run", run, *(["--replace"] if replace else []),
                     "--format", "json")
    if plain != stored:
        failures.append(f"{run}: store replay snapshot differs from the "
                        "in-memory WAL replay")
    return plain


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.sqlite")

        wals = {}
        for codec, batch_size in CODECS:
            print(f"serve session ({codec}, batch {batch_size}): "
                  f"{CLIENTS}x{REPORTS_PER_CLIENT} reports into a WAL ...")
            wals[codec] = build_wal(tmp, codec, batch_size)

        for codec, wal_dir in wals.items():
            print(f"contract 1 ({codec}): replay --store vs in-memory "
                  "replay ...")
            before = len(failures)
            plain = check_replay(wal_dir, store, f"wal-{codec}", failures)
            if len(failures) == before:
                counters = json.loads(plain)["counters"]
                print(f"  byte-identical "
                      f"({counters['coordinator.reports_ingested']:.0f} "
                      "reports)")

        print("monitor run with telemetry artifacts ...")
        live_dir = os.path.join(tmp, "live")
        run_cli("monitor", "--buses", "2", "--hours", "1",
                "--epoch-mins", "10", "--telemetry", live_dir,
                "--snapshot-every", "600")

        print("contract 2: obs report from store vs telemetry dir ...")
        run_cli("store", "import", store, live_dir, "--label", "live")
        from_dir = run_cli("obs", "report", live_dir, "--format", "json")
        from_store = run_cli("obs", "report", store, "--run", "live",
                             "--format", "json")
        if from_dir != from_store:
            failures.append("store-backed obs report differs from the "
                            "telemetry-dir report")
        else:
            print("  byte-identical")

        print("compacting the store ...")
        print(run_cli("store", "compact", store).strip())

        print("re-verifying both contracts after compaction ...")
        before = len(failures)
        for codec, wal_dir in wals.items():
            check_replay(wal_dir, store, f"wal-{codec}", failures,
                         replace=True)
        from_store2 = run_cli("obs", "report", store, "--run", "live",
                              "--format", "json")
        if from_dir != from_store2:
            failures.append("report identity broke after compaction")
        if len(failures) == before:
            print("  both contracts still hold")

        stats = run_cli("store", "query", store, "--what", "stats",
                        "--format", "json")
        print(f"store stats: {stats.strip()}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("store smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
