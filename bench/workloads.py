"""The four workloads, each run in a fresh child process.

    python -m bench.workloads --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed pass of work repeated until ``--seconds`` is spent
(at least two passes, four when traced).  Every pass does its own set-up
(server spawn, store preload, or ``repro monitor`` up to the event loop),
so ``setup_s`` is a median over several set-ups too.  With ``--trace 1``
the passes alternate untraced and traced: per-layer numbers come from the
traced passes, and the untraced ones give the wall-clock metrics and the
tracing overhead.  End-to-end numbers always come from untraced passes.

The result, one JSON object, is the last line of standard output and is
also written under ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench import OUT
from bench import trace as tracing
from bench.stats import percentile

HOST = "127.0.0.1"
#: Concurrent sessions of the ingest load generator (the host has 2 CPUs:
#: one for the server, one for the generator).
SESSIONS = 2
#: Client indices fed to ``synthetic_report`` start at ``seed * SEED_STRIDE``.
SEED_STRIDE = 100_000

# The shape of the traffic ``repro monitor`` sends its coordinator, measured
# by ``python -m bench.shape`` (10 buses, 6 simulated hours; bench/README.md).
#: Samples per report, by kind.
SAMPLES = {"ping": 10, "udp": 50}
#: ``seq % UDP_EVERY < UDP_OF`` makes a udp report: 2 in 9, against the
#: measured 22% (1,285 of 5,765 reports).
UDP_OF, UDP_EVERY = 2, 9
#: Median reports per client per 30-minute epoch: one REPORT_BATCH frame.
EPOCH_REPORTS = 48
#: Median reports per client per 60 s scheduler tick: one short session.
TICK_REPORTS = 2
#: The bus fleet, and its reports per 900 s snapshot interval (5,765 / 24):
#: one write round of the store between two operator refreshes.
FLEET = 10
SNAPSHOT_REPORTS = 240


def report(client: int, seq: int) -> dict:
    """Wire report ``seq`` of client ``client``, shaped like the monitor's.

    ``synthetic_report`` alternates udp and ping with 3 samples each; this
    keeps its values and positions, but makes 2 reports in 9 udp and gives
    each kind its measured number of samples around the report's value.
    """
    from repro.serve import loadgen

    udp = seq % UDP_EVERY < UDP_OF
    # synthetic_report makes even sequence numbers udp, odd ones ping.
    payload = loadgen.synthetic_report(client, 2 * seq + (0 if udp else 1))
    n, value = SAMPLES[payload["kind"]], payload["value"]
    payload.update(
        task_id=seq + 1, start_s=seq * 60.0, end_s=seq * 60.0 + 1.0,
        samples=[value * (0.9 + 0.2 * j / (n - 1)) for j in range(n)],
    )
    return payload


E2E_METRICS = ("setup_s", "peak_rss_mb")

#: The user-facing rate and latency.  They are per-layer metrics rather than
#: end-to-end ones: on the 2-CPU virtual machine the benchmark was built on,
#: their run-to-run spread (20-40%) exceeded the largest bound (25%) that
#: ``BENCHMARK.json`` allows.
WALL_METRICS = ("wall.throughput_per_s", "wall.latency_p50_ms")

#: What the two wall-clock metrics measure on each workload.
MEANING = {
    "ingest-batch": ("ACKed reports per second of load",
                     "client-observed ACK latency per REPORT_BATCH frame"),
    "ingest-single": ("ACKed reports per second of load",
                      "client-observed ACK latency per REPORT frame"),
    "store-live": ("sample rows committed per second inside ingest_reports",
                   "latency per operator query (coverage, slo, replay)"),
    "monitor-sim": ("simulated seconds per wall second of EventEngine.run",
                    "latency per render_report_from_dir"),
}

LAYER_EXTRAS = (
    "serve.wal.group_commits", "serve.wal.fsyncs",
    "serve.server.cpu_frac", "serve.server.unattributed_ms",
    "serve.server.ack_p50_ms", "serve.server.retries",
    "client.cpu_frac", "client.ack_p99_ms",
    "store.query_p95_ms", "store.bytes_per_sample", "store.rollup_rows",
    "host.spin_ms_before", "host.spin_ms_after", "host.cpu_count",
    "trace.overhead_frac", "trace.covered_frac",
)


def layer_metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in output order."""
    spans = [f"{name}.{kind}" for name in tracing.span_names()
             for kind in ("calls", "self_ms")]
    return list(WALL_METRICS) + spans + list(LAYER_EXTRAS)


@dataclass
class PassResult:
    """What one pass measured."""

    traced: bool
    setup_s: float
    #: Wall seconds the throughput is taken over.
    work_s: float
    #: Units of work done in ``work_s`` (reports, sample rows, sim seconds).
    work: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    rss_mb: float
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    #: Per-layer values (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)


def _span_layers(table: Dict[str, dict]) -> Dict[str, float]:
    """``.calls``/``.self_ms`` of every span name (0 where never called)."""
    out = {}
    for name in tracing.span_names():
        row = table.get(name, {})
        out[f"{name}.calls"] = row.get("calls", 0)
        out[f"{name}.self_ms"] = row.get("self_ms", 0.0)
    return out


def _self_ms(table: Dict[str, dict]) -> float:
    return sum(row["self_ms"] for row in table.values())


def _proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _reset_peak_rss() -> None:
    """Restart this process's ``VmHWM``, so it reads one pass's peak."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


# -- ingest-batch / ingest-single -------------------------------------------


@dataclass(frozen=True)
class IngestShape:
    """Clients per pass, frames per client, reports per frame, codec."""

    clients: int
    frames: int
    batch: int
    codecs: Optional[List[str]]


INGEST_SHAPES = {
    # Two long-lived binary sessions, each sending one client-epoch of
    # reports per REPORT_BATCH frame.  Two traced passes then give 1,200
    # frame latencies, enough for a p99 with 10 beyond it.
    "ingest-batch": IngestShape(clients=2, frames=300, batch=EPOCH_REPORTS,
                                codecs=["binary"]),
    # Short JSON sessions, one per client tick: HELLO, single REPORTs, BYE.
    "ingest-single": IngestShape(clients=2000, frames=TICK_REPORTS, batch=1,
                                 codecs=None),
}


@dataclass
class _Tally:
    acked: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    work_s: float = 0.0
    client_cpu_s: float = 0.0
    stats: dict = field(default_factory=dict)


async def _drive_client(port, shape, index, tracer, tally) -> None:
    """One closed-loop client: open, send every frame, close."""
    from repro.serve.driver import ServeSession
    from repro.serve.wire import WireError

    session = ServeSession(HOST, port, f"load-{index:05d}", [],
                           codecs=shape.codecs)
    sent = 0
    try:
        start = time.perf_counter()
        await session.open()
        if tracer is not None:
            tracer.record("serve.driver.open", start, time.perf_counter())
        for frame in range(shape.frames):
            first = frame * shape.batch
            payloads = [report(index, first + j) for j in range(shape.batch)]
            start = time.perf_counter()
            if shape.batch == 1:
                ack = await session.send_report(payloads[0])
                accepted = 1 if ack.get("accepted") else 0
            else:
                ack = await session.send_report_batch(payloads)
                accepted = int(ack["accepted"])
            tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
            sent += len(payloads)
            tally.acked += accepted
            tally.failed += len(payloads) - accepted + int(ack["_retries"])
    except (WireError, OSError) as exc:
        tally.failed += shape.frames * shape.batch - sent
        tally.errors.append(f"client {index}: {exc}")
    finally:
        await session.close()


async def _drive(port, shape, base, tracer) -> _Tally:
    from repro.serve.driver import ServeSession

    tally = _Tally()

    async def worker(first: int) -> None:
        for c in range(first, shape.clients, SESSIONS):
            await _drive_client(port, shape, base + c, tracer, tally)

    start, cpu = time.perf_counter(), time.process_time()
    await asyncio.gather(*(worker(w) for w in range(SESSIONS)))
    tally.work_s = time.perf_counter() - start
    tally.client_cpu_s = time.process_time() - cpu
    async with ServeSession(HOST, port, "bench-stats", []) as session:
        tally.stats = await session.stats()
    return tally


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _stop(proc: subprocess.Popen) -> None:
    """SIGINT the server (it closes its WAL cleanly) and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _wait_for_port(proc, port_file: Path, log: Path) -> int:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text()
            if text.endswith("\n"):
                return int(text)
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"server did not start: {log.read_text()[-2000:]}")


class IngestWorkload:
    """``repro serve run`` in a subprocess, driven over loopback TCP."""

    #: Per-layer tail latency, pooled over the traced passes.
    TAIL = ("client.ack_p99_ms", 0.99)

    def __init__(self, name: str, seed: int, trace_dir: Path):
        # Import the client side now, so the first pass does not pay for it.
        import repro.serve  # noqa: F401

        self.shape = INGEST_SHAPES[name]
        self.base = seed * SEED_STRIDE
        self.trace_dir = trace_dir

    def run_pass(self, pass_dir: Path, traced: bool) -> PassResult:
        from repro.obs.metrics import quantile_from_snapshot
        from repro.serve import replay_wal

        wal, port_file = pass_dir / "wal", pass_dir / "port"
        table_file, log = pass_dir / "layers.json", pass_dir / "server.log"
        argv = ["serve", "run", "--wal", str(wal), "--port-file",
                str(port_file)]
        if traced:
            cmd = [sys.executable, "-m", "bench.traced_server",
                   str(table_file),
                   str(self.trace_dir / "server-spans.jsonl")] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install(tracing.CLIENT_TARGETS)
        with open(log, "w") as log_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=log_fh)
        try:
            port = _wait_for_port(proc, port_file, log)
            setup_s = time.perf_counter() - start
            server_cpu0 = _proc_cpu_s(proc.pid)
            tally = asyncio.run(_drive(port, self.shape, self.base, tracer))
            server_cpu_s = _proc_cpu_s(proc.pid) - server_cpu0
            rss_mb = _proc_hwm_mb(proc.pid)
        finally:
            _stop(proc)
            if tracer is not None:
                tracer.uninstall()
        stats = tally.stats
        live = json.dumps(stats["coordinator"], indent=2, sort_keys=True)
        errors = list(tally.errors)
        if proc.returncode != 0:
            errors.append(f"server exited {proc.returncode}")
        if replay_wal(str(wal)).metrics.to_json() != live:
            errors.append("live STATS coordinator registry != WAL replay")
        result = PassResult(
            traced=traced, setup_s=setup_s, work_s=tally.work_s,
            work=tally.acked, latencies_ms=tally.latencies_ms,
            attempted=self.shape.clients * self.shape.frames
            * self.shape.batch,
            failed=tally.failed, rss_mb=rss_mb,
            digest=hashlib.sha256(live.encode()).hexdigest(), errors=errors,
        )
        if traced:
            dump = json.loads(table_file.read_text())
            table = dict(dump["layers"], **tracer.table())
            serve = stats["serve"]
            server_self_ms = _self_ms(dump["layers"])
            result.layers = dict(
                _span_layers(table),
                **{
                    "serve.wal.group_commits": stats["wal"]["group_commits"],
                    "serve.wal.fsyncs": stats["wal"]["fsyncs"],
                    "serve.server.cpu_frac": server_cpu_s / tally.work_s,
                    "serve.server.unattributed_ms":
                        dump["cpu_ms"] - server_self_ms,
                    "serve.server.ack_p50_ms": 1e3 * quantile_from_snapshot(
                        serve["histograms"]["serve.ack_latency_s"], 0.5),
                    "serve.server.retries": serve["counters"].get(
                        "serve.backpressure_rejections", 0),
                    "client.cpu_frac": tally.client_cpu_s / tally.work_s,
                    "trace.covered_frac": server_self_ms / dump["cpu_ms"],
                },
            )
            tracer.write_spans(str(self.trace_dir / "client-spans.jsonl"))
        return result


# -- store-live -------------------------------------------------------------


def _dump_digest(path: str) -> str:
    """SHA-256 of the store's ``logical_dump``."""
    from repro.store import db, queries

    conn = db.connect(path)
    try:
        dump = json.dumps(queries.logical_dump(conn), sort_keys=True)
    finally:
        conn.close()
    return hashlib.sha256(dump.encode()).hexdigest()


def _in_child(func) -> str:
    """The text ``func()`` returns, computed in a forked child.

    For the store's reference fold and ``logical_dump``, which hold far more
    memory than a pass.  Memory Python frees is not all returned to the
    system, so computing them here would raise this process's resident set
    in every later pass, by an amount that varies from run to run.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as fh:
                fh.write(func())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked child exited with status {status}")
    return out


class StoreWorkload:
    """In-process ``repro.store``: preload, then rounds of writes and reads.

    The fleet's stream: report ``i`` is report ``i // FLEET`` of client
    ``i % FLEET``.  The preload is 6 hours of it (24 snapshot intervals);
    each round then writes one more interval and runs the three operator
    queries.  Inputs are built per round, outside the timed calls, so the
    pass's peak memory holds no more of them than one call needs.
    """

    TAIL = ("store.query_p95_ms", 0.95)
    PRELOAD = 24 * SNAPSHOT_REPORTS
    ROUNDS = 48

    def __init__(self, seed: int, trace_dir: Path):
        from repro.serve import build_coordinator

        self.base = seed * SEED_STRIDE
        self.grid = build_coordinator().grid
        # The registry fold of the same stream, which the store's
        # replay_snapshot must equal byte for byte.
        self.reference = _in_child(self._fold)
        self.trace_dir = trace_dir
        self.digest = ""

    def _fold(self) -> str:
        from repro.serve import build_coordinator

        coordinator = build_coordinator()
        total = self.PRELOAD + self.ROUNDS * SNAPSHOT_REPORTS
        for lo in range(0, total, SNAPSHOT_REPORTS):
            for item in self._reports(lo, lo + SNAPSHOT_REPORTS):
                coordinator.ingest(item)
        return coordinator.metrics.to_json()

    def _reports(self, lo: int, hi: int) -> list:
        from repro.serve.wire import report_from_wire

        return [report_from_wire(report(self.base + i % FLEET, i // FLEET))
                for i in range(lo, hi)]

    def run_pass(self, pass_dir: Path, traced: bool) -> PassResult:
        from repro.store import db, queries, writers

        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install(tracing.TARGETS)
        path = str(pass_dir / "store.sqlite")
        latencies: List[float] = []
        rows = 0
        write_s = 0.0
        try:
            preload = self._reports(0, self.PRELOAD)
            start = time.perf_counter()
            conn = db.connect(path)
            run_id = writers.create_run(conn, "live", "wal")
            rejected = writers.ingest_reports(conn, run_id, preload,
                                              self.grid).rejected
            setup_s = time.perf_counter() - start
            del preload
            operations = (
                lambda: queries.coverage(conn, run_id, network="NetB",
                                         min_samples=10),
                lambda: queries.slo_attainment(conn, run_id, floor=10),
                lambda: queries.replay_snapshot(conn, run_id),
            )
            for lo in range(self.PRELOAD, self.PRELOAD
                            + self.ROUNDS * SNAPSHOT_REPORTS,
                            SNAPSHOT_REPORTS):
                batch = self._reports(lo, lo + SNAPSHOT_REPORTS)
                t = time.perf_counter()
                result = writers.ingest_reports(conn, run_id, batch,
                                                self.grid)
                write_s += time.perf_counter() - t
                rows += result.rows["samples"]
                rejected += result.rejected
                for query in operations:
                    t = time.perf_counter()
                    query()
                    latencies.append((time.perf_counter() - t) * 1e3)
            timed_s = setup_s + write_s + sum(latencies) / 1e3
            snapshot = json.dumps(queries.replay_snapshot(conn, run_id),
                                  indent=2, sort_keys=True)
            rollup_rows = conn.execute(
                "SELECT COUNT(*) FROM rollups WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
            samples = conn.execute(
                "SELECT COUNT(*) FROM samples WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
            conn.close()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not self.digest:
            self.digest = _in_child(lambda: _dump_digest(path))
        store_bytes = sum(os.path.getsize(path + suffix)
                          for suffix in ("", "-wal")
                          if os.path.exists(path + suffix))
        errors = []
        if snapshot != self.reference:
            errors.append("store replay_snapshot != registry fold")
        result = PassResult(
            traced=traced, setup_s=setup_s, work_s=write_s, work=rows,
            latencies_ms=latencies,
            attempted=self.PRELOAD + rows + len(latencies), failed=rejected,
            rss_mb=_proc_hwm_mb(os.getpid()), digest=self.digest,
            errors=errors,
        )
        if traced:
            table = tracer.table()
            result.layers = dict(
                _span_layers(table),
                **{
                    "store.bytes_per_sample": store_bytes / samples,
                    "store.rollup_rows": rollup_rows,
                    "trace.covered_frac": _self_ms(table) / (timed_s * 1e3),
                },
            )
            tracer.write_spans(str(self.trace_dir / "spans.jsonl"))
        return result


# -- monitor-sim ------------------------------------------------------------


class MonitorWorkload:
    """``repro monitor`` in-process, then the operator report from its files.

    The world seed stays at 7 (the golden world); ``--seed`` moves the
    coordinator's generator seed.  Other worlds change the simulated city
    and so the amount of work.
    """

    TAIL = None
    BUSES = 10
    # Planning cost grows with the samples kept: at 6 hours nkld_from_samples
    # held 32% of the wrapped self time, at 8 hours 49%.
    HOURS = 8
    RENDERS = 10
    #: Set-ups timed per pass besides the measured run's, each that of a
    #: three-minute run with the same flags.  One set-up takes about 10 ms,
    #: so a scheduling hiccup of the shared host can double it; the pass
    #: reports the median.  They also warm what the first measured run uses.
    SETUPS = 10
    ARTIFACTS = ("metrics.json", "events.jsonl", "snapshots.jsonl")

    def __init__(self, seed: int, trace_dir: Path):
        self.seed = seed
        self.trace_dir = trace_dir
        # The only wrapper of the untraced run: it times EventEngine.run.
        self.timer = tracing.Tracer()
        self.timer.install([t for t in tracing.TARGETS
                            if t[0] == "sim.engine.run"])

    def _monitor(self, out: Path, hours: float):
        """``repro monitor`` writing to ``out``: (exit code, set-up, run s)."""
        from repro import cli

        argv = ["monitor", "--buses", str(self.BUSES), "--hours", str(hours),
                "--seed", "7", "--gen-seed", str(self.seed),
                "--telemetry", str(out), "--snapshot-every", "900"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        _, _, run_start, run_end, _, _ = self.timer.spans[-1]
        return code, run_start - start, run_end - run_start

    def run_pass(self, pass_dir: Path, traced: bool) -> PassResult:
        from repro.obs import report

        runs = [self._monitor(pass_dir / f"setup-{i}", 0.05)
                for i in range(self.SETUPS)]
        out = pass_dir / "telemetry"
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install(tracing.TARGETS)
        latencies = []
        try:
            runs.append(self._monitor(out, self.HOURS))
            sim_s = runs[-1][2]
            for _ in range(self.RENDERS):
                t = time.perf_counter()
                report.render_report_from_dir(str(out))
                latencies.append((time.perf_counter() - t) * 1e3)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest = hashlib.sha256()
        for name in self.ARTIFACTS:
            digest.update((out / name).read_bytes())
        codes = [code for code, _, _ in runs if code != 0]
        result = PassResult(
            traced=traced,
            setup_s=statistics.median(setup for _, setup, _ in runs),
            work_s=sim_s, work=self.HOURS * 3600.0, latencies_ms=latencies,
            attempted=len(runs) + self.RENDERS, failed=len(codes),
            rss_mb=_proc_hwm_mb(os.getpid()), digest=digest.hexdigest(),
            errors=[f"repro monitor exited {code}" for code in codes],
        )
        if traced:
            table = tracer.table()
            run = table["sim.engine.run"]
            result.layers = dict(
                _span_layers(table),
                **{"trace.covered_frac": 1.0 - run["self_ms"]
                   / run["total_ms"]},
            )
            tracer.write_spans(str(self.trace_dir / "spans.jsonl"))
        return result


WORKLOADS = ("ingest-batch", "ingest-single", "store-live", "monitor-sim")


def make_workload(name: str, seed: int, trace_dir: Path):
    """The workload object for ``name``."""
    if name in INGEST_SHAPES:
        return IngestWorkload(name, seed, trace_dir)
    if name == "store-live":
        return StoreWorkload(seed, trace_dir)
    if name == "monitor-sim":
        return MonitorWorkload(seed, trace_dir)
    raise ValueError(f"unknown workload {name!r}")


# -- host shape -------------------------------------------------------------


def spin_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: the host's speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            _, mount, kind = line.split()[:3]
            inside = (str(path) + "/").startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def host_shape(seed: int) -> dict:
    """The host a result was measured on."""
    import numpy

    cpus = os.cpu_count()
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "transport": f"loopback TCP {HOST}",
        "tmp_fs": _fs_type(OUT),
        "seed": seed,
        "cluster_scaling": f"not measured: cpu_count={cpus}",
        "sweep_scaling": f"not measured: cpu_count={cpus}",
    }


# -- the run ----------------------------------------------------------------


def check(passes: List[PassResult]) -> List[str]:
    """Every reason the run is not correct; empty when it is.

    Every input is valid, so any failed operation (dropped, RETRY'd or
    rejected report, lost session) fails the run, as do a pass's own
    checks and passes whose outputs hash differently.
    """
    errors = [e for p in passes for e in p.errors]
    failed = sum(p.failed for p in passes)
    if failed:
        errors.append(f"{failed} of {sum(p.attempted for p in passes)} "
                      "operations failed")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        errors.append(f"output digests differ between passes: {digests}")
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of ``name`` for about ``seconds``; return the result."""
    spin_before = spin_ms()
    trace_dir = OUT / "trace" / name
    trace_dir.mkdir(parents=True, exist_ok=True)
    tmp = OUT / "tmp" / str(os.getpid())
    workload = make_workload(name, seed, trace_dir)
    min_passes = 4 if trace else 2
    passes: List[PassResult] = []
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = tmp / f"pass-{len(passes)}"
            pass_dir.mkdir(parents=True)
            gc.collect()
            _reset_peak_rss()
            t = time.perf_counter()
            passes.append(workload.run_pass(pass_dir, traced))
            longest = max(longest, time.perf_counter() - t)
            shutil.rmtree(pass_dir)
            if (len(passes) >= min_passes
                    and time.perf_counter() - start + longest > seconds):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    throughput = statistics.median(p.work / p.work_s for p in plain)
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in plain),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        "wall.throughput_per_s": throughput,
        "wall.latency_p50_ms": percentile(
            [x for p in plain for x in p.latencies_ms], 0.5),
    }
    errors = check(passes)
    result = {
        "workload": name,
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors[:20],
        "digest": passes[0].digest,
        "metrics": metrics,
        "host": dict(host_shape(seed), spin_ms_before=spin_before,
                     spin_ms_after=spin_ms()),
        "passes": [
            {"traced": p.traced, "setup_s": p.setup_s, "work_s": p.work_s,
             "work": p.work, "rss_mb": p.rss_mb}
            for p in passes
        ],
    }
    if trace:
        traced = [p for p in passes if p.traced]
        layers = {
            key: statistics.median(p.layers[key] for p in traced)
            for key in traced[0].layers
        }
        if workload.TAIL:
            tail, q = workload.TAIL
            layers[tail] = percentile(
                [x for p in traced for x in p.latencies_ms], q)
        traced_throughput = statistics.median(
            p.work / p.work_s for p in traced)
        layers.update({key: metrics[key] for key in WALL_METRICS})
        layers.update({
            "host.spin_ms_before": spin_before,
            "host.spin_ms_after": result["host"]["spin_ms_after"],
            "host.cpu_count": os.cpu_count(),
            "trace.overhead_frac": throughput / traced_throughput - 1.0,
        })
        result["layers"] = {key: layers.get(key, 0)
                            for key in layer_metric_names()}
        (trace_dir / "layers.json").write_text(
            json.dumps(result["layers"], indent=2))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}.seed{seed}.trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
