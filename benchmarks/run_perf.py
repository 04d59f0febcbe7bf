"""Same-process speedup gates, plus the benchmark of record's rates.

Times fast paths against their references and writes ``BENCH_perf.json``
at the repo root (plus one seed-stamped entry appended to
``BENCH_history.jsonl``, so successive runs accumulate instead of
overwriting each other).  Run with::

    PYTHONPATH=src python benchmarks/run_perf.py [--seed N]

Each gate is a ratio of two paths timed on one host in one run, so
neighbour load cancels out of it:

* ``link_state_batch`` over 10k points vs 10k scalar ``link_state``
  calls — must be >= 10x;
* ``udp_train_batch`` per-train cost vs the frozen per-packet
  ``udp_train_reference`` — must be >= 5x;
* the coordinator service under a 1000-client loadgen: the batched
  binary path (REPORT_BATCH frames + range ACKs + WAL group commit)
  must sustain >= 3x the unbatched one (one JSON report per frame),
  with no report dropped;
* the measurement store: the rollup-table replay query over 100k
  synthetic reports must be >= 2x faster than a full JSONL refold of
  the same stream;
* the sweep over an 8-cell scheduler-ablation grid, 4 workers vs
  serial — >= 2x, on >= 4 CPUs;
* the zone-sharded cluster, 3 shards vs 1 under 4 loadgen processes —
  >= 2.5x, on >= 8 CPUs.

A core-bound ratio is recorded as ``null`` with a "not measured:
cpu_count=N" reason on a host below its CPU floor, and nothing is
started for it: a speedup measured on fewer cores than it has workers
says nothing about the code.

The byte-identity contracts are checked where they live, not here:
WAL replay and zero drops by ``python -m bench run`` (ingest-*) and
``tools/serve_smoke.py``; aggregated cluster replay by
``tools/serve_smoke.py --cluster``; the store snapshot against the
registry fold by the bench's store-live and ``tools/store_smoke.py``;
sweep artifacts against the worker count by
``tests/sweep/test_determinism.py``.

Serve and store rates come from the benchmark of record:
``bench.run.run_child`` (what ``python -m bench run`` calls) runs
ingest-single, ingest-batch and store-live, and their wall-clock
medians and host shape go into the ``bench`` section, which
``check_regression.py`` guards against history.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.network.channel import MeasurementChannel
from repro.obs.manifest import RunManifest
from repro.radio.network import build_landscape
from repro.radio.technology import NetworkId

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_perf.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

#: ``bench`` sits beside ``src``; run as a script, only ``benchmarks/``
#: and ``PYTHONPATH`` are on the path.
if not __package__:
    sys.path.insert(0, str(REPO_ROOT))

from bench.run import run_child  # noqa: E402
from bench.workloads import WALL_METRICS  # noqa: E402

N_POINTS = 10_000
N_TRAINS = 50
TRAIN_PACKETS = 100


def _time(fn, repeat=5, warmup=1):
    """Best-of-N wall time in seconds (min is the least noisy stat)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_rounds(fns, repeat, warmup=1):
    """Best-of-N wall time of each of ``fns``, timed in interleaved rounds.

    For headline numbers that are *ratios*: each round runs every
    function once, so a machine-wide slow spell inflates all sides
    instead of whichever block happened to run during it, and the
    best-of minima are drawn from the same quiet windows.
    """
    for _ in range(warmup):
        for fn in fns:
            fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def bench_link_state(landscape, points):
    net = NetworkId.NET_B
    t = 500.0

    scalar_pts = points[:1000]  # 10k scalar calls would dominate the run

    def run_scalar():
        return [landscape.link_state(net, p, t) for p in scalar_pts]

    def run_batch():
        return landscape.link_state_batch(net, points, t, use_cache=False)

    def run_cached():
        return landscape.link_state_batch(net, points, t, use_cache=True)

    run_scalar()
    run_batch()
    run_batch()
    landscape.warm_cache(points, nets=[net])
    run_cached()
    run_cached()

    scalar_s, batch_s, cached_s = _time_rounds(
        [run_scalar, run_batch, run_cached], repeat=12, warmup=0
    )

    per_point_scalar = scalar_s / len(scalar_pts)
    scalar_10k = per_point_scalar * N_POINTS
    return {
        "scalar_per_point_us": per_point_scalar * 1e6,
        "batch_10k_ms": batch_s * 1e3,
        "batch_10k_cached_ms": cached_s * 1e3,
        "speedup_batch_vs_scalar": scalar_10k / batch_s,
        "speedup_cached_vs_scalar": scalar_10k / cached_s,
    }


def bench_udp(landscape, point):
    def fresh(seed):
        return MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(seed)
        )

    landscape.warm_cache([point])

    # Each repetition simulates a NOVEL stretch of time.  Reusing one
    # time list would let the temporal multiplier memo (one of the new
    # optimizations, attached to the shared landscape) accelerate the
    # frozen baseline from the second repeat on, understating the
    # speedup a fresh workload sees.
    epoch = iter(range(10**9))

    def novel_times():
        base = float(next(epoch)) * 1.0e6
        return [base + 120.0 * k for k in range(N_TRAINS)]

    def run_ref():
        ch = fresh(1)
        return [
            ch.udp_train_reference(point, t, n_packets=TRAIN_PACKETS)
            for t in novel_times()
        ]

    def run_scalar():
        ch = fresh(2)
        return [
            ch.udp_train(point, t, n_packets=TRAIN_PACKETS)
            for t in novel_times()
        ]

    def run_batch():
        return fresh(3).udp_train_batch(
            [point] * N_TRAINS, novel_times(), n_packets=TRAIN_PACKETS
        )

    ref_s, scalar_s, batch_s = _time_rounds(
        [run_ref, run_scalar, run_batch], repeat=3
    )
    return {
        "reference_per_train_us": ref_s / N_TRAINS * 1e6,
        "scalar_per_train_us": scalar_s / N_TRAINS * 1e6,
        "batch_per_train_us": batch_s / N_TRAINS * 1e6,
        "speedup_scalar_vs_reference": ref_s / scalar_s,
        "speedup_batch_vs_reference": ref_s / batch_s,
    }


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Fewest visible CPUs on which each parallel speedup can show: 4 sweep
#: workers need 4 cores; gateway + 3 shards + supervisor + 4 loadgen
#: workers need ~8.
SWEEP_MIN_CPUS = 4
CLUSTER_MIN_CPUS = 8


def core_bound(cpu_count, min_cpus, bench, *keys):
    """``bench()``'s section, or its ``keys`` as not measured.

    Below ``min_cpus`` the bench is not run at all (it would start more
    workers than the host has cores); each key is ``None`` with a
    "not measured: cpu_count=N" reason instead.  Either way the section
    records the ``cpu_count`` it was decided on.
    """
    if cpu_count >= min_cpus:
        return {"cpu_count": cpu_count, **bench()}
    section = {"cpu_count": cpu_count}
    for key in keys:
        section[key] = None
        section[f"{key}_reason"] = f"not measured: cpu_count={cpu_count}"
    return section


def _ratio_text(section, key):
    """``"1.23x"``, or the recorded not-measured reason."""
    value = section[key]
    return section[f"{key}_reason"] if value is None else f"{value:.2f}x"


def bench_sweep():
    """Serial vs 4-worker wall clock on a compute-bound ablation grid.

    Uses the scheduler-ablation scenario (pure simulation, no shared
    I/O) at 8 cells x 12 sim-hours so per-cell compute dominates worker
    startup.
    """
    from repro.sweep import SweepGrid, SweepRunner

    def grid():
        return SweepGrid(
            "bench-scheduler", ["ablation_scheduler"],
            seeds=[7, 8, 9, 10],
            matrix={"policy": ["budgeted", "greedy"]},
            base={"hours": 12.0, "n_buses": 3},
        )

    with tempfile.TemporaryDirectory() as tmp:
        serial = SweepRunner(grid(), os.path.join(tmp, "serial"),
                             workers=1).run()
        pooled = SweepRunner(grid(), os.path.join(tmp, "pooled"),
                             workers=4).run()
    return {
        "cells": serial.total,
        "cells_ok": min(serial.ok, pooled.ok),
        "serial_s": serial.wall_s,
        "workers4_s": pooled.wall_s,
        "speedup_4workers_vs_serial": serial.wall_s / pooled.wall_s,
    }


#: Reports coalesced per frame on the batched serve bench path.
SERVE_BATCH_SIZE = 50

#: Each serve shape is measured this many times and the fastest run is
#: recorded.  A single shape lasts ~1-3 s, so one scheduler hiccup or a
#: GC pause inherited from the numpy benches earlier in this process
#: can swing throughput 30%+; best-of-N measures what the code can do,
#: which is what the history regression guard should compare.
SERVE_REPEATS = 3


def _run_serve_shape(codec, batch_size, clients, per_client, concurrency):
    """One loadgen run against a fresh in-process WAL-backed server."""
    import asyncio

    from repro.serve.loadgen import LoadgenConfig, run_loadgen
    from repro.serve.server import CoordinatorServer, ServeConfig

    async def body(wal_dir):
        server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
        await server.start()
        try:
            return await run_loadgen(LoadgenConfig(
                port=server.port, clients=clients,
                reports_per_client=per_client, concurrency=concurrency,
                codec=codec, batch_size=batch_size,
            ))
        finally:
            await server.stop()

    with tempfile.TemporaryDirectory() as tmp:
        return asyncio.run(body(os.path.join(tmp, "wal")))


def _best_serve_shape(codec, batch_size, clients, per_client, concurrency):
    """Fastest of ``SERVE_REPEATS`` runs, with drops summed over all.

    Throughput comes from the fastest repeat (noise only ever
    subtracts); a drop in any repeat still counts.  Each repeat starts
    from a collected heap so the serve bench is not taxed for garbage
    left by the benches before it.
    """
    import gc

    best = None
    drops = retries = 0
    for _ in range(SERVE_REPEATS):
        #: Collect then freeze: the landscape/trace graphs built by the
        #: benches before this one otherwise get rescanned by every
        #: gen-2 pass *during* the shape, taxing serve ~20% for garbage
        #: that isn't its own.
        gc.collect()
        gc.freeze()
        result = _run_serve_shape(
            codec, batch_size, clients, per_client, concurrency
        )
        drops += result.reports_dropped
        retries += result.retries
        if best is None or result.reports_per_s > best.reports_per_s:
            best = result
    return best, drops, retries


def bench_serve():
    """Batched vs unbatched loadgen throughput against one service shape.

    Runs 1000 client sessions over loopback TCP against an in-process,
    WAL-backed :class:`CoordinatorServer`, twice: one JSON report per
    REPORT_BATCH frame with one ACK_BATCH each (5 reports per client),
    and the batched binary path (clients coalescing
    ``SERVE_BATCH_SIZE`` reports per frame, range ACKs, WAL group
    commit).  The gate is the
    batched path sustaining >= 3x the unbatched rate, with no report
    dropped on either.  The two rates are this ratio's inputs; the
    service's guarded rates come from the benchmark of record.
    """
    clients = 1000
    unbatched, drops_json, retries_json = _best_serve_shape(
        "json", 1, clients, 5, 64
    )
    #: Batched shape: each client pushes one coalesced 50-report frame
    #: (lower concurrency keeps in-flight reports inside the default
    #: ingest budget, so throughput is measured without RETRY churn).
    batched, drops_bin, retries_bin = _best_serve_shape(
        "binary", SERVE_BATCH_SIZE, clients, SERVE_BATCH_SIZE, 16
    )
    return {
        "clients": clients,
        "reports_per_client": 5,
        "concurrency": 64,
        "batch_size": SERVE_BATCH_SIZE,
        "serve_repeats": SERVE_REPEATS,
        "reports_dropped": drops_json + drops_bin,
        "retries": retries_json + retries_bin,
        "unbatched_reports_per_s": unbatched.reports_per_s,
        "batched_reports_per_s": batched.reports_per_s,
        "speedup_batched_vs_unbatched": (
            batched.reports_per_s / max(unbatched.reports_per_s, 1e-9)
        ),
    }


#: Parallel loadgen worker processes driving the cluster bench (each
#: worker is its own process so client-side encoding never serializes
#: on one GIL while we measure server-side scaling).
CLUSTER_WORKERS = 4
CLUSTER_CLIENTS_PER_WORKER = 200
CLUSTER_REPORTS_PER_CLIENT = 50
#: Cluster shapes are wall-clock heavy (subprocess spawn + real load),
#: so best-of-2 rather than the serve bench's best-of-3.
CLUSTER_REPEATS = 2


def _run_cluster_shape(shards):
    """One multi-process loadgen run against an N-shard cluster.

    Starts ``repro serve cluster`` (gateway + ``shards`` shard
    subprocesses) and drives it with ``CLUSTER_WORKERS`` parallel
    ``repro serve loadgen --cluster`` processes over disjoint client
    populations.  The rate is total ACKed reports over the slowest
    worker's internal elapsed time — worker startup (interpreter + map
    fetch) is excluded, shard-side work is not.
    """
    import signal
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    def wait_port(path, proc, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if path.exists() and path.read_text().strip():
                return int(path.read_text().strip())
            if proc.poll() is not None:
                out = proc.stdout.read() if proc.stdout else ""
                raise RuntimeError(f"cluster exited during startup:\n{out}")
            time.sleep(0.05)
        raise RuntimeError("cluster did not write its port file in time")

    with tempfile.TemporaryDirectory() as tmp:
        port_file = Path(tmp, "gateway-port")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "cluster",
             "--dir", os.path.join(tmp, "cluster"),
             "--shards", str(shards), "--port-file", str(port_file)],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            gw_port = wait_port(port_file, proc)
            workers = []
            for w in range(CLUSTER_WORKERS):
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "loadgen",
                     "--port", str(gw_port), "--cluster",
                     "--clients", str(CLUSTER_CLIENTS_PER_WORKER),
                     "--reports-per-client",
                     str(CLUSTER_REPORTS_PER_CLIENT),
                     "--batch-size", str(SERVE_BATCH_SIZE),
                     "--codec", "binary", "--concurrency", "16",
                     "--client-offset",
                     str(w * CLUSTER_CLIENTS_PER_WORKER),
                     "--format", "json"],
                    env=env, cwd=str(REPO_ROOT),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                ))
            acked = dropped = 0
            slowest = 0.0
            for w in workers:
                out, err = w.communicate(timeout=600)
                if w.returncode != 0:
                    raise RuntimeError(
                        f"cluster loadgen worker failed "
                        f"(rc={w.returncode}):\n{out}\n{err}"
                    )
                d = json.loads(out)
                acked += d["reports_acked"]
                dropped += d["reports_dropped"]
                slowest = max(slowest, d["elapsed_s"])
            # SIGTERM lets the supervisor stop its shard processes.
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {
        "reports_dropped": dropped,
        "reports_per_s": acked / max(slowest, 1e-9),
    }


def bench_cluster():
    """Shard-scaling of the cluster: 1-shard vs 3-shard throughput.

    Both shapes run the identical multi-process load (4 loadgen worker
    processes, batched binary, 40k reports total) through the same
    gateway-routed client path, so the single difference is how many
    shard processes share the ingest work.  Records
    ``cluster.reports_per_s`` (the 3-shard rate) for the history guard
    and the 3-vs-1 ``speedup_3shard_vs_1shard``, each the best of
    ``CLUSTER_REPEATS``; drops are summed over every run.
    """
    def best_of(shards):
        runs = [_run_cluster_shape(shards) for _ in range(CLUSTER_REPEATS)]
        return (max(r["reports_per_s"] for r in runs),
                sum(r["reports_dropped"] for r in runs))

    single, single_drops = best_of(1)
    three, three_drops = best_of(3)
    return {
        "workers": CLUSTER_WORKERS,
        "clients": CLUSTER_WORKERS * CLUSTER_CLIENTS_PER_WORKER,
        "reports_per_client": CLUSTER_REPORTS_PER_CLIENT,
        "batch_size": SERVE_BATCH_SIZE,
        "cluster_repeats": CLUSTER_REPEATS,
        "reports_dropped": single_drops + three_drops,
        #: The history-guarded headline: 3-shard cluster throughput.
        "reports_per_s": three,
        "reports_per_s_1shard": single,
        "speedup_3shard_vs_1shard": three / max(single, 1e-9),
    }


#: Synthetic reports behind the store bench (~300k sample values).
N_STORE_REPORTS = 100_000


def bench_store():
    """Rollup-table replay query vs a full JSONL refold of one stream.

    Ingests ``N_STORE_REPORTS`` synthetic reports (pure index
    arithmetic — no landscape build, so the bench isolates store cost)
    into a fresh store, then times the replay-counter question two
    ways: a SELECT over the incrementally-maintained rollup tables,
    and a full re-fold of the same stream from a JSONL file (parse +
    re-validate + accumulate — what every query cost before the store
    existed), each building the same snapshot.  The rollup path must
    be >= 2x faster.
    """
    from repro.clients.protocol import MeasurementReport, MeasurementType
    from repro.core.validation import ReportValidator
    from repro.geo.regions import madison_study_area
    from repro.geo.zones import ZoneGrid
    from repro.serve.wire import report_from_wire, report_to_wire
    from repro.store import (
        connect,
        create_run,
        ingest_reports,
        replay_snapshot,
    )

    anchor = madison_study_area().anchor
    kinds = (MeasurementType.TCP_DOWNLOAD, MeasurementType.UDP_TRAIN,
             MeasurementType.PING)
    nets = tuple(NetworkId)

    def synth(i):
        kind = kinds[i % 3]
        start = 1000.0 + i * 0.5
        point = anchor.offset(
            float((i * 37) % 8000) - 4000.0,
            float((i * 53) % 8000) - 4000.0,
        )
        if kind is MeasurementType.PING:
            value = 0.02 + (i % 50) * 1e-4
            samples = [value - 1e-4, value, value + 1e-4]
        else:
            value = 1.0e6 + (i % 1000) * 1.0e3
            samples = []
        return MeasurementReport(
            task_id=i, client_id=f"bench-{i % 97}",
            network=nets[i % len(nets)], kind=kind,
            start_s=start, end_s=start + 5.0, point=point,
            speed_ms=10.0, value=value, samples=samples,
        )

    reports = [synth(i) for i in range(N_STORE_REPORTS)]
    grid = ZoneGrid(anchor, radius_m=250.0)

    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = os.path.join(tmp, "reports.jsonl")
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(json.dumps(report_to_wire(r), sort_keys=True)
                         + "\n")

        conn = connect(os.path.join(tmp, "bench.sqlite"))
        run_id = create_run(conn, "bench", kind="bench")
        ingest_reports(conn, run_id, reports, grid)

        def query_store():
            return replay_snapshot(conn, run_id)

        def refold_jsonl():
            validator = ReportValidator()
            ingested = samples_n = rejected = 0
            reasons = {}
            with open(jsonl_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    r = report_from_wire(json.loads(line))
                    outcome = validator.validate(r, r.start_s)
                    if outcome.ok:
                        ingested += 1
                        samples_n += len(r.samples) if r.samples else 1
                    else:
                        rejected += 1
                        reasons[outcome.reason] = (
                            reasons.get(outcome.reason, 0) + 1
                        )
            counters = {}
            if ingested:
                counters["coordinator.reports_ingested"] = float(ingested)
                counters["coordinator.samples_ingested"] = float(samples_n)
            if rejected:
                counters["coordinator.reports_rejected"] = float(rejected)
            for reason in sorted(reasons):
                counters[f"validator.reject.{reason}"] = float(
                    reasons[reason]
                )
            return {"counters": counters, "gauges": {},
                    "histograms": {}}

        query_s = _time(query_store, repeat=5)
        refold_s = _time(refold_jsonl, repeat=3)
        conn.close()
    return {
        "reports": N_STORE_REPORTS,
        "rollup_query_ms": query_s * 1e3,
        "jsonl_refold_ms": refold_s * 1e3,
        "speedup_query_vs_refold": refold_s / max(query_s, 1e-9),
    }


#: The bench workloads whose wall-clock medians ``check_regression.py``
#: guards, each run once by ``bench.run.run_child`` untraced.
BENCH_WORKLOADS = ("ingest-single", "ingest-batch", "store-live")
BENCH_SEED = 1
#: Seconds per workload.  A run always makes at least two passes, and
#: on a 2-vCPU host two passes of each workload take about this long or
#: longer (ingest-single's ~16 s), so it bounds only faster hosts' runs.
BENCH_SECONDS = 10.0


def bench_of_record():
    """``({workload: entry}, failures)`` from the benchmark of record.

    An entry holds the workload's ``wall.*`` medians and the host shape
    it ran on; a workload that gives no result (``None``) or fails its
    own correctness check is a failure.
    """
    entries, failures = {}, []
    for name in BENCH_WORKLOADS:
        result = run_child(name, BENCH_SEED, BENCH_SECONDS, trace=False)
        if result is None:
            entries[name] = None
            failures.append(f"bench workload {name} gave no result")
            continue
        entries[name] = {
            "correct": result["correct"],
            **{key: result["metrics"][key] for key in WALL_METRICS},
            "host": result["host"],
        }
        if not result["correct"]:
            failures.append(f"bench workload {name} failed its check: "
                            + "; ".join(result["errors"]))
    return entries, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    args = parser.parse_args()

    print("building landscape ...")
    landscape = build_landscape(seed=args.seed)
    point = landscape.study_area.anchor.offset(1200.0, -500.0)
    rng = np.random.default_rng(3)
    points = [
        landscape.study_area.anchor.offset(
            float(rng.uniform(-6000.0, 6000.0)),
            float(rng.uniform(-6000.0, 6000.0)),
        )
        for _ in range(N_POINTS)
    ]
    cpu_count = _cpu_count()

    print("timing link-state path ...")
    link = bench_link_state(landscape, points)
    print("timing udp trains ...")
    udp = bench_udp(landscape, point)
    print("timing coordinator service (1000-client loadgen, "
          "unbatched json vs batched binary) ...")
    serve = bench_serve()
    print("timing measurement store (rollup query vs JSONL refold) ...")
    store = bench_store()
    print(f"timing sharded sweep (serial vs 4 workers) on {cpu_count} "
          "CPU(s) ...")
    sweep = core_bound(cpu_count, SWEEP_MIN_CPUS, bench_sweep,
                       "speedup_4workers_vs_serial")
    print(f"timing sharded cluster (1-shard vs 3-shard) on {cpu_count} "
          "CPU(s) ...")
    cluster = core_bound(cpu_count, CLUSTER_MIN_CPUS, bench_cluster,
                         "reports_per_s", "speedup_3shard_vs_1shard")
    print(f"running bench workloads {', '.join(BENCH_WORKLOADS)} "
          f"(seed {BENCH_SEED}, {BENCH_SECONDS:g} s each) ...")
    bench, failures = bench_of_record()

    manifest = RunManifest(
        run_kind="bench-perf",
        seed=args.seed,
        extra={
            "n_points": N_POINTS,
            "n_trains": N_TRAINS,
            "train_packets": TRAIN_PACKETS,
        },
    )
    results = {
        "n_points": N_POINTS,
        "n_trains": N_TRAINS,
        "train_packets": TRAIN_PACKETS,
        "link_state": link,
        "udp_train": udp,
        "serve": serve,
        "store": store,
        "sweep": sweep,
        "cluster": cluster,
        "bench": bench,
        "manifest": manifest.to_dict(),
    }
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    # History accumulates one line per run (the manifest identifies the
    # seed/version that produced each entry); wall-clock is fine here —
    # bench history is a log, not a determinism-checked artifact.
    entry = dict(results)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with HISTORY_PATH.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {OUT_PATH}; appended to {HISTORY_PATH}")

    if link["speedup_batch_vs_scalar"] < 10.0:
        failures.append(
            "link_state_batch(10k) speedup "
            f"{link['speedup_batch_vs_scalar']:.1f}x < 10x"
        )
    if udp["speedup_batch_vs_reference"] < 5.0:
        failures.append(
            "udp_train_batch speedup "
            f"{udp['speedup_batch_vs_reference']:.1f}x < 5x"
        )
    if serve["reports_dropped"] != 0:
        failures.append(
            f"serve loadgen dropped {serve['reports_dropped']} report(s)"
        )
    if serve["speedup_batched_vs_unbatched"] < 3.0:
        failures.append(
            "serve batched-binary path "
            f"{serve['speedup_batched_vs_unbatched']:.2f}x < 3x over "
            "the unbatched json path"
        )
    # The measured gap is orders of magnitude, so this conservative
    # floor never flaps on an I/O-noisy machine.
    if store["speedup_query_vs_refold"] < 2.0:
        failures.append(
            "store rollup query only "
            f"{store['speedup_query_vs_refold']:.1f}x faster than the "
            "JSONL refold (< 2x)"
        )
    if sweep["speedup_4workers_vs_serial"] is not None:
        if sweep["cells_ok"] < sweep["cells"]:
            failures.append(f"sweep completed only {sweep['cells_ok']}/"
                            f"{sweep['cells']} cells")
        if sweep["speedup_4workers_vs_serial"] < 2.0:
            failures.append(
                "sweep 4-worker speedup "
                f"{sweep['speedup_4workers_vs_serial']:.2f}x < 2x "
                f"on {sweep['cpu_count']} CPUs"
            )
    if cluster["speedup_3shard_vs_1shard"] is not None:
        if cluster["reports_dropped"] != 0:
            failures.append(f"cluster loadgen dropped "
                            f"{cluster['reports_dropped']} report(s)")
        if cluster["speedup_3shard_vs_1shard"] < 2.5:
            failures.append(
                "cluster 3-shard speedup "
                f"{cluster['speedup_3shard_vs_1shard']:.2f}x < 2.5x "
                f"on {cluster['cpu_count']} CPUs"
            )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(
        f"OK: link_state_batch {link['speedup_batch_vs_scalar']:.1f}x, "
        f"udp_train_batch {udp['speedup_batch_vs_reference']:.1f}x, "
        f"serve batched {serve['speedup_batched_vs_unbatched']:.1f}x "
        f"unbatched, store rollup query "
        f"{store['speedup_query_vs_refold']:.0f}x refold, "
        f"sweep 4w {_ratio_text(sweep, 'speedup_4workers_vs_serial')}, "
        f"cluster 3 shards "
        f"{_ratio_text(cluster, 'speedup_3shard_vs_1shard')} vs 1; "
        + ", ".join(
            f"{name} {e['wall.throughput_per_s']:.0f}/s"
            for name, e in bench.items()
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
