"""The sharded sweep execution engine.

:class:`SweepRunner` executes every cell of a
:class:`~repro.sweep.grid.SweepGrid` and leaves a self-describing
output directory::

    OUT/
      sweep_manifest.json     grid hash + worker config (provenance)
      sweep_status.json       wall-clock / schedule record (NOT deterministic)
      cells/<cell_id>/        one directory per cell:
        cell.json             identity + status + scenario metrics
        metrics.json          per-cell telemetry registry snapshot
        events.jsonl          per-cell structured event log
        spans.json            per-cell host timings (NOT deterministic)
      metrics.json            merged by the reducer (after run / `sweep merge`)
      summary.jsonl           one line per cell, cell-id order

Execution model
---------------

``workers <= 1`` runs every cell inline — no subprocesses, useful for
debugging and as the byte-identical baseline.  ``workers > 1`` spawns a
pool of worker processes fed from a **bounded** task queue (depth
``2 * workers``), so a million-cell grid never materializes in queue
memory.  Each worker owns a
:class:`~repro.sweep.scenarios.WorkerContext` whose warm caches (built
landscapes, survey traces) persist across the cells it executes.

Fault tolerance: a worker that dies mid-cell (OOM-kill, segfault,
``os._exit``) is detected by the supervisor, the in-flight cell is
requeued up to ``max_retries`` times, and a replacement worker is
spawned.  A cell that keeps killing workers is marked ``failed`` in its
``cell.json`` and the sweep carries on — one poisoned cell cannot sink
a thousand-cell grid.

Determinism: a cell's artifacts are a pure function of the cell itself
(scenario + seed + overrides; RNG is spawn-keyed off the cell id), so
``cell.json``/``metrics.json``/``events.jsonl`` — and everything the
reducer folds from them — are byte-identical for any worker count or
schedule.  Wall-clock and scheduling live only in ``sweep_status.json``
and ``spans.json``, which are excluded from determinism guarantees.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable
from typing import Any, Dict, List, Optional

from repro._canon import write_pretty_json
from repro.sweep.grid import (
    CELL_FILENAME,
    CELLS_DIRNAME,
    STATUS_FILENAME,
    SWEEP_MANIFEST_FILENAME,
    SweepCell,
    SweepGrid,
    SweepManifest,
)

__all__ = ["SweepRunner", "SweepResult", "run_cell", "pick_start_method"]

#: Seconds the supervisor waits on the workers' pipes per poll.
_POLL_S = 0.05

#: Directory (under OUT/) of per-worker in-flight marker files.
_WORKERS_DIRNAME = ".workers"


def _marker_path(out_dir: str, worker_id: int) -> str:
    return os.path.join(out_dir, _WORKERS_DIRNAME, f"{worker_id}.cell")


def pick_start_method(requested: str = "auto") -> str:
    """Resolve the multiprocessing start method.

    ``auto`` prefers ``fork`` (cheap worker startup, Linux default) and
    falls back to ``spawn`` where fork is unavailable (e.g. Windows).
    """
    available = multiprocessing.get_all_start_methods()
    if requested != "auto":
        if requested not in available:
            raise ValueError(
                f"start method {requested!r} not available (options: "
                f"{', '.join(available)})"
            )
        return requested
    return "fork" if "fork" in available else "spawn"


def run_cell(cell: SweepCell, ctx, out_dir: str) -> Dict[str, Any]:
    """Execute one cell and write its artifact directory.

    Installs a fresh ambient :class:`~repro.obs.telemetry.Telemetry`
    for the duration of the scenario, then writes ``cell.json`` plus the
    telemetry artifacts under ``out_dir/cells/<cell_id>/``; the cell's
    ``events.jsonl`` is streamed there as the scenario runs.  Exceptions
    are captured into a ``status: error`` cell record — they never
    propagate out of a worker.

    Returns the cell record dict (what ``cell.json`` contains).
    """
    from repro.obs import Telemetry, use_telemetry
    from repro.sweep.scenarios import get_scenario

    cell_dir = os.path.join(out_dir, CELLS_DIRNAME, cell.cell_id)
    os.makedirs(cell_dir, exist_ok=True)
    record: Dict[str, Any] = dict(cell.to_dict(), cell_id=cell.cell_id)
    ctx.cell_dir = cell_dir
    with Telemetry(out_dir=cell_dir) as telemetry:
        #: The cap is run configuration (identical on every worker), so
        #: the gauge is schedule-independent and safe in deterministic
        #: artifacts; live size/evictions are NOT (they depend on which
        #: cells this worker ran) and go only to sweep_status.json.
        cache_max = getattr(ctx, "cache_max", None)
        if cache_max is not None:
            telemetry.metrics.gauge("sweep.context_cache_max").set(cache_max)
        try:
            fn = get_scenario(cell.scenario)
            with use_telemetry(telemetry):
                metrics = fn(cell, ctx)
            record["status"] = "ok"
            record["metrics"] = metrics if metrics is not None else {}
        except Exception as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["metrics"] = {}
            with open(os.path.join(cell_dir, "traceback.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(traceback.format_exc())
        finally:
            ctx.cell_dir = None
        telemetry.write_artifacts(cell_dir)
    write_pretty_json(os.path.join(cell_dir, CELL_FILENAME), record)
    return record


def _worker_main(worker_id: int, out_dir: str, task_q, conn,
                 cache_max: Optional[int] = None) -> None:
    """Worker loop: pull cell dicts until the ``None`` sentinel arrives.

    Before running each cell the worker synchronously writes its id to a
    per-worker marker file, which is what the supervisor trusts when
    attributing a dead worker's in-flight cell.  Messages go to the
    supervisor over this worker's own pipe ``conn``, sent synchronously
    between cells.  A shared ``multiprocessing.Queue`` would not do: its
    feeder thread can be killed holding the queue's write lock when the
    cell kills the process (``os._exit``, segfault, OOM-kill), and every
    other worker's messages then stall behind that lock.
    """
    from repro.sweep.scenarios import WorkerContext

    ctx = WorkerContext() if cache_max is None else WorkerContext(cache_max)
    marker = _marker_path(out_dir, worker_id)
    while True:
        item = task_q.get()
        if item is None:
            break
        cell = SweepCell.from_dict(item)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(cell.cell_id)
        conn.send(("started", worker_id, cell.cell_id))
        t0 = time.perf_counter()
        record = run_cell(cell, ctx, out_dir)
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("")
        conn.send((
            "done", worker_id, cell.cell_id, record["status"],
            time.perf_counter() - t0, ctx.cache_size, ctx.evictions,
        ))


@dataclass
class SweepResult:
    """Outcome of one sweep run: per-status counts plus the schedule log."""

    out_dir: str
    total: int
    ok: int = 0
    error: int = 0
    failed: int = 0
    retries: int = 0
    wall_s: float = 0.0
    statuses: Dict[str, str] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        """True when every cell completed with scenario status ``ok``."""
        return self.ok == self.total


class SweepRunner:
    """Shard a grid's cells across a (possibly single-process) worker pool."""

    def __init__(
        self,
        grid: SweepGrid,
        out_dir: str,
        workers: int = 1,
        max_retries: int = 1,
        start_method: str = "auto",
        queue_depth: Optional[int] = None,
        context_cache_max: Optional[int] = None,
        store_path: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if context_cache_max is not None and context_cache_max < 1:
            raise ValueError("context_cache_max must be >= 1")
        self.grid = grid
        self.out_dir = out_dir
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.start_method = pick_start_method(start_method)
        self.queue_depth = queue_depth or 2 * self.workers
        #: LRU bound on each worker's WorkerContext memo (the
        #: ``sweep.context_cache_max`` knob); None takes the default.
        self.context_cache_max = context_cache_max
        #: Measurement-store target: when set, the reducer performs one
        #: merged ingest of the whole sweep after the fold (never
        #: per-cell — workers stay store-free on the hot path).
        self.store_path = store_path

    # -- public API ------------------------------------------------------

    def run(self, merge: bool = True) -> SweepResult:
        """Execute every cell; optionally fold results when done.

        Writes ``sweep_manifest.json`` up front (a killed run is still
        identifiable), ``sweep_status.json`` at the end, and — when
        ``merge`` — the reduced ``metrics.json``/``summary.jsonl``.
        """
        cells = self.grid.cells()
        os.makedirs(os.path.join(self.out_dir, CELLS_DIRNAME), exist_ok=True)
        os.makedirs(os.path.join(self.out_dir, _WORKERS_DIRNAME),
                    exist_ok=True)
        manifest = SweepManifest(
            self.grid, workers=self.workers, start_method=self.start_method,
            max_retries=self.max_retries,
        )
        manifest.write(os.path.join(self.out_dir, SWEEP_MANIFEST_FILENAME))

        t0 = time.perf_counter()
        if self.workers == 1:
            result = self._run_serial(cells)
        else:
            result = self._run_pool(cells)
        result.wall_s = time.perf_counter() - t0
        self._write_status(result)
        if merge:
            from repro.sweep.reduce import merge_cells

            merged = merge_cells(self.out_dir, store_path=self.store_path)
            if merged.store_rows is not None:
                self._record_store_status(merged)
        return result

    # -- serial path -----------------------------------------------------

    def _run_serial(self, cells: List[SweepCell]) -> SweepResult:
        from repro.sweep.scenarios import WorkerContext

        result = SweepResult(out_dir=self.out_dir, total=len(cells))
        ctx = (WorkerContext() if self.context_cache_max is None
               else WorkerContext(self.context_cache_max))
        self._durations: Dict[str, float] = {}
        self._cache_stats: Dict[int, Dict[str, int]] = {}
        for cell in cells:
            t0 = time.perf_counter()
            record = run_cell(cell, ctx, self.out_dir)
            self._durations[cell.cell_id] = time.perf_counter() - t0
            self._account(result, cell.cell_id, record["status"])
        self._cache_stats[0] = {
            "size": ctx.cache_size, "evictions": ctx.evictions,
        }
        return result

    # -- pool path -------------------------------------------------------

    def _run_pool(self, cells: List[SweepCell]) -> SweepResult:
        ctx = multiprocessing.get_context(self.start_method)
        self._prewarmed_landscapes = 0
        if self.start_method == "fork":
            #: Build each distinct world once in the parent BEFORE any
            #: worker forks: children then share the landscapes
            #: copy-on-write instead of each rebuilding them — the
            #: rebuild is what made an oversubscribed pool slower than
            #: serial.  Spawned workers can't inherit memory, so the
            #: prewarm is fork-only (they fall back to per-worker
            #: memos), and only scenarios flagged ``needs_landscape``
            #: trigger it — a smoke/bench grid never pays a world build.
            from repro.sweep.scenarios import (
                get_scenario,
                prewarm_shared_landscapes,
            )

            seeds = sorted({
                c.seed for c in cells
                if getattr(get_scenario(c.scenario), "needs_landscape",
                           False)
            })
            if seeds:
                self._prewarmed_landscapes = prewarm_shared_landscapes(
                    seeds
                )
        task_q = ctx.Queue(maxsize=self.queue_depth)
        result = SweepResult(out_dir=self.out_dir, total=len(cells))
        self._durations = {}
        self._cache_stats = {}

        by_id = {c.cell_id: c for c in cells}
        pending = deque(cells)
        retries: Dict[str, int] = {}
        inflight: Dict[int, Optional[str]] = {}  # worker -> started cell
        assigned: Dict[int, deque] = {}  # worker-unattributed dispatch order
        dispatched: Dict[str, int] = {}  # cell_id -> times queued
        completed: set = set()
        procs: Dict[int, Any] = {}
        readers: Dict[int, Any] = {}  # worker -> its message pipe
        next_worker_id = 0

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            reader, writer = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_worker_main,
                args=(wid, self.out_dir, task_q, writer,
                      self.context_cache_max),
                daemon=True,
            )
            p.start()
            writer.close()
            procs[wid] = p
            readers[wid] = reader
            inflight[wid] = None
            #: A worker that runs no cell still appears in the status.
            self._cache_stats[wid] = {"size": 0, "evictions": 0}

        def drain(wid: int) -> int:
            """Handle every message waiting in ``wid``'s pipe.

            A pipe at end-of-file belongs to a worker that exited; it is
            closed, and the dead-worker check reconciles its cells.
            """
            reader, handled = readers[wid], 0
            try:
                while reader.poll():
                    handle(reader.recv())
                    handled += 1
            except (EOFError, OSError):
                reader.close()
                del readers[wid]
            return handled

        def handle(msg: tuple) -> None:
            kind = msg[0]
            if kind == "started":
                _, wid, cell_id = msg
                inflight[wid] = cell_id
                try:
                    queued_not_started.remove(cell_id)
                except ValueError:
                    pass
            elif kind == "done":
                _, wid, cell_id, status, duration, size, evictions = msg
                inflight[wid] = None
                self._durations[cell_id] = duration
                self._cache_stats[wid] = {
                    "size": size, "evictions": evictions,
                }
                if cell_id not in completed:
                    self._account(result, cell_id, status)
                    completed.add(cell_id)

        for _ in range(min(self.workers, max(1, len(cells)))):
            spawn()

        queued_not_started: deque = deque()

        def feed() -> None:
            while pending:
                cell = pending[0]
                try:
                    task_q.put_nowait(cell.to_dict())
                except queue_mod.Full:
                    return
                pending.popleft()
                dispatched[cell.cell_id] = dispatched.get(cell.cell_id, 0) + 1
                queued_not_started.append(cell.cell_id)

        def requeue_or_fail(cell_id: str, reason: str) -> None:
            """A worker died holding ``cell_id``: retry or mark failed."""
            result.retries += 1
            retries[cell_id] = retries.get(cell_id, 0) + 1
            if retries[cell_id] <= self.max_retries:
                pending.append(by_id[cell_id])
            else:
                record = dict(
                    by_id[cell_id].to_dict(), cell_id=cell_id,
                    status="failed", metrics={},
                    error=f"worker died while running this cell ({reason}); "
                          f"gave up after {retries[cell_id]} attempt(s)",
                )
                cell_dir = os.path.join(
                    self.out_dir, CELLS_DIRNAME, cell_id
                )
                os.makedirs(cell_dir, exist_ok=True)
                write_pretty_json(os.path.join(cell_dir, CELL_FILENAME),
                                  record)
                self._account(result, cell_id, "failed")
                completed.add(cell_id)

        while len(completed) < len(by_id):
            feed()
            wait_readable(list(readers.values()), timeout=_POLL_S)
            if sum(drain(wid) for wid in list(readers)):
                continue

            # No message this poll: check for dead workers.  The marker
            # file is the authoritative record of what a dead worker
            # held: it is written before the "started" message is sent.
            # Both the marker cell AND the last cell the supervisor saw
            # "started" need reconciling.  An existing terminal
            # cell.json means the cell finished but the worker died
            # before sending its "done": artifacts are a pure function
            # of the cell, so the record on disk is final.
            dead = [wid for wid, p in procs.items() if not p.is_alive()]
            for wid in dead:
                p = procs.pop(wid)
                if wid in readers:
                    drain(wid)  # what it sent before exiting
                candidates = dict.fromkeys(
                    [inflight.pop(wid, None), self._read_marker(wid)]
                )
                for held in candidates:
                    if held is None or held in completed:
                        continue
                    try:
                        queued_not_started.remove(held)
                    except ValueError:
                        pass
                    status = self._cell_status_on_disk(held)
                    if status in ("ok", "error"):
                        self._account(result, held, status)
                        completed.add(held)
                    else:
                        requeue_or_fail(held, f"exit code {p.exitcode}")
                if len(completed) < len(by_id):
                    spawn()
            # Reconciliation for the narrow race where a worker died
            # between dequeuing a task and announcing "started": if no
            # workers hold anything, nothing is queued or pending, yet
            # cells remain, those dispatched cells were lost.
            if (
                not dead
                and not pending
                and all(v is None for v in inflight.values())
                and task_q.empty()
                and len(completed) < len(by_id)
            ):
                for cell_id in list(queued_not_started):
                    if cell_id not in completed:
                        queued_not_started.remove(cell_id)
                        requeue_or_fail(cell_id, "lost before start")

        # Shut the pool down.
        for _ in procs:
            try:
                task_q.put_nowait(None)
            except queue_mod.Full:
                break
        deadline = time.monotonic() + 5.0
        for p in procs.values():
            p.join(timeout=max(0.1, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
        for reader in readers.values():
            reader.close()
        return result

    # -- bookkeeping -----------------------------------------------------

    def _read_marker(self, worker_id: int) -> Optional[str]:
        """The cell id a (dead) worker recorded as in-flight, if any."""
        try:
            with open(_marker_path(self.out_dir, worker_id), "r",
                      encoding="utf-8") as fh:
                return fh.read().strip() or None
        except OSError:
            return None

    def _cell_status_on_disk(self, cell_id: str) -> Optional[str]:
        """The terminal status already in ``cells/<id>/cell.json``, if any."""
        path = os.path.join(self.out_dir, CELLS_DIRNAME, cell_id,
                            CELL_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh).get("status")
        except (OSError, ValueError):
            return None

    def _account(self, result: SweepResult, cell_id: str,
                 status: str) -> None:
        result.statuses[cell_id] = status
        if status == "ok":
            result.ok += 1
        elif status == "error":
            result.error += 1
        else:
            result.failed += 1

    def _write_status(self, result: SweepResult) -> None:
        """Write the non-deterministic schedule record sweep_status.json."""
        from repro.sweep.scenarios import DEFAULT_CONTEXT_CACHE_MAX

        cache_stats = getattr(self, "_cache_stats", {})
        status = {
            "workers": self.workers,
            "start_method": self.start_method,
            "max_retries": self.max_retries,
            "wall_s": result.wall_s,
            "cells_total": result.total,
            "cells_ok": result.ok,
            "cells_error": result.error,
            "cells_failed": result.failed,
            "retries": result.retries,
            #: Worker-memo LRU accounting.  Sizes/evictions depend on
            #: which cells each worker happened to run, which is why they
            #: live here and never in the deterministic cell artifacts.
            "context_cache": {
                "max": (self.context_cache_max
                        if self.context_cache_max is not None
                        else DEFAULT_CONTEXT_CACHE_MAX),
                "evictions": sum(
                    s["evictions"] for s in cache_stats.values()
                ),
                "sizes": {
                    str(wid): s["size"]
                    for wid, s in sorted(cache_stats.items())
                },
            },
            #: Landscapes built in the parent pre-fork (0 for serial,
            #: spawn, or when every seed was already shared).
            "prewarmed_landscapes": getattr(
                self, "_prewarmed_landscapes", 0
            ),
            "durations_s": {
                k: round(v, 6)
                for k, v in sorted(getattr(self, "_durations", {}).items())
            },
        }
        write_pretty_json(os.path.join(self.out_dir, STATUS_FILENAME), status)

    def _record_store_status(self, merged) -> None:
        """Note the reducer's store ingest in sweep_status.json.

        The status file is the sweep's non-deterministic record, which
        is exactly where a filesystem path belongs (the store's own
        ``logical_dump`` stays path-free for byte-comparisons).
        """
        path = os.path.join(self.out_dir, STATUS_FILENAME)
        with open(path, "r", encoding="utf-8") as fh:
            status = json.load(fh)
        status["store"] = {
            "path": merged.store_path,
            "rows_ingested": merged.store_rows,
        }
        write_pretty_json(path, status)
