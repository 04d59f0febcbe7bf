"""Fold per-cell sweep artifacts into sweep-level summaries.

The reducer walks ``OUT/cells/<id>/`` in sorted cell-id order — an
order no scheduler can perturb — and writes two deterministic files at
the sweep root:

* ``summary.jsonl`` — one key-sorted JSON line per cell: identity
  (scenario, seed, overrides), status, and the scenario's metric dict.
  This is the machine-readable result of the sweep; byte-identical for
  any worker count.
* ``metrics.json`` — the cells' telemetry registries folded into one
  registry-shaped snapshot (counters summed, gauges averaged,
  histograms bucket-merged) plus ``sweep.cells_*`` roll-up counters.
  The shape matches a single run's ``metrics.json``, so ``repro obs
  report`` and ``repro obs diff`` consume a sweep directory unchanged.

Host-timing artifacts (per-cell ``spans.json``, ``sweep_status.json``)
are deliberately *not* folded: they are not deterministic and would
poison byte-comparisons between runs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro._canon import compact_json, write_pretty_json
from repro.obs.metrics import merge_snapshots
from repro.sweep.grid import (
    CELL_FILENAME,
    CELLS_DIRNAME,
    SUMMARY_FILENAME,
)

__all__ = ["merge_cells", "load_summary", "MergeResult"]

METRICS_FILENAME = "metrics.json"


class MergeResult:
    """What one reduce pass produced: paths, cell counts, warnings."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.cells = 0
        self.ok = 0
        self.warnings: List[str] = []
        #: Rows ingested into a measurement store, when the reduce pass
        #: was given a store target (None otherwise).
        self.store_rows: Optional[int] = None
        self.store_path: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MergeResult(cells={self.cells}, ok={self.ok}, "
                f"warnings={len(self.warnings)})")


def _load_cell_records(out_dir: str, result: MergeResult) -> List[dict]:
    cells_dir = os.path.join(out_dir, CELLS_DIRNAME)
    if not os.path.isdir(cells_dir):
        result.warnings.append(f"no {CELLS_DIRNAME}/ directory under "
                               f"{out_dir}")
        return []
    records = []
    for cell_id in sorted(os.listdir(cells_dir)):
        cell_path = os.path.join(cells_dir, cell_id, CELL_FILENAME)
        if not os.path.isfile(cell_path):
            result.warnings.append(
                f"cells/{cell_id}: missing {CELL_FILENAME} (cell still "
                "running, or killed before it wrote results?)"
            )
            continue
        try:
            with open(cell_path, "r", encoding="utf-8") as fh:
                records.append(json.load(fh))
        except (OSError, ValueError) as exc:
            result.warnings.append(f"cells/{cell_id}: unreadable "
                                   f"{CELL_FILENAME}: {exc}")
    return records


def merge_cells(out_dir: str,
                store_path: Optional[str] = None) -> MergeResult:
    """Reduce ``out_dir``'s cells into summary.jsonl + merged metrics.json.

    Tolerant by design: unreadable or missing cell artifacts become
    warnings on the returned :class:`MergeResult`, never exceptions —
    a partially-complete sweep must still be summarizable.

    With ``store_path``, the reducer additionally performs **one**
    merged ingest of the whole sweep root (the root run plus every
    cell run) into the measurement store at that path — a single
    post-merge import rather than per-cell store overhead on the hot
    execution path.  The sweep's label in the store is the output
    directory's basename; a run of the same label is replaced, so
    re-merging is idempotent.  ``MergeResult.store_rows`` records how
    many rows landed.
    """
    result = MergeResult(out_dir)
    records = _load_cell_records(out_dir, result)
    records.sort(key=lambda r: r.get("cell_id", ""))
    result.cells = len(records)
    result.ok = sum(1 for r in records if r.get("status") == "ok")

    summary_path = os.path.join(out_dir, SUMMARY_FILENAME)
    with open(summary_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(compact_json(record) + "\n")

    cell_metrics: List[dict] = []
    for record in records:
        cell_id = record.get("cell_id", "")
        path = os.path.join(out_dir, CELLS_DIRNAME, cell_id,
                            METRICS_FILENAME)
        if not os.path.isfile(path):
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cell_metrics.append(json.load(fh))
        except (OSError, ValueError) as exc:
            result.warnings.append(
                f"cells/{cell_id}: unreadable {METRICS_FILENAME}: {exc}"
            )
    #: Cells replicate one run, so gauges average over the cells that
    #: observed them; cell files are untrusted, so a bucket mismatch
    #: warns rather than raises.
    merged = merge_snapshots(cell_metrics, gauges="mean",
                             warnings=result.warnings)
    status_counts: Dict[str, int] = {}
    for record in records:
        status = str(record.get("status", "unknown"))
        status_counts[status] = status_counts.get(status, 0) + 1
    merged["counters"]["sweep.cells_total"] = float(len(records))
    for status in sorted(status_counts):
        merged["counters"][f"sweep.cells_{status}"] = float(
            status_counts[status]
        )
    write_pretty_json(os.path.join(out_dir, METRICS_FILENAME), merged)
    if store_path is not None:
        _ingest_into_store(out_dir, store_path, result)
    return result


def _ingest_into_store(out_dir: str, store_path: str,
                       result: MergeResult) -> None:
    """One merged store ingest of the reduced sweep root (tolerant)."""
    from repro.store import (
        StoreError,
        connect,
        import_sweep_root,
        resolve_store_path,
    )

    label = os.path.basename(os.path.normpath(out_dir)) or "sweep"
    try:
        conn = connect(resolve_store_path(store_path))
        try:
            imported = import_sweep_root(conn, out_dir, label, replace=True)
        finally:
            conn.close()
    except StoreError as exc:
        result.warnings.append(f"store ingest failed: {exc}")
        return
    result.store_rows = imported.rows_ingested
    result.store_path = store_path


def load_summary(out_dir: str) -> List[dict]:
    """Read ``summary.jsonl`` back into a list of cell records."""
    path = os.path.join(out_dir, SUMMARY_FILENAME)
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
