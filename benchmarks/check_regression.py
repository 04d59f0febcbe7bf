"""Perf-regression guard: fresh BENCH_perf.json vs BENCH_history.jsonl.

``run_perf.py`` asserts absolute speedup floors (10x / 5x), which catch
catastrophic regressions but not slow erosion — a change that drops a
35x speedup to 20x sails through the floor.  This guard compares the
fresh run's headline metrics (batch-path speedups, coordinator-service
throughput) against the recent history tail::

    PYTHONPATH=src python benchmarks/run_perf.py
    python benchmarks/check_regression.py

* regression past the metric's warn threshold vs the baseline ->
  warning (``::warning`` annotation under GitHub Actions);
* regression past its fail threshold -> exit 1.

Thresholds are per noise class (see ``TRACKED``): same-run speedup
ratios are tight (15% warn / 30% fail) because neighbor load cancels
out of a ratio; absolute loopback throughput/latency warn at 30% but
hard-fail only on a catastrophic move (halved throughput, doubled
latency), because on shared CI those swing 2x with the box's mood.

The baseline is the median of the last ``BASELINE_RUNS`` history
entries, excluding any trailing entries produced by the fresh run
itself (``run_perf.py`` appends its own result to the history before
this guard runs).  With no usable history the guard passes — the first
run on a new machine seeds the baseline instead of judging against
another machine's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF_PATH = REPO_ROOT / "BENCH_perf.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

#: (section, key, direction, noise) tuples guarded.  ``direction``
#: names which way regression points: "higher" metrics regress by
#: dropping (speedups, throughput), "lower" metrics regress by rising
#: (latency percentiles).  ``noise`` picks the threshold class:
#:
#: * ``ratio`` — same-run ratios (batch vs scalar in one process, batched
#:   vs unbatched against one server).  Neighbor load cancels out of a
#:   ratio, so these are tight: a 30% erosion is code, not weather.
#: * ``wallclock`` — absolute loopback throughput/latency.  On a shared
#:   1-CPU CI box these legitimately swing 2x with neighbor load (the
#:   same commit has measured 2.8k and 6.1k reports/s hours apart), so
#:   only a catastrophic move hard-fails; the 30% band still surfaces
#:   as a ``::warning`` annotation for a human to eyeball.
#:
#: The speedup entries match run_perf.py's hard floors; serve keys have
#: no absolute floor and are guarded only here, as non-regressions
#: against the history median.  Keys absent from older history rows
#: (e.g. ``reports_per_s_batched`` starts at PR 6) baseline cleanly:
#: rows contribute per-key.
TRACKED = (
    ("link_state", "speedup_batch_vs_scalar", "higher", "ratio"),
    ("udp_train", "speedup_batch_vs_reference", "higher", "ratio"),
    ("serve", "speedup_batched_vs_unbatched", "higher", "ratio"),
    ("serve", "reports_per_s", "higher", "wallclock"),
    ("serve", "reports_per_s_batched", "higher", "wallclock"),
    ("serve", "ack_p95_ms", "lower", "wallclock"),
    ("cluster", "reports_per_s", "higher", "wallclock"),
    ("store", "ingest_samples_per_s", "higher", "wallclock"),
)

#: (direction, noise) lookups for the check loop, keyed "section.key".
_DIRECTION = {f"{s}.{k}": d for s, k, d, _ in TRACKED}
_NOISE = {f"{s}.{k}": n for s, k, _, n in TRACKED}

WARN_DROP = 0.15
FAIL_DROP = 0.30
#: Wall-clock class: warn where ratios would already fail, hard-fail
#: only past what neighbor load plausibly explains — a halved
#: throughput ("higher") or a doubled latency ("lower").
WALLCLOCK_WARN = 0.30
WALLCLOCK_FAIL = {"higher": 0.50, "lower": 1.00}
BASELINE_RUNS = 5


def _metrics(entry: dict) -> Dict[str, float]:
    """Tracked metrics present in one result dict, keyed "section.key".

    Per-key tolerant by design: history predating a newly tracked
    metric (e.g. runs recorded before the serve bench existed) still
    contributes a baseline for the metrics it does have, instead of
    being discarded wholesale.  A ``null`` value -- a ratio
    ``run_perf.py`` records as not measured because the host has too
    few CPUs -- is skipped the same way, in the fresh run and in
    history alike.
    """
    out: Dict[str, float] = {}
    for section, key, _direction, _noise in TRACKED:
        value = entry.get(section, {}).get(key)
        if isinstance(value, (int, float)):
            out[f"{section}.{key}"] = float(value)
    return out


def load_history(path) -> List[dict]:
    """Parse history lines tolerantly (a truncated tail line is skipped)."""
    entries: List[dict] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and _metrics(row):
                entries.append(row)
    return entries


def check(fresh: dict, history: List[dict]) -> Tuple[List[str], List[str]]:
    """Compare a fresh result against history; returns (warnings, failures)."""
    fresh_metrics = _metrics(fresh)
    if not fresh_metrics:
        return [], ["fresh BENCH_perf.json is missing every tracked metric"]
    # run_perf.py appends the fresh run to the history before this guard
    # runs; a self-comparison would hide every regression.
    past = list(history)
    while past and _metrics(past[-1]) == fresh_metrics:
        past.pop()
    past = past[-BASELINE_RUNS:]
    if not past:
        return [], []
    warnings: List[str] = []
    failures: List[str] = []
    for name, current in sorted(fresh_metrics.items()):
        samples = [m[name] for m in map(_metrics, past) if name in m]
        if not samples:
            continue  # newly tracked metric: this run seeds its baseline
        baseline = statistics.median(samples)
        if baseline <= 0:
            continue
        #: Regression is direction-aware: a throughput/speedup metric
        #: regresses by dropping below baseline, a latency metric by
        #: rising above it — without this, a big ACK-latency win would
        #: read as a 'drop' and fail the guard.
        direction = _DIRECTION.get(name, "higher")
        if direction == "lower":
            regression = (current - baseline) / baseline
            verb = "rise"
        else:
            regression = (baseline - current) / baseline
            verb = "drop"
        if _NOISE.get(name) == "wallclock":
            warn_at = WALLCLOCK_WARN
            fail_at = WALLCLOCK_FAIL[direction]
        else:
            warn_at, fail_at = WARN_DROP, FAIL_DROP
        label = (
            f"{name}: {current:.1f} vs baseline "
            f"{baseline:.1f} (median of {len(samples)} run(s), "
            f"{regression:+.0%} {verb})"
        )
        if regression > fail_at:
            failures.append(label)
        elif regression > warn_at:
            warnings.append(label)
    return warnings, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--perf", default=str(PERF_PATH),
                        help="fresh BENCH_perf.json path")
    parser.add_argument("--history", default=str(HISTORY_PATH),
                        help="BENCH_history.jsonl path")
    args = parser.parse_args(argv)

    try:
        with open(args.perf, "r", encoding="utf-8") as fh:
            fresh = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.perf}: {exc}", file=sys.stderr)
        return 1
    history = load_history(args.history)
    warnings, failures = check(fresh, history)
    for w in warnings:
        print(f"::warning title=perf regression::{w}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    if not warnings:
        print(
            "perf guard OK"
            + ("" if history else " (no history baseline yet)")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
