"""``python -m bench compare PARENT_DIR CHANGE_DIR``: paired runs, verdicts.

Each directory is a checkout holding ``src/repro``.  Both sides run this
benchmark's code for ``run_seconds``, so only ``repro`` differs.  For each
workload, pair ``i`` of :data:`MIN_PAIRS` runs both sides with seed
``--seed + i``, alternating which side goes first.  Every end-to-end
metric, and the two wall-clock metrics, then get one row and a verdict
from :func:`bench.stats.verdict` under the bounds in ``BENCHMARK.json``.
Pairs whose host speed (``spin_ms``) differs by more than 10%, and pairs
whose output digests differ, are flagged.

A run with a failed operation is not correct (:func:`bench.workloads.check`)
and stops the comparison of its workload, so a change that fails more
operations than its parent can never show a gain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench import OUT, load_spec
from bench.run import run_child
from bench.stats import quartiles, verdict
from bench.workloads import WALL_METRICS

MIN_PAIRS = 10
SPIN_TOLERANCE = 0.10


def _spin(result: dict) -> float:
    host = result["host"]
    return (host["spin_ms_before"] + host["spin_ms_after"]) / 2.0


def compare_workload(name, sides, seed, spec):
    """Run the alternating pairs; return (rows, flags) or None."""
    pairs, seconds = MIN_PAIRS, spec["run_seconds"]
    runs = {"parent": [], "change": []}
    flags = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_child(name, seed + i, seconds, False, sides[side])
            if result is None or not result["correct"]:
                print(f"{name}: {side} run {i} failed", file=sys.stderr)
                return None
            runs[side].append(result)
        parent, change = runs["parent"][i], runs["change"][i]
        spins = _spin(parent), _spin(change)
        if abs(spins[0] - spins[1]) > SPIN_TOLERANCE * min(spins):
            flags.append(f"pair {i}: host spin_ms {spins[0]:.1f} vs "
                         f"{spins[1]:.1f}")
        if parent["digest"] != change["digest"]:
            flags.append(f"pair {i}: output digests differ")
    rows = []
    for metric in _judged_metrics(spec):
        key = metric["name"]
        p = [r["metrics"][key] for r in runs["parent"]]
        c = [r["metrics"][key] for r in runs["change"]]
        sign = 1 if metric["better"] == "higher" else -1
        rows.append({
            "workload": name, "metric": key, "unit": metric["unit"],
            "parent": quartiles(p), "change": quartiles(c),
            "wins": sum(1 for a, b in zip(p, c) if sign * (b - a) > 0),
            "pairs": pairs,
            "verdict": verdict(p, c, metric["better"],
                               metric.get("bound", 0.0)),
            "parent_runs": p, "change_runs": c,
        })
    return rows, flags


def _judged_metrics(spec):
    """The end-to-end metrics, then the wall-clock ones.

    The wall-clock metrics have no bound, so they can show a gain but
    never a regression: when the change reads worse they are unresolved.
    """
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    return spec["end_to_end"] + [per_layer[key] for key in WALL_METRICS]


def main(args) -> int:
    sides = {"parent": Path(args.parent_dir).resolve() / "src",
             "change": Path(args.change_dir).resolve() / "src"}
    for side, src in sides.items():
        if not (src / "repro").is_dir():
            print(f"{side}: no repro package under {src}", file=sys.stderr)
            return 2
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"rows": [], "flags": {}, "failed": []}
    for name in names:
        outcome = compare_workload(name, sides, args.seed, spec)
        if outcome is None:
            report["failed"].append(name)
            continue
        rows, flags = outcome
        report["rows"].extend(rows)
        report["flags"][name] = flags
    print(f"{'workload':<14} {'metric':<22} {'parent q1/med/q3':<30} "
          f"{'change q1/med/q3':<30} {'wins':>6}  verdict")
    for row in report["rows"]:
        cells = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("parent", "change")]
        print(f"{row['workload']:<14} {row['metric']:<22} {cells[0]:<30} "
              f"{cells[1]:<30} {row['wins']:>3}/{row['pairs']:<2}  "
              f"{row['verdict']}")
    for name, flags in report["flags"].items():
        for flag in flags:
            print(f"flag {name}: {flag}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "compare.json").write_text(json.dumps(report, indent=2))
    regressions = [r for r in report["rows"] if r["verdict"] == "regression"]
    return 1 if report["failed"] or regressions else 0
