"""``python -m bench run``: each workload in a fresh child process.

Prints every metric by name with its unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` for a single
``--workload``, or ``{"correct", "workloads"}`` for all of them.  Exits
non-zero when a check fails or a child dies.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Optional

from bench import ROOT, load_spec
from bench.workloads import MEANING, WALL_METRICS

#: A child that has not finished by then is killed with its server.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              src: Path = ROOT / "src") -> Optional[dict]:
    """Run one workload against the ``repro`` under ``src``; None on failure.

    The child and every process it starts share a new session, so a
    timeout kills them all.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), str(ROOT), os.environ.get("PYTHONPATH"))
        if p))
    cmd = [sys.executable, "-m", "bench.workloads", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result after {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The result in the benchmark's output contract."""
    section = result["layers"] if trace else result["metrics"]
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": section[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    }


def print_result(result: dict, spec: dict, trace: bool) -> None:
    name = result["workload"]
    status = "correct" if result["correct"] else "CHECK FAILED"
    print(f"{name}: {status}; attempted {result['attempted']}, failed "
          f"{result['failed']}; digest {result['digest'][:16]}; "
          f"{len(result['passes'])} passes")
    for error in result["errors"]:
        print(f"  error: {error}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    meaning = dict(zip(WALL_METRICS, MEANING[name]))
    for key, value in result["metrics"].items():
        print(f"  {key:<22} {value:>14.6g} {units[key]:<5} "
              f"{meaning.get(key, '')}")
    if trace:
        for m in spec["per_layer"]:
            value = result["layers"][m["name"]]
            if value and m["name"] not in WALL_METRICS:
                print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")


def main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    lines = {}
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print_result(result, spec, args.trace)
        lines[name] = result_line(result, spec, args.trace)
    correct = all(line["correct"] for line in lines.values())
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({"correct": correct, "workloads": lines}))
    return 0 if correct else 1
