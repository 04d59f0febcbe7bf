"""Decoded reports hold their samples as packed doubles.

``MeasurementReport.samples`` is an ``array("d")``: 8 B a sample plus one
array header, where a list of floats costs about 32 B a sample (a 24 B
float object and an 8 B pointer) plus the list's own header.

The test measures what a held report costs for its samples alone: the
heap of reports decoded with their samples, less the heap of the same
reports decoded with none, per sample.  What a report holds besides its
samples (ids, position, scalars, the instance's dict on interpreters
that give a dataclass one) cancels out, so the bound is not tied to one
CPython version.  The reference is a list of floats decoded from the
same JSON in the same interpreter, and the samples of a held report may
cost at most half of it.  Measured with ``tracemalloc`` on CPython 3.11,
heap per held sample:

=========  ==============  ===================  ====================
 samples    list of floats  report, samples in   report, samples in
            (reference)     a list               an ``array("d")``
=========  ==============  ===================  ====================
 10         43.1 B          36.7 B (0.85x)       8.2 B (0.19x)
 50         33.6 B          32.3 B (0.96x)       8.1 B (0.24x)
=========  ==============  ===================  ====================

The figures are from CPython 3.11; the bound is a ratio
taken in the interpreter that runs the test, so it does not depend on
them.

A fresh interpreter decodes each report from its JSON bytes, as the
server and the store-live benchmark's preload do, so no float object is
shared with the test's inputs.
"""

import json
import subprocess
import sys

import pytest

from repro.serve.loadgen import synthetic_report

#: A held report's samples may cost at most this share of a list of floats.
MAX_SHARE_OF_LIST = 0.5
#: Reports decoded and held per run.
REPORTS = 1800

HOLD = """
import json, sys, tracemalloc

from repro.serve.wire import report_from_wire

def held_bytes(decode, lines):
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = [decode(line) for line in lines]
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return held, after - before

full, bare = json.load(sys.stdin)
full = [line.encode() for line in full]
bare = [line.encode() for line in bare]
reports, with_samples = held_bytes(
    lambda line: report_from_wire(json.loads(line)), full)
_, without_samples = held_bytes(
    lambda line: report_from_wire(json.loads(line)), bare)
_, lists = held_bytes(lambda line: json.loads(line)["samples"], full)
json.dump({
    "samples": sum(len(r.samples) for r in reports),
    "report_bytes": with_samples - without_samples,
    "list_bytes": lists,
}, sys.stdout)
"""


def _wire(i, n_samples):
    """JSON report ``i`` shaped like the benchmark's: ``n_samples``
    samples spread around the report's value (50 for udp, 10 for ping)."""
    client, seq = i % 6, i // 6
    payload = synthetic_report(client, 0 if n_samples > 10 else 1)
    value = payload["value"]
    payload.update(
        task_id=seq + 1, start_s=seq * 60.0, end_s=seq * 60.0 + 1.0,
        samples=[value * (0.9 + 0.2 * j / max(n_samples - 1, 1))
                 for j in range(n_samples)],
    )
    return json.dumps(payload)


@pytest.mark.parametrize("n_samples", [10, 50])
def test_held_samples_cost_less_than_half_a_float_list(n_samples):
    full = [_wire(i, n_samples) for i in range(REPORTS)]
    bare = [_wire(i, 0) for i in range(REPORTS)]
    proc = subprocess.run(
        [sys.executable, "-c", HOLD],
        input=json.dumps([full, bare]), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["samples"] == REPORTS * n_samples
    per_sample = out["report_bytes"] / out["samples"]
    list_per_sample = out["list_bytes"] / out["samples"]
    assert per_sample <= MAX_SHARE_OF_LIST * list_per_sample, (
        f"{per_sample:.1f} B per held sample in {n_samples}-sample reports, "
        f"a list of floats takes {list_per_sample:.1f} B "
        f"(bound {MAX_SHARE_OF_LIST}x)"
    )
