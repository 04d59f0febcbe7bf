"""A served coordinator retains at most 12 B of heap per accepted sample.

``repro serve run`` never ticks, so its epochs never close and every
accepted sample stays in the zone records (DESIGN.md section 10,
"Known gap").  Records pack samples as doubles, 8 B each, in one buffer
whose head is the 4,000-sample NKLD pool: the pool shares the open
epoch's doubles instead of copying them.  The Allan series adds 16 B
per report, so 10-sample reports retain about 9.6 B a sample and
50-sample reports about 8.3 B, plus array over-allocation (measured:
9.7 and 8.6 B).  Boxed floats in lists cost about 48 B.

A fresh interpreter decodes each report from its JSON bytes, as the
server does, so no float object is shared with the test's inputs; the
growth is measured with ``tracemalloc`` after every record exists.
"""

import json
import subprocess
import sys

import pytest

from repro.serve.loadgen import synthetic_report

#: Heap bytes per retained sample the served coordinator may grow by.
BOUND_B = 12.0
#: Clients in the fleet; each reports from the same point every time, so
#: the warm-up round creates every record the measured rounds touch.
CLIENTS = 6
#: Reports per client after the warm-up round.
ROUNDS = 300

INGEST = """
import json, sys, tracemalloc

from repro.serve.server import build_coordinator
from repro.serve.wire import report_from_wire

warmup, measured = json.load(sys.stdin)
warmup = [line.encode() for line in warmup]
measured = [line.encode() for line in measured]
coordinator = build_coordinator()


def retained():
    return sum(len(r.open_samples) for r in coordinator.store.records())


tracemalloc.start()
for line in warmup:
    assert coordinator.ingest(report_from_wire(json.loads(line)))
before_bytes, before_samples = tracemalloc.get_traced_memory()[0], retained()
for line in measured:
    assert coordinator.ingest(report_from_wire(json.loads(line)))
after_bytes, after_samples = tracemalloc.get_traced_memory()[0], retained()
json.dump({
    "records": len(coordinator.store),
    "samples": after_samples - before_samples,
    "bytes": after_bytes - before_bytes,
}, sys.stdout)
"""


def _wire(client, seq, n_samples):
    """JSON report ``seq`` of ``client`` with ``n_samples`` samples."""
    payload = synthetic_report(client, 0 if n_samples > 10 else 1)
    value = payload["value"]
    payload.update(
        task_id=seq + 1, start_s=seq * 60.0, end_s=seq * 60.0 + 1.0,
        value=value * (1.0 + 0.001 * seq),
        samples=[value * (0.9 + 0.2 * (j + seq % 7) / (n_samples + 6))
                 for j in range(n_samples)],
    )
    return json.dumps(payload)


@pytest.mark.parametrize("n_samples", [10, 50])
def test_retained_sample_bytes_bounded(n_samples):
    warmup = [_wire(c, 0, n_samples) for c in range(CLIENTS)]
    measured = [_wire(c, seq, n_samples)
                for seq in range(1, ROUNDS + 1) for c in range(CLIENTS)]
    proc = subprocess.run(
        [sys.executable, "-c", INGEST],
        input=json.dumps([warmup, measured]), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["samples"] == len(measured) * n_samples
    per_sample = out["bytes"] / out["samples"]
    assert per_sample <= BOUND_B, (
        f"{per_sample:.1f} B per retained sample over {out['records']} "
        f"records (bound {BOUND_B} B)"
    )
