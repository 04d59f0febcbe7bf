"""The benchmark's reports copy the traffic ``repro monitor`` produces."""

import collections

from bench import workloads
from bench.shape import measure


def test_reports_carry_the_monitors_samples_per_kind():
    shape = measure(buses=2, hours=1)
    assert shape["samples_per_report"] == workloads.SAMPLES
    generated = [workloads.report(0, seq) for seq in range(90)]
    assert {r["kind"]: len(r["samples"]) for r in generated} \
        == workloads.SAMPLES


def test_udp_share_and_determinism():
    generated = [workloads.report(3, seq) for seq in range(900)]
    kinds = collections.Counter(r["kind"] for r in generated)
    assert kinds == {"udp": 200, "ping": 700}
    assert generated[17] == workloads.report(3, 17)
    assert [r["task_id"] for r in generated[:3]] == [1, 2, 3]


def test_every_generated_report_is_valid():
    from repro.core.validation import ReportValidator
    from repro.serve.wire import report_from_wire

    validator = ReportValidator()
    for seq in range(200):
        report = report_from_wire(workloads.report(7, seq))
        assert validator.validate(report, report.start_s).ok
