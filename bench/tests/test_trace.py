"""Span recording: self-time arithmetic, patching, caps."""

import pytest

from bench import trace
from bench.trace import Tracer


class FakeClock:
    """Returns the scripted times in order, one per call."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return float(next(self._times))


def test_self_time_is_duration_minus_children():
    # root [0, 10] calls a [1, 4] then b [5, 9]; b calls c [6, 8].
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    a = tracer.wrap("a", lambda: None)
    root = tracer.wrap("root", lambda: (a(), b()))
    root()

    table = tracer.table()
    assert table["root"] == {"calls": 1, "total_ms": 10000.0,
                             "self_ms": 3000.0}
    assert table["a"]["self_ms"] == 3000.0
    assert table["b"]["self_ms"] == 2000.0
    assert table["b"]["total_ms"] == 4000.0
    assert table["c"]["self_ms"] == 2000.0
    # Self times of one tree add up to its root's duration.
    assert sum(row["self_ms"] for row in table.values()) == 10000.0

    spans = {name: (span_id, parent, root_id)
             for span_id, name, _, _, parent, root_id in tracer.spans}
    root_id = spans["root"][0]
    assert spans["root"] == (root_id, 0, root_id)
    assert spans["a"][1:] == (root_id, root_id)
    assert spans["b"][1:] == (root_id, root_id)
    assert spans["c"][1:] == (spans["b"][0], root_id)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))

    def fail():
        raise KeyError("boom")

    inner = tracer.wrap("inner", fail)
    outer = tracer.wrap("outer", inner)
    with pytest.raises(KeyError):
        outer()
    table = tracer.table()
    assert table["inner"]["self_ms"] == 2000.0
    assert table["outer"]["self_ms"] == 2000.0


def test_recorded_span_is_standalone():
    tracer = Tracer(clock=FakeClock([0, 10]))
    tracer.record("open", 2.0, 5.0)
    tracer.wrap("call", lambda: None)()
    table = tracer.table()
    assert table["open"]["self_ms"] == 3000.0
    assert table["call"]["self_ms"] == 10000.0
    assert tracer.spans[0][4] == 0  # no parent


def test_span_cap_keeps_totals():
    tracer = Tracer(span_cap=2)
    f = tracer.wrap("f", lambda: None)
    for _ in range(3):
        f()
    assert len(tracer.spans) == 2
    assert tracer.spans_dropped == 1
    assert tracer.table()["f"]["calls"] == 3


class Box:
    @staticmethod
    def double(x):
        return 2 * x

    def name(self):
        return "box"


def test_patch_keeps_staticmethods_and_undoes():
    tracer = Tracer()
    tracer.install([("box.double", __name__, "Box.double"),
                    ("box.name", __name__, "Box.name")])
    assert Box().double(3) == 6 and Box.double(4) == 8
    assert Box().name() == "box"
    assert tracer.table()["box.double"]["calls"] == 2
    tracer.uninstall()
    assert Box.double.__name__ == "double"
    assert not hasattr(Box.double, "__wrapped__")
    assert not hasattr(Box.name, "__wrapped__")


def test_every_target_resolves_in_repro():
    tracer = Tracer()
    tracer.install(trace.TARGETS + trace.CLIENT_TARGETS)
    try:
        names = [name for name, _, _ in trace.TARGETS + trace.CLIENT_TARGETS]
        assert len(set(names)) == len(names)
    finally:
        tracer.uninstall()
    from repro.serve import server

    assert not hasattr(server.report_from_wire, "__wrapped__")
