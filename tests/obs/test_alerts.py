"""Tests for the declarative alert-rule engine."""

import gc
import json
import sys
import warnings

import pytest

from repro.obs.alerts import AlertEngine, AlertRule, load_rules, parse_rules
from repro.obs.telemetry import Telemetry


def _snap(t, counters=None, gauges=None):
    return {
        "v": 1,
        "seq": 0,
        "t": t,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": {},
    }


class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            AlertRule(name="r", metric="m", kind="bogus")

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            AlertRule(name="r", metric="m", op="==")

    def test_absence_ignores_op(self):
        AlertRule(name="r", metric="m", kind="absence", op="whatever")

    def test_for_count_floor(self):
        with pytest.raises(ValueError, match="for_count"):
            AlertRule(name="r", metric="m", for_count=0)


class TestThreshold:
    def test_fires_and_resolves(self):
        tel = Telemetry()
        rule = AlertRule(name="hot", metric="g", op=">", value=10.0)
        engine = AlertEngine([rule], tel)
        assert engine.evaluate(_snap(1.0, gauges={"g": 5.0})) == []
        out = engine.evaluate(_snap(2.0, gauges={"g": 11.0}))
        assert [o["transition"] for o in out] == ["fired"]
        assert engine.active() == [("hot", "g")]
        out = engine.evaluate(_snap(3.0, gauges={"g": 2.0}))
        assert [o["transition"] for o in out] == ["resolved"]
        assert engine.active() == []

    def test_for_count_requires_consecutive_breaches(self):
        tel = Telemetry()
        rule = AlertRule(name="r", metric="g", op=">=", value=1.0, for_count=3)
        engine = AlertEngine([rule], tel)
        assert engine.evaluate(_snap(1.0, gauges={"g": 1.0})) == []
        assert engine.evaluate(_snap(2.0, gauges={"g": 1.0})) == []
        # A dip resets the streak.
        assert engine.evaluate(_snap(3.0, gauges={"g": 0.0})) == []
        assert engine.evaluate(_snap(4.0, gauges={"g": 1.0})) == []
        assert engine.evaluate(_snap(5.0, gauges={"g": 1.0})) == []
        out = engine.evaluate(_snap(6.0, gauges={"g": 1.0}))
        assert [o["transition"] for o in out] == ["fired"]

    def test_emits_events_and_counters(self):
        tel = Telemetry()
        rule = AlertRule(name="r", metric="c", op=">", value=0.0)
        engine = AlertEngine([rule], tel)
        engine.evaluate(_snap(5.0, counters={"c": 1.0}))
        events = tel.events.events()
        assert events[-1]["kind"] == "alert.fired"
        assert events[-1]["t"] == 5.0
        assert events[-1]["rule"] == "r"
        assert tel.metrics.counter_value("obs.alerts_fired") == 1

    def test_pattern_matches_each_metric_independently(self):
        tel = Telemetry()
        rule = AlertRule(name="rej", metric="validator.reject.*", op=">", value=0.0)
        engine = AlertEngine([rule], tel)
        out = engine.evaluate(_snap(1.0, counters={
            "validator.reject.stale": 1.0,
            "validator.reject.range": 0.0,
            "other": 9.0,
        }))
        assert [(o["metric"], o["transition"]) for o in out] == [
            ("validator.reject.stale", "fired")
        ]

    def test_vanished_metric_resolves(self):
        tel = Telemetry()
        rule = AlertRule(name="r", metric="g", op=">", value=0.0)
        engine = AlertEngine([rule], tel)
        engine.evaluate(_snap(1.0, gauges={"g": 1.0}))
        out = engine.evaluate(_snap(2.0, gauges={}))
        assert [o["transition"] for o in out] == ["resolved"]


class TestRate:
    def test_first_snapshot_never_breaches(self):
        tel = Telemetry()
        rule = AlertRule(name="r", metric="c", kind="rate", op=">", value=1.0)
        engine = AlertEngine([rule], tel)
        assert engine.evaluate(_snap(10.0, counters={"c": 100.0})) == []

    def test_rate_of_change_fires(self):
        tel = Telemetry()
        rule = AlertRule(name="r", metric="c", kind="rate", op=">", value=1.0)
        engine = AlertEngine([rule], tel)
        engine.evaluate(_snap(10.0, counters={"c": 0.0}))
        out = engine.evaluate(_snap(20.0, counters={"c": 100.0}))  # 10/s
        assert [o["transition"] for o in out] == ["fired"]
        assert out[0]["value"] == pytest.approx(10.0)

    def test_stall_detection_with_le(self):
        """op '<=' 0.0 on a counter's rate detects 'nothing arriving'."""
        tel = Telemetry()
        rule = AlertRule(
            name="stalled", metric="c", kind="rate", op="<=", value=0.0,
            for_count=2,
        )
        engine = AlertEngine([rule], tel)
        engine.evaluate(_snap(10.0, counters={"c": 5.0}))
        assert engine.evaluate(_snap(20.0, counters={"c": 5.0})) == []
        out = engine.evaluate(_snap(30.0, counters={"c": 5.0}))
        assert [o["transition"] for o in out] == ["fired"]
        out = engine.evaluate(_snap(40.0, counters={"c": 9.0}))
        assert [o["transition"] for o in out] == ["resolved"]


class TestAbsence:
    def test_fires_while_missing_then_resolves(self):
        tel = Telemetry()
        rule = AlertRule(name="up", metric="coordinator.ticks", kind="absence")
        engine = AlertEngine([rule], tel)
        out = engine.evaluate(_snap(1.0))
        assert [o["transition"] for o in out] == ["fired"]
        out = engine.evaluate(_snap(2.0, counters={"coordinator.ticks": 1.0}))
        assert [o["transition"] for o in out] == ["resolved"]


class TestDeterminism:
    def test_identical_snapshot_streams_identical_transitions(self):
        rules = [
            AlertRule(name="a", metric="g", op=">", value=1.0),
            AlertRule(name="b", metric="c*", op=">", value=0.0),
        ]
        snaps = [
            _snap(1.0, counters={"c1": 0.0, "c2": 1.0}, gauges={"g": 0.0}),
            _snap(2.0, counters={"c1": 2.0, "c2": 1.0}, gauges={"g": 5.0}),
            _snap(3.0, counters={"c1": 0.0}, gauges={"g": 0.0}),
        ]
        runs = []
        for _ in range(2):
            engine = AlertEngine(rules, Telemetry())
            for s in snaps:
                engine.evaluate(s)
            runs.append(engine.transitions)
        assert runs[0] == runs[1]
        assert len(runs[0]) > 0


class TestLoading:
    def test_parse_rules_minimal(self):
        rules = parse_rules({"rules": [{"name": "r", "metric": "m"}]})
        assert rules[0].kind == "threshold"
        assert rules[0].for_count == 1

    def test_parse_rules_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_rules({"rules": [{"name": "r", "metric": "m", "oops": 1}]})

    def test_parse_rules_requires_list(self):
        with pytest.raises(ValueError, match="'rules' list"):
            parse_rules({"rules": {}})

    def test_parse_rules_missing_name(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_rules({"rules": [{"metric": "m"}]})

    def test_load_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(
            {"rules": [{"name": "r", "metric": "m", "op": ">=", "value": 2}]}
        ))
        rules = load_rules(path)
        assert rules[0].value == 2.0

    def test_load_closes_the_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{"name": "r", "metric": "m"}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_rules(path)
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib requires Python 3.11+"
    )
    def test_load_toml(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\nname = "r"\nmetric = "m"\nvalue = 3.5\n'
        )
        rules = load_rules(path)
        assert rules[0].value == 3.5

    def test_example_rules_parse(self):
        import os

        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        rules = load_rules(os.path.join(here, "examples", "alert_rules.json"))
        assert {r.kind for r in rules} == {"rate", "absence", "threshold"}
        if sys.version_info >= (3, 11):
            toml_rules = load_rules(
                os.path.join(here, "examples", "alert_rules.toml")
            )
            assert [
                (r.name, r.metric, r.kind, r.op, r.value, r.for_count,
                 r.severity) for r in toml_rules
            ] == [
                (r.name, r.metric, r.kind, r.op, r.value, r.for_count,
                 r.severity) for r in rules
            ]
