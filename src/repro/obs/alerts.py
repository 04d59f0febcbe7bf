"""Declarative alert rules evaluated against metric snapshots.

The judgment layer of the live telemetry pipeline: a set of
:class:`AlertRule` objects is evaluated against every snapshot a
:class:`~repro.obs.snapshots.SnapshotStreamer` produces, and rule state
transitions are emitted as structured ``alert.fired`` /
``alert.resolved`` events into the run's existing event log — so alerts
are sim-time-stamped, deterministic, and land in the same
``events.jsonl`` the rest of the tooling already reads.

Three rule kinds cover the operational questions WiScape's coordinator
needs answered (PAPER.md §3-4; AP-side analytics systems make the same
split):

* ``threshold`` — the metric's current value breaches ``op value``
  ("more than N streams under-covered");
* ``rate`` — the metric's per-sim-second rate of change between
  consecutive snapshots breaches ``op value`` ("reports have stopped
  arriving");
* ``absence`` — the metric is missing from the snapshot entirely ("the
  coordinator never came up").

``metric`` may be an ``fnmatch`` pattern (``validator.reject.*``); each
matching metric tracks its own independent fire/resolve state.  A rule
fires only after ``for_count`` *consecutive* breaching snapshots, which
is how "under-covered for 2 consecutive epochs" style judgments are
expressed without the engine knowing about epochs.

Rules load from JSON always, and from TOML on interpreters that ship
``tomllib`` (3.11+); see ``examples/alert_rules.toml``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.telemetry import Telemetry

__all__ = [
    "AlertRule",
    "AlertEngine",
    "load_rules",
    "parse_rules",
]

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_KINDS = ("threshold", "rate", "absence")


@dataclass(frozen=True)
class AlertRule:
    """One declarative judgment over a metric name or pattern."""

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    #: Consecutive breaching snapshots before the alert fires.
    for_count: int = 1
    severity: str = "warning"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if self.kind != "absence" and self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {', '.join(_OPS)})"
            )
        if self.for_count < 1:
            raise ValueError(f"rule {self.name!r}: for_count must be >= 1")


class _RuleState:
    """Fire/resolve bookkeeping for one (rule, resolved metric) pair."""

    __slots__ = ("breaches", "firing", "fired_at_s")

    def __init__(self):
        self.breaches = 0
        self.firing = False
        self.fired_at_s = 0.0


class AlertEngine:
    """Evaluates alert rules against successive snapshots.

    Subscribe :meth:`evaluate` to a ``SnapshotStreamer``.  Evaluation
    order is deterministic (rules in declaration order, matched metrics
    sorted), so two identical runs emit identical alert sequences.
    """

    def __init__(self, rules: Iterable[AlertRule], telemetry: Telemetry):
        self.rules: List[AlertRule] = list(rules)
        self.telemetry = telemetry
        self._state: Dict[Tuple[str, str], _RuleState] = {}
        self._prev: Optional[dict] = None
        #: Chronological record of transitions: (t, "fired"/"resolved",
        #: rule name, metric, value).  The CLI prints this at run end.
        self.transitions: List[Tuple[float, str, str, str, float]] = []

    # -- introspection ---------------------------------------------------

    def active(self) -> List[Tuple[str, str]]:
        """Currently-firing (rule name, metric) pairs, sorted."""
        return sorted(k for k, s in self._state.items() if s.firing)

    # -- evaluation ------------------------------------------------------

    def _targets(self, rule: AlertRule, values: Dict[str, float]) -> List[str]:
        if any(ch in rule.metric for ch in "*?["):
            return sorted(n for n in values if fnmatchcase(n, rule.metric))
        return [rule.metric] if rule.metric in values else []

    def _breach(
        self, rule: AlertRule, metric: str, values: Dict[str, float], dt: float
    ) -> Tuple[bool, float]:
        value = values[metric]
        if rule.kind == "threshold":
            return _OPS[rule.op](value, rule.value), value
        # rate: per-sim-second change since the previous snapshot; the
        # first snapshot has no baseline and never breaches.
        if self._prev is None or dt <= 0:
            return False, 0.0
        prev_values = self._prev.get("counters", {}).get(metric)
        if prev_values is None:
            prev_values = self._prev.get("gauges", {}).get(metric)
        if prev_values is None:
            return False, 0.0
        rate = (value - prev_values) / dt
        return _OPS[rule.op](rate, rule.value), rate

    def evaluate(self, snap: dict) -> List[dict]:
        """Judge one snapshot; returns the transitions it caused.

        Every transition is also emitted into the telemetry event log as
        an ``alert.fired`` or ``alert.resolved`` event and counted in
        the ``obs.alerts_fired`` / ``obs.alerts_resolved`` counters.
        """
        t = float(snap.get("t", 0.0))
        dt = t - float(self._prev.get("t", t)) if self._prev else 0.0
        values: Dict[str, float] = {}
        values.update(snap.get("counters", {}))
        values.update(snap.get("gauges", {}))
        out: List[dict] = []
        for rule in self.rules:
            if rule.kind == "absence":
                targets = self._targets(rule, values)
                breach = not targets
                out.extend(
                    self._transition(rule, rule.metric, breach, 0.0, t)
                )
                continue
            targets = self._targets(rule, values)
            for metric in targets:
                breach, value = self._breach(rule, metric, values, dt)
                out.extend(self._transition(rule, metric, breach, value, t))
            # A previously-seen metric vanishing from the snapshot ends
            # its breach streak (and resolves it if firing).
            for (name, metric), state in list(self._state.items()):
                if name == rule.name and metric not in targets and (
                    state.firing or state.breaches
                ):
                    if rule.kind != "absence":
                        out.extend(
                            self._transition(rule, metric, False, 0.0, t)
                        )
        self._prev = snap
        return out

    def _transition(
        self, rule: AlertRule, metric: str, breach: bool, value: float, t: float
    ) -> List[dict]:
        state = self._state.get((rule.name, metric))
        if state is None:
            state = self._state[(rule.name, metric)] = _RuleState()
        events: List[dict] = []
        if breach:
            state.breaches += 1
            if not state.firing and state.breaches >= rule.for_count:
                state.firing = True
                state.fired_at_s = t
                events.append(self._emit("alert.fired", rule, metric, value, t))
        else:
            state.breaches = 0
            if state.firing:
                state.firing = False
                events.append(
                    self._emit("alert.resolved", rule, metric, value, t)
                )
        return events

    def _emit(
        self, transition: str, rule: AlertRule, metric: str, value: float, t: float
    ) -> dict:
        # "kind" is the event-log envelope key (alert.fired/alert.resolved),
        # so the rule's own kind travels as rule_kind.
        fields = {
            "rule": rule.name,
            "metric": metric,
            "rule_kind": rule.kind,
            "severity": rule.severity,
            "value": float(value),
            "op": rule.op,
            "threshold": float(rule.value),
        }
        self.telemetry.emit(transition, t, **fields)
        short = "fired" if transition == "alert.fired" else "resolved"
        self.telemetry.metrics.counter(f"obs.alerts_{short}").inc()
        self.transitions.append((t, short, rule.name, metric, float(value)))
        return {"t": t, "transition": short, **fields}


# -- rule loading ----------------------------------------------------------


def parse_rules(data: dict) -> List[AlertRule]:
    """Build rules from a parsed config mapping ``{"rules": [...]}``."""
    raw = data.get("rules")
    if not isinstance(raw, list):
        raise ValueError("alert config must contain a 'rules' list")
    rules = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"rule #{i} must be a table/object")
        unknown = set(entry) - {
            "name", "metric", "kind", "op", "value", "for_count", "severity"
        }
        if unknown:
            raise ValueError(
                f"rule #{i}: unknown key(s) {', '.join(sorted(unknown))}"
            )
        try:
            rules.append(
                AlertRule(
                    name=str(entry["name"]),
                    metric=str(entry["metric"]),
                    kind=str(entry.get("kind", "threshold")),
                    op=str(entry.get("op", ">")),
                    value=float(entry.get("value", 0.0)),
                    for_count=int(entry.get("for_count", 1)),
                    severity=str(entry.get("severity", "warning")),
                )
            )
        except KeyError as exc:
            raise ValueError(f"rule #{i}: missing required key {exc}") from exc
    return rules


def load_rules(path) -> List[AlertRule]:
    """Load alert rules from a ``.toml`` or ``.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise RuntimeError(
                "TOML alert rules need Python >= 3.11 (tomllib); "
                "use a .json rules file on this interpreter"
            ) from exc
        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    return parse_rules(data)
