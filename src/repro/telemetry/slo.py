"""SLO alert plane: declarative rules evaluated over trace records.

Rules are evaluated *offline* over the telemetry record stream (the
in-memory list a :class:`~repro.telemetry.spans.Tracer` accumulates, or
the JSONL rows ``repro trace`` reads back), indexed once into a
:class:`~repro.telemetry.analysis.TraceModel` that every rule reads.
Nothing here touches the event loop, the RNG, or the wall clock — alert
evaluation is a pure function of the records, so firings are deterministic for a seeded run
and identical whether the trace was streamed to disk or kept in memory.

Three record sources feed rules, addressed by a ``source`` string:

* ``gauge:<name>`` — timestamped gauge samples (``type: sample`` rows);
  the value series is the signal.
* ``event:<name>`` — discrete occurrences (``type: event`` rows); the
  signal is the cumulative count (threshold rules) or the occurrence
  times themselves (burn-rate rules).
* ``span:<name>`` — span durations (``type: span`` rows), as a
  point-per-span series; with ``percentile`` set, the running
  percentile of all durations seen so far is the signal (so a rule like
  "verify p99 > 60s" fires at the span that pushes the percentile over).

Two rule kinds:

* ``threshold`` — pointwise comparison against ``threshold`` with
  ``op``; a firing opens at the first crossing point and resolves at
  the first non-crossing point (``resolved_at`` stays ``None`` when the
  condition still holds at end of trace).
* ``burn_rate`` — rolling-window budget burn over event occurrences:
  fires when more than ``budget`` matching events fall inside any
  ``window`` sim-seconds; resolves when enough events age out.

``group_by`` fans one rule out over label/attr values (e.g. per
tenant); ``labels`` is a subset filter applied before grouping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.common.errors import RulesError
from repro.telemetry.analysis import TraceModel

__all__ = [
    "AlertRule",
    "AlertFiring",
    "DEFAULT_RULES",
    "parse_rules",
    "load_rules",
    "evaluate",
    "firing_rows",
    "render_alerts",
]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}

_SOURCE_KINDS = ("gauge", "event", "span")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert rule (see module docstring for semantics)."""

    name: str
    source: str  # "gauge:<name>" | "event:<name>" | "span:<name>"
    kind: str = "threshold"  # "threshold" | "burn_rate"
    op: str = ">="
    threshold: float = 1.0
    labels: tuple[tuple[str, str], ...] = ()
    group_by: tuple[str, ...] = ()
    window: float = 0.0  # burn_rate: rolling window, sim seconds
    budget: int = 0  # burn_rate: events allowed inside the window
    percentile: float | None = None  # span source: duration percentile
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        head, sep, tail = self.source.partition(":")
        if not sep or head not in _SOURCE_KINDS or not tail:
            raise ValueError(
                f"rule {self.name!r}: source must be "
                f"'gauge:<name>', 'event:<name>' or 'span:<name>', "
                f"got {self.source!r}"
            )
        if self.kind not in ("threshold", "burn_rate"):
            raise ValueError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.kind == "burn_rate":
            if head != "event":
                raise ValueError(
                    f"rule {self.name!r}: burn_rate rules need an event: source"
                )
            if self.window <= 0:
                raise ValueError(f"rule {self.name!r}: burn_rate needs window > 0")
        if self.percentile is not None and not 0.0 < self.percentile <= 1.0:
            raise ValueError(
                f"rule {self.name!r}: percentile must be in (0, 1]"
            )

    @property
    def source_kind(self) -> str:
        return self.source.partition(":")[0]

    @property
    def source_name(self) -> str:
        return self.source.partition(":")[2]


@dataclass
class AlertFiring:
    """One contiguous interval during which a rule's condition held."""

    rule: str
    severity: str
    group: tuple[tuple[str, str], ...] = ()
    fired_at: float = 0.0
    resolved_at: float | None = None  # None: still firing at end of trace
    value: float = 0.0  # signal value at the firing point
    peak: float = 0.0  # worst signal value while firing

    @property
    def group_label(self) -> str:
        if not self.group:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in self.group) + "}"


#: Built-in rule set: the assurance signals the paper's operator story
#: cares about.  Every rule reads series the existing instrumentation
#: already emits; evaluating them adds nothing to the trace.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        name="replica-suspicion",
        source="gauge:suspicion_suspects",
        op=">=",
        threshold=1.0,
        severity="warning",
        description="at least one node crossed the suspicion threshold",
    ),
    AlertRule(
        name="node-quarantine",
        source="gauge:nodes_quarantined",
        op=">=",
        threshold=1.0,
        severity="critical",
        description="scheduler quarantined a node",
    ),
    AlertRule(
        name="region-suspicion",
        source="gauge:region_suspicion",
        group_by=("region",),
        op=">=",
        threshold=0.5,
        severity="critical",
        description="a region's aggregate suspicion crossed 0.5",
    ),
    AlertRule(
        name="verification-timeout",
        source="event:verify.timeout",
        op=">=",
        threshold=1.0,
        severity="critical",
        description="a sub-graph verification deadline expired",
    ),
    AlertRule(
        name="node-crash",
        source="event:node.crashed",
        op=">=",
        threshold=1.0,
        severity="warning",
        description="a worker node crashed",
    ),
    AlertRule(
        name="verify-latency-p99",
        source="span:verify",
        percentile=0.99,
        op=">",
        threshold=60.0,
        severity="warning",
        description="p99 digest-verification latency above 60 sim-seconds",
    ),
    AlertRule(
        name="tenant-queue-depth",
        source="gauge:service_queue_depth",
        group_by=("tenant",),
        op=">=",
        threshold=4.0,
        severity="warning",
        description="a tenant's admission queue backed up past 4 jobs",
    ),
    AlertRule(
        name="admission-reject-burn",
        kind="burn_rate",
        source="event:audit.reject",
        group_by=("subject",),
        window=60.0,
        budget=0,
        severity="critical",
        description="more than 0 admission rejects within any 60s window",
    ),
)


# ----------------------------------------------------------------------
# rule parsing
# ----------------------------------------------------------------------


def parse_rules(data) -> list[AlertRule]:
    """Build rules from parsed JSON: a list, or ``{"rules": [...]}``.

    Fails closed: anything but a well-formed rule set raises
    :class:`~repro.common.errors.RulesError`.
    """
    if isinstance(data, dict):
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise RulesError("alert rules must be a list or {'rules': [...]}")
    rules: list[AlertRule] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise RulesError(f"rule #{i} is not an object")
        unknown = set(entry) - {
            "name",
            "source",
            "kind",
            "op",
            "threshold",
            "labels",
            "group_by",
            "window",
            "budget",
            "percentile",
            "severity",
            "description",
        }
        if unknown:
            raise RulesError(f"rule #{i}: unknown keys {sorted(unknown)}")
        if "name" not in entry or "source" not in entry:
            raise RulesError(f"rule #{i}: 'name' and 'source' are required")
        labels = entry.get("labels", {})
        if not isinstance(labels, dict):
            raise RulesError(f"rule #{i}: 'labels' must be an object")
        group_by = entry.get("group_by", [])
        if not isinstance(group_by, list):
            raise RulesError(f"rule #{i}: 'group_by' must be a list")
        try:
            rules.append(
                AlertRule(
                    name=str(entry["name"]),
                    source=str(entry["source"]),
                    kind=str(entry.get("kind", "threshold")),
                    op=str(entry.get("op", ">=")),
                    threshold=float(entry.get("threshold", 1.0)),
                    labels=tuple(
                        sorted((str(k), str(v)) for k, v in labels.items())
                    ),
                    group_by=tuple(str(g) for g in group_by),
                    window=float(entry.get("window", 0.0)),
                    budget=int(entry.get("budget", 0)),
                    percentile=(
                        float(entry["percentile"])
                        if entry.get("percentile") is not None
                        else None
                    ),
                    severity=str(entry.get("severity", "warning")),
                    description=str(entry.get("description", "")),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise RulesError(f"rule #{i}: {exc}") from None
    names = [r.name for r in rules]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise RulesError(f"duplicate rule names: {dupes}")
    return rules


def load_rules(path: str) -> list[AlertRule]:
    """Rules from a JSON file (:func:`parse_rules`); a file that is not
    UTF-8 JSON raises :class:`~repro.common.errors.RulesError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise RulesError(f"not a JSON rules document: {exc}") from None
    return parse_rules(data)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def _matches(rule: AlertRule, labels: dict) -> bool:
    return all(str(labels.get(k)) == v for k, v in rule.labels)


def _group_key(rule: AlertRule, labels: dict) -> tuple[tuple[str, str], ...]:
    return tuple((g, str(labels.get(g, ""))) for g in rule.group_by)


def _points(rule: AlertRule, trace: TraceModel):
    """Signal points ``(group, ts, value)`` in record order.

    Record order *is* the deterministic order (the tracer appends in
    simulation order and JSONL preserves it), so no re-sorting is done
    here — ties at equal sim timestamps keep their emission order.
    """
    kind, name = rule.source_kind, rule.source_name
    if kind == "gauge":
        for record in trace.samples.get(name, ()):
            labels = record.get("labels") or {}
            if _matches(rule, labels):
                yield _group_key(rule, labels), record["ts"], float(record["value"])
    elif kind == "event":
        counts: dict[tuple, int] = {}
        for record in trace.events_by_name.get(name, ()):
            labels = record.get("attrs") or {}
            if not _matches(rule, labels):
                continue
            group = _group_key(rule, labels)
            counts[group] = counts.get(group, 0) + 1
            yield group, record["ts"], float(counts[group])
    else:  # span
        durations: dict[tuple, list[float]] = {}
        for record in trace.spans.get(name, ()):
            labels = record.get("attrs") or {}
            if not _matches(rule, labels):
                continue
            group = _group_key(rule, labels)
            duration = float(record["end"]) - float(record["start"])
            if rule.percentile is None:
                yield group, record["end"], duration
            else:
                seen = durations.setdefault(group, [])
                seen.append(duration)
                ordered = sorted(seen)
                # Nearest-rank percentile: ceil(p * n), 1-indexed.
                rank = max(1, math.ceil(rule.percentile * len(ordered)))
                yield group, record["end"], ordered[rank - 1]


def _evaluate_threshold(rule: AlertRule, trace: TraceModel) -> list[AlertFiring]:
    compare = _OPS[rule.op]
    open_firings: dict[tuple, AlertFiring] = {}
    firings: list[AlertFiring] = []
    for group, ts, value in _points(rule, trace):
        firing = open_firings.get(group)
        if compare(value, rule.threshold):
            if firing is None:
                firing = AlertFiring(
                    rule=rule.name,
                    severity=rule.severity,
                    group=group,
                    fired_at=ts,
                    value=value,
                    peak=value,
                )
                open_firings[group] = firing
                firings.append(firing)
            else:
                firing.peak = max(firing.peak, value)
        elif firing is not None:
            firing.resolved_at = ts
            del open_firings[group]
    return firings


def _evaluate_burn_rate(rule: AlertRule, trace: TraceModel) -> list[AlertFiring]:
    # Timeline of (ts, +1 arrival) and (ts + window, -1 expiry) deltas,
    # walked in time order (expiries before arrivals at equal ts, so a
    # window is half-open: (ts - window, ts]).
    arrivals: dict[tuple, list[float]] = {}
    for group, ts, _value in _points(rule, trace):
        arrivals.setdefault(group, []).append(ts)
    firings: list[AlertFiring] = []
    for group in sorted(arrivals):
        timeline: list[tuple[float, int, int]] = []
        for ts in arrivals[group]:
            timeline.append((ts, 1, +1))  # arrivals after expiries on ties
            timeline.append((ts + rule.window, 0, -1))
        timeline.sort()
        active = 0
        firing: AlertFiring | None = None
        for ts, _order, delta in timeline:
            active += delta
            if firing is None and active > rule.budget:
                firing = AlertFiring(
                    rule=rule.name,
                    severity=rule.severity,
                    group=group,
                    fired_at=ts,
                    value=float(active),
                    peak=float(active),
                )
                firings.append(firing)
            elif firing is not None:
                if active > rule.budget:
                    firing.peak = max(firing.peak, float(active))
                else:
                    firing.resolved_at = ts
                    firing = None
    return firings


def evaluate(
    records: list[dict] | TraceModel,
    rules: list[AlertRule] | tuple[AlertRule, ...] | None = None,
) -> list[AlertFiring]:
    """Evaluate ``rules`` (default: :data:`DEFAULT_RULES`) over records.

    Returns firings sorted by ``(fired_at, rule name, group)`` — a total,
    deterministic order for a given record stream.
    """
    if rules is None:
        rules = DEFAULT_RULES
    trace = TraceModel.of(records)
    firings: list[AlertFiring] = []
    for rule in rules:
        if rule.kind == "burn_rate":
            firings.extend(_evaluate_burn_rate(rule, trace))
        else:
            firings.extend(_evaluate_threshold(rule, trace))
    firings.sort(key=lambda f: (f.fired_at, f.rule, f.group))
    return firings


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def firing_rows(firings: list[AlertFiring]) -> list[dict]:
    """JSON-ready rows (stable key order via sort_keys at dump time)."""
    return [
        {
            "rule": f.rule,
            "severity": f.severity,
            "group": dict(f.group),
            "fired_at": f.fired_at,
            "resolved_at": f.resolved_at,
            "value": f.value,
            "peak": f.peak,
        }
        for f in firings
    ]


def render_alerts(
    firings: list[AlertFiring],
    rules: list[AlertRule] | tuple[AlertRule, ...] | None = None,
) -> str:
    """Deterministic plain-text alert summary."""
    if rules is None:
        rules = DEFAULT_RULES
    still = sum(1 for f in firings if f.resolved_at is None)
    resolved = len(firings) - still
    lines = [
        f"alerts: {still} firing, {resolved} resolved "
        f"({len(rules)} rules evaluated)"
    ]
    for f in firings:
        tail = (
            "still firing"
            if f.resolved_at is None
            else f"resolved at {f.resolved_at:.3f}s"
        )
        lines.append(
            f"  [{f.severity}] {f.rule}{f.group_label} "
            f"fired at {f.fired_at:.3f}s, {tail} "
            f"(value={f.value:g}, peak={f.peak:g})"
        )
    if not firings:
        lines.append("  (none fired)")
    return "\n".join(lines)
