"""Per-run dashboard from a trace: the backend of ``repro report``.

Where ``repro trace`` prints a quick summary, this module renders the
full §6-style story of one run from its JSONL record stream, in eight
sections:

1. **critical path** — per-attempt durations and the slowest replica
   dependency chain (what verification actually waited on);
2. **node timeline** — per-node busy/idle occupancy over the run window
   (an ASCII/HTML strip per node, plus busy seconds and utilization);
3. **verification tail** — the distribution of ``verify`` span
   durations against fixed buckets, and how far verification ran past
   the last task (the "offline, off the critical path" claim);
4. **suspicion series** — the Fig. 12/13 band time-series read back
   from gauge samples (``suspicion_band_nodes`` et al., published by
   the one shared code path in :mod:`repro.core.gauges`);
5. **event log** — faults, quarantines, evictions, equivocations,
   saturation and every other instant event, in stream order;
6. **network** — simulated message-network counters from the trailing
   metrics snapshot, with dropped messages broken out by cause
   (``filtered`` — a drop rule rejected the send, including
   in-flight messages swept by a filter installed mid-flight —
   vs ``undeliverable`` — no endpoint registered under that name);
7. **slo alerts** — the built-in alert rules of
   :mod:`repro.telemetry.slo` evaluated over the record stream (the
   same deterministic firings ``repro alerts`` prints);
8. **rerun economics** — what rerun escalation actually cost and what
   the checkpoint tier saved: per-run attempts, reused (committed)
   jobs and checkpoint commits from the run spans, plus checkpoint
   restores replayed on resume and timeout escalations (with how
   often the ``max_verifier_timeout`` cap clamped them).

``--profile`` adds a host-time section: when the trace was recorded
with ``wall_clock=True``, the gaps between consecutive records' host
timestamps are attributed to the record that closed the gap, giving a
coarse self-profile of the simulator (the ROADMAP's wall-clock item).

:func:`build_report` indexes the records once into a
:class:`~repro.telemetry.analysis.TraceModel` and builds every section
from it as data, a ``(title, lines)`` pair; :func:`render_text` joins
the pairs and :func:`render_html` wraps each in a heading and a
``<pre>`` block.  Everything here is a pure function of the record list
— rendering the same trace twice is byte-identical, which CI exploits.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field

from repro.reporting.tables import Series, Table, render_figure
from repro.telemetry.analysis import (
    TraceModel,
    TraceSummary,
    gauge_series,
    summarize,
)
from repro.telemetry.slo import DEFAULT_RULES, AlertFiring, evaluate

#: Verify-duration buckets (seconds, simulated) for section 3.
VERIFY_BUCKETS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Width (characters) of a node occupancy strip.
TIMELINE_CELLS = 60

#: Busy-fraction glyphs for the occupancy strip, from idle to saturated.
_OCCUPANCY_GLYPHS = " .:-=#"

#: Maximum rows in the rendered suspicion series (downsampled evenly).
MAX_SERIES_ROWS = 24

#: Maximum rows in the event log before truncation.
MAX_EVENT_ROWS = 48

#: Maximum rows in the profile hotspot table.
MAX_PROFILE_ROWS = 20

_BANDS = ("none", "low", "med", "high")


@dataclass
class NodeStrip:
    """One node's occupancy over the run window."""

    node: str
    busy_seconds: float
    tasks: int
    utilization: float  # busy_seconds / window length
    strip: str  # TIMELINE_CELLS glyphs, ' ' idle .. '#' saturated


@dataclass
class RunReport:
    """Every dashboard section, as data and as ``(title, lines)``."""

    source: str | None
    warnings: list[str]
    summary: TraceSummary
    window: tuple[float, float]
    record_count: int
    nodes: list[NodeStrip] = field(default_factory=list)
    verify_buckets: list[tuple[str, int]] = field(default_factory=list)
    suspicion_rows: list[dict] = field(default_factory=list)
    event_rows: list[tuple[float, str, str]] = field(default_factory=list)
    events_truncated: int = 0
    #: (counter name, cause label, total) network message counters.
    network_rows: list[tuple[str, str, int]] = field(default_factory=list)
    #: (name, host_seconds, records) hotspots; None = profiling not requested.
    profile_rows: list[tuple[str, float, int]] | None = None
    profile_total: float = 0.0
    profile_missing: bool = False
    #: SLO alert firings (built-in rules) + how many rules were evaluated.
    alert_firings: list[AlertFiring] = field(default_factory=list)
    alert_rules_evaluated: int = 0
    #: Lines above the first section: source, window, warnings, runs.
    overview: list[str] = field(default_factory=list)
    #: ``(title, lines)`` of each section in order; the text and HTML
    #: renderers only lay these out.
    sections: list[tuple[str, list[str]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


def _node_strips(trace: TraceModel, top_nodes: int) -> list[NodeStrip]:
    intervals: dict[str, list[tuple[float, float]]] = {}
    for span in trace.spans.get("task", ()):
        node = (span.get("attrs") or {}).get("node")
        if node is not None:
            intervals.setdefault(str(node), []).append((span["start"], span["end"]))

    t0, t1 = trace.window
    length = max(t1 - t0, 1e-12)
    cell = length / TIMELINE_CELLS
    strips: list[NodeStrip] = []
    for node, spans in intervals.items():
        busy = sum(end - start for start, end in spans)
        occupancy = [0.0] * TIMELINE_CELLS
        for start, end in spans:
            for index in range(TIMELINE_CELLS):
                lo = t0 + index * cell
                hi = lo + cell
                overlap = min(end, hi) - max(start, lo)
                if overlap > 0:
                    occupancy[index] += overlap / cell
        glyphs = []
        for value in occupancy:
            # value is summed concurrency; clamp at 1.5+ tasks => '#'.
            scaled = min(value / 1.5, 1.0)
            glyphs.append(
                _OCCUPANCY_GLYPHS[
                    min(
                        int(scaled * (len(_OCCUPANCY_GLYPHS) - 1) + 1e-9),
                        len(_OCCUPANCY_GLYPHS) - 1,
                    )
                    if value > 0
                    else 0
                ]
            )
        strips.append(
            NodeStrip(
                node=node,
                busy_seconds=busy,
                tasks=len(spans),
                utilization=busy / length,
                strip="".join(glyphs),
            )
        )
    strips.sort(key=lambda s: (-s.busy_seconds, s.node))
    return strips[:top_nodes]


def _verify_histogram(trace: TraceModel) -> list[tuple[str, int]]:
    counts = [0] * (len(VERIFY_BUCKETS) + 1)
    for span in trace.spans.get("verify", ()):
        duration = span["end"] - span["start"]
        for index, boundary in enumerate(VERIFY_BUCKETS):
            if duration <= boundary:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    rows: list[tuple[str, int]] = []
    previous = 0.0
    for boundary, count in zip(VERIFY_BUCKETS, counts):
        rows.append((f"{previous:g}–{boundary:g}s", count))
        previous = boundary
    rows.append((f">{VERIFY_BUCKETS[-1]:g}s", counts[-1]))
    return rows


def _suspicion_rows(trace: TraceModel) -> list[dict]:
    """Time-indexed band counts, merged across gauge series."""
    by_time: dict[float, dict] = {}

    def row(ts: float) -> dict:
        if ts not in by_time:
            by_time[ts] = {"time": ts}
        return by_time[ts]

    for band in _BANDS:
        for ts, value in gauge_series(trace, "suspicion_band_nodes", band=band):
            row(ts)[band] = value
    for name, column in (
        ("suspicion_suspects", "suspects"),
        ("fault_analyzer_disjoint_sets", "|D|"),
        ("nodes_quarantined", "quarantined"),
    ):
        for ts, value in gauge_series(trace, name):
            row(ts)[column] = value
    rows = [by_time[ts] for ts in sorted(by_time)]
    # Carry the last seen value forward so downsampling never shows
    # holes, then keep only the latest row per timestamp.
    carried: dict = {}
    for entry in rows:
        carried.update(entry)
        entry.update({k: v for k, v in carried.items() if k not in entry})
    if len(rows) > MAX_SERIES_ROWS:
        stride = (len(rows) + MAX_SERIES_ROWS - 1) // MAX_SERIES_ROWS
        sampled = rows[::stride]
        if sampled[-1] is not rows[-1]:
            sampled.append(rows[-1])
        rows = sampled
    return rows


def _event_rows(trace: TraceModel) -> tuple[list[tuple[float, str, str]], int]:
    rows: list[tuple[float, str, str]] = []
    for event in trace.events:
        attrs = event.get("attrs") or {}
        detail = " ".join(
            f"{key}={_compact(value)}" for key, value in sorted(attrs.items())
        )
        rows.append((event.get("ts", 0.0), event["name"], detail))
    truncated = max(len(rows) - MAX_EVENT_ROWS, 0)
    return rows[:MAX_EVENT_ROWS], truncated


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value), separators=(",", ":"))
    return str(value)


def _network_rows(trace: TraceModel) -> list[tuple[str, str, int]]:
    """Message-network counter totals from the trailing metrics
    snapshot, sorted by (name, cause) for stable rendering."""
    rows: list[tuple[str, str, int]] = []
    for name, metrics in trace.metrics.items():
        if not name.startswith("network_messages_"):
            continue
        for metric in metrics:
            if metric.get("metric_kind") == "counter":
                labels = metric.get("labels") or {}
                rows.append((name, str(labels.get("cause", "")), int(metric["value"])))
    rows.sort()
    return rows


def _profile_rows(
    trace: TraceModel,
) -> tuple[list[tuple[str, float, int]], float, bool]:
    """Attribute host-time gaps between consecutive records.

    The gap before record *i* is the simulator work that produced it, so
    it is charged to record *i*'s name.  Coarse, but it needs no extra
    instrumentation beyond ``wall_clock=True`` and reliably surfaces
    which subsystem burns host time.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (_, previous), (name, host) in zip(trace.host_times, trace.host_times[1:]):
        seconds[name] = seconds.get(name, 0.0) + (host - previous)
        counts[name] = counts.get(name, 0) + 1
    rows = sorted(
        ((name, total, counts[name]) for name, total in seconds.items()),
        key=lambda item: (-item[1], item[0]),
    )[:MAX_PROFILE_ROWS]
    total = sum(seconds.values())
    return rows, total, not trace.host_times


def build_report(
    records: list[dict] | TraceModel,
    source: str | None = None,
    warnings: list[str] | None = None,
    top_nodes: int = 16,
    profile: bool = False,
) -> RunReport:
    """Assemble every dashboard section from a record stream."""
    trace = TraceModel.of(records)
    report = RunReport(
        source=source,
        warnings=list(warnings or []),
        summary=summarize(trace),
        window=trace.window,
        record_count=len(trace.records),
        nodes=_node_strips(trace, top_nodes),
        verify_buckets=_verify_histogram(trace),
        suspicion_rows=_suspicion_rows(trace),
        network_rows=_network_rows(trace),
        alert_firings=evaluate(trace, DEFAULT_RULES),
        alert_rules_evaluated=len(DEFAULT_RULES),
    )
    report.event_rows, report.events_truncated = _event_rows(trace)
    report.overview = _overview(report)
    report.sections = [(title, lines(report)) for title, lines in _SECTIONS]
    if profile:
        report.profile_rows, report.profile_total, report.profile_missing = (
            _profile_rows(trace)
        )
        report.sections.append(("host-time profile", _profile_section(report)))
    return report


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _overview(report: RunReport) -> list[str]:
    lines = ["repro report" + (f" — {report.source}" if report.source else "")]
    t0, t1 = report.window
    lines.append(
        f"window: {t0:.3f}s – {t1:.3f}s simulated "
        f"({report.record_count} trace records)"
    )
    lines += [f"warning: {warning}" for warning in report.warnings]
    for span in report.summary.run_spans:
        attrs = span.get("attrs") or {}
        lines.append(
            f"run {attrs.get('script_id', '?')}: "
            f"{span['end'] - span['start']:.3f}s simulated, "
            f"mode={attrs.get('mode', '?')}, assured={attrs.get('assured', '?')}"
        )
    return lines


def _critical_path_section(report: RunReport) -> list[str]:
    if not report.summary.attempts:
        return ["no job/task spans in trace"]
    lines = []
    for attempt in report.summary.attempts:
        lines.append(
            f"attempt {attempt.attempt}: {attempt.duration:.3f}s, "
            f"{attempt.jobs} job replicas, {attempt.tasks} tasks "
            f"({attempt.task_seconds:.3f} busy task-seconds)"
        )
        if attempt.critical_path:
            cp = attempt.critical_path
            lines.append(
                f"  critical path (replica {cp.replica}, {cp.duration:.3f}s): "
                + " -> ".join(cp.job_ids)
            )
    return lines


def _timeline_section(report: RunReport) -> list[str]:
    if not report.nodes:
        return ["no per-node task spans in trace"]
    width = max(len(strip.node) for strip in report.nodes)
    lines = [
        f"{strip.node:<{width}} |{strip.strip}| "
        f"{strip.busy_seconds:9.3f}s busy, {strip.tasks:4d} tasks, "
        f"{strip.utilization * 100:5.1f}%"
        for strip in report.nodes
    ]
    total_nodes = len(report.summary.node_seconds)
    if total_nodes > len(report.nodes):
        lines.append(f"... {total_nodes - len(report.nodes)} more nodes")
    return lines


def _verification_section(report: RunReport) -> list[str]:
    summary = report.summary
    if summary.verify_count == 0:
        return ["no verify spans in trace"]
    status = ", ".join(f"{k}={v}" for k, v in sorted(summary.verify_by_status.items()))
    table = Table("verify span durations", ["bucket", "count", ""])
    peak = max((count for _, count in report.verify_buckets), default=0)
    for label, count in report.verify_buckets:
        bar = "#" * (0 if peak == 0 else round(count / peak * 30))
        table.add_row(label, count, bar)
    return [
        f"{summary.verify_seconds:.3f} span-seconds across "
        f"{summary.verify_count} sids ({status})",
        f"tail past last task: {summary.verify_tail_seconds:.3f}s "
        f"(offline, off the critical path)",
        "",
        table.render(),
    ]


def _suspicion_section(report: RunReport) -> list[str]:
    if not report.suspicion_rows:
        return [
            "no suspicion gauge samples in trace "
            "(series are published by fault handling; a fault-free plain "
            "run carries none)"
        ]
    columns = ["low", "med", "high", "suspects", "|D|"]
    if any("quarantined" in row for row in report.suspicion_rows):
        columns.append("quarantined")
    series = [Series(name) for name in columns]
    for row in report.suspicion_rows:
        for column, entry in zip(columns, series):
            entry.add(f"{row['time']:g}", float(row.get(column, 0)))
    return [render_figure("suspicion bands over time", "time", series)]


def _event_section(report: RunReport) -> list[str]:
    if not report.event_rows:
        return ["no events in trace"]
    counts = Table("event counts", ["event", "count"])
    for name, count in sorted(report.summary.event_counts.items()):
        counts.add_row(name, count)
    lines = [counts.render(), ""]
    for ts, name, detail in report.event_rows:
        lines.append(f"[{ts:10.3f}] {name:<24} {detail}")
    if report.events_truncated:
        lines.append(f"... {report.events_truncated} more events")
    return lines


def _network_section(report: RunReport) -> list[str]:
    if not report.network_rows:
        return [
            "no network counters in trace (runs without a replicated "
            "front-end exchange no simulated messages, and counters "
            "need the trailing metrics snapshot)"
        ]
    table = Table("message counters", ["counter", "cause", "count"])
    for name, cause, value in report.network_rows:
        table.add_row(name, cause or "-", value)
    return [table.render()]


def _alert_section(report: RunReport) -> list[str]:
    evaluated = f"{report.alert_rules_evaluated} built-in rules evaluated"
    if not report.alert_firings:
        return [f"no alerts fired ({evaluated})"]
    still = sum(1 for f in report.alert_firings if f.resolved_at is None)
    table = Table(
        "alert firings", ["severity", "rule", "fired at", "resolved at", "peak"]
    )
    for firing in report.alert_firings:
        table.add_row(
            firing.severity,
            firing.rule + firing.group_label,
            f"{firing.fired_at:.3f}",
            "-" if firing.resolved_at is None else f"{firing.resolved_at:.3f}",
            f"{firing.peak:g}",
        )
    return [
        f"{still} firing, {len(report.alert_firings) - still} resolved ({evaluated})",
        table.render(),
    ]


def _rerun_section(report: RunReport) -> list[str]:
    summary = report.summary
    if not summary.run_spans:
        return ["no run spans in trace"]
    table = Table("per-run reuse", ["run", "attempts", "reused jobs", "checkpoints"])
    for span in summary.run_spans:
        attrs = span.get("attrs") or {}
        table.add_row(
            attrs.get("script_id", "?"),
            attrs.get("attempts", "-"),
            attrs.get("reused_jobs", 0),
            attrs.get("checkpoints", 0),
        )
    counts = summary.event_counts
    return [
        table.render(),
        "",
        f"checkpoint commits: {counts.get('checkpoint.commit', 0)}, "
        f"restored on resume: {counts.get('checkpoint.restore', 0)}",
        f"timeout escalations: {counts.get('escalation', 0)} "
        f"(capped by max_verifier_timeout: "
        f"{counts.get('audit.timeout_cap', 0)})",
    ]


def _profile_section(report: RunReport) -> list[str]:
    if report.profile_missing:
        return [
            "trace has no host_time fields; record with "
            "Telemetry.recording(wall_clock=True) or "
            "`repro run --trace out.jsonl --profile-host`"
        ]
    table = Table("hotspots", ["record name", "host seconds", "records", "share"])
    for name, seconds, count in report.profile_rows or ():
        total = report.profile_total
        share = seconds / total * 100 if total > 0 else 0.0
        table.add_row(name, f"{seconds:.4f}", count, f"{share:.1f}%")
    return [
        f"{report.profile_total:.3f} host-seconds attributed across "
        f"record gaps (coarse: each gap charged to the record that "
        f"closed it)",
        "",
        table.render(),
    ]


_SUSPICION_TITLE = "4. suspicion series"

#: The numbered sections of every report, in order.
_SECTIONS = (
    ("1. critical path", _critical_path_section),
    ("2. node timeline (busy/idle)", _timeline_section),
    ("3. verification tail", _verification_section),
    (_SUSPICION_TITLE, _suspicion_section),
    ("5. event log", _event_section),
    ("6. network", _network_section),
    ("7. slo alerts", _alert_section),
    ("8. rerun economics", _rerun_section),
)


def render_text(report: RunReport) -> str:
    lines = list(report.overview)
    for title, body in report.sections:
        lines += ["", title, "=" * len(title), *body]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# html rendering
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
pre { background: #f6f6fa; padding: .8rem; overflow-x: auto;
      border-left: 3px solid #5555aa; font-size: .82rem; line-height: 1.35; }
.warning { color: #aa3311; font-weight: 600; }
svg { background: #f6f6fa; border-left: 3px solid #5555aa; }
.legend span { margin-right: 1.2rem; font-size: .85rem; }
"""

_SERIES_COLORS = {
    "low": "#7aa6c2",
    "med": "#e0a83c",
    "high": "#c94f3d",
    "suspects": "#5b5ea6",
    "|D|": "#3d8b5f",
    "quarantined": "#8a5ac2",
}


def _svg_series_chart(rows: list[dict], width: int = 640, height: int = 220) -> str:
    """Inline SVG line chart of the suspicion series (deterministic)."""
    columns = [c for c in ("low", "med", "high", "suspects", "|D|", "quarantined")
               if any(c in row for row in rows)]
    if not rows or not columns:
        return ""
    times = [row["time"] for row in rows]
    t_lo, t_hi = min(times), max(times)
    v_hi = max(
        (float(row.get(column, 0)) for row in rows for column in columns),
        default=0.0,
    )
    t_span = max(t_hi - t_lo, 1e-9)
    v_span = max(v_hi, 1e-9)
    pad = 28
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    # axes
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - 8}" '
        f'y2="{height - pad}" stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{pad}" y1="8" x2="{pad}" y2="{height - pad}" '
        f'stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="10">{t_lo:g}</text>'
    )
    parts.append(
        f'<text x="{width - 40}" y="{height - 8}" font-size="10">{t_hi:g}</text>'
    )
    parts.append(f'<text x="4" y="16" font-size="10">{v_hi:g}</text>')
    for column in columns:
        points = []
        for row in rows:
            x = pad + (row["time"] - t_lo) / t_span * (width - pad - 12)
            y = (height - pad) - float(row.get(column, 0)) / v_span * (
                height - pad - 14
            )
            points.append(f"{x:.1f},{y:.1f}")
        color = _SERIES_COLORS.get(column, "#333333")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{" ".join(points)}"/>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span style="color:{_SERIES_COLORS.get(c, "#333")}">&#9632; '
        f"{_html.escape(c)}</span>"
        for c in columns
    )
    return f'<div class="legend">{legend}</div>\n' + "".join(parts)


def render_html(report: RunReport) -> str:
    """Single-file HTML dashboard (no external assets, deterministic).

    Each section's text, as :func:`render_text` lays it out, becomes one
    ``<pre>`` block under its title, so the two formats can never drift
    apart; the suspicion series is also charted as SVG.
    """
    source = f" — {report.source}" if report.source else ""
    title = "repro report" + _html.escape(source)
    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{title}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{title}</h1>",
    ]
    for warning in report.warnings:
        out.append(f'<p class="warning">warning: {_html.escape(warning)}</p>')
    out.append(_pre(report.overview))
    for heading, body in report.sections:
        out.append(f"<h2>{_html.escape(heading)}</h2>")
        if heading == _SUSPICION_TITLE and report.suspicion_rows:
            out.append(_svg_series_chart(report.suspicion_rows))
        out.append(_pre(body))
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def _pre(lines: list[str]) -> str:
    return f"<pre>{_html.escape(chr(10).join(lines).strip(chr(10)))}</pre>"
