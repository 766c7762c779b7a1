"""Trace summarization: turn a JSONL trace back into §6-style numbers.

Backs the ``repro trace`` CLI subcommand.  Given the record stream of a
run, reconstructs:

* the **critical path per attempt** — over ``job`` spans, following the
  ``deps`` attribute the controller stamps on each job replica, the
  dependency chain with the largest end-to-end duration (computed per
  replica; the slowest replica chain is the one verification waits on);
* **time-in-verification vs time-in-execution** — summed ``verify`` span
  durations against summed ``task`` busy seconds, plus the verification
  tail that ran *after* the last task finished (the "offline, off the
  critical path" property of §3.3 made measurable);
* **per-node task time** — busy seconds and task counts by worker node.

:func:`diff_traces` compares two traces of the same script (e.g. a
faulty seed vs a clean one) at attempt/critical-path granularity —
backing ``repro trace --diff a.jsonl b.jsonl``.

Every reader of a trace starts from one :class:`TraceModel`, built in a
single pass over the record list: ``summarize``, the gauge helpers, the
SLO rules (:mod:`repro.telemetry.slo`), the straggler profile, the
causal graph and every section of ``repro report``.  Each of them takes
either the record list or a model, so a caller that needs several of
them indexes the trace once and hands the model to all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class TraceModel:
    """A record stream read once and indexed for every reader.

    Each group keeps stream order, so a reader walking one group sees
    its records in the order the tracer emitted them — the order every
    deterministic rendering and alert depends on.
    """

    #: The record list the model was built from (exporters read it).
    records: list[dict] = field(default_factory=list)
    #: Finished spans (``end`` set) by name.
    spans: dict[str, list[dict]] = field(default_factory=dict)
    #: Span records seen, finished or not.
    span_count: int = 0
    #: Every instant event, and the same events by name.
    events: list[dict] = field(default_factory=list)
    events_by_name: dict[str, list[dict]] = field(default_factory=dict)
    #: Gauge time-series points (``type: sample``) by name.
    samples: dict[str, list[dict]] = field(default_factory=dict)
    #: Metric snapshot rows (``type: metric``) by name.
    metrics: dict[str, list[dict]] = field(default_factory=dict)
    #: Record id -> span or event, finished or not: the parent and
    #: ``mid`` links of the causal graph resolve through it.
    ids: dict[int, dict] = field(default_factory=dict)
    #: Span id -> span name, finished or not (see :class:`TraceDiff`).
    span_names: dict[int, str] = field(default_factory=dict)
    #: (first, last) simulated time of any finished span, event or sample.
    window: tuple[float, float] = (0.0, 0.0)
    #: (record name, host time) of every record stamped with
    #: ``host_time`` (traces recorded with ``wall_clock=True``).
    host_times: list[tuple[str, float]] = field(default_factory=list)

    @classmethod
    def of(cls, records: "list[dict] | TraceModel") -> "TraceModel":
        """The model of ``records``; a model is returned as it is."""
        if isinstance(records, TraceModel):
            return records
        model = cls(records=records)
        start = end = None
        for record in records:
            host = record.get("host_time")
            if host is not None:
                label = record.get("name", record.get("type", "?"))
                model.host_times.append((label, host))
            kind = record.get("type")
            name = record.get("name", "")
            if kind == "span":
                model.span_count += 1
                if "id" in record:
                    model.ids[record["id"]] = record
                    model.span_names[record["id"]] = name
                if record.get("end") is None:
                    continue
                model.spans.setdefault(name, []).append(record)
                first, last = record["start"], record["end"]
            elif kind == "event":
                if "id" in record:
                    model.ids[record["id"]] = record
                model.events.append(record)
                model.events_by_name.setdefault(name, []).append(record)
                first = last = record.get("ts", 0.0)
            elif kind == "sample":
                model.samples.setdefault(name, []).append(record)
                first = last = record.get("ts", 0.0)
            elif kind == "metric":
                model.metrics.setdefault(name, []).append(record)
                continue
            else:
                continue
            start = first if start is None else min(start, first)
            end = last if end is None else max(end, last)
        if start is not None:
            model.window = (start, end)
        return model


@dataclass
class CriticalPath:
    replica: int
    job_ids: list[str]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class AttemptSummary:
    attempt: int
    start: float
    end: float
    jobs: int
    tasks: int
    task_seconds: float
    critical_path: CriticalPath | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceSummary:
    run_spans: list[dict] = field(default_factory=list)
    attempts: list[AttemptSummary] = field(default_factory=list)
    task_seconds: float = 0.0
    task_count: int = 0
    verify_seconds: float = 0.0
    verify_count: int = 0
    verify_by_status: dict[str, int] = field(default_factory=dict)
    #: Verification time past the last task completion (offline tail).
    verify_tail_seconds: float = 0.0
    node_seconds: dict[str, float] = field(default_factory=dict)
    node_tasks: dict[str, int] = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)
    metric_rows: list[dict] = field(default_factory=list)
    #: Gauge time-series points (``type: sample`` records, in order).
    sample_rows: list[dict] = field(default_factory=list)
    #: Span id -> span name (every span seen, finished or not).  Used by
    #: :class:`TraceDiff` to report added/removed spans when two traces
    #: of "the same" script diverge mid-run (e.g. one seed reruns an
    #: attempt): past the divergence point the same numeric id names
    #: different spans, so id-keyed pairing would lie.
    span_names: dict[int, str] = field(default_factory=dict)

    def render(self, top_nodes: int = 10) -> str:
        lines: list[str] = []
        for span in self.run_spans:
            attrs = span.get("attrs") or {}
            lines.append(
                f"run {attrs.get('script_id', '?')}: "
                f"{span['end'] - span['start']:.3f}s simulated, "
                f"mode={attrs.get('mode', '?')}"
            )
        lines.append("")
        lines.append("attempts:")
        for a in self.attempts:
            lines.append(
                f"  attempt {a.attempt}: {a.duration:.3f}s, "
                f"{a.jobs} job replicas, {a.tasks} tasks "
                f"({a.task_seconds:.3f} busy task-seconds)"
            )
            if a.critical_path:
                cp = a.critical_path
                chain = " -> ".join(cp.job_ids)
                lines.append(
                    f"    critical path (replica {cp.replica}, "
                    f"{cp.duration:.3f}s): {chain}"
                )
        lines.append("")
        lines.append(
            f"execution : {self.task_seconds:.3f} task-seconds "
            f"across {self.task_count} tasks"
        )
        status = ", ".join(
            f"{k}={v}" for k, v in sorted(self.verify_by_status.items())
        )
        lines.append(
            f"verification: {self.verify_seconds:.3f} span-seconds across "
            f"{self.verify_count} sids ({status or 'none'})"
        )
        lines.append(
            f"verification tail past last task: {self.verify_tail_seconds:.3f}s "
            f"(offline, off the critical path)"
        )
        lines.append("")
        lines.append("per-node task time:")
        ranked = sorted(
            self.node_seconds.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_nodes]
        for node, seconds in ranked:
            lines.append(
                f"  {node:<12} {seconds:10.3f}s  ({self.node_tasks.get(node, 0)} tasks)"
            )
        if len(self.node_seconds) > top_nodes:
            lines.append(f"  ... {len(self.node_seconds) - top_nodes} more nodes")
        if self.event_counts:
            lines.append("")
            lines.append("events:")
            for name, count in sorted(self.event_counts.items()):
                lines.append(f"  {name:<28} {count}")
        return "\n".join(lines)


def _critical_path(job_spans: list[dict]) -> CriticalPath | None:
    """Longest dependency chain by end-to-end duration, per replica."""
    by_replica: dict[int, dict[int, dict]] = {}
    for span in job_spans:
        attrs = span.get("attrs") or {}
        if "job_index" not in attrs:
            continue
        by_replica.setdefault(int(attrs.get("replica", 0)), {})[
            int(attrs["job_index"])
        ] = span

    best: CriticalPath | None = None
    for replica, jobs in by_replica.items():
        # chain(j) = the path ending at j with the earliest reachable start.
        starts: dict[int, float] = {}
        prev: dict[int, int | None] = {}

        def chain_start(index: int) -> float:
            if index in starts:
                return starts[index]
            span = jobs[index]
            deps = [
                d
                for d in (span.get("attrs") or {}).get("deps", [])
                if d in jobs
            ]
            starts[index] = span["start"]  # cycle guard
            best_dep: int | None = None
            best_start = span["start"]
            for dep in deps:
                dep_start = chain_start(dep)
                if dep_start < best_start:
                    best_start, best_dep = dep_start, dep
            starts[index] = best_start
            prev[index] = best_dep
            return best_start

        for index in jobs:
            chain_start(index)
        for index, span in jobs.items():
            end = span.get("end")
            if end is None:
                continue
            duration = end - starts[index]
            if best is None or duration > best.duration:
                path: list[int] = []
                cursor: int | None = index
                while cursor is not None:
                    path.append(cursor)
                    cursor = prev.get(cursor)
                path.reverse()
                best = CriticalPath(
                    replica=replica,
                    job_ids=[
                        (jobs[i].get("attrs") or {}).get("job_id", str(i))
                        for i in path
                    ],
                    start=starts[index],
                    end=end,
                )
    return best


def gauge_series(
    records: list[dict] | TraceModel, name: str, **labels
) -> list[tuple[float, float]]:
    """(ts, value) points of one gauge series, in emission order.

    Label matching is subset-style (omitted labels match anything), the
    same convention :meth:`MetricsRegistry.counter_value` uses.  This is
    the read-side of gauge sampling: benchmarks and reports regenerate
    Fig. 12/13-style timelines from a trace instead of keeping bespoke
    in-run bookkeeping.
    """
    want = {k: str(v) for k, v in labels.items()}
    points: list[tuple[float, float]] = []
    for record in TraceModel.of(records).samples.get(name, ()):
        have = {k: str(v) for k, v in (record.get("labels") or {}).items()}
        if all(have.get(k) == v for k, v in want.items()):
            points.append((record["ts"], record["value"]))
    return points


def last_gauge_value(
    records: list[dict] | TraceModel,
    name: str,
    default: float | None = None,
    **labels,
) -> float | None:
    """Final value of a gauge series (``default`` when never sampled)."""
    points = gauge_series(records, name, **labels)
    return points[-1][1] if points else default


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Deterministic and interpolation-free so benchmark baselines can be
    gated exactly: the result is always a member of ``values``.
    """
    if not values:
        raise ValueError("percentile of empty series")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def first_event(records: list[dict] | TraceModel, name: str) -> dict | None:
    """The first ``type: event`` record with ``name``, or None."""
    matches = TraceModel.of(records).events_by_name.get(name)
    return matches[0] if matches else None


def _fmt_delta(before: float, after: float) -> str:
    delta = after - before
    return f"{delta:+.3f}s"


@dataclass
class TraceDiff:
    """Attempt-level comparison of two traces of the same script."""

    a: TraceSummary
    b: TraceSummary
    label_a: str = "a"
    label_b: str = "b"

    def render(self, top_nodes: int = 5) -> str:
        lines: list[str] = []
        lines.append(f"trace diff: {self.label_a} -> {self.label_b}")

        for index, (span_a, span_b) in enumerate(
            zip(self.a.run_spans, self.b.run_spans)
        ):
            dur_a = span_a["end"] - span_a["start"]
            dur_b = span_b["end"] - span_b["start"]
            lines.append(
                f"run[{index}] : {dur_a:.3f}s -> {dur_b:.3f}s "
                f"({_fmt_delta(dur_a, dur_b)})"
            )

        lines.append("")
        lines.append("attempts:")
        attempts_a = {attempt.attempt: attempt for attempt in self.a.attempts}
        attempts_b = {attempt.attempt: attempt for attempt in self.b.attempts}
        for number in sorted(set(attempts_a) | set(attempts_b)):
            in_a, in_b = attempts_a.get(number), attempts_b.get(number)
            if in_a is None or in_b is None:
                present = self.label_b if in_a is None else self.label_a
                only = in_b if in_a is None else in_a
                lines.append(
                    f"  attempt {number}: only in {present} "
                    f"({only.duration:.3f}s, {only.jobs} job replicas, "
                    f"{only.tasks} tasks)"
                )
                continue
            lines.append(
                f"  attempt {number}: {in_a.duration:.3f}s -> "
                f"{in_b.duration:.3f}s ({_fmt_delta(in_a.duration, in_b.duration)}), "
                f"tasks {in_a.tasks} -> {in_b.tasks}, "
                f"busy {in_a.task_seconds:.3f}s -> {in_b.task_seconds:.3f}s"
            )
            cp_a, cp_b = in_a.critical_path, in_b.critical_path
            if cp_a and cp_b:
                lines.append(
                    f"    critical path: {cp_a.duration:.3f}s -> "
                    f"{cp_b.duration:.3f}s "
                    f"({_fmt_delta(cp_a.duration, cp_b.duration)})"
                )
                chain_a = " -> ".join(cp_a.job_ids)
                chain_b = " -> ".join(cp_b.job_ids)
                if chain_a != chain_b:
                    lines.append(f"      {self.label_a}: {chain_a}")
                    lines.append(f"      {self.label_b}: {chain_b}")

        lines.append("")
        lines.append(
            f"execution    : {self.a.task_seconds:.3f}s -> "
            f"{self.b.task_seconds:.3f}s "
            f"({_fmt_delta(self.a.task_seconds, self.b.task_seconds)}, "
            f"tasks {self.a.task_count} -> {self.b.task_count})"
        )
        lines.append(
            f"verification : {self.a.verify_seconds:.3f}s -> "
            f"{self.b.verify_seconds:.3f}s "
            f"({_fmt_delta(self.a.verify_seconds, self.b.verify_seconds)})"
        )
        lines.append(
            f"verify tail  : {self.a.verify_tail_seconds:.3f}s -> "
            f"{self.b.verify_tail_seconds:.3f}s "
            f"({_fmt_delta(self.a.verify_tail_seconds, self.b.verify_tail_seconds)})"
        )
        statuses = sorted(set(self.a.verify_by_status) | set(self.b.verify_by_status))
        if statuses:
            rendered = ", ".join(
                f"{status}={self.a.verify_by_status.get(status, 0)}"
                f"->{self.b.verify_by_status.get(status, 0)}"
                for status in statuses
            )
            lines.append(f"verdicts     : {rendered}")

        deltas = {
            node: self.b.node_seconds.get(node, 0.0)
            - self.a.node_seconds.get(node, 0.0)
            for node in set(self.a.node_seconds) | set(self.b.node_seconds)
        }
        ranked = sorted(
            deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )[:top_nodes]
        shifted = [(node, delta) for node, delta in ranked if abs(delta) > 1e-9]
        if shifted:
            lines.append("")
            lines.append("largest per-node busy-time shifts:")
            for node, delta in shifted:
                lines.append(f"  {node:<12} {delta:+10.3f}s")
        lines.extend(self._span_divergence())
        return "\n".join(lines)

    def _span_divergence(self) -> list[str]:
        """Added/removed-span section for traces that diverge mid-run.

        Two traces of the same script share a span-id prefix up to the
        first behavioural divergence (a rerun attempt, an extra verify
        round); past it the id sequences drift apart.  Rather than pair
        spans by id — which silently compares unrelated spans — report
        the ids present in only one trace and the first id whose name
        disagrees.
        """
        names_a, names_b = self.a.span_names, self.b.span_names
        only_a = sorted(set(names_a) - set(names_b))
        only_b = sorted(set(names_b) - set(names_a))
        renamed = sorted(
            sid
            for sid in set(names_a) & set(names_b)
            if names_a[sid] != names_b[sid]
        )
        if not (only_a or only_b or renamed):
            return []
        lines = ["", "span divergence (traces not span-for-span aligned):"]
        if renamed:
            first = renamed[0]
            lines.append(
                f"  first diverging span id: {first} "
                f"({self.label_a}: {names_a[first]}, "
                f"{self.label_b}: {names_b[first]})"
            )
        for label, only, names in (
            (self.label_a, only_a, names_a),
            (self.label_b, only_b, names_b),
        ):
            if not only:
                continue
            counts: dict[str, int] = {}
            for sid in only:
                counts[names[sid]] = counts.get(names[sid], 0) + 1
            summary = ", ".join(
                f"{name} x{count}" for name, count in sorted(counts.items())
            )
            lines.append(
                f"  only in {label}: {len(only)} span(s) ({summary})"
            )
        return lines


def diff_traces(
    records_a: list[dict] | TraceModel,
    records_b: list[dict] | TraceModel,
    label_a: str = "a",
    label_b: str = "b",
) -> TraceDiff:
    """Compare two JSONL traces of the same script."""
    return TraceDiff(
        a=summarize(records_a),
        b=summarize(records_b),
        label_a=label_a,
        label_b=label_b,
    )


def summarize(records: list[dict] | TraceModel) -> TraceSummary:
    trace = TraceModel.of(records)
    summary = TraceSummary(
        run_spans=list(trace.spans.get("run", ())),
        event_counts={
            name: len(events) for name, events in trace.events_by_name.items()
        },
        metric_rows=[row for rows in trace.metrics.values() for row in rows],
        sample_rows=[row for rows in trace.samples.values() for row in rows],
        span_names=trace.span_names,
    )

    tasks_by_attempt: dict[int, list[dict]] = {}
    last_task_end = 0.0
    for span in trace.spans.get("task", ()):
        attrs = span.get("attrs") or {}
        duration = span["end"] - span["start"]
        summary.task_seconds += duration
        summary.task_count += 1
        last_task_end = max(last_task_end, span["end"])
        node = attrs.get("node")
        if node is not None:
            summary.node_seconds[node] = summary.node_seconds.get(node, 0.0) + duration
            summary.node_tasks[node] = summary.node_tasks.get(node, 0) + 1
        tasks_by_attempt.setdefault(int(attrs.get("attempt", 0)), []).append(span)

    last_verify_end = 0.0
    for span in trace.spans.get("verify", ()):
        summary.verify_seconds += span["end"] - span["start"]
        summary.verify_count += 1
        status = (span.get("attrs") or {}).get("status", "open")
        summary.verify_by_status[status] = summary.verify_by_status.get(status, 0) + 1
        last_verify_end = max(last_verify_end, span["end"])
    summary.verify_tail_seconds = max(last_verify_end - last_task_end, 0.0)

    jobs_by_attempt: dict[int, list[dict]] = {}
    for span in trace.spans.get("job", ()):
        attempt = int((span.get("attrs") or {}).get("attempt", 0))
        jobs_by_attempt.setdefault(attempt, []).append(span)
    for attempt in sorted(set(jobs_by_attempt) | set(tasks_by_attempt)):
        jobs = jobs_by_attempt.get(attempt, [])
        tasks = tasks_by_attempt.get(attempt, [])
        spans = jobs + tasks
        summary.attempts.append(
            AttemptSummary(
                attempt=attempt,
                start=min(s["start"] for s in spans),
                end=max(s["end"] for s in spans),
                jobs=len(jobs),
                tasks=len(tasks),
                task_seconds=sum(s["end"] - s["start"] for s in tasks),
                critical_path=_critical_path(jobs),
            )
        )
    return summary
