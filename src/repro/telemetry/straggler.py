"""Straggler profile: trace-feedback for rerun scheduling.

The trace-feedback half of the checkpoint tier (DESIGN.md §15): a
prior run's trace already knows which nodes ran slow and which jobs sat
on the critical path.  :func:`build_profile` distills that into a
:class:`StragglerProfile` the :class:`~repro.mapreduce.scheduler.
ClusterBFTScheduler` consumes — on a rerun, nodes flagged as stragglers
are kept off the low replica slots that tend to carry the critical
path, so one slow machine stops re-lengthening every escalation
attempt.  Surfaced as ``repro run --schedule-from-trace prior.jsonl``.

The profile is a pure function of the trace records: same trace in,
same profile out — rerun scheduling stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.analysis import TraceModel, summarize

#: A node is a straggler when its mean task time exceeds the run-wide
#: mean by this factor (and it ran enough tasks to judge).
DEFAULT_THRESHOLD = 1.5
#: Minimum completed tasks before a node's mean is trusted — one slow
#: task is noise, not a profile.
DEFAULT_MIN_TASKS = 2


@dataclass(frozen=True)
class StragglerProfile:
    """Per-node timing distilled from one run's trace."""

    #: Mean task seconds per node (nodes with at least one task).
    node_mean_seconds: dict[str, float] = field(default_factory=dict)
    #: Run-wide mean task seconds (0.0 for an empty trace).
    overall_mean_seconds: float = 0.0
    #: Nodes whose mean exceeded the threshold — slowest first, then
    #: lexicographic (deterministic order for the scheduler).
    stragglers: tuple[str, ...] = ()
    #: Nodes that executed a critical-path job in any attempt.
    critical_path_nodes: frozenset[str] = frozenset()

    def render(self) -> str:
        lines = [
            f"overall mean task time: {self.overall_mean_seconds:.3f}s",
            f"stragglers ({len(self.stragglers)}):",
        ]
        for node in self.stragglers:
            mean = self.node_mean_seconds.get(node, 0.0)
            on_cp = " [critical path]" if node in self.critical_path_nodes else ""
            lines.append(f"  {node:<12} {mean:8.3f}s mean{on_cp}")
        if not self.stragglers:
            lines.append("  (none)")
        return "\n".join(lines)


def build_profile(
    records: list[dict] | TraceModel,
    threshold: float = DEFAULT_THRESHOLD,
    min_tasks: int = DEFAULT_MIN_TASKS,
) -> StragglerProfile:
    """Distill trace records into a :class:`StragglerProfile`."""
    trace = TraceModel.of(records)
    summary = summarize(trace)
    if summary.task_count == 0:
        return StragglerProfile()
    overall_mean = summary.task_seconds / summary.task_count
    means = {
        node: summary.node_seconds[node] / count
        for node, count in summary.node_tasks.items()
        if count > 0
    }
    stragglers = sorted(
        (
            node
            for node, mean in means.items()
            if summary.node_tasks.get(node, 0) >= min_tasks
            and overall_mean > 0
            and mean > threshold * overall_mean
        ),
        key=lambda node: (-means[node], node),
    )

    # Critical-path membership: the nodes whose tasks executed a job on
    # any attempt's critical path.
    critical_job_ids: set[str] = set()
    for attempt in summary.attempts:
        if attempt.critical_path is not None:
            critical_job_ids.update(attempt.critical_path.job_ids)
    critical_nodes: set[str] = set()
    for span in trace.spans.get("task", ()):
        attrs = span.get("attrs") or {}
        if attrs.get("job_id") in critical_job_ids and attrs.get("node") is not None:
            critical_nodes.add(attrs["node"])

    return StragglerProfile(
        node_mean_seconds=means,
        overall_mean_seconds=overall_mean,
        stragglers=tuple(stragglers),
        critical_path_nodes=frozenset(critical_nodes),
    )
