"""The MapReduce engine: heartbeat-driven job execution on the cluster.

Plays the role of Hadoop's JobTracker/TaskTrackers (the paper keeps
Hadoop's JobTracker as its *execution tracker* unmodified, §5.3).  The
engine is a discrete-event simulation around a *real* data path: tasks
actually execute their pipelines over real records — producing real
SHA-256 digests and really-corrupted outputs on faulty nodes — while
their *durations* come from the cost model.

Key reproducibility property: job output files are assembled in task
order (maps by (branch, block), reduces by partition), so the outputs of
correct replicas are byte-identical, intermediate files split into
identical blocks, and per-task digests are comparable across replicas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.common.config import CostModelConfig
from repro.common.hashing import Digest
from repro.common.rng import RngRegistry
from repro.common.ids import JobId, NodeId, SubGraphId
from repro.common.errors import MapReduceError
from repro.common.records import Record
from repro.compiler.jobspec import JobSpec
from repro.mapreduce.cluster import Cluster, WorkerNode
from repro.mapreduce.metrics import (
    JobMetrics,
    TaskMetrics,
    publish_job,
    publish_task,
)
from repro.mapreduce.runtime import (
    MapTaskOutput,
    ReduceTaskOutput,
    execute_map_task,
    execute_reduce_task,
)
from repro.mapreduce.scheduler import TaskRef, TaskScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS
from repro.telemetry import DISABLED, Telemetry

PENDING = "pending"
RUNNING = "running"
DONE = "done"
OMITTED = "omitted"  # completion never reported (omission failure)
STATUSES = (PENDING, RUNNING, DONE, OMITTED)


@dataclass(frozen=True)
class DigestReport:
    """One verification message from a worker node to the trusted tier."""

    sid: SubGraphId
    replica: int
    job_id: JobId
    vp_id: str
    task_label: str  # e.g. "m0.3" (branch 0, block 3) or "r2"
    node_id: NodeId
    digests: tuple[Digest, ...]
    record_count: int
    sent_at: float


@dataclass
class Split:
    branch_index: int
    block_index: int
    size_bytes: int
    locations: tuple[NodeId, ...]


@dataclass
class _TaskState:
    kind: str  # "map" | "reduce"
    #: Written only by :meth:`JobRun.set_status`, which keeps the counts.
    status: str = PENDING
    node: NodeId | None = None
    started_at: float = 0.0
    #: A backup attempt was launched (speculative execution).
    speculated: bool = False


class ReplicaResults(dict):
    """Task outputs shared by one attempt's replicas (DESIGN.md §16).

    Keyed ``(job_index, kind, task_index)``.  Only runs whose whole
    replica chain stayed on nodes that cannot alter data read or write
    it, and ``runtime.py`` is deterministic, so a hit is exactly the
    value the task would have computed.
    """


class JobRun:
    """One replica execution of one compiled job."""

    def __init__(
        self,
        job_id: JobId,
        sid: SubGraphId,
        replica: int,
        spec: JobSpec,
        path_map: dict[str, str],
        scope: str,
        digest_sink: Callable[[DigestReport], None] | None = None,
        on_complete: Callable[["JobRun"], None] | None = None,
        total_replicas: int = 1,
        allowed_nodes: set[NodeId] | None = None,
        trace_attrs: dict | None = None,
        span_parent: int | None = None,
        shared: ReplicaResults | None = None,
        job_index: int = 0,
    ) -> None:
        self.job_id = job_id
        self.sid = sid
        self.replica = replica
        self.total_replicas = max(total_replicas, replica + 1)
        #: Explicit placement constraint (dummy-job probing, §3.3): when
        #: set, only these nodes may execute this run's tasks.
        self.allowed_nodes = set(allowed_nodes) if allowed_nodes is not None else None
        self.spec = spec
        self.path_map = dict(path_map)
        self.scope = scope
        self.digest_sink = digest_sink
        self.on_complete = on_complete
        #: The attempt's result table while this run may use it: dropped
        #: at the first task placed on a node that can alter data, and
        #: when the run completes or is cancelled.
        self.shared = shared
        self.job_index = job_index
        #: False once a task was placed on such a node, or when an
        #: upstream run of this replica chain was not clean (the
        #: submitter then passes no table): downstream runs of the
        #: chain must not share either.
        self.clean = shared is not None

        self.splits: list[Split] = []
        self.map_states: list[_TaskState] = []
        self.reduce_states: list[_TaskState] = []
        #: kind -> status -> number of task states, kept by
        #: ``set_status`` so a heartbeat reads the queries below in O(1)
        #: instead of rescanning every state (DESIGN.md §18).
        self.task_counts = {
            kind: dict.fromkeys(STATUSES, 0) for kind in ("map", "reduce")
        }
        self.map_results: dict[int, MapTaskOutput] = {}
        self.reduce_results: dict[int, ReduceTaskOutput] = {}
        self.metrics = JobMetrics(job_id=job_id)
        self.nodes_used: set[NodeId] = set()
        self.state = PENDING
        self.cancelled = False
        #: Durations of finished tasks by kind — the speculation baseline.
        self.completed_durations: dict[str, list[float]] = {"map": [], "reduce": []}
        self.speculative_attempts = 0
        #: Extra span attributes stamped by the submitter (attempt index,
        #: job_index, deps) — consumed by trace analysis.
        self.trace_attrs = dict(trace_attrs) if trace_attrs else {}
        #: Explicit parent for the job span (the submitting attempt span)
        #: so causal chains reach the run root; None = stack default.
        self.span_parent = span_parent
        #: Open telemetry span for this run (None when tracing is off).
        self.span = None

    # -- state queries ----------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.state == RUNNING and not self.cancelled

    @property
    def num_reduces(self) -> int:
        return 0 if self.spec.is_map_only else self.spec.num_reducers

    def physical_path(self, logical: str) -> str:
        return self.path_map.get(logical, logical)

    def create_tasks(self) -> None:
        """One PENDING state per split and per reducer."""
        self.map_states = [_TaskState("map") for _ in self.splits]
        self.reduce_states = [_TaskState("reduce") for _ in range(self.num_reduces)]
        for kind, states in (("map", self.map_states), ("reduce", self.reduce_states)):
            counts = self.task_counts[kind] = dict.fromkeys(STATUSES, 0)
            counts[PENDING] = len(states)

    def set_status(self, state: _TaskState, status: str) -> None:
        """The one place a task's status changes."""
        counts = self.task_counts[state.kind]
        counts[state.status] -= 1
        counts[status] += 1
        state.status = status

    def maps_finished(self) -> bool:
        return self.task_counts["map"][DONE] == len(self.map_states)

    def all_finished(self) -> bool:
        return self.maps_finished() and self.task_counts["reduce"][DONE] == len(
            self.reduce_states
        )

    def has_omitted_task(self) -> bool:
        counts = self.task_counts
        return counts["map"][OMITTED] + counts["reduce"][OMITTED] > 0

    def busy_tasks(self) -> int:
        """Tasks holding a node slot.  OMITTED ones count: they occupy
        theirs forever, which is exactly the omission failure mode."""
        maps, reduces = self.task_counts["map"], self.task_counts["reduce"]
        return maps[RUNNING] + maps[OMITTED] + reduces[RUNNING] + reduces[OMITTED]

    def ready_map_tasks(self, node_id: NodeId) -> tuple[list[int], list[int]]:
        """(data-local, remote) pending map task indices for a node."""
        local: list[int] = []
        remote: list[int] = []
        if not self.task_counts["map"][PENDING]:
            return local, remote
        for index, state in enumerate(self.map_states):
            if state.status != PENDING:
                continue
            if node_id in self.splits[index].locations:
                local.append(index)
            else:
                remote.append(index)
        return local, remote

    def ready_reduce_tasks(self) -> list[int]:
        if not self.maps_finished() or not self.task_counts["reduce"][PENDING]:
            return []
        return [
            index
            for index, state in enumerate(self.reduce_states)
            if state.status == PENDING
        ]

    def has_ready_tasks(self) -> bool:
        counts = self.task_counts
        if counts["map"][PENDING]:
            return True
        return self.maps_finished() and counts["reduce"][PENDING] > 0

    def mark_scheduled(self, kind: str, index: int, node_id: NodeId) -> None:
        states = self.map_states if kind == "map" else self.reduce_states
        self.set_status(states[index], RUNNING)
        states[index].node = node_id
        self.nodes_used.add(node_id)

    def drop_pending(self) -> None:
        """Never-scheduled tasks of a cancelled run hold nothing to free."""
        for state in self.map_states + self.reduce_states:
            if state.status == PENDING:
                self.set_status(state, DONE)

    def redispatch_from(self, node_id: NodeId) -> int:
        """Return the attempts in flight on ``node_id`` to PENDING."""
        redispatched = 0
        for state in self.map_states + self.reduce_states:
            if state.node == node_id and state.status in (RUNNING, OMITTED):
                self.set_status(state, PENDING)
                state.node = None
                redispatched += 1
        return redispatched

    def speculatable_tasks(
        self, now: float, slowdown: float, floor: float, exclude_node: NodeId
    ) -> list[tuple[str, int]]:
        """(kind, index) of attempts lagging far behind their finished
        siblings — candidates for a backup attempt on another node.

        With no finished sibling of the same kind (a slow node may hoard
        them all), fall back to the other kind's durations, then to the
        absolute ``floor``.
        """
        candidates: list[tuple[str, int]] = []
        for kind, states in (("map", self.map_states), ("reduce", self.reduce_states)):
            durations = (
                self.completed_durations[kind]
                or self.completed_durations["reduce" if kind == "map" else "map"]
            )
            if durations:
                ordered = sorted(durations)
                median = ordered[len(ordered) // 2]
                threshold = max(median * slowdown, 1e-9)
            else:
                threshold = floor
            for index, state in enumerate(states):
                if state.status not in (RUNNING, OMITTED) or state.speculated:
                    continue
                if state.node == exclude_node:
                    continue
                if now - state.started_at > threshold:
                    candidates.append((kind, index))
        return candidates

    def shared_result(self, kind: str, index: int, compute):
        """``compute()``, or the result a clean replica already stored."""
        shared = self.shared
        if shared is None:
            return compute()
        key = (self.job_index, kind, index)
        result = shared.get(key)
        if result is None:
            result = shared[key] = compute()
        return result

    def reduce_input(self, partition: int) -> list:
        """Shuffle: gather one partition from all maps in task order."""
        keyed = []
        for map_index in range(len(self.splits)):
            output = self.map_results[map_index]
            keyed.extend(output.partitions.get(partition, []))
        return keyed

    def assemble_output(self) -> list[Record]:
        """Final output records in deterministic task order.

        Missing entries only occur for empty-input jobs that completed
        without spawning tasks; their output is empty.
        """
        records: list[Record] = []
        if self.spec.is_map_only:
            for index in range(len(self.splits)):
                result = self.map_results.get(index)
                if result is not None:
                    records.extend(result.output_records)
        else:
            for index in range(self.num_reduces):
                result = self.reduce_results.get(index)
                if result is not None:
                    records.extend(result.output_records)
        return records


class MapReduceEngine:
    """Heartbeat-driven executor for :class:`JobRun`."""

    def __init__(
        self,
        loop: EventLoop,
        dfs: TrustedDFS,
        cluster: Cluster,
        scheduler: TaskScheduler,
        cost: CostModelConfig,
        rng: random.Random,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.loop = loop
        self.dfs = dfs
        self.cluster = cluster
        self.scheduler = scheduler
        if hasattr(scheduler, "set_cluster"):
            scheduler.set_cluster(cluster)
        self.cost = cost.validate()
        self.rng = rng
        self._run_seed = rng.randrange(1 << 62)
        # Named per-task streams; stream(name) seeds with
        # derive_seed(_run_seed, name), so this is bit-compatible with
        # constructing random.Random(derive_seed(...)) directly.
        self._task_rngs = RngRegistry(self._run_seed)
        #: Every run ever submitted, in submission order (history).
        self.runs: list[JobRun] = []
        #: The runs of ``runs`` that are ``is_active``, same order: what
        #: a heartbeat scans, so its cost follows the work in flight and
        #: not the service's uptime.
        self.live_runs: list[JobRun] = []
        self._heartbeats_running = False
        #: Last heartbeat receipt time per node — the crash detector's
        #: only input, mirroring Hadoop's TaskTracker expiry logic.
        self._last_heartbeat: dict[NodeId, float] = {}
        self._dead_nodes: set[NodeId] = set()
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._tracer = self.telemetry.tracer
        scheduler.bind_telemetry(self.telemetry)
        dfs.set_read_fault(self._read_fault)

    def _read_fault(
        self, name: str, block_index: int, node_id: NodeId, records: list[Record]
    ) -> list[Record]:
        """DFS read-path hook: bit-rot as observed by a faulty node."""
        behavior = self.cluster.node(node_id).behavior
        if not behavior.corrupts_storage:
            return records
        rng = self._task_rngs.stream(f"storage/{node_id}/{name}#{block_index}")
        return behavior.corrupt_read(list(records), rng)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, run: JobRun) -> None:
        """Queue a job run; tasks start flowing on upcoming heartbeats."""
        self._compute_splits(run)
        run.metrics.submitted_at = self.loop.now
        run.state = RUNNING
        self.runs.append(run)
        self.live_runs.append(run)
        if self._tracer.enabled:
            run.span = self._tracer.begin(
                "job",
                parent=run.span_parent,
                start=self.loop.now,
                job_id=run.job_id,
                sid=run.sid,
                replica=run.replica,
                maps=len(run.map_states),
                reduces=run.num_reduces,
                **run.trace_attrs,
            )
        if not run.map_states:
            # Degenerate job over an empty input: complete after the
            # fixed job-startup overhead.
            self.loop.schedule(
                self.cost.job_startup_seconds,
                lambda: self._complete_job(run),
                label=f"{run.job_id}:empty",
            )
            return
        self._ensure_heartbeats()

    def _compute_splits(self, run: JobRun) -> None:
        for branch_index, branch in enumerate(run.spec.branches):
            physical = run.physical_path(branch.input_path)
            if not self.dfs.exists(physical):
                raise MapReduceError(
                    f"input {physical!r} missing for job {run.job_id}"
                )
            info = self.dfs.file_info(physical)
            for block in info.blocks:
                run.splits.append(
                    Split(
                        branch_index=branch_index,
                        block_index=block.index,
                        size_bytes=block.size_bytes,
                        locations=block.locations,
                    )
                )
        run.create_tasks()

    def cancel(self, run: JobRun) -> None:
        """Abort a run: pending tasks are dropped; running tasks' effects
        are discarded when their completion events fire."""
        if run.is_active:
            self.live_runs.remove(run)
        run.cancelled = True
        run.shared = None
        run.drop_pending()
        # Completions still in flight return before touching these.
        run.map_results.clear()
        run.reduce_results.clear()
        if run.span is not None:
            run.span.end(cancelled=True)

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------

    def _ensure_heartbeats(self) -> None:
        if self._heartbeats_running:
            return
        self._heartbeats_running = True
        for node_id, offset in self.cluster.heartbeat_offsets().items():
            # Baseline the crash detector at each node's first expected
            # beat so an idle gap between jobs never reads as silence.
            self._last_heartbeat[node_id] = self.loop.now + offset
            self.loop.schedule(
                offset,
                lambda nid=node_id: self._heartbeat(nid),
                label=f"hb:{node_id}",
            )

    def _work_remains(self) -> bool:
        return any(not run.all_finished() for run in self.live_runs)

    def _heartbeat(self, node_id: NodeId) -> None:
        if not self._work_remains():
            self._heartbeats_running = False
            return
        node = self.cluster.node(node_id)
        if node.behavior.is_crashed():
            # Crash-stop: the node falls silent.  No reschedule — the
            # other nodes' heartbeats will notice via the crash timeout.
            node.alive = False
            if self._tracer.enabled:
                self._tracer.event("node.crashed", node=node_id)
            return
        self._last_heartbeat[node_id] = self.loop.now
        self._detect_crashes()
        if not node.excluded:
            schedulable = [
                run for run in self.live_runs if run.has_ready_tasks()
            ]
            for ref in self.scheduler.assign(node, schedulable):
                self._start_task(node, ref)
            if self.cluster.config.speculative_execution and node.free_slots > 0:
                self._speculate(node)
        self.loop.schedule(
            self.cluster.config.heartbeat_period,
            lambda: self._heartbeat(node_id),
            label=f"hb:{node_id}",
        )

    # ------------------------------------------------------------------
    # crash detection (graceful degradation)
    # ------------------------------------------------------------------

    def _detect_crashes(self) -> None:
        """Declare nodes whose heartbeat has been silent past the
        timeout crashed and re-dispatch their in-flight tasks.

        Piggybacks on live nodes' heartbeats (no dedicated timer event),
        so crash-free runs schedule the exact same event sequence as
        before the detector existed.
        """
        timeout = self.cluster.config.crash_timeout
        if timeout <= 0:
            return
        now = self.loop.now
        for node_id in self.cluster.node_ids():
            if node_id in self._dead_nodes:
                continue
            last = self._last_heartbeat.get(node_id)
            if last is None or now - last <= timeout:
                continue
            self._handle_dead_node(node_id, silent_for=now - last)

    def _handle_dead_node(self, node_id: NodeId, silent_for: float) -> None:
        self._dead_nodes.add(node_id)
        node = self.cluster.node(node_id)
        node.alive = False
        # lint: allow AUD001 crash detection, not a suspicion decision: a heartbeat is an event-loop callback that runs outside every tenant's attribution window, and a dead node is nobody's fault
        self.cluster.exclude(node_id)
        redispatched = sum(run.redispatch_from(node_id) for run in self.live_runs)
        node.running.clear()
        if self._tracer.enabled:
            self._tracer.event(
                "node.crash_detected",
                node=node_id,
                silent_for=silent_for,
                redispatched=redispatched,
            )
            self.telemetry.metrics.counter("nodes_crash_detected").inc()
            if redispatched:
                self.telemetry.metrics.counter(
                    "tasks_redispatched", reason="crash"
                ).inc(redispatched)

    def evacuate_node(self, node_id: NodeId) -> int:
        """Re-dispatch a live node's in-flight tasks (online migration).

        The crash path minus the death: the node keeps heartbeating,
        but its RUNNING/OMITTED attempts go back to PENDING so the
        scheduler places them elsewhere.  An old attempt that still
        completes first wins the task — same first-completion-wins rule
        as speculation — and the digest quorum judges its content, so
        migrating away from a merely *suspect* region never discards
        verified-correct work.  Returns the number of attempts moved.
        """
        redispatched = sum(run.redispatch_from(node_id) for run in self.live_runs)
        if redispatched and self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "tasks_redispatched", reason="migration"
            ).inc(redispatched)
        return redispatched

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------

    def _speculate(self, node: WorkerNode) -> None:
        """Launch backup attempts for straggling tasks (Hadoop-style
        speculative execution): rescues slow — and even silently hung —
        attempts without waiting for the verifier timeout."""
        slowdown = self.cluster.config.speculation_slowdown
        floor = self.cluster.config.speculation_floor
        for run in self.live_runs:
            if node.free_slots <= 0:
                return
            if not self.scheduler.eligible(node, run):
                continue
            for kind, index in run.speculatable_tasks(
                self.loop.now, slowdown, floor, exclude_node=node.node_id
            ):
                if node.free_slots <= 0:
                    return
                states = run.map_states if kind == "map" else run.reduce_states
                states[index].speculated = True
                run.set_status(states[index], RUNNING)  # rescues OMITTED attempts
                run.nodes_used.add(node.node_id)
                run.speculative_attempts += 1
                if self._tracer.enabled:
                    self._tracer.event(
                        "speculate",
                        job_id=run.job_id,
                        kind=kind,
                        index=index,
                        node=node.node_id,
                    )
                    self.telemetry.metrics.counter(
                        "speculative_attempts", kind=kind
                    ).inc()
                self.scheduler.note_assignment(
                    node, TaskRef(run, kind, index)
                )
                self._start_task(node, TaskRef(run, kind, index), backup=True)

    def _start_task(self, node: WorkerNode, ref: TaskRef, backup: bool = False) -> None:
        run = ref.run
        attempt_tag = "~backup" if backup else ""
        task_key = f"{run.job_id}:{ref.kind}{ref.index}{attempt_tag}"
        node.start_task(task_key)
        behavior = node.behavior
        behavior.note_task_start()
        if behavior.faulty or behavior.corrupts_storage:
            # This node may tamper, equivocate or read rotten blocks:
            # from here on the run computes everything for real.
            run.shared = None
            run.clean = False
        # Deterministic per-task stream: independent of scheduling order,
        # stable across replicas only in structure (node id + task key),
        # so a probabilistic fault on one node cannot accidentally strike
        # the same record in every replica.
        node_rng = self._task_rngs.stream(f"{node.node_id}/{task_key}")

        states = run.map_states if ref.kind == "map" else run.reduce_states
        state = states[ref.index]
        launched_at = self.loop.now
        if not backup:
            state.started_at = launched_at

        if ref.kind == "map":
            result, task_metrics = self._execute_map(node, run, ref.index, node_rng)
        else:
            result, task_metrics = self._execute_reduce(node, run, ref.index, node_rng)

        duration = task_metrics.duration_seconds
        if behavior.omits_completion(node_rng):
            # The node hangs: slot stays occupied, completion never fires
            # (unless speculation later launches a backup attempt).
            if state.status != DONE:
                run.set_status(state, OMITTED)
            if self._tracer.enabled:
                self._tracer.event(
                    "task.omitted",
                    job_id=run.job_id,
                    kind=ref.kind,
                    index=ref.index,
                    node=node.node_id,
                )
            return

        def complete() -> None:
            if not node.alive:
                return  # the node crash-stopped; its completion is lost
            node.finish_task(task_key)
            if run.cancelled or state.status == DONE:
                return  # a sibling attempt already delivered this task
            run.set_status(state, DONE)
            if ref.kind == "map":
                run.map_results[ref.index] = result
            else:
                run.reduce_results[ref.index] = result
            run.metrics.absorb_task(task_metrics)
            run.completed_durations[ref.kind].append(task_metrics.duration_seconds)
            task_span = None
            if self._tracer.enabled:
                task_span = self._emit_task_span(
                    run, ref, node, task_metrics, launched_at, backup
                )
                publish_task(self.telemetry.metrics, task_metrics)
            self._emit_digests(run, ref, result, node, node_rng, task_span)
            if run.all_finished():
                self._complete_job(run)

        self.loop.schedule(duration, complete, label=task_key)

    def _emit_task_span(
        self,
        run: JobRun,
        ref: TaskRef,
        node: WorkerNode,
        task_metrics: TaskMetrics,
        launched_at: float,
        backup: bool,
    ):
        """Record the completed task attempt as a span (with shuffle and
        digest-hashing sub-spans placed at their approximate offsets:
        shuffle precedes compute, hashing rides alongside it).  Returns
        the task span so the digest path can parent to it."""
        span = self._tracer.begin(
            "task",
            parent=run.span,
            start=launched_at,
            job_id=run.job_id,
            sid=run.sid,
            replica=run.replica,
            attempt=run.trace_attrs.get("attempt", 0),
            node=node.node_id,
            kind=ref.kind,
            index=ref.index,
            speculative=backup,
        )
        if task_metrics.shuffle_seconds:
            self._tracer.emit(
                "task.shuffle",
                start=launched_at,
                end=launched_at + task_metrics.shuffle_seconds,
                parent=span,
                node=node.node_id,
                bytes=task_metrics.file_read,
            )
        if task_metrics.digest_seconds:
            digest_start = launched_at + task_metrics.shuffle_seconds
            self._tracer.emit(
                "task.digest",
                start=digest_start,
                end=digest_start + task_metrics.digest_seconds,
                parent=span,
                node=node.node_id,
                bytes=task_metrics.digest_bytes,
            )
        span.end(end=self.loop.now)
        return span

    def _execute_map(
        self, node: WorkerNode, run: JobRun, index: int, node_rng: random.Random
    ) -> tuple[MapTaskOutput, TaskMetrics]:
        split = run.splits[index]
        branch = run.spec.branches[split.branch_index]
        physical = run.physical_path(branch.input_path)
        block = self.dfs.read_block(
            physical, split.block_index, scope=run.scope, node_id=node.node_id
        )
        result = run.shared_result(
            "map",
            index,
            lambda: execute_map_task(
                run.spec,
                split.branch_index,
                block.records,
                block.size_bytes,
                node.behavior,
                node_rng,
            ),
        )
        digest_bytes = sum(t.bytes_hashed for t in result.taps)
        digest_records = sum(t.record_count for t in result.taps)
        compute = result.bytes_in / self.cost.map_throughput_bps
        hashing = (
            digest_bytes / self.cost.digest_bps
            + digest_records * self.cost.digest_per_record_seconds
        )
        read_time = result.bytes_in / self.cost.dfs_read_bps
        if run.spec.is_map_only:
            write_time = result.bytes_out / self.cost.dfs_write_bps
            file_write = 0
        else:
            write_time = result.bytes_out / self.cost.shuffle_throughput_bps
            file_write = result.bytes_out
        # Speed profile divides the whole attempt (heterogeneous
        # hardware); 1.0 is exact under IEEE division, so flat clusters
        # stay byte-identical.
        duration = (
            self.cost.task_startup_seconds + read_time + compute + hashing + write_time
        ) * node.behavior.slowdown() / node.speed
        metrics = TaskMetrics(
            task_id=f"{run.job_id}_m_{index:06d}",
            node_id=node.node_id,
            kind="map",
            hdfs_read=result.bytes_in,
            # hdfs_write for map-only outputs is charged once at job
            # completion when the assembled file is written.
            file_write=file_write,
            digest_bytes=digest_bytes,
            records_in=result.records_in,
            records_out=result.records_out,
            cpu_seconds=(compute + hashing) * node.behavior.slowdown() / node.speed,
            duration_seconds=duration,
            digest_seconds=hashing * node.behavior.slowdown() / node.speed,
        )
        return result, metrics

    def _execute_reduce(
        self, node: WorkerNode, run: JobRun, index: int, node_rng: random.Random
    ) -> tuple[ReduceTaskOutput, TaskMetrics]:
        def compute() -> ReduceTaskOutput:
            keyed = run.reduce_input(index)
            if node.behavior.corrupts_storage and keyed:
                # Shuffle spills live on the reducer's local disk in
                # Hadoop: bit-rot on this node's read path hits them just
                # like DFS blocks.  Same rng scheme as the DFS hook, so
                # the fault is independent of scheduling order.
                rng = self._task_rngs.stream(
                    f"storage/{node.node_id}/shuffle/{run.job_id}#{index}"
                )
                raw = [entry[2] for entry in keyed]
                observed = node.behavior.corrupt_read(raw, rng)
                if observed is not raw:
                    # Bit-rot changes records, not keys: each entry keeps
                    # the key encoding the map side made.
                    keyed = [
                        (key, tag, new_record, key_as_tuple, key_bytes)
                        for (key, tag, _, key_as_tuple, key_bytes), new_record in zip(
                            keyed, observed
                        )
                    ]
            return execute_reduce_task(run.spec, keyed, node.behavior, node_rng)

        result = run.shared_result("reduce", index, compute)
        digest_bytes = sum(t.bytes_hashed for t in result.taps)
        digest_records = sum(t.record_count for t in result.taps)
        shuffle_time = result.bytes_in / self.cost.shuffle_throughput_bps
        compute = result.bytes_in / self.cost.reduce_throughput_bps
        hashing = (
            digest_bytes / self.cost.digest_bps
            + digest_records * self.cost.digest_per_record_seconds
        )
        write_time = result.bytes_out / self.cost.dfs_write_bps
        duration = (
            self.cost.task_startup_seconds + shuffle_time + compute + hashing + write_time
        ) * node.behavior.slowdown() / node.speed
        metrics = TaskMetrics(
            task_id=f"{run.job_id}_r_{index:06d}",
            node_id=node.node_id,
            kind="reduce",
            # hdfs_write is charged once at job completion.
            file_read=result.bytes_in,
            digest_bytes=digest_bytes,
            records_in=result.records_in,
            records_out=result.records_out,
            cpu_seconds=(compute + hashing) * node.behavior.slowdown() / node.speed,
            duration_seconds=duration,
            shuffle_seconds=shuffle_time * node.behavior.slowdown() / node.speed,
            digest_seconds=hashing * node.behavior.slowdown() / node.speed,
        )
        return result, metrics

    def _emit_digests(
        self,
        run: JobRun,
        ref: TaskRef,
        result: MapTaskOutput | ReduceTaskOutput,
        node: WorkerNode,
        node_rng: random.Random,
        task_span=None,
    ) -> None:
        if run.digest_sink is None or not result.taps:
            return
        if node.behavior.omits_digest(node_rng):
            if self._tracer.enabled:
                self._tracer.event(
                    "digest.omitted", job_id=run.job_id, node=node.node_id
                )
            return
        if self._tracer.enabled:
            self.telemetry.metrics.counter(
                "digest_reports_sent", node=node.node_id
            ).inc(len(result.taps))
        if ref.kind == "map":
            split = run.splits[ref.index]
            label = f"m{split.branch_index}.{split.block_index}"
        else:
            label = f"r{ref.index}"
        # Cross-region digests pay the WAN on top of the LAN hop (the
        # trusted tier lives in the control region); +0.0 on a flat
        # cluster keeps the delay bit-identical.
        config = self.cluster.config
        delay = self.cost.digest_network_seconds + config.wan_seconds(
            node.region, config.control_region()
        )
        tracer = self._tracer
        causal = self.telemetry.causal and tracer.enabled
        for tap in result.taps:
            report = DigestReport(
                sid=run.sid,
                replica=run.replica,
                job_id=run.job_id,
                vp_id=tap.vp_id,
                task_label=label,
                node_id=node.node_id,
                digests=tuple(tap.digests),
                record_count=tap.record_count,
                sent_at=self.loop.now,
            )
            send_ref = 0
            if causal:
                # Digest reports bypass SimNetwork (direct loop hop to
                # the trusted tier), so the causal send/recv pair is
                # emitted by hand, parented to the producing task span.
                if task_span is not None:
                    tracer.push_context(task_span.span_id)
                try:
                    send_ref = tracer.event(
                        "digest.send",
                        sid=run.sid,
                        replica=run.replica,
                        job_id=run.job_id,
                        vp_id=tap.vp_id,
                        node=node.node_id,
                    )
                finally:
                    if task_span is not None:
                        tracer.pop_context()

            def deliver(r=report, ref_id=send_ref) -> None:
                if ref_id:
                    recv_ref = tracer.event(
                        "digest.recv",
                        mid=ref_id,
                        sid=r.sid,
                        replica=r.replica,
                        vp_id=r.vp_id,
                    )
                    tracer.push_context(recv_ref)
                    try:
                        run.digest_sink(r)
                    finally:
                        tracer.pop_context()
                else:
                    run.digest_sink(r)

            self.loop.schedule(
                delay,
                deliver,
                label=f"digest:{run.job_id}:{tap.vp_id}",
            )

    def _complete_job(self, run: JobRun) -> None:
        if run.cancelled or run.state == DONE:
            return
        run.state = DONE
        self.live_runs.remove(run)
        run.shared = None
        records = run.assemble_output()
        physical_out = run.physical_path(run.spec.output_path)
        if self.dfs.exists(physical_out):
            self.dfs.delete(physical_out)
        written = self.dfs.write_file(physical_out, records, scope=run.scope)
        # History keeps a run's metrics, not every task's records.
        run.map_results.clear()
        run.reduce_results.clear()
        run.metrics.finished_at = self.loop.now
        run.metrics.hdfs_write += written.size_bytes
        if run.span is not None:
            run.span.end(
                end=self.loop.now,
                nodes=len(run.nodes_used),
                speculative_attempts=run.speculative_attempts,
            )
        if self.telemetry.enabled:
            publish_job(self.telemetry.metrics, run.metrics)
        if run.on_complete is not None:
            run.on_complete(run)
