"""Task schedulers.

The paper replaces Hadoop's scheduler with one that (§5.3):

* never collocates tasks from two *replicas of the same job* on one node
  (a single faulty node could otherwise corrupt more than one replica
  and defeat the f+1 digest quorum), and
* deliberately *overlaps different jobs* on a node — "cause as many
  intersections as there are resource units in a node" (§4.2) — so the
  fault analyzer can intersect job clusters to isolate faulty nodes.

:class:`NaiveScheduler` has neither property and exists as the ablation
baseline (and to demonstrate the safety violation in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.ids import NodeId, SubGraphId
from repro.mapreduce.cluster import WorkerNode
from repro.telemetry import DISABLED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mapreduce.engine import JobRun


@dataclass(frozen=True)
class TaskRef:
    """A schedulable task of a particular run."""

    run: "JobRun"
    kind: str  # "map" | "reduce"
    index: int

    def __repr__(self) -> str:
        return f"TaskRef({self.run.job_id}, {self.kind}{self.index})"


class TaskScheduler:
    """Base scheduler: replies to one node's heartbeat with tasks."""

    #: Bound by the engine; decision counters only — scheduling must
    #: behave identically whether or not telemetry observes it.
    telemetry = DISABLED
    #: Suspicion quarantine (soft degradation below eviction): these
    #: nodes receive no new tasks but keep their cluster membership.
    #: Class-level empty default keeps schedulers constructed before
    #: this feature byte-identical; ``quarantine`` promotes it to an
    #: instance set on first use.
    quarantined: frozenset[NodeId] | set[NodeId] = frozenset()

    def bind_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry if telemetry is not None else DISABLED

    def quarantine(self, node_id: NodeId) -> None:
        """Stop assigning new tasks to ``node_id``."""
        if not isinstance(self.quarantined, set):
            self.quarantined = set(self.quarantined)
        self.quarantined.add(node_id)

    def release(self, node_id: NodeId) -> None:
        """Lift a quarantine (e.g. after reinstatement)."""
        if isinstance(self.quarantined, set):
            self.quarantined.discard(node_id)

    def is_quarantined(self, node_id: NodeId) -> bool:
        return node_id in self.quarantined

    def record_assignments(
        self, node: WorkerNode, assignments: list[TaskRef]
    ) -> None:
        if not self.telemetry.enabled or not assignments:
            return
        metrics = self.telemetry.metrics
        scheduler = type(self).__name__
        for ref in assignments:
            metrics.counter(
                "scheduler_assignments",
                node=node.node_id,
                kind=ref.kind,
                scheduler=scheduler,
            ).inc()

    def assign(self, node: WorkerNode, runs: list["JobRun"]) -> list[TaskRef]:
        raise NotImplementedError

    def eligible(self, node: WorkerNode, run: "JobRun") -> bool:
        """May this node run tasks of this run at all?"""
        if node.node_id in self.quarantined:
            return False
        return self.placement_allows(node, run)

    @staticmethod
    def placement_allows(node: WorkerNode, run: "JobRun") -> bool:
        """Explicit placement constraints (probe jobs) bind everywhere."""
        return run.allowed_nodes is None or node.node_id in run.allowed_nodes

    def note_assignment(self, node: WorkerNode, ref: TaskRef) -> None:
        """Hook invoked by the engine when an assignment is made."""


class NaiveScheduler(TaskScheduler):
    """FIFO, locality-aware, replica-oblivious (plain Hadoop behaviour)."""

    def assign(self, node: WorkerNode, runs: list["JobRun"]) -> list[TaskRef]:
        assignments: list[TaskRef] = []
        free = node.free_slots
        while free > 0:
            ref = _first_task(node, runs, lambda run: self.eligible(node, run))
            if ref is None:
                break
            assignments.append(ref)
            ref.run.mark_scheduled(ref.kind, ref.index, node.node_id)
            free -= 1
        self.record_assignments(node, assignments)
        return assignments


class ClusterBFTScheduler(TaskScheduler):
    """Replica-anti-collocating, cluster-overlapping scheduler.

    Anti-collocation must hold for the whole lifetime of a sub-graph
    ("tasks from more than one replica of a job are not scheduled on a
    same node at any point of time", §5.3): a node that ran replica 0
    yesterday and replica 1 today would let a single faulty node corrupt
    two replicas.  A naive first-touch pin satisfies that but can starve
    late replicas (early replicas' tasks touch every node).  We instead
    statically partition nodes among a sid's replicas by node ordinal
    modulo the replication degree: safe, deterministic, starvation-free
    whenever ``nodes >= r``.

    On a multi-region cluster the partition becomes *region-homed*:
    replica ``k`` lives in live region ``k % len(live_regions)`` and is
    partitioned among that region's active nodes together with the
    other replicas homed there.  With two or more live regions this
    places the replicas of every verification group in at least two
    regions (so ``r >= 3`` never concentrates in one region), and a
    region going dark — excluded or quarantined wholesale — simply
    shrinks the live list, re-homing its replicas elsewhere.  Flat
    clusters take the original modulo path unchanged.
    """

    def __init__(self) -> None:
        #: (node, sid) -> replica observed there.  The pin — not the
        #: modulo partition — is what enforces safety: once a node has
        #: touched replica k of a sid it may never serve another replica
        #: of that sid, even if the partition shifts under exclusions.
        self._pins: dict[tuple[NodeId, SubGraphId], int] = {}
        self._cluster = None
        #: Trace-feedback (``repro run --schedule-from-trace``): a
        #: :class:`~repro.telemetry.straggler.StragglerProfile` from a
        #: prior run.  None (default) keeps the ordinal partition
        #: byte-identical to profile-free scheduling.
        self._straggler_profile = None

    def set_cluster(self, cluster) -> None:
        """Let the partition skip excluded nodes (otherwise an eviction
        could starve the replica whose ordinal slice it emptied)."""
        self._cluster = cluster

    def set_straggler_profile(self, profile) -> None:
        """Re-partition flat clusters with stragglers concentrated in
        the highest replica slot.

        Verification needs only the fastest ``f+1`` of ``r`` replicas
        to agree — the slowest replica's tasks drain off the critical
        path.  Packing the profile's straggler nodes into one replica's
        block therefore keeps every *other* replica straggler-free, so
        the digest quorum (and with it the attempt's makespan) stops
        waiting on known-slow machines.  Anti-collocation is preserved:
        the block partition still maps each node to exactly one slot,
        and the first-touch pins guard it regardless.
        """
        self._straggler_profile = profile

    @staticmethod
    def _node_ordinal(node_id: NodeId) -> int:
        tail = node_id.rsplit("_", 1)[-1]
        try:
            return int(tail)
        except ValueError:
            return sum(node_id.encode()) % 7919

    def _partition_ordinal(self, node: WorkerNode) -> int:
        if self._cluster is not None:
            ordinal = self._cluster.active_ordinals().get(node.node_id)
            if ordinal is not None:
                return ordinal
        return self._node_ordinal(node.node_id)

    def _live_regions(self) -> list[str]:
        """Declared regions with at least one schedulable node, in
        declaration order ([] on a flat cluster)."""
        if self._cluster is None:
            return []
        live = []
        for region in self._cluster.regions():
            for node_id in self._cluster.region_node_ids(region):
                node = self._cluster.node(node_id)
                if not node.excluded and node_id not in self.quarantined:
                    live.append(region)
                    break
        return live

    def _region_ordinal(self, node: WorkerNode) -> int:
        """Index of ``node`` among its region's non-excluded nodes."""
        ordinal = self._cluster.active_ordinals(node.region).get(node.node_id)
        return ordinal if ordinal is not None else self._node_ordinal(node.node_id)

    def eligible(self, node: WorkerNode, run: "JobRun") -> bool:
        if node.node_id in self.quarantined:
            return False
        if not self.placement_allows(node, run):
            return False
        pin = self._pins.get((node.node_id, run.sid))
        if pin is not None:
            return pin == run.replica
        if run.allowed_nodes is not None:
            # Probe jobs place replicas explicitly; the pin above still
            # guards against a node serving two replicas of one sid.
            return True
        total = max(run.total_replicas, 1)
        live = self._live_regions()
        if len(live) > 1:
            home = live[run.replica % len(live)]
            if node.region != home:
                return False
            # Replicas sharing the home region partition its nodes
            # among themselves, preserving anti-collocation in-region.
            homed = [k for k in range(total) if live[k % len(live)] == home]
            slot = homed.index(run.replica % total)
            return self._region_ordinal(node) % len(homed) == slot
        slot = self._straggler_slot(node, total)
        if slot is not None:
            return slot == run.replica % total
        return self._partition_ordinal(node) % total == run.replica % total

    def _straggler_slot(self, node: WorkerNode, total: int) -> int | None:
        """Replica slot under the straggler-aware block partition, or
        None when the profile (or cluster shape) does not apply."""
        profile = self._straggler_profile
        if profile is None or not profile.stragglers or self._cluster is None:
            return None
        active = self._cluster.active_ordinals()
        if node.node_id not in active or len(active) < total:
            # Fewer nodes than replicas: the ordinal partition's
            # wrap-around behaviour is the only workable split.
            return None
        straggling = {
            node_id for node_id in profile.stragglers if node_id in active
        }
        if not straggling:
            return None
        # Deterministic: active keeps cluster declaration order within
        # each half, stragglers move to the tail — the tail block maps
        # to the highest replica slot.
        ordered = [n for n in active if n not in straggling] + [
            n for n in active if n in straggling
        ]
        position = ordered.index(node.node_id)
        return (position * total) // len(ordered)

    def note_assignment(self, node: WorkerNode, ref: TaskRef) -> None:
        self._pins[(node.node_id, ref.run.sid)] = ref.run.replica

    def assign(self, node: WorkerNode, runs: list["JobRun"]) -> list[TaskRef]:
        assignments: list[TaskRef] = []
        free = node.free_slots
        if free <= 0:
            return assignments
        jobs_on_node = {
            run.job_id for run in runs if node.node_id in run.nodes_used
        }
        while free > 0:
            # Overlap strategy: prefer a run whose job is not yet
            # represented on this node, then fall back to any run.
            ref = _first_task(
                node,
                runs,
                lambda run: self.eligible(node, run)
                and run.job_id not in jobs_on_node,
            )
            if ref is None:
                ref = _first_task(node, runs, lambda run: self.eligible(node, run))
            if ref is None:
                break
            self.note_assignment(node, ref)
            jobs_on_node.add(ref.run.job_id)
            assignments.append(ref)
            ref.run.mark_scheduled(ref.kind, ref.index, node.node_id)
            free -= 1
        self.record_assignments(node, assignments)
        return assignments


class FairShareScheduler(TaskScheduler):
    """Deficit-round-robin fairness across tenants over an inner scheduler.

    The service tier (:mod:`repro.service`) multiplexes many tenants'
    runs on one engine; without fairness a tenant submitting wide jobs
    first would monopolize every heartbeat's free slots.  This wrapper
    reorders the runnable runs each heartbeat by per-tenant *deficit
    counter* — each tenant with runnable work earns ``quantum`` credit
    per assignment round, each task assigned spends one credit, and the
    most-credited tenant goes first — then delegates the actual task
    choice (anti-collocation pins, overlap preference, locality) to the
    wrapped scheduler unchanged.  Credit is capped so a long-idle tenant
    cannot bank unbounded priority and starve everyone on return.

    Optional per-tenant *slot budgets* bound concurrent task slots: a
    tenant at/over budget is skipped for the round (re-eligible next
    heartbeat, so the overshoot is at most one node's free slots).

    Quarantine state lives in the wrapped scheduler — there is exactly
    one quarantine set per deployment, shared by every tenant (the
    cross-run payoff of paper Fig. 7).
    """

    def __init__(
        self,
        inner: TaskScheduler | None = None,
        quantum: float = 1.0,
        max_credit: float = 16.0,
    ) -> None:
        self.inner = inner if inner is not None else ClusterBFTScheduler()
        self.quantum = quantum
        self.max_credit = max_credit
        #: script_id -> tenant name (runs with no owner share tenant "").
        self._owner: dict[str, str] = {}
        self._deficit: dict[str, float] = {}
        self._budget: dict[str, int] = {}
        self._engine = None
        #: sid -> tenant, as ``_owner`` resolved it (dropped whenever an
        #: owner is registered: a sid may then resolve differently).
        self._tenant_of_sid: dict[SubGraphId, str] = {}

    # -- shared-state delegation (one quarantine set, one cluster) ------

    def bind_telemetry(self, telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.inner.bind_telemetry(telemetry)

    def set_cluster(self, cluster) -> None:
        if hasattr(self.inner, "set_cluster"):
            self.inner.set_cluster(cluster)

    def set_straggler_profile(self, profile) -> None:
        """Straggler avoidance applies service-wide: the profile lands
        in the wrapped scheduler, where the partition decision lives."""
        if hasattr(self.inner, "set_straggler_profile"):
            self.inner.set_straggler_profile(profile)

    @property
    def quarantined(self):  # type: ignore[override]
        return self.inner.quarantined

    def quarantine(self, node_id: NodeId) -> None:
        self.inner.quarantine(node_id)

    def release(self, node_id: NodeId) -> None:
        self.inner.release(node_id)

    def is_quarantined(self, node_id: NodeId) -> bool:
        return self.inner.is_quarantined(node_id)

    def eligible(self, node: WorkerNode, run: "JobRun") -> bool:
        return self.inner.eligible(node, run)

    def note_assignment(self, node: WorkerNode, ref: TaskRef) -> None:
        self.inner.note_assignment(node, ref)

    # -- tenancy registration ------------------------------------------

    def register_owner(self, script_id: str, tenant: str) -> None:
        """Attribute runs whose sid starts with ``script_id`` to ``tenant``."""
        self._owner[script_id] = tenant
        self._deficit.setdefault(tenant, 0.0)
        self._tenant_of_sid.clear()

    def set_slot_budget(self, tenant: str, slots: int | None) -> None:
        """Cap ``tenant`` at ``slots`` concurrent task slots (None lifts)."""
        if slots is None:
            self._budget.pop(tenant, None)
        else:
            self._budget[tenant] = slots

    def observe_engine(self, engine) -> None:
        """Bind the engine whose run list backs slot-budget accounting."""
        self._engine = engine

    def tenant_of(self, run: "JobRun") -> str:
        sid = run.sid
        tenant = self._tenant_of_sid.get(sid)
        if tenant is None:
            tenant = self._tenant_of_sid[sid] = self._owner.get(
                sid.split(".", 1)[0], ""
            )
        return tenant

    def _slots_in_use(self) -> dict[str, int]:
        """Concurrent task slots per tenant, summed over the engine's
        live runs from the counts each run keeps at its one status
        write — crashes, cancellations and omissions change task states
        outside any scheduler callback, so nothing is tracked here."""
        in_use: dict[str, int] = {}
        if self._engine is None:
            return in_use
        for run in self._engine.live_runs:
            busy = run.busy_tasks()
            if busy:
                tenant = self.tenant_of(run)
                in_use[tenant] = in_use.get(tenant, 0) + busy
        return in_use

    # -- the fair-share round ------------------------------------------

    def assign(self, node: WorkerNode, runs: list["JobRun"]) -> list[TaskRef]:
        order: list[str] = []
        by_tenant: dict[str, list["JobRun"]] = {}
        for run in runs:
            tenant = self.tenant_of(run)
            if tenant not in by_tenant:
                by_tenant[tenant] = []
                order.append(tenant)
            by_tenant[tenant].append(run)
        if len(order) <= 1:
            # Single tenant (or the single-run controller): plain
            # delegation, no credit bookkeeping to perturb.
            return self.inner.assign(node, runs)

        in_use = self._slots_in_use() if self._budget else {}
        contenders: list[str] = []
        for tenant in order:
            budget = self._budget.get(tenant)
            if budget is not None and in_use.get(tenant, 0) >= budget:
                continue  # at budget: sit this round out
            self._deficit[tenant] = min(
                self._deficit.get(tenant, 0.0) + self.quantum, self.max_credit
            )
            contenders.append(tenant)
        # Most-credited first; ties break by tenant name so the round
        # order never depends on dict iteration history.
        contenders.sort(key=lambda t: (-self._deficit.get(t, 0.0), t))
        ordered_runs = [run for tenant in contenders for run in by_tenant[tenant]]
        refs = self.inner.assign(node, ordered_runs)
        for ref in refs:
            tenant = self.tenant_of(ref.run)
            self._deficit[tenant] = self._deficit.get(tenant, 0.0) - 1.0
        return refs


def _first_task(node: WorkerNode, runs: list["JobRun"], run_filter) -> TaskRef | None:
    """First ready task over runs in submission order; map tasks prefer
    blocks with a replica on this node (data locality)."""
    for run in runs:
        if not run_filter(run) or not run.is_active:
            continue
        local, remote = run.ready_map_tasks(node.node_id)
        if local:
            return TaskRef(run, "map", local[0])
        if remote:
            return TaskRef(run, "map", remote[0])
        reduces = run.ready_reduce_tasks()
        if reduces:
            return TaskRef(run, "reduce", reduces[0])
    return None
