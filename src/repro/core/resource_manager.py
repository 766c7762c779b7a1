"""Resource manager: the trusted tier's view of the worker cluster.

Paper §4.2: resources are partitioned into uniform resource units; the
resource table keeps one tuple ``(nid, #ru, (sid...), s)`` per node —
node id, resource units, current sub-graph allocations, and suspicion
level.  Placement policy itself lives in
:class:`~repro.mapreduce.scheduler.ClusterBFTScheduler`; this module is
everything else the tier knows and decides about the cluster (DESIGN.md
§20): suspicion levels and the fault analyzer's sets, the one fault
recorder that feeds them, the inclusion list with threshold eviction
and quarantine, region migration, and the tier half of the
``attempt_end`` WAL record next to its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import NodeId, SubGraphId
from repro.core import journal as wal
from repro.core.audit import EVICTION, FAULT, QUARANTINE, RECONFIG
from repro.core.fault_analyzer import FaultAnalyzer
from repro.core.gauges import publish_suspicion
from repro.core.suspicion import NodeSuspicion, SuspicionTracker
from repro.core.verifier import OMISSION, ReplicaFault


@dataclass(frozen=True)
class ResourceRow:
    """One row of the paper's resource table."""

    node_id: NodeId
    resource_units: int
    free_units: int
    sids: tuple[SubGraphId, ...]
    suspicion: float
    excluded: bool


class ResourceManager:
    """Tier state: resource table, evidence, inclusion list, migration.

    Built once by the controller that owns the deployment.  Methods
    that record a decision take the journal of the run that triggered
    it — a tier decision is journaled into that run's stream, and the
    tier outlives every run.  Attribution is the audit log's
    :attr:`~repro.core.audit.AuditLog.context` when the entry is made,
    not when the run started: late faults fire from event-loop
    callbacks outside any tenant's attribution window.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.loop = controller.loop
        self.cluster = controller.cluster
        self.engine = controller.engine
        self.scheduler = controller.scheduler
        self.audit = controller.audit
        self.telemetry = controller.telemetry
        #: Every threshold below is read from here and nowhere else.
        self.config = controller.config.bft
        self.suspicion = SuspicionTracker()
        self.fault_analyzer = FaultAnalyzer(f=self.config.f)

    # ------------------------------------------------------------------
    # resource table
    # ------------------------------------------------------------------

    def table(self) -> list[ResourceRow]:
        """The current resource table, one row per node."""
        sids_per_node: dict[NodeId, set[SubGraphId]] = {}
        for run in self.engine.live_runs:
            for node_id in run.nodes_used:
                sids_per_node.setdefault(node_id, set()).add(run.sid)
        rows = []
        for node_id in self.cluster.node_ids():
            node = self.cluster.node(node_id)
            rows.append(
                ResourceRow(
                    node_id=node_id,
                    resource_units=node.slots,
                    free_units=node.free_slots,
                    sids=tuple(sorted(sids_per_node.get(node_id, set()))),
                    suspicion=self.suspicion.level(node_id),
                    excluded=node.excluded,
                )
            )
        return rows

    def row(self, node_id: NodeId) -> ResourceRow:
        for row in self.table():
            if row.node_id == node_id:
                return row
        raise KeyError(node_id)

    # ------------------------------------------------------------------
    # inclusion list
    # ------------------------------------------------------------------

    def evicted(self) -> list[NodeId]:
        """Nodes off the inclusion list, sorted."""
        return sorted(
            node_id for node_id, node in self.cluster.nodes.items() if node.excluded
        )

    def quarantined(self) -> list[NodeId]:
        """Nodes the scheduler places nothing on, sorted."""
        return sorted(self.scheduler.quarantined)

    # ------------------------------------------------------------------
    # evidence: jobs and faults
    # ------------------------------------------------------------------

    def record_job(self, node_ids: set[NodeId]) -> None:
        """A job replica finished on these nodes (fault or not)."""
        self.suspicion.record_job(node_ids)

    def record_fault(
        self,
        journal,
        sid: str,
        fault: ReplicaFault,
        proven: bool = True,
        late: bool = False,
    ) -> None:
        """One replica's nodes implicated in a fault of ``sid``.

        A *proven* fault — the digest quorum, or the content majority,
        disagreed with this replica — is journaled, audited and, unless
        the replica merely withheld digests, fed to the fault analyzer.
        Faults mutate cross-run shared state (suspicion, fault analyzer)
        inside a tenant's attribution window, so the audit record names
        that tenant.  Without a quorum nobody is proven wrong:
        the nodes become suspects and that is all.  ``late``: the
        replica finished after its sid's verdict.
        """
        nodes = set(fault.nodes)
        if proven:
            if journal is not None:
                journal.append(
                    wal.LATE_FAULT if late else wal.FAULT,
                    sid=sid,
                    replica=fault.replica,
                    fault_kind=fault.kind,
                    nodes=sorted(nodes),
                )
            self.audit.record(
                self.loop.now,
                FAULT,
                sid,
                replica=fault.replica,
                fault_kind=fault.kind,
                nodes=tuple(sorted(nodes)),
                **({"late": True} if late else {}),
            )
        self.suspicion.record_fault(nodes)
        if proven and fault.kind != OMISSION:
            self.fault_analyzer.observe(nodes)

    def late_fault(self, journal, sid: str, fault: ReplicaFault) -> None:
        """A replica that finished after its sid's verdict disagreed with
        the winning digest vector."""
        self.record_fault(journal, sid, fault, late=True)
        self.reconfigure(journal)

    # ------------------------------------------------------------------
    # policy: exoneration, eviction, quarantine
    # ------------------------------------------------------------------

    def enforce(self, journal, exonerate: bool = False) -> None:
        """Evict and quarantine the nodes over their suspicion
        thresholds; at an attempt boundary (``exonerate``) the fault
        analyzer's conclusion is applied first."""
        cfg = self.config
        # Once the fault analyzer saturates (|D| = f), every fault must
        # live inside its suspect set — exonerate the rest (paper §4.3).
        if exonerate and self.fault_analyzer.saturated:
            cleared = self.suspicion.suspects() - self.fault_analyzer.suspects()
            if journal is not None:
                # The analyzer's conclusion, journaled before it acts
                # (exoneration mutates suspicion levels).
                journal.append(
                    wal.ANALYZER,
                    suspects=sorted(self.fault_analyzer.suspects()),
                    cleared=sorted(cleared),
                )
            if cleared:
                self.suspicion.clear_faults(cleared)
        for evict, threshold in (
            (True, cfg.suspicion_threshold),
            (False, cfg.quarantine_threshold),
        ):
            if threshold is None:
                continue  # no quarantine tier configured
            # Sorted: audit-entry order must not depend on set iteration
            # (string hashing is salted per process — byte-identical
            # trace replays need a canonical order).
            for node_id in sorted(self.suspicion.over_threshold(threshold)):
                state = self.suspicion.nodes[node_id]
                if state.jobs_executed < cfg.suspicion_min_jobs:
                    continue
                if self.cluster.node(node_id).excluded:
                    continue  # eviction supersedes quarantine
                if not evict and self.scheduler.is_quarantined(node_id):
                    continue
                if journal is not None:
                    journal.append(
                        wal.EVICTION if evict else wal.QUARANTINE,
                        node=node_id,
                        suspicion=round(state.level, 3),
                        jobs=state.jobs_executed,
                        **self.audit.context,
                    )
                if evict:
                    self.cluster.exclude(node_id)
                else:
                    self.scheduler.quarantine(node_id)
                self.audit.record(
                    self.loop.now,
                    EVICTION if evict else QUARANTINE,
                    node_id,
                    suspicion=round(state.level, 3),
                    jobs=state.jobs_executed,
                )

    # ------------------------------------------------------------------
    # online reconfiguration: region-level migration
    # ------------------------------------------------------------------

    def region_suspicion(self, region: str) -> tuple[float, int]:
        """Aggregate suspicion of a region: total faults over total jobs
        across its nodes (0.0 before any node there executed a job)."""
        jobs = faults = 0
        for node_id in self.cluster.region_node_ids(region):
            state = self.suspicion.nodes.get(node_id)
            if state is None:
                continue
            jobs += state.jobs_executed
            faults += state.faults_associated
        return (faults / jobs if jobs else 0.0, jobs)

    def _schedulable_region_nodes(self, region: str) -> list[NodeId]:
        return [
            node_id
            for node_id in self.cluster.region_node_ids(region)
            if not self.cluster.node(node_id).excluded
            and not self.scheduler.is_quarantined(node_id)
        ]

    def reconfigure(self, journal) -> None:
        """React to the faults just recorded: migrate replica sets out
        of any region whose aggregate suspicion crossed the threshold,
        then publish what the tier now believes.

        Invoked after every fault application.  The migration is a
        no-op (and therefore byte-identical to the seed) unless
        ``region_suspicion_threshold`` is set on a multi-region cluster.
        Never drains the last schedulable region — a fully-suspect
        cluster is the rerun escalation's problem, not the topology's.
        """
        cfg = self.config
        threshold = cfg.region_suspicion_threshold
        regions = self.cluster.regions() if threshold is not None else []
        for region in regions:
            nodes = self._schedulable_region_nodes(region)
            if not nodes:
                continue  # already migrated, quarantined or evicted
            level, jobs = self.region_suspicion(region)
            if jobs < cfg.region_min_jobs or level <= threshold:
                continue
            others_alive = any(
                self._schedulable_region_nodes(other)
                for other in regions
                if other != region
            )
            if not others_alive:
                continue
            self._migrate_region(journal, region, level, jobs, nodes)
        if self.telemetry.enabled:
            self._publish_gauges()

    def _migrate_region(
        self, journal, region: str, level: float, jobs: int, nodes: list[NodeId]
    ) -> None:
        """Quarantine a degrading region wholesale and re-dispatch its
        in-flight work; journaled write-ahead so a resumed run replays
        the same placement decision."""
        if journal is not None:
            journal.append(
                wal.RECONFIG,
                region=region,
                suspicion=round(level, 3),
                jobs=jobs,
                nodes=sorted(nodes),
                sids=sorted({job_run.sid for job_run in self.engine.live_runs}),
                **self.audit.context,
            )
        for node_id in sorted(nodes):
            self.scheduler.quarantine(node_id)
        moved = sum(self.engine.evacuate_node(node_id) for node_id in sorted(nodes))
        self.audit.record(
            self.loop.now,
            RECONFIG,
            region,
            suspicion=round(level, 3),
            jobs=jobs,
            nodes=tuple(sorted(nodes)),
            tasks_moved=moved,
        )
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "region.migrated",
                region=region,
                suspicion=round(level, 3),
                nodes=len(nodes),
                tasks_moved=moved,
            )
            self.telemetry.metrics.counter("region_migrations").inc()

    def _publish_gauges(self) -> None:
        """One gauge-publication path for every execution surface: the
        same series the isolation simulator emits (via the shared
        :func:`~repro.core.gauges.publish_suspicion`), so controller
        traces — including chaos-campaign cells — carry Fig. 12-style
        time-series too."""
        publish_suspicion(
            self.telemetry.metrics,
            self.suspicion,
            self.fault_analyzer,
            quarantined=len(self.scheduler.quarantined),
        )
        # Per-region aggregate suspicion (geo clusters only; flat
        # clusters declare no regions, so their gauge set is unchanged).
        for region in self.cluster.regions():
            level, _jobs = self.region_suspicion(region)
            self.telemetry.metrics.gauge("region_suspicion", region=region).set(level)

    # ------------------------------------------------------------------
    # durability: the tier half of ``attempt_end`` and its inverse
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The tier half of an ``attempt_end`` record (the run's own
        half is :meth:`~repro.core.journal.RunState.journal_attempt_end`'s,
        which takes these as keyword arguments)."""
        analyzer = self.fault_analyzer
        return {
            "suspicion": {
                node_id: [state.jobs_executed, state.faults_associated]
                for node_id, state in sorted(self.suspicion.nodes.items())
            },
            "analyzer": {
                "observations": analyzer.observations,
                "saturated_at": analyzer.saturated_at,
                "disjoint": [sorted(s) for s in analyzer.disjoint],
                "overlapping": [sorted(s) for s in analyzer.overlapping],
            },
            "evicted": self.evicted(),
            "quarantined": self.quarantined(),
        }

    def replay(self, snapshot: dict | None, reconfigs: list[dict]) -> None:
        """Inverse of :meth:`snapshot`, on a fresh deployment: the tier
        as of the last ``attempt_end`` record (``None``: the crash came
        before the first), then every journaled ``reconfig``.

        A ``reconfig`` is fsync'd before the original tier acted on it,
        so a crash mid-migration still re-quarantines the degraded
        region's nodes — the resumed scheduler must not move work *back
        into* it.  Replay is idempotent with the snapshot's quarantine
        list (migrations before the last settled boundary are folded
        into it already).
        """
        if snapshot is not None:
            for node_id, (jobs, faults) in snapshot["suspicion"].items():
                self.suspicion.nodes[node_id] = NodeSuspicion(
                    jobs_executed=jobs, faults_associated=faults
                )
            analyzer = snapshot["analyzer"]
            self.fault_analyzer = FaultAnalyzer(
                f=self.config.f,
                disjoint=[frozenset(s) for s in analyzer["disjoint"]],
                overlapping=[frozenset(s) for s in analyzer["overlapping"]],
                observations=analyzer["observations"],
                saturated_at=analyzer["saturated_at"],
            )
            for node_id in snapshot["evicted"]:
                self.cluster.exclude(node_id)
            for node_id in snapshot["quarantined"]:
                self.scheduler.quarantine(node_id)
        for reconfig in reconfigs:
            for node_id in reconfig["nodes"]:
                self.scheduler.quarantine(node_id)
