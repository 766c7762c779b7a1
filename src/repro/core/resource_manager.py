"""Resource manager: the trusted tier's view of the worker cluster.

Paper §4.2: resources are partitioned into uniform resource units; the
resource table keeps one tuple ``(nid, #ru, (sid...), s)`` per node —
node id, resource units, current sub-graph allocations, and suspicion
level.  Placement policy itself lives in
:class:`~repro.mapreduce.scheduler.ClusterBFTScheduler`; this module is
the bookkeeping and administrative interface around it: the inclusion
list, threshold eviction, and operator re-initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import NodeId, SubGraphId
from repro.core.suspicion import SuspicionTracker
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import MapReduceEngine


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
    """Resource table + inclusion-list management."""

    def __init__(
        self,
        cluster: Cluster,
        engine: MapReduceEngine,
        suspicion: SuspicionTracker,
        suspicion_threshold: float = 0.95,
        min_jobs_for_eviction: int = 3,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.suspicion = suspicion
        self.suspicion_threshold = suspicion_threshold
        self.min_jobs_for_eviction = min_jobs_for_eviction

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

    def inclusion_list(self) -> list[NodeId]:
        return [n.node_id for n in self.cluster.active_nodes()]

    def apply_suspicion_policy(self) -> list[NodeId]:
        """Evict nodes over the suspicion threshold (with enough
        evidence); returns the nodes evicted by this call."""
        evicted = []
        for node_id in self.suspicion.over_threshold(self.suspicion_threshold):
            state = self.suspicion.nodes[node_id]
            if state.jobs_executed < self.min_jobs_for_eviction:
                continue
            node = self.cluster.node(node_id)
            if not node.excluded:
                self.cluster.exclude(node_id)
                evicted.append(node_id)
        return evicted

    def reinitialize_node(self, node_id: NodeId) -> None:
        """Administrator intervention (paper §4.2): take the node off the
        grid, patch it, and re-insert it with a clean slate."""
        self.cluster.reinstate(node_id)
        self.suspicion.clear_faults({node_id})

    def overlap_degree(self) -> float:
        """Average number of distinct sids per busy node — the overlap
        the scheduler engineers for fault isolation."""
        rows = [row for row in self.table() if row.sids]
        if not rows:
            return 0.0
        return sum(len(row.sids) for row in rows) / len(rows)
