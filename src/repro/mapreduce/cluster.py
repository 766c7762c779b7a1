"""Worker cluster model: nodes, slots, heartbeats.

Mirrors Hadoop 1.x's structure (paper §5.1): a node offers a number of
*task slots* (the paper's resource units, typically 3–4 per 4-core
node), and announces free capacity via periodic heartbeat messages to
the (trusted) execution tracker, which replies with task assignments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.config import ClusterConfig
from repro.common.ids import NodeId, TaskId
from repro.common.rng import RngRegistry
from repro.faults.behaviors import CORRECT, NodeBehavior
from repro.faults.injection import FaultPlan


@dataclass
class WorkerNode:
    """One virtual computation unit in the untrusted tier."""

    node_id: NodeId
    slots: int
    behavior: NodeBehavior = CORRECT
    running: set[TaskId] = field(default_factory=set)
    #: Tasks whose completion was omitted still occupy a slot forever —
    #: that is precisely the omission failure mode.
    excluded: bool = False
    #: False once the node crash-stopped: it no longer heartbeats and
    #: its in-flight task completions never fire.  Distinct from
    #: ``excluded`` (the trusted tier's inclusion list): a crash is a
    #: fact about the node, an exclusion is a decision about it.
    alive: bool = True
    #: Geo placement: the named region hosting this node ('' on a flat
    #: single-LAN cluster, the seed behaviour).
    region: str = ""
    #: Hardware heterogeneity: simulated task durations divide by this
    #: (2.0 = twice as fast).  1.0 is exact under IEEE division, so a
    #: flat cluster stays byte-identical.
    speed: float = 1.0

    @property
    def free_slots(self) -> int:
        return max(self.slots - len(self.running), 0)

    @property
    def is_faulty(self) -> bool:
        return self.behavior.faulty

    def start_task(self, task_id: TaskId) -> None:
        self.running.add(task_id)

    def finish_task(self, task_id: TaskId) -> None:
        self.running.discard(task_id)


class Cluster:
    """The untrusted computation tier: a fixed set of worker nodes.

    Node membership is controlled by the trusted tier's inclusion list
    (paper §4.2): nodes whose suspicion exceeds the threshold are marked
    ``excluded`` and stop receiving work.
    """

    def __init__(
        self,
        config: ClusterConfig,
        fault_plan: FaultPlan | None = None,
        rng: random.Random | None = None,
    ) -> None:
        config.validate()
        self.config = config
        # Default stream derives from the RngRegistry's seed scheme, not
        # an ad-hoc Random(0): a cluster built without an explicit rng
        # must match one wired through a default registry, or the same
        # deployment would behave differently depending on which
        # constructor path built it.
        self.rng = rng if rng is not None else RngRegistry().stream("cluster")
        fault_plan = fault_plan or FaultPlan()
        self.nodes: dict[NodeId, WorkerNode] = {}
        for index in range(config.num_nodes):
            node_id = f"node_{index:04d}"
            self.nodes[node_id] = WorkerNode(
                node_id=node_id,
                slots=config.slots_per_node,
                behavior=fault_plan.behavior_for(node_id),
                region=config.region_of_index(index),
                speed=config.speed_of_index(index),
            )
        # Membership is fixed for the cluster's lifetime; only the
        # ``excluded`` flags move, and only through exclude/reinstate.
        self._node_ids = sorted(self.nodes)
        self._active_ordinals: dict[str | None, dict[NodeId, int]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def region_of(self, node_id: NodeId) -> str:
        return self.nodes[node_id].region

    def regions(self) -> list[str]:
        """Declared region names in declaration order ([] when flat)."""
        return [str(entry[0]) for entry in self.config.regions]

    def region_node_ids(self, region: str) -> list[NodeId]:
        return sorted(
            node_id
            for node_id, node in self.nodes.items()
            if node.region == region
        )

    def node(self, node_id: NodeId) -> WorkerNode:
        return self.nodes[node_id]

    def node_ids(self) -> list[NodeId]:
        return list(self._node_ids)

    def active_ordinals(self, region: str | None = None) -> dict[NodeId, int]:
        """node id -> its index among the non-excluded nodes (of
        ``region``, when given) in id order; iterates in that order.
        Cached until the next ``exclude``/``reinstate``: the scheduler
        asks on every eligibility check of every heartbeat."""
        ordinals = self._active_ordinals.get(region)
        if ordinals is None:
            ids = self._node_ids if region is None else self.region_node_ids(region)
            active = (node_id for node_id in ids if not self.nodes[node_id].excluded)
            ordinals = self._active_ordinals[region] = {
                node_id: index for index, node_id in enumerate(active)
            }
        return ordinals

    def active_nodes(self) -> list[WorkerNode]:
        return [n for n in self.nodes.values() if not n.excluded]

    def faulty_node_ids(self) -> set[NodeId]:
        return {n.node_id for n in self.nodes.values() if n.is_faulty}

    def exclude(self, node_id: NodeId) -> None:
        """Remove a node from the inclusion list (suspicion threshold hit)."""
        self.nodes[node_id].excluded = True
        self._active_ordinals.clear()

    def reinstate(self, node_id: NodeId) -> None:
        """Administrator re-inserts a re-imaged node (paper §4.2)."""
        node = self.nodes[node_id]
        node.excluded = False
        node.behavior = CORRECT
        self._active_ordinals.clear()

    def total_slots(self) -> int:
        return sum(n.slots for n in self.active_nodes())

    def heartbeat_offsets(self) -> dict[NodeId, float]:
        """Initial heartbeat phase per node.  Staggered so the execution
        tracker sees a steady stream rather than synchronized bursts."""
        period = self.config.heartbeat_period
        offsets = {}
        ids = self.node_ids()
        for index, node_id in enumerate(ids):
            if self.config.heartbeat_stagger:
                offsets[node_id] = period * index / max(len(ids), 1)
            else:
                offsets[node_id] = 0.0
        return offsets
