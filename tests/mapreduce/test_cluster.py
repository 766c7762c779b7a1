"""Tests for the worker-cluster model."""

import random

from repro.common.config import ClusterConfig
from repro.common.rng import RngRegistry
from repro.faults.injection import single_commission
from repro.mapreduce.cluster import Cluster, WorkerNode


class TestWorkerNode:
    def test_slot_accounting(self):
        node = WorkerNode("n", slots=2)
        assert node.free_slots == 2
        node.start_task("t1")
        node.start_task("t2")
        assert node.free_slots == 0
        node.finish_task("t1")
        assert node.free_slots == 1

    def test_finish_unknown_task_is_noop(self):
        node = WorkerNode("n", slots=1)
        node.finish_task("ghost")
        assert node.free_slots == 1


class TestCluster:
    def test_builds_configured_node_count(self):
        cluster = Cluster(ClusterConfig(num_nodes=5, slots_per_node=2))
        assert len(cluster) == 5
        assert all(node.slots == 2 for node in cluster.nodes.values())

    def test_fault_plan_applied_by_node_id(self):
        cluster = Cluster(
            ClusterConfig(num_nodes=4), single_commission("node_0002")
        )
        faulty = {n for n, node in cluster.nodes.items() if node.behavior.faulty}
        assert faulty == {"node_0002"}

    def test_exclusion_removes_from_active_set(self):
        cluster = Cluster(ClusterConfig(num_nodes=3, slots_per_node=2))
        cluster.exclude("node_0001")
        assert list(cluster.active_ordinals()) == ["node_0000", "node_0002"]

    def test_heartbeat_offsets_staggered(self):
        cluster = Cluster(ClusterConfig(num_nodes=4, heartbeat_period=1.0))
        offsets = cluster.heartbeat_offsets()
        assert len(set(offsets.values())) == 4
        assert all(0 <= o < 1.0 for o in offsets.values())

    def test_heartbeat_offsets_unstaggered(self):
        cluster = Cluster(
            ClusterConfig(num_nodes=4, heartbeat_stagger=False)
        )
        assert set(cluster.heartbeat_offsets().values()) == {0.0}


class TestDefaultRng:
    """Regression: the default rng must come from the RngRegistry seed
    scheme, not an ad-hoc ``random.Random(0)`` — otherwise a cluster
    built without an explicit rng diverges from one wired through a
    default registry, and the same deployment behaves differently
    depending on which constructor path built it."""

    def test_default_rng_matches_registry_cluster_stream(self):
        defaulted = Cluster(ClusterConfig(num_nodes=2))
        registry = RngRegistry()
        assert defaulted.rng.random() == registry.stream("cluster").random()

    def test_default_rng_is_not_random_zero(self):
        defaulted = Cluster(ClusterConfig(num_nodes=2))
        assert defaulted.rng.random() != random.Random(0).random()

    def test_explicit_rng_still_wins(self):
        rng = random.Random(7)
        probe = random.Random(7)
        cluster = Cluster(ClusterConfig(num_nodes=2), rng=rng)
        assert cluster.rng is rng
        assert cluster.rng.random() == probe.random()

    def test_default_heartbeat_offsets_are_reproducible(self):
        first = Cluster(ClusterConfig(num_nodes=4)).heartbeat_offsets()
        second = Cluster(ClusterConfig(num_nodes=4)).heartbeat_offsets()
        assert first == second
