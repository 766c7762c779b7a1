"""Tests for the resource manager: resource table, inclusion list, the
one eviction/quarantine policy, and the tier half of ``attempt_end``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.core.audit import EVICTION, QUARANTINE, REINSTATE
from repro.core.controller import ClusterBFTController
from repro.core.suspicion import NodeSuspicion
from repro.dataflow.piglatin import parse_script
from repro.mapreduce.engine import JobRun

GROUP_SCRIPT = (
    "A = LOAD 'in' AS (k:int, v:int);\nG = GROUP A BY k;\n"
    "C = FOREACH G GENERATE group;\nSTORE C INTO 'out';"
)


def make_controller(nodes=4, **bft):
    bft.setdefault("suspicion_threshold", 0.5)
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=nodes, slots_per_node=3),
        bft=ClusterBFTConfig(**bft),
    )
    return ClusterBFTController(config, block_bytes=256)


def make_manager(nodes=4, **bft):
    return make_controller(nodes, **bft).resources


def group_job(controller, **kwargs):
    """One replica of a small group-by, submitted to the engine."""
    controller.load_input("in", records_from_rows([(i % 3, i) for i in range(50)]))
    graph = compile_plan(parse_script(GROUP_SCRIPT), CompileOptions(num_reducers=2))
    run = JobRun("j0", "sid7", 0, graph.jobs[0], {"out": "r/out"}, scope="s", **kwargs)
    controller.engine.submit(run)
    return run


def enforce(manager, **kwargs):
    """Apply the policy; ``(evicted, quarantined)`` by this call."""
    evicted, quarantined = manager.evicted(), manager.quarantined()
    manager.enforce(None, **kwargs)
    return (
        [n for n in manager.evicted() if n not in evicted],
        [n for n in manager.quarantined() if n not in quarantined],
    )


def observe(manager, node_id, jobs, faults):
    manager.suspicion.nodes[node_id] = NodeSuspicion(jobs, faults)


class TestTable:
    def test_idle_table_shape(self):
        manager = make_manager(nodes=3)
        rows = manager.table()
        assert len(rows) == 3
        for row in rows:
            assert row.resource_units == 3
            assert row.free_units == 3
            assert row.sids == ()
            assert row.suspicion == 0.0
            assert not row.excluded

    def test_running_job_appears_in_sids(self):
        controller = make_controller()
        manager = controller.resources
        group_job(controller)
        controller.loop.run_until(2.0)
        busy = [row for row in manager.table() if row.sids]
        assert busy
        assert all(row.sids == ("sid7",) for row in busy)
        assert manager.overlap_degree() == 1.0

    def test_row_lookup(self):
        manager = make_manager()
        assert manager.row("node_0001").node_id == "node_0001"
        with pytest.raises(KeyError):
            manager.row("ghost")


class TestInclusionList:
    def test_eviction_respects_threshold_and_evidence(self):
        manager = make_manager()
        # One fault in one job: over threshold but under min evidence.
        manager.record_job({"node_0000"})
        manager.suspicion.record_fault({"node_0000"})
        assert enforce(manager) == ([], [])
        # More evidence: now evictable.
        manager.record_job({"node_0000"})
        manager.record_job({"node_0000"})
        manager.suspicion.record_fault({"node_0000"})
        assert enforce(manager) == (["node_0000"], [])
        assert "node_0000" not in manager.inclusion_list()

    def test_eviction_idempotent(self):
        manager = make_manager()
        observe(manager, "node_0000", jobs=3, faults=3)
        assert enforce(manager) == (["node_0000"], [])
        assert enforce(manager) == ([], [])
        assert len(manager.audit.events(kind=EVICTION)) == 1

    def test_reinitialize_restores_node(self):
        manager = make_manager()
        observe(manager, "node_0000", jobs=3, faults=3)
        enforce(manager)
        manager.reinitialize_node("node_0000")
        assert "node_0000" in manager.inclusion_list()
        assert manager.suspicion.level("node_0000") == 0.0

    def test_reinitialized_node_is_scheduled_again(self):
        """Quarantined, then evicted, then re-initialised by the operator
        (paper §4.2): the node must come back out of quarantine too."""
        controller = make_controller(quarantine_threshold=0.3, suspicion_threshold=0.9)
        manager = controller.resources
        observe(manager, "node_0000", jobs=3, faults=2)
        assert enforce(manager) == ([], ["node_0000"])
        observe(manager, "node_0000", jobs=3, faults=3)
        assert enforce(manager) == (["node_0000"], [])

        manager.reinitialize_node("node_0000")

        assert manager.evicted() == [] and manager.quarantined() == []
        run = group_job(controller, allowed_nodes={"node_0000"})
        controller.loop.run_while(lambda: run.state != "done" and controller.loop.now < 60)
        assert run.state == "done"
        assert run.nodes_used == {"node_0000"}
        (entry,) = manager.audit.events(kind=REINSTATE)
        assert entry.subject == "node_0000"

    def test_overlap_degree_zero_when_idle(self):
        assert make_manager().overlap_degree() == 0.0


#: (case, config, {node: (jobs, faults)}, evicted, quarantined) — the
#: one policy, thresholds read from ``ClusterBFTConfig``.
POLICY_CASES = [
    (
        "below suspicion_min_jobs nothing happens",
        dict(suspicion_threshold=0.5, quarantine_threshold=0.2),
        {"node_0000": (2, 2)},
        [],
        [],
    ),
    (
        "no quarantine threshold, no quarantine tier",
        dict(suspicion_threshold=0.9, quarantine_threshold=None),
        {"node_0000": (4, 3)},
        [],
        [],
    ),
    (
        "between the thresholds: quarantined, not evicted",
        dict(suspicion_threshold=0.9, quarantine_threshold=0.5),
        {"node_0000": (4, 3), "node_0001": (4, 1)},
        [],
        ["node_0000"],
    ),
    (
        "eviction supersedes quarantine",
        dict(suspicion_threshold=0.5, quarantine_threshold=0.2),
        {"node_0000": (4, 3), "node_0001": (4, 1)},
        ["node_0000"],
        ["node_0001"],
    ),
    (
        "the evidence floor is configurable",
        dict(suspicion_threshold=0.5, suspicion_min_jobs=1),
        {"node_0000": (1, 1)},
        ["node_0000"],
        [],
    ),
]


class TestPolicy:
    @pytest.mark.parametrize(
        "config, levels, evicted, quarantined",
        [case[1:] for case in POLICY_CASES],
        ids=[case[0] for case in POLICY_CASES],
    )
    def test_thresholds(self, config, levels, evicted, quarantined):
        manager = make_manager(**config)
        for node_id, (jobs, faults) in levels.items():
            observe(manager, node_id, jobs, faults)
        assert enforce(manager) == (evicted, quarantined)
        assert [e.subject for e in manager.audit.events(kind=EVICTION)] == evicted
        assert [e.subject for e in manager.audit.events(kind=QUARANTINE)] == quarantined
        # Deciding again decides nothing new.
        assert enforce(manager) == ([], [])

    def test_saturated_analyzer_exonerates_before_thresholds_are_read(self):
        def tier():
            manager = make_manager(f=1)
            observe(manager, "node_0000", jobs=3, faults=3)
            observe(manager, "node_0001", jobs=3, faults=3)
            manager.fault_analyzer.observe({"node_0001"})  # |D| = f: saturated
            return manager

        # Off the attempt boundary the analyzer's conclusion is not applied.
        assert enforce(tier()) == (["node_0000", "node_0001"], [])
        # On it, the node it clears is never a candidate.
        manager = tier()
        assert enforce(manager, exonerate=True) == (["node_0001"], [])
        assert manager.suspicion.level("node_0000") == 0.0


# ---------------------------------------------------------------------------
# snapshot() -> JSON -> replay() on a fresh manager
# ---------------------------------------------------------------------------

NODES = [f"node_{index:04d}" for index in range(6)]
node_sets = st.sets(st.sampled_from(NODES), max_size=4)


@st.composite
def tier_histories(draw):
    """What a tier can have seen: jobs and faults per node, a stream of
    faulty clusters, evictions, quarantines, region migrations."""
    return {
        "f": draw(st.integers(1, 2)),
        "levels": draw(
            st.dictionaries(
                st.sampled_from(NODES),
                st.tuples(st.integers(0, 9), st.integers(0, 9)),
            )
        ),
        "clusters": draw(st.lists(node_sets, max_size=6)),
        "evicted": draw(node_sets),
        "quarantined": draw(node_sets),
        "migrated": draw(st.lists(node_sets, max_size=2)),
    }


def live_manager(history):
    manager = make_manager(nodes=len(NODES), f=history["f"], replication=4)
    for node_id, (jobs, faults) in history["levels"].items():
        observe(manager, node_id, jobs, faults)
    for cluster in history["clusters"]:
        manager.fault_analyzer.observe(cluster)
    for node_id in history["evicted"]:
        manager.cluster.exclude(node_id)
    for node_id in history["quarantined"]:
        manager.scheduler.quarantine(node_id)
    return manager


class TestSnapshotReplay:
    @settings(max_examples=60, deadline=None)
    @given(tier_histories())
    def test_replay_reproduces_the_tier(self, history):
        live = live_manager(history)
        reconfigs = [{"nodes": sorted(nodes)} for nodes in history["migrated"]]
        # The live tier acted on every reconfig before the boundary, so
        # the snapshot has them folded into its quarantine list.
        live.replay(None, reconfigs)
        snapshot = json.loads(json.dumps(live.snapshot()))

        fresh = make_manager(nodes=len(NODES), f=history["f"], replication=4)
        fresh.replay(snapshot, [])

        assert fresh.snapshot() == live.snapshot()
        for node_id in NODES:
            assert fresh.suspicion.level(node_id) == live.suspicion.level(node_id)
        assert fresh.fault_analyzer == live.fault_analyzer
        assert fresh.fault_analyzer.saturated == live.fault_analyzer.saturated
        assert fresh.evicted() == live.evicted() == sorted(history["evicted"])
        assert fresh.quarantined() == live.quarantined()
        # Replaying the reconfigs on top of a snapshot that already
        # folded them in changes nothing, however often.
        fresh.replay(snapshot, reconfigs)
        fresh.replay(None, reconfigs)
        assert fresh.snapshot() == live.snapshot()

    def test_reconfig_after_the_last_boundary_is_replayed(self):
        # Crash mid-migration: the record is durable, the snapshot is not.
        fresh = make_manager(nodes=len(NODES))
        fresh.replay(None, [{"nodes": ["node_0002", "node_0003"]}])
        assert fresh.quarantined() == ["node_0002", "node_0003"]
        assert fresh.evicted() == []
