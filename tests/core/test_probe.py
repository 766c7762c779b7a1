"""Tests for dummy-job probing (active fault isolation, paper §3.3)."""

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.core.audit import PROBE
from repro.core.controller import ClusterBFTController
from repro.core.probe import ProbeManager
from repro.faults.behaviors import CommissionBehavior, FlakyCommissionBehavior
from repro.faults.injection import FaultPlan


def make_controller(fault_plan=None, nodes=12):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=nodes, slots_per_node=3, heartbeat_period=0.25),
        bft=ClusterBFTConfig(f=1, replication=2, verifier_timeout=60.0),
    )
    return ClusterBFTController(config, fault_plan=fault_plan, block_bytes=2048)


class TestRunProbe:
    def test_clean_probe_digests_match(self):
        controller = make_controller()
        manager = ProbeManager(controller)
        candidate = {"node_0000", "node_0001", "node_0002"}
        reference = {"node_0006", "node_0007", "node_0008"}
        assert manager.run_probe(candidate, reference) is False

    def test_faulty_candidate_detected(self):
        plan = FaultPlan({"node_0001": CommissionBehavior(probability=1.0)})
        controller = make_controller(plan)
        manager = ProbeManager(controller)
        candidate = {"node_0000", "node_0001", "node_0002"}
        reference = {"node_0006", "node_0007", "node_0008"}
        assert manager.run_probe(candidate, reference) is True

    def test_faulty_node_outside_probe_is_invisible(self):
        plan = FaultPlan({"node_0011": CommissionBehavior(probability=1.0)})
        controller = make_controller(plan)
        manager = ProbeManager(controller)
        candidate = {"node_0000", "node_0001", "node_0002"}
        reference = {"node_0006", "node_0007", "node_0008"}
        assert manager.run_probe(candidate, reference) is False

    def test_probe_respects_placement(self):
        controller = make_controller()
        manager = ProbeManager(controller)
        candidate = {"node_0000", "node_0001", "node_0002"}
        reference = {"node_0006", "node_0007", "node_0008"}
        manager.run_probe(candidate, reference)
        for run in controller.engine.runs:
            if run.allowed_nodes is not None:
                assert run.nodes_used <= run.allowed_nodes


class TestIsolate:
    def test_isolates_deterministic_fault(self):
        plan = FaultPlan({"node_0003": CommissionBehavior(probability=1.0)})
        controller = make_controller(plan, nodes=16)
        manager = ProbeManager(controller)
        suspects = {f"node_{i:04d}" for i in range(6)}  # 6 suspects, 1 faulty
        outcome = manager.isolate(suspects)
        assert outcome.isolated == ["node_0003"]
        assert outcome.probes_run >= 3
        assert "node_0003" not in outcome.exonerated
        # The campaign leaves one audit entry: suspects before,
        # isolated, probes run — found by any suspect's node history.
        (entry,) = controller.audit.events(kind=PROBE)
        assert entry.details == {
            "nodes": tuple(sorted(suspects)),
            "isolated": ("node_0003",),
            "probes_run": outcome.probes_run,
        }
        assert entry in controller.audit.node_history("node_0005")

    def test_isolates_flaky_fault_with_repeats(self):
        plan = FaultPlan({"node_0002": FlakyCommissionBehavior(probability=0.7)})
        controller = make_controller(plan, nodes=16)
        manager = ProbeManager(controller, repeats_per_round=5)
        outcome = manager.isolate({f"node_{i:04d}" for i in range(4)})
        # Either correctly isolated or (rarely) inconclusive — but never
        # a *wrong* confirmed isolation.
        assert outcome.isolated in ([], ["node_0002"])

    def test_clean_suspects_not_blamed(self):
        controller = make_controller(nodes=16)
        manager = ProbeManager(controller, repeats_per_round=2)
        outcome = manager.isolate({f"node_{i:04d}" for i in range(4)})
        assert outcome.isolated == []

    def test_no_clean_nodes_is_inconclusive(self):
        controller = make_controller(nodes=4)
        manager = ProbeManager(controller)
        suspects = {f"node_{i:04d}" for i in range(4)}  # everyone suspect
        outcome = manager.isolate(suspects)
        assert outcome.isolated == []
        assert outcome.probes_run == 0
        (entry,) = controller.audit.events(kind=PROBE)
        assert entry.details["probes_run"] == 0
