"""Late-fault audit attribution: `ResourceManager.late_fault` mutates
cross-run shared state (suspicion, fault analyzer) inside the service's
tenant attribution window, so it must emit a FAULT audit record, which
the audit log stamps with the window's context."""

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.core.audit import FAULT
from repro.core.controller import ClusterBFTController
from repro.core.verifier import COMMISSION, ReplicaFault


def make_controller():
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=8, slots_per_node=3, heartbeat_period=0.5),
        bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
    )
    return ClusterBFTController(config, block_bytes=4096)


#: The journal of the run the late replica belongs to: tier decisions
#: take the journal their records go to (none here).
UNJOURNALED = None


def test_late_fault_emits_attributed_audit_record():
    controller = make_controller()
    controller.audit.context = {"tenant": "alice", "run": "script0001"}
    fault = ReplicaFault(
        replica=2, kind=COMMISSION, nodes=frozenset({"node01", "node02"})
    )

    controller.resources.late_fault(UNJOURNALED, "s0", fault)

    events = controller.audit.events(kind=FAULT)
    assert len(events) == 1
    event = events[0]
    assert event.subject == "s0"
    assert event.details["late"] is True
    assert event.details["replica"] == 2
    assert event.details["fault_kind"] == COMMISSION
    assert event.details["nodes"] == ("node01", "node02")
    # The attribution window's tenant context is forwarded verbatim.
    assert event.details["tenant"] == "alice"
    assert event.details["run"] == "script0001"


def test_late_fault_still_updates_shared_state():
    controller = make_controller()
    fault = ReplicaFault(replica=1, kind=COMMISSION, nodes=frozenset({"node03"}))

    controller.resources.late_fault(UNJOURNALED, "s1", fault)

    assert controller.resources.suspicion.nodes["node03"].faults_associated == 1
    assert frozenset({"node03"}) in controller.resources.fault_analyzer.overlapping + (
        controller.resources.fault_analyzer.disjoint
    )


def test_late_fault_outside_service_tier_has_empty_attribution():
    # Outside the service loop the audit context is {}: the record is still
    # emitted (byte-identical across runs), just without tenant keys.
    controller = make_controller()
    fault = ReplicaFault(replica=0, kind=COMMISSION, nodes=frozenset({"node04"}))

    controller.resources.late_fault(UNJOURNALED, "s2", fault)

    (event,) = controller.audit.events(kind=FAULT)
    assert "tenant" not in event.details
    assert event.details["late"] is True
