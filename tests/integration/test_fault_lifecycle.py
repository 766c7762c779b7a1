"""The paper's full fault-handling story, end to end on the real engine.

A flaky Byzantine node corrupts task streams only occasionally (the
§4.3 hard case).  Over a sequence of assured script runs:

1. every run still commits the correct output (f+1 quorums mask faults);
2. suspicion accumulates on the chains that lose votes;
3. the Fig. 7 analyzer saturates and its suspect set contains the
   culprit;
4. dummy-job probing (§3.3) narrows the suspect set to the exact node;
5. the operator evicts it; subsequent runs are fault-free.
"""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.core.probe import ProbeManager
from repro.faults.behaviors import CommissionBehavior
from repro.faults.injection import FaultPlan

FAULTY = "node_0002"

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""


@pytest.fixture(scope="module")
def story():
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.4),
        bft=ClusterBFTConfig(f=1, replication=4, verifier_timeout=60.0),
    )
    fault_plan = FaultPlan(
        {FAULTY: CommissionBehavior(probability=0.6, per_record_fraction=0.05)}
    )
    controller = ClusterBFTController(config, fault_plan=fault_plan, block_bytes=2048)
    controller.load_input("in", records_from_rows([(i % 6, i) for i in range(400)]))

    reference = ClusterBFTController(config, block_bytes=2048)
    reference.load_input("in", records_from_rows([(i % 6, i) for i in range(400)]))
    truth = reference.run_plain(SCRIPT).outputs

    results = [controller.run_assured(SCRIPT) for _ in range(8)]
    return controller, truth, results


class TestFaultLifecycle:
    def test_every_run_commits_correct_output(self, story):
        controller, truth, results = story
        for result in results:
            assert result.assured
            assert result.outputs == truth

    def test_suspicion_lands_on_culprit_chain(self, story):
        controller, truth, results = story
        assert controller.resources.suspicion.level(FAULTY) > 0

    def test_analyzer_contains_culprit(self, story):
        controller, truth, results = story
        assert controller.resources.fault_analyzer.observations >= 1
        if controller.resources.fault_analyzer.saturated:
            assert FAULTY in controller.resources.fault_analyzer.suspects()

    def test_probing_isolates_exact_node(self, story):
        controller, truth, results = story
        suspects = (
            controller.resources.fault_analyzer.suspects()
            if controller.resources.fault_analyzer.saturated
            else controller.resources.suspicion.suspects()
        )
        assert FAULTY in suspects
        manager = ProbeManager(controller, repeats_per_round=4)
        outcome = manager.isolate(suspects)
        assert outcome.isolated == [FAULTY]

    def test_eviction_restores_clean_runs(self, story):
        controller, truth, results = story
        controller.cluster.exclude(FAULTY)
        post = controller.run_assured(SCRIPT)
        assert post.assured
        assert post.outputs == truth
        final_outcomes = post.outcomes
        assert all(not outcome.faults for outcome in final_outcomes)

    def test_audit_trail_tells_the_story(self, story):
        controller, truth, results = story
        assert len(controller.audit.events(kind="submit")) >= 8
        assert controller.audit.events(kind="commit")
        history = controller.audit.node_history(FAULTY)
        assert history, "the culprit must appear in the audit trail"
