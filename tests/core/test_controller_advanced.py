"""Advanced controller scenarios: replicated front-end, adversary
models, digest granularity, cross-script state."""

import pytest

from repro.common.config import (
    ADVERSARY_WEAK,
    ClusterBFTConfig,
    ClusterConfig,
    SystemConfig,
)
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.faults.injection import single_commission

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 5, i) for i in range(300)]


def make_controller(replicate_frontend=False, adversary="strong", chunk=0,
                    fault_plan=None):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.5),
        bft=ClusterBFTConfig(
            f=1,
            replication=4,
            verification_points=1,
            adversary=adversary,
            digest_chunk_records=chunk,
            verifier_timeout=60.0,
        ),
    )
    controller = ClusterBFTController(
        config,
        fault_plan=fault_plan,
        block_bytes=2048,
        replicate_frontend=replicate_frontend,
    )
    controller.load_input("in", records_from_rows(ROWS))
    return controller


class TestReplicatedFrontend:
    def test_frontend_consensus_adds_latency(self):
        plain_front = make_controller(replicate_frontend=False)
        bft_front = make_controller(replicate_frontend=True)
        a = plain_front.run_assured(SCRIPT)
        b = bft_front.run_assured(SCRIPT)
        assert b.assured and a.assured
        assert b.latency > a.latency
        assert b.outputs == a.outputs

    def test_frontend_replicas_stay_consistent(self):
        controller = make_controller(replicate_frontend=True)
        controller.run_assured(SCRIPT)
        controller.run_assured(SCRIPT)
        digests = {r.state_digest() for r in controller.frontend.replicas}
        assert len(digests) == 1

    def test_crashed_frontend_backup_tolerated(self):
        controller = make_controller(replicate_frontend=True)
        controller.frontend.crash_replica(2)  # backup, not view-0 primary
        result = controller.run_assured(SCRIPT)
        assert result.assured


class TestAdversaryModels:
    def test_weak_adversary_allows_more_points(self):
        strong = make_controller(adversary="strong")
        weak = make_controller(adversary=ADVERSARY_WEAK)
        a = strong.run_assured(SCRIPT)
        b = weak.run_assured(SCRIPT)
        assert a.assured and b.assured
        assert a.outputs == b.outputs

    def test_weak_adversary_detects_commission(self):
        controller = make_controller(
            adversary=ADVERSARY_WEAK, fault_plan=single_commission("node_0000")
        )
        reference = make_controller()
        truth = reference.run_plain(SCRIPT)
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.outputs == truth.outputs


class TestDigestGranularity:
    @pytest.mark.parametrize("chunk", [0, 50, 10])
    def test_chunked_digests_verify(self, chunk):
        controller = make_controller(chunk=chunk)
        result = controller.run_assured(SCRIPT)
        assert result.assured

    def test_finer_chunks_mean_more_comparisons(self):
        # Tap a high-volume stream (the filtered input, 300 records) so
        # chunk boundaries actually occur; the default marker points sit
        # on the 5-record aggregate where no chunk ever fills.
        def run(chunk):
            controller = make_controller(chunk=chunk)
            plan = controller._to_plan(SCRIPT)
            points = [plan.find_by_alias("B")]
            return controller.run_assured(plan, explicit_points=points)

        coarse = run(0)
        fine = run(20)
        assert (
            fine.metrics.verification_comparisons
            > coarse.metrics.verification_comparisons
        )

    def test_chunked_digests_catch_commission(self):
        truth = make_controller().run_plain(SCRIPT)
        controller = make_controller(
            chunk=25, fault_plan=single_commission("node_0000")
        )
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.outputs == truth.outputs


class TestCrossScriptState:
    def test_suspicion_accumulates_across_scripts(self):
        controller = make_controller(fault_plan=single_commission("node_0000"))
        levels = []
        for _ in range(3):
            controller.run_assured(SCRIPT)
            levels.append(controller.resources.suspicion.level("node_0000"))
        assert levels[-1] > 0 or not controller.audit.events(kind="fault")

    def test_outputs_refresh_between_scripts(self):
        controller = make_controller()
        first = controller.run_assured(SCRIPT)
        controller.load_input("in", records_from_rows([(1, 1), (1, 2)]))
        second = controller.run_assured(SCRIPT)
        assert second.assured
        assert first.outputs != second.outputs
        assert second.outputs["out"][0][1] == 2  # two records for key 1
