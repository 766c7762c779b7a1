"""Unit tests for the invariant checkers, over synthetic run contexts.

The checkers only read from the context, so they can be exercised with
hand-built stand-ins — no cluster required.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro.chaos.invariants import (
    CKPT1,
    DEGR1,
    DUR1,
    LIVE1,
    LIVE2,
    REG1,
    SAFE1,
    TEN1,
    CrashCell,
    CrashProbe,
    RunContext,
    ServiceRunContext,
    Violation,
    canonical_outputs,
    check_ckpt1,
    check_degr1,
    check_dur1,
    check_live1,
    check_live2,
    check_reg1,
    check_safe1,
    check_ten1,
)
from repro.chaos.scenarios import Scenario
from repro.common.records import records_from_rows
from repro.core.audit import QUARANTINE, RECONFIG, AuditLog
from repro.core.verifier import VERIFIED


@dataclass
class FakeResult:
    assured: bool = True
    attempts: int = 1
    exhausted: bool = False
    outputs: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)


def make_ctx(scenario=None, results=None, truth=None, controller=None, records=None):
    scenario = scenario or Scenario(name="t", description="")
    return RunContext(
        scenario=scenario,
        controller=controller
        or SimpleNamespace(audit=AuditLog(), config=scenario.system_config(seed=1)),
        results=results if results is not None else [],
        truth=truth or {},
        records=records or [],
        trace_name=None,
    )


class TestSafe1:
    def test_matching_outputs_pass(self):
        rows = records_from_rows([(1, 2)])
        ctx = make_ctx(
            results=[FakeResult(outputs={"out": rows})], truth={"out": rows}
        )
        assert check_safe1(ctx) == []

    def test_divergent_verified_sink_violates(self):
        ctx = make_ctx(
            results=[FakeResult(outputs={"out": records_from_rows([(1, 3)])})],
            truth={"out": records_from_rows([(1, 2)])},
        )
        violations = check_safe1(ctx)
        assert [v.invariant for v in violations] == [SAFE1]

    def test_unassured_runs_are_exempt(self):
        """SAFE1 is about *verified* sinks; a run that admits failure
        made no integrity claim."""
        ctx = make_ctx(
            results=[
                FakeResult(assured=False, outputs={"out": records_from_rows([(9,)])})
            ],
            truth={"out": records_from_rows([(1, 2)])},
        )
        assert check_safe1(ctx) == []


class TestLive1:
    def test_within_budget_passes(self):
        scenario = Scenario(name="t", description="", bft={"max_reruns": 3})
        ctx = make_ctx(scenario=scenario, results=[FakeResult(attempts=2)])
        assert check_live1(ctx) == []

    def test_budget_overrun_violates(self):
        scenario = Scenario(name="t", description="", bft={"max_reruns": 1})
        ctx = make_ctx(scenario=scenario, results=[FakeResult(attempts=5)])
        assert LIVE1 in [v.invariant for v in check_live1(ctx)]

    def test_budget_is_the_deployed_max_reruns(self):
        """Three attempts fit the default budget of four but not the
        budget of two that this deployment runs with."""
        scenario = Scenario(name="t", description="", bft={"max_reruns": 1})
        ctx = make_ctx(scenario=scenario, results=[FakeResult(attempts=3)])
        assert LIVE1 in [v.invariant for v in check_live1(ctx)]

    def test_unassured_without_verdict_violates(self):
        scenario = Scenario(
            name="t", description="", bft={"max_reruns": 3}, expect_assured=False
        )
        verdictless = FakeResult(
            assured=False,
            attempts=1,
            outcomes=[SimpleNamespace(status=VERIFIED)],
        )
        ctx = make_ctx(scenario=scenario, results=[verdictless])
        assert LIVE1 in [v.invariant for v in check_live1(ctx)]

    def test_expect_assured_folds_in(self):
        scenario = Scenario(name="t", description="", expect_assured=True)
        failed = FakeResult(
            assured=False,
            attempts=4,
            outcomes=[SimpleNamespace(status="FAILED")],
        )
        ctx = make_ctx(scenario=scenario, results=[failed])
        assert len(check_live1(ctx)) == 1  # only the expectation breach


class TestLive2:
    def make_controller(self, suspects, saturated=False, analyzer_suspects=()):
        return SimpleNamespace(
            audit=AuditLog(),
            cluster=SimpleNamespace(node_ids=lambda: [f"node_{i:04d}" for i in range(4)]),
            resources=SimpleNamespace(
                suspicion=SimpleNamespace(suspects=lambda: list(suspects)),
                fault_analyzer=SimpleNamespace(
                    saturated=saturated, suspects=lambda: list(analyzer_suspects)
                ),
            ),
        )

    def test_superset_passes(self):
        scenario = Scenario(name="t", description="", attributed_nodes=(1,))
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller({"node_0001", "node_0002"}),
        )
        assert check_live2(ctx) == []

    def test_missed_culprit_violates(self):
        scenario = Scenario(name="t", description="", attributed_nodes=(1,))
        ctx = make_ctx(scenario=scenario, controller=self.make_controller(set()))
        violations = check_live2(ctx)
        assert [v.invariant for v in violations] == [LIVE2]
        assert "node_0001" in violations[0].detail

    def test_saturated_analyzer_contributes_suspects(self):
        scenario = Scenario(name="t", description="", attributed_nodes=(1,))
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller(
                set(), saturated=True, analyzer_suspects={"node_0001"}
            ),
        )
        assert check_live2(ctx) == []

    def test_no_expectation_no_check(self):
        ctx = make_ctx(controller=self.make_controller(set()))
        assert check_live2(ctx) == []


class TestDegr1:
    def quarantined_controller(self, node="node_0003", at=5.0):
        audit = AuditLog()
        audit.record(at, QUARANTINE, node, suspicion=0.5)
        return SimpleNamespace(audit=audit)

    def test_task_after_quarantine_violates(self):
        records = [
            {
                "type": "span",
                "name": "task",
                "start": 6.0,
                "attrs": {"node": "node_0003"},
            }
        ]
        ctx = make_ctx(controller=self.quarantined_controller(), records=records)
        assert [v.invariant for v in check_degr1(ctx)] == [DEGR1]

    def test_task_before_quarantine_passes(self):
        records = [
            {
                "type": "span",
                "name": "task",
                "start": 4.0,
                "attrs": {"node": "node_0003"},
            }
        ]
        ctx = make_ctx(controller=self.quarantined_controller(), records=records)
        assert check_degr1(ctx) == []

    def test_other_nodes_unconstrained(self):
        records = [
            {
                "type": "span",
                "name": "task",
                "start": 9.0,
                "attrs": {"node": "node_0001"},
            }
        ]
        ctx = make_ctx(controller=self.quarantined_controller(), records=records)
        assert check_degr1(ctx) == []

    def test_no_quarantine_short_circuits(self):
        ctx = make_ctx(records=[{"type": "span", "name": "task", "start": 1.0}])
        assert check_degr1(ctx) == []


class TestReg1:
    def make_controller(self, dead=(), excluded=(), reconfigured=()):
        nodes = {
            f"node_{i:04d}": SimpleNamespace(
                excluded=f"node_{i:04d}" in excluded
            )
            for i in range(4)
        }
        audit = AuditLog()
        for region in reconfigured:
            audit.record(1.0, RECONFIG, region, nodes=[], sids=[])
        return SimpleNamespace(
            audit=audit,
            engine=SimpleNamespace(_dead_nodes=set(dead)),
            cluster=SimpleNamespace(
                region_node_ids=lambda region: ["node_0002", "node_0003"],
                node=lambda node_id: nodes[node_id],
            ),
        )

    def test_no_expectation_no_check(self):
        ctx = make_ctx(controller=self.make_controller())
        assert check_reg1(ctx) == []

    def test_lost_region_fully_detected_passes(self):
        scenario = Scenario(
            name="t", description="", expect_region_loss="south"
        )
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller(dead={"node_0002", "node_0003"}),
            results=[FakeResult()],
        )
        assert check_reg1(ctx) == []

    def test_excluded_counts_as_detected(self):
        scenario = Scenario(
            name="t", description="", expect_region_loss="south"
        )
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller(
                dead={"node_0002"}, excluded={"node_0003"}
            ),
        )
        assert check_reg1(ctx) == []

    def test_half_alive_region_violates(self):
        scenario = Scenario(
            name="t", description="", expect_region_loss="south"
        )
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller(dead={"node_0002"}),
        )
        violations = check_reg1(ctx)
        assert [v.invariant for v in violations] == [REG1]
        assert "node_0003" in violations[0].detail

    def test_expected_migration_needs_reconfig_audit(self):
        scenario = Scenario(
            name="t", description="", expect_migration_from="slow"
        )
        missing = make_ctx(scenario=scenario, controller=self.make_controller())
        assert [v.invariant for v in check_reg1(missing)] == [REG1]
        audited = make_ctx(
            scenario=scenario,
            controller=self.make_controller(reconfigured=("slow",)),
        )
        assert check_reg1(audited) == []

    def test_unassured_run_violates(self):
        scenario = Scenario(
            name="t", description="", expect_migration_from="slow"
        )
        ctx = make_ctx(
            scenario=scenario,
            controller=self.make_controller(reconfigured=("slow",)),
            results=[FakeResult(), FakeResult(assured=False)],
        )
        violations = check_reg1(ctx)
        assert [v.invariant for v in violations] == [REG1]
        assert "run 1" in violations[0].detail


class TestViolation:
    def test_as_dict_round_trip(self):
        violation = Violation(SAFE1, "detail", "trace.jsonl#sid=x")
        assert violation.as_dict() == {
            "invariant": SAFE1,
            "detail": "detail",
            "trace_ref": "trace.jsonl#sid=x",
        }

    def test_ref_prefixes_trace_name(self):
        ctx = make_ctx()
        ctx.trace_name = "cell.jsonl"
        assert ctx.ref("sid=1") == "cell.jsonl#sid=1"
        ctx.trace_name = None
        assert ctx.ref("sid=1") == "sid=1"


class TestObs1:
    """OBS1: injected-fault cells fire the expected alerts; fault-free
    twins stay silent on those same rules."""

    @staticmethod
    def suspicion_sample(ts=1.0, value=1.0):
        return {
            "type": "sample",
            "name": "suspicion_suspects",
            "labels": {},
            "ts": ts,
            "value": value,
        }

    def ctx(self, expected, records, twin_records=()):
        from repro.chaos.invariants import RunContext

        return RunContext(
            scenario=Scenario(
                name="t", description="", expected_alerts=tuple(expected)
            ),
            controller=SimpleNamespace(audit=AuditLog()),
            results=[],
            truth={},
            records=list(records),
            twin_records=list(twin_records),
            trace_name=None,
        )

    def test_expected_alert_fires_and_twin_silent_passes(self):
        from repro.chaos.invariants import check_obs1

        ctx = self.ctx(["replica-suspicion"], [self.suspicion_sample()])
        assert check_obs1(ctx) == []

    def test_missing_firing_violates(self):
        from repro.chaos.invariants import OBS1, check_obs1

        ctx = self.ctx(["replica-suspicion"], [])
        [violation] = check_obs1(ctx)
        assert violation.invariant == OBS1
        assert "never fired" in violation.detail

    def test_noisy_twin_violates(self):
        from repro.chaos.invariants import OBS1, check_obs1

        ctx = self.ctx(
            ["replica-suspicion"],
            [self.suspicion_sample()],
            twin_records=[self.suspicion_sample()],
        )
        [violation] = check_obs1(ctx)
        assert violation.invariant == OBS1
        assert "twin" in violation.detail

    def test_unknown_rule_name_violates(self):
        from repro.chaos.invariants import check_obs1

        ctx = self.ctx(["no-such-rule"], [])
        details = [v.detail for v in check_obs1(ctx)]
        assert any("unknown alert rule" in d for d in details)

    def test_no_expectation_no_check(self):
        from repro.chaos.invariants import check_obs1

        assert check_obs1(self.ctx([], [self.suspicion_sample()])) == []


# SAFE1, DUR1, CKPT1 and TEN1 compare published outputs one way: as
# multisets of encoded records (``canonical_outputs``), the semantics of
# the verifier's AdHash digest.  Each helper below builds the smallest
# context in which ``got`` is checked against ``expected`` rows.

ROWS = [(1, 2), (3, 4), (5, 6)]


def canonical(rows):
    return canonical_outputs({"out": records_from_rows(rows)})


def safe1(expected, got):
    return check_safe1(
        make_ctx(
            results=[FakeResult(outputs={"out": records_from_rows(got)})],
            truth={"out": records_from_rows(expected)},
        )
    )


def dur1(expected, got):
    ctx = make_ctx()
    cell = CrashCell(
        seq=4, kind="commit", start_attempt=0, commits_replayed=1,
        assured=True, exhausted=False, outputs=canonical(got),
    )
    ctx.durability = CrashProbe(
        reference_assured=True, reference_outputs=canonical(expected), cells=(cell,)
    )
    return check_dur1(ctx)


def ckpt1(expected, got):
    ctx = make_ctx()
    ctx.ckpt = CrashProbe(
        reference_assured=True, reference_outputs=canonical(got),
        checkpoint_records=1, twin_assured=True, twin_outputs=canonical(expected),
    )
    return check_ckpt1(ctx)


def ten1(expected, got):
    run = SimpleNamespace(
        tenant="t", run_id="r1", assured=True, exhausted=False, latency=1.0
    )
    result = SimpleNamespace(
        runs=[run],
        outputs={"r1": {"out": records_from_rows(got)}},
        rejects=[],
        faulty_tenants=frozenset(),
    )
    return check_ten1(
        ServiceRunContext(
            scenario=SimpleNamespace(honest_p99_bound=None, expect_rejections=False),
            service=None,
            result=result,
            truths={"r1": canonical(expected)},
        )
    )


OUTPUT_CHECKS = [(SAFE1, safe1), (DUR1, dur1), (CKPT1, ckpt1), (TEN1, ten1)]


@pytest.mark.parametrize("invariant, check", OUTPUT_CHECKS)
def test_permuted_output_is_not_a_violation(invariant, check):
    assert check(ROWS, ROWS[::-1]) == []


@pytest.mark.parametrize("invariant, check", OUTPUT_CHECKS)
def test_one_changed_record_is_a_violation(invariant, check):
    [violation] = check(ROWS, [(1, 2), (3, 4), (5, 7)])
    assert violation.invariant == invariant
    assert "'out'" in violation.detail
