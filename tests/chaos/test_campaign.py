"""Integration tests for the chaos campaign runner and its CLI.

These execute real (small) cells end to end, so they double as the
regression net for the fault behaviours, crash detection, quarantine,
and the invariant checkers working against live controller state.
"""

import json

import pytest

from repro.chaos.invariants import SAFE1
from repro.chaos.runner import (
    CampaignError,
    render_report,
    run_campaign,
    run_one,
    workload,
)
from repro.chaos.scenarios import SCENARIOS, resolve_scenarios
from repro.cli import main
from repro.telemetry.export import read_jsonl


class TestCells:
    def test_baseline_cell_passes(self):
        ctx, violations = run_one(SCENARIOS["baseline"], seed=1)
        assert violations == []
        assert all(result.assured for result in ctx.results)

    def test_crash_cell_detects_the_crash(self):
        ctx, violations = run_one(SCENARIOS["crash"], seed=1)
        assert violations == []
        assert ctx.controller.engine._dead_nodes == {"node_0004"}

    def test_quarantine_cell_quarantines_without_evicting(self):
        from repro.core.audit import EVICTION, QUARANTINE

        ctx, violations = run_one(SCENARIOS["quarantine"], seed=1)
        assert violations == []
        audit = ctx.controller.audit
        quarantined = {e.subject for e in audit.events(kind=QUARANTINE)}
        assert "node_0002" in quarantined
        assert audit.events(kind=EVICTION) == []
        # The quarantined flaky node really stopped receiving work.
        assert ctx.controller.scheduler.is_quarantined("node_0002")

    def test_weakened_scenario_trips_safe1(self):
        """The deliberately weakened config (f=0, r=1, corrupt node) must
        demonstrably let a tampered record into the verified sink."""
        scenario = SCENARIOS["weakened-safe1"]
        assert scenario.expected_violations == (SAFE1,)
        ctx, violations = run_one(scenario, seed=1)
        assert [v.invariant for v in violations] == [SAFE1]
        # The system itself believed the run succeeded — that is the point.
        assert all(result.assured for result in ctx.results)

    def test_workload_is_deterministic_per_seed(self):
        assert workload(3) == workload(3)
        assert workload(3) != workload(4)


class TestCampaign:
    def test_report_shape_and_determinism(self):
        scenarios = resolve_scenarios("baseline,crash")
        first = run_campaign(scenarios, [1])
        second = run_campaign(scenarios, [1])
        assert render_report(first) == render_report(second)
        assert first["summary"] == {
            "total": 2,
            "passed": 2,
            "failed": 0,
            "violations": 0,
        }
        cell = first["cells"][1]
        assert cell["scenario"] == "crash"
        assert cell["crashes_detected"] == ["node_0004"]
        json.loads(render_report(first))  # valid JSON

    def test_violations_counted_in_summary(self):
        report = run_campaign(resolve_scenarios("weakened-safe1"), [1])
        assert report["summary"]["failed"] == 1
        assert report["summary"]["violations"] >= 1
        cell = report["cells"][0]
        assert not cell["passed"]
        assert cell["violations"][0]["invariant"] == SAFE1

    def test_smoke_report_identical_without_replica_sharing(self, monkeypatch):
        """Sharing task results between honest replicas (DESIGN.md §16)
        must not move one byte of a campaign report: the same cells run
        with the result table patched to never hit are the reference."""
        from repro.mapreduce.engine import ReplicaResults

        scenarios = resolve_scenarios("smoke")
        shared = render_report(run_campaign(scenarios, [1, 2]))
        monkeypatch.setattr(
            ReplicaResults, "get", lambda self, key, default=None: None
        )
        assert render_report(run_campaign(scenarios, [1, 2])) == shared

    def test_empty_seed_list_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(resolve_scenarios("baseline"), [])

    def test_trace_dir_streams_per_cell(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        ctx, violations = run_one(
            SCENARIOS["quarantine"], seed=1, trace_dir=trace_dir
        )
        assert violations == []
        assert ctx.trace_name == "quarantine-s1.jsonl"
        records = read_jsonl(str(tmp_path / "traces" / ctx.trace_name))
        assert any(r.get("name") == "task" for r in records)
        # The checkers consumed the streamed trace, not an in-memory copy.
        assert ctx.records == records


class TestCli:
    def test_chaos_run_exit_zero_on_pass(self, capsys):
        assert main(["chaos", "run", "--scenarios", "baseline", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "ok   baseline" in out

    def test_chaos_run_exit_one_on_violation(self, capsys, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "chaos",
                "run",
                "--scenarios",
                "weakened-safe1",
                "--seeds",
                "1",
                "--report",
                report_path,
            ]
        )
        assert code == 1
        report = json.loads(open(report_path).read())
        assert report["cells"][0]["violations"][0]["invariant"] == SAFE1
        assert "SAFE1" in capsys.readouterr().out

    def test_chaos_list(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "baseline" in out

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--scenarios", "nope", "--seeds", "1"])

    def test_bad_seeds_exits(self):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--scenarios", "baseline", "--seeds", "zero"])


class TestObsCells:
    """OBS1 end to end: the obs campaign's faulty cells fire their
    expected alerts while the fault-free twins stay silent."""

    def test_obs_commission_cell_passes_and_reports_alerts(self):
        ctx, violations = run_one(SCENARIOS["obs-commission"], seed=2)
        assert violations == []
        from repro.telemetry.slo import evaluate

        fired = {f.rule for f in evaluate(ctx.records)}
        assert "replica-suspicion" in fired
        twin_fired = {f.rule for f in evaluate(ctx.twin_records)}
        assert "replica-suspicion" not in twin_fired

    def test_obs_timeout_cell_recovers_after_alert(self):
        """Table 3 case 2: one slow node blocks the r=f+1 quorum, the
        verification deadline fires the alert, the rerun recovers."""
        ctx, violations = run_one(SCENARIOS["obs-timeout"], seed=2)
        assert violations == []
        from repro.telemetry.slo import evaluate

        fired = {f.rule for f in evaluate(ctx.records)}
        assert "verification-timeout" in fired
        assert all(result.assured for result in ctx.results)
        assert any(result.attempts > 1 for result in ctx.results)

    def test_obs_campaign_report_is_deterministic(self):
        scenarios = resolve_scenarios("obs")
        first = render_report(run_campaign(scenarios, [2]))
        second = render_report(run_campaign(scenarios, [2]))
        assert first == second
        payload = json.loads(first)
        for cell in payload["cells"]:
            assert cell["expected_alerts"], cell["scenario"]
            assert set(cell["expected_alerts"]) <= set(cell["alerts"])
