"""Service-tier chaos cells: TEN1/TEN2 against live multi-tenant runs.

One real cell per scenario (small seeds), plus campaign integration —
the regression net for honest-tenant isolation and cross-tenant
quarantine hand-off.
"""

from repro.chaos.invariants import TEN1, TEN2
from repro.chaos.runner import run_campaign, run_service_one
from repro.chaos.scenarios import SCENARIOS, resolve_scenarios
from repro.service.tenants import parse_trace


def honest(scenario, seed):
    """The trace's tenants not flagged faulty."""
    trace = parse_trace(scenario.trace_text(seed))
    return {tenant.name for tenant in trace.tenants} - trace.faulty_tenants


class TestServiceCells:
    def test_tenant_flood_keeps_honest_tenants_whole(self):
        scenario = SCENARIOS["tenant-flood"]
        ctx, violations = run_service_one(scenario, seed=1)
        assert violations == []
        result = ctx.result
        honest_tenants = honest(scenario, 1)
        # The flood really tripped admission control…
        assert result.rejects
        # …but every rejection landed on the flooding tenant.
        assert all(r.tenant not in honest_tenants for r in result.rejects)
        honest_runs = [r for r in result.runs if r.tenant in honest_tenants]
        assert honest_runs and all(r.assured for r in honest_runs)

    def test_cross_tenant_quarantine_hands_off_protection(self):
        scenario = SCENARIOS["cross-tenant-quarantine"]
        ctx, violations = run_service_one(scenario, seed=1)
        assert violations == []
        honest_tenants = honest(scenario, 1)
        audit = ctx.service.controller.audit
        handoffs = [
            event
            for kind in ("quarantine", "eviction")
            for event in audit.events(kind=kind)
            if event.details.get("tenant") not in honest_tenants
        ]
        # A faulty tenant's traffic got the node contained…
        assert handoffs
        cutoff = min(event.time for event in handoffs)
        # …and at least one honest run started after the containment,
        # inheriting it for free (the cross-tenant Fig. 7 payoff).
        later = [
            run
            for run in ctx.result.runs
            if run.tenant in honest_tenants and run.started_at > cutoff
        ]
        assert later and all(run.assured for run in later)

    def test_truths_cover_every_assured_honest_run(self):
        ctx, _ = run_service_one(SCENARIOS["tenant-flood"], seed=2)
        honest_tenants = honest(SCENARIOS["tenant-flood"], 2)
        for run in ctx.result.runs:
            if run.tenant in honest_tenants and run.assured:
                assert run.run_id in ctx.truths
                assert ctx.truths[run.run_id]


class TestServiceCampaign:
    def test_service_campaign_report_shape(self):
        report = run_campaign(resolve_scenarios("tenant-flood"), [1])
        assert report["summary"]["failed"] == 0
        cell = report["cells"][0]
        assert cell["scenario"] == "tenant-flood"
        assert cell["passed"]
        assert cell["service"]["rejected"] > 0
        assert cell["service"]["honest_assured"] == cell["service"]["honest_runs"]

    def test_mixed_campaign_dispatches_both_kinds(self):
        report = run_campaign(resolve_scenarios("baseline,tenant-flood"), [1])
        cells = report["cells"]
        assert [c["scenario"] for c in cells] == ["baseline", "tenant-flood"]
        assert "service" not in cells[0]
        assert "service" in cells[1]
        assert report["summary"] == {
            "total": 2,
            "passed": 2,
            "failed": 0,
            "violations": 0,
        }


class TestInvariantCatalogue:
    def test_ten_invariants_registered(self):
        from repro.chaos.invariants import INVARIANTS

        assert TEN1 in INVARIANTS and TEN2 in INVARIANTS
