"""Chaos-harness durability tests: the DUR1 crash sweep."""

from repro.chaos.invariants import (
    CrashCell,
    CrashProbe,
    RunContext,
    check_dur1,
)
from repro.chaos.runner import run_crash_sweep, run_one
from repro.chaos.scenarios import DURABILITY_CAMPAIGN, SCENARIOS
from repro.core import journal as wal


class TestCtlCrashSweep:
    def test_every_decision_point_resumes_clean(self):
        """The acceptance sweep: the ctl-crash scenario crashes the
        control tier after every journal record across two seeds, and
        every resume must satisfy DUR1 (same verdict, identical
        outputs)."""
        scenario = SCENARIOS["ctl-crash"]
        for seed in (1, 2):
            ctx, violations = run_one(scenario, seed)
            dur1 = [v for v in violations if v.invariant == "DUR1"]
            assert dur1 == [], f"seed {seed}: {dur1}"
            assert not violations, f"seed {seed}: {violations}"
            probe = ctx.durability
            assert probe is not None
            assert probe.reference_assured
            assert len(probe.cells) >= 5
            # Crashes landed on genuinely different decision points.
            kinds = {cell.kind for cell in probe.cells}
            assert {wal.RUN_START, wal.ATTEMPT_START, wal.VERDICT} <= kinds

    def test_final_attempt_boundary_is_swept(self):
        """ctl-crash-final has a zero rerun budget: the crash after the
        last allowed attempt's ``attempt_end`` resumes with start_attempt
        past max_reruns, and the settled snapshot must still read as
        assured — the verdict-flip regression the sweep previously
        missed because every scenario assured on an earlier attempt."""
        scenario = SCENARIOS["ctl-crash-final"]
        for seed in (1, 2):
            ctx, violations = run_one(scenario, seed)
            assert violations == [], f"seed {seed}: {violations}"
            probe = ctx.durability
            assert probe.reference_assured
            past_budget = [
                c
                for c in probe.cells
                if c.kind == wal.ATTEMPT_END
                and c.start_attempt > scenario.max_reruns
            ]
            assert past_budget, "no crash landed on the final boundary"
            assert all(c.assured and not c.exhausted for c in past_budget)

    def test_mid_escalation_boundaries_are_swept(self):
        """ctl-crash-omission is tuned so the journal spans several
        attempts: crashes must land on attempt_end boundaries with
        commits to replay, exercising the snapshot-restore path."""
        probe = run_crash_sweep(SCENARIOS["ctl-crash-omission"], 1)
        kinds = {cell.kind for cell in probe.cells}
        assert wal.ATTEMPT_END in kinds
        resumed_later = [c for c in probe.cells if c.start_attempt > 0]
        assert resumed_later, "no crash resumed past the first attempt"


class TestDur1Checker:
    def probe(self, cells):
        return CrashProbe(
            reference_assured=True,
            reference_outputs={"out": (b"a", b"b")},
            cells=tuple(cells),
        )

    def ctx(self, probe):
        return RunContext(
            scenario=SCENARIOS["ctl-crash"],
            controller=None,
            results=[],
            truth={},
            durability=probe,
        )

    def cell(self, assured=True, outputs=None):
        return CrashCell(
            seq=3,
            kind=wal.VERDICT,
            start_attempt=0,
            commits_replayed=0,
            assured=assured,
            exhausted=False,
            outputs={"out": (b"a", b"b")} if outputs is None else outputs,
        )

    def test_matching_cells_pass(self):
        probe = self.probe([self.cell()])
        assert check_dur1(self.ctx(probe)) == []

    def test_verdict_flip_is_a_violation(self):
        probe = self.probe([self.cell(assured=False)])
        violations = check_dur1(self.ctx(probe))
        assert len(violations) == 1
        assert "assured" in violations[0].detail

    def test_output_divergence_is_a_violation(self):
        probe = self.probe([self.cell(outputs={"out": (b"a", b"X")})])
        violations = check_dur1(self.ctx(probe))
        assert len(violations) == 1
        assert "diverges" in violations[0].detail

    def test_no_probe_means_no_violations(self):
        assert check_dur1(self.ctx(None)) == []


class TestCampaignWiring:
    def test_durability_campaign_members(self):
        assert set(DURABILITY_CAMPAIGN) == {
            "ctl-crash",
            "ctl-crash-omission",
            "ctl-crash-final",
            "exhaustion",
        }
        for name in DURABILITY_CAMPAIGN:
            assert name in SCENARIOS

    def test_exhaustion_scenario_is_a_live_outcome(self):
        """Rerun-budget exhaustion must be an explicit verdict the
        LIVE1 checker accepts — not a violation, not a crash."""
        ctx, violations = run_one(SCENARIOS["exhaustion"], 1)
        assert violations == []
        assert all(r.exhausted for r in ctx.results)
        assert not any(r.assured for r in ctx.results)
