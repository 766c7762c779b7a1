"""Crash-resume tests: journal replay must reproduce the run."""

import pytest

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.errors import VerificationExhausted
from repro.common.records import encode_record, records_from_rows
from repro.core import journal as wal
from repro.core.audit import EXHAUSTED
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.faults.injection import single_commission

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 5, (i * 13) % 50 or None) for i in range(200)]


def make_config(timeout=60.0, max_reruns=3, seed=31):
    return SystemConfig(
        cluster=ClusterConfig(
            num_nodes=10, slots_per_node=3, heartbeat_period=0.5
        ),
        bft=ClusterBFTConfig(
            f=1,
            replication=4,
            verification_points=1,
            verifier_timeout=timeout,
            max_reruns=max_reruns,
        ),
        seed=seed,
    )


def inputs():
    return {"in": records_from_rows(ROWS)}


def journaled_run(path, fault_plan=None, crash_hook=None, **config_kwargs):
    config = make_config(**config_kwargs)
    journal = wal.Journal.create(
        path, config, SCRIPT, inputs(), block_bytes=2048, crash_hook=crash_hook
    )
    controller = ClusterBFTController(
        config, fault_plan=fault_plan, block_bytes=2048, journal=journal
    )
    controller.load_input("in", inputs()["in"])
    return controller.run_assured(SCRIPT)


def canonical(outputs):
    return {
        path: [encode_record(r) for r in records]
        for path, records in outputs.items()
    }


def fault_plan():
    return single_commission("node_0002", probability=0.8)


class TestJournaledEqualsUnjournaled:
    def test_journal_is_pure_observation(self, tmp_path):
        config = make_config()
        plain = ClusterBFTController(config, block_bytes=2048)
        plain.load_input("in", inputs()["in"])
        baseline = plain.run_assured(SCRIPT)

        journaled = journaled_run(str(tmp_path / "run.wal"))
        assert journaled.outputs == baseline.outputs
        assert journaled.latency == baseline.latency
        assert journaled.attempts == baseline.attempts


class TestResume:
    def test_completed_journal_reports_without_executing(self, tmp_path):
        path = str(tmp_path / "run.wal")
        reference = journaled_run(path)
        recovered = resume_run(path)
        assert recovered.completed
        assert recovered.controller is None
        assert recovered.result.assured == reference.assured
        assert recovered.result.outputs == reference.outputs
        assert recovered.result.latency == reference.latency

    def test_header_inputs_round_trip(self, tmp_path):
        path = str(tmp_path / "run.wal")
        journaled_run(path)
        assert wal.read_journal(path)[0][0]["inputs"] == inputs()

    def test_crash_before_run_start_resumes_from_scratch(self, tmp_path):
        path = str(tmp_path / "run.wal")
        ref_path = str(tmp_path / "ref.wal")
        reference = journaled_run(ref_path)
        # seq 0 is the header: the crash lands before run_start exists.
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(0))
        recovered = resume_run(path)
        assert not recovered.completed
        assert canonical(recovered.result.outputs) == canonical(
            reference.outputs
        )
        assert recovered.result.assured

    def test_crash_sweep_resumes_byte_identical(self, tmp_path):
        """Kill the control tier at *every* journaled decision point of
        a faulty run; every resume must republish the reference bytes."""
        ref_path = str(tmp_path / "ref.wal")
        reference = journaled_run(ref_path, fault_plan=fault_plan())
        records, _ = wal.read_journal(ref_path)
        expected = canonical(reference.outputs)
        kinds_crashed = set()
        for crash_seq in range(1, records[-1]["seq"] + 1):
            path = str(tmp_path / f"crash-{crash_seq}.wal")
            try:
                journaled_run(
                    path,
                    fault_plan=fault_plan(),
                    crash_hook=wal.crash_at(crash_seq),
                )
                continue  # run finished before the hook's seq
            except wal.ControlTierCrash:
                pass
            recovered = resume_run(path, fault_plan=fault_plan())
            assert recovered.result.assured == reference.assured, crash_seq
            assert canonical(recovered.result.outputs) == expected, crash_seq
            kinds_crashed.add(records[crash_seq]["kind"])
        # The sweep exercised the interesting decision points, not just
        # one lucky spot.
        assert {wal.RUN_START, wal.ATTEMPT_START, wal.VERDICT} <= kinds_crashed

    def test_crash_after_final_attempt_end_still_assured(self, tmp_path):
        """Crash between the last allowed attempt's ``attempt_end`` and
        ``run_end``: the restored start_attempt is past max_reruns, so
        the rerun range is empty — the fully-settled snapshot must still
        be judged assured, not misread as escalation exhaustion."""
        ref_path = str(tmp_path / "ref.wal")
        reference = journaled_run(ref_path, max_reruns=0)
        assert reference.assured
        records, _ = wal.read_journal(ref_path)
        final_boundary = max(
            r["seq"] for r in records if r["kind"] == wal.ATTEMPT_END
        )
        path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(
                path, max_reruns=0, crash_hook=wal.crash_at(final_boundary)
            )
        recovered = resume_run(path)
        assert not recovered.completed
        assert recovered.result.assured
        assert not recovered.result.exhausted
        assert canonical(recovered.result.outputs) == canonical(
            reference.outputs
        )
        # Nothing was re-executed: the journal's commits covered it all.
        assert recovered.result.reused_jobs > 0

    def test_resume_after_torn_tail_leaves_readable_journal(self, tmp_path):
        """A real crash can tear the WAL's final line.  The resume must
        succeed AND leave a journal that later reads (post-mortem or a
        second resume) still parse — the reopened writer truncates the
        torn tail instead of appending onto it."""
        ref_path = str(tmp_path / "ref.wal")
        reference = journaled_run(ref_path)
        path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(4))
        with open(path, "rb+") as handle:
            handle.truncate(handle.seek(0, 2) - 7)  # tear the last line
        recovered = resume_run(path)
        assert canonical(recovered.result.outputs) == canonical(
            reference.outputs
        )
        records, warnings = wal.read_journal(path)
        assert warnings == []  # no torn tail left behind
        assert records[-1]["kind"] == wal.RUN_END
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_torn_tail_byte_count_is_surfaced_not_silent(self, tmp_path):
        """Truncating crash damage is evidence, not housekeeping: the
        resume must report *how many bytes* were dropped, both in its
        warnings and as a ``torn_tail`` audit event."""
        from repro.core.audit import TORN_TAIL

        path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(4))
        damage = '{"kind": "to'  # a write the crash cut short
        with open(path, "a") as handle:
            handle.write(damage)
        recovered = resume_run(path)
        # Once: the reopen cuts the tail before anything reads the journal.
        assert [w for w in recovered.warnings if "truncated" in w] == [
            f"journal tail truncated: dropped {len(damage)} byte(s) "
            "of torn final record"
        ]
        events = recovered.controller.audit.events(kind=TORN_TAIL)
        assert len(events) == 1
        assert events[0].subject == path
        assert events[0].details["bytes_truncated"] == len(damage)

    def test_resume_after_a_cut_final_newline_twice(self, tmp_path):
        """A crash that cut only the final newline leaves a record that
        parses; it is still the torn tail.  The first resume must not
        number its records past it, or the second finds a seq gap."""
        reference = journaled_run(str(tmp_path / "ref.wal"))
        path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(5))
        with open(path, "rb+") as handle:
            handle.truncate(handle.seek(0, 2) - 1)  # the final newline
        first = resume_run(path)
        assert not first.completed
        second = resume_run(path)
        assert second.completed and second.warnings == []
        assert canonical(second.result.outputs) == canonical(reference.outputs)
        records, warnings = wal.read_journal(path)
        assert warnings == []
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_clean_resume_reports_no_torn_tail(self, tmp_path):
        from repro.core.audit import TORN_TAIL

        path = str(tmp_path / "crash.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(4))
        recovered = resume_run(path)
        assert not any("truncated" in w for w in recovered.warnings)
        assert recovered.controller.audit.events(kind=TORN_TAIL) == []

    def test_resumed_journal_records_resume_marker(self, tmp_path):
        path = str(tmp_path / "run.wal")
        with pytest.raises(wal.ControlTierCrash):
            journaled_run(path, crash_hook=wal.crash_at(3))
        resume_run(path)
        records, _ = wal.read_journal(path)
        kinds = [r["kind"] for r in records]
        assert wal.RESUME in kinds
        assert kinds[-1] == wal.RUN_END


class TestExhaustion:
    def run_exhausted(self, tmp_path, strict=False):
        path = str(tmp_path / "exhausted.wal")
        config = make_config(timeout=0.05, max_reruns=1)
        journal = wal.Journal.create(
            path, config, SCRIPT, inputs(), block_bytes=2048
        )
        controller = ClusterBFTController(
            config, block_bytes=2048, journal=journal
        )
        controller.load_input("in", inputs()["in"])
        return path, controller, controller.run_assured(SCRIPT, strict=strict)

    def test_exhaustion_is_an_explicit_outcome(self, tmp_path):
        _, controller, result = self.run_exhausted(tmp_path)
        assert not result.assured
        assert result.exhausted
        assert result.attempts == 2  # max_reruns=1 -> initial + one rerun
        events = controller.audit.events(kind=EXHAUSTED)
        assert len(events) == 1

    def test_strict_raises_with_result_attached(self, tmp_path):
        config = make_config(timeout=0.05, max_reruns=1)
        controller = ClusterBFTController(config, block_bytes=2048)
        controller.load_input("in", inputs()["in"])
        with pytest.raises(VerificationExhausted) as excinfo:
            controller.run_assured(SCRIPT, strict=True)
        assert excinfo.value.result is not None
        assert excinfo.value.result.exhausted
        assert excinfo.value.attempts == 2

    def test_exhausted_journal_resumes_to_same_verdict(self, tmp_path):
        path, _, result = self.run_exhausted(tmp_path)
        recovered = resume_run(path)
        assert recovered.completed
        assert recovered.result.exhausted
        assert recovered.result.assured == result.assured
