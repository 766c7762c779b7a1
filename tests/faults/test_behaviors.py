"""Tests for Byzantine node behaviours and injection plans."""

import random

import pytest

from repro.common.errors import FaultInjectionError
from repro.common.hashing import digest_of
from repro.common.records import Record, records_from_rows
from repro.faults.behaviors import (
    CORRECT,
    CommissionBehavior,
    NodeBehavior,
    CrashBehavior,
    EquivocateBehavior,
    FlakyCommissionBehavior,
    OmissionBehavior,
    SlowBehavior,
    StorageCorruptionBehavior,
    tamper,
    tamper_one,
)
from repro.faults.injection import (
    combined,
    commission_nodes,
    crash_node,
    equivocate_node,
    no_faults,
    single_commission,
    single_omission,
    slow_node,
    storage_rot_node,
)


class TestTamper:
    @pytest.mark.parametrize(
        "fields",
        [(1, 2), (1.5,), ("text",), (True,), (None,), ((),)],
    )
    def test_tamper_changes_digest(self, fields):
        record = Record(fields)
        assert digest_of([record]).value != digest_of([tamper(record)]).value

    def test_tamper_is_deterministic(self):
        record = Record((1, "a"))
        assert tamper(record) == tamper(record)


class TestBehaviors:
    def test_correct_behavior_is_identity(self):
        records = records_from_rows([(1,), (2,)])
        assert CORRECT.corrupt_records(records, random.Random(0)) == records
        assert not CORRECT.omits_completion(random.Random(0))
        assert CORRECT.slowdown() == 1.0
        assert not CORRECT.faulty

    def test_commission_always_fires_at_p1(self):
        behavior = CommissionBehavior(probability=1.0)
        records = records_from_rows([(i,) for i in range(10)])
        corrupted = behavior.corrupt_records(records, random.Random(0))
        assert corrupted != records
        assert len(corrupted) == len(records)

    def test_commission_probability_zero_never_fires(self):
        behavior = CommissionBehavior(probability=0.0)
        records = records_from_rows([(1,)])
        for seed in range(20):
            assert behavior.corrupt_records(records, random.Random(seed)) == records

    def test_commission_respects_probability_statistically(self):
        behavior = CommissionBehavior(probability=0.3)
        records = records_from_rows([(1,)])
        rng = random.Random(0)
        fires = sum(
            behavior.corrupt_records(records, rng) != records for _ in range(2000)
        )
        assert 450 < fires < 750

    def test_commission_fraction_corrupts_many(self):
        behavior = CommissionBehavior(probability=1.0, per_record_fraction=0.5)
        records = records_from_rows([(i,) for i in range(100)])
        corrupted = behavior.corrupt_records(records, random.Random(0))
        changed = sum(a != b for a, b in zip(records, corrupted))
        assert changed > 20

    def test_commission_empty_stream_safe(self):
        behavior = CommissionBehavior(probability=1.0)
        assert behavior.corrupt_records([], random.Random(0)) == []

    def test_omission_flags(self):
        behavior = OmissionBehavior(probability=1.0, digest_probability=1.0)
        assert behavior.omits_completion(random.Random(0))
        assert behavior.omits_digest(random.Random(0))
        assert behavior.faulty

    def test_slow_is_not_faulty(self):
        behavior = SlowBehavior(factor=5.0)
        assert behavior.slowdown() == 5.0
        assert not behavior.faulty

    def test_flaky_rarely_fires(self):
        behavior = FlakyCommissionBehavior(probability=0.1)
        records = records_from_rows([(1,)])
        rng = random.Random(0)
        fires = sum(
            behavior.corrupt_records(records, rng) != records for _ in range(1000)
        )
        assert 40 < fires < 200

    def test_omission_digest_probability_independent(self):
        """``digest_probability`` withholds only the verification
        message: the completion still arrives."""
        behavior = OmissionBehavior(probability=0.0, digest_probability=1.0)
        assert not behavior.omits_completion(random.Random(0))
        assert behavior.omits_digest(random.Random(0))

    def test_omission_digest_probability_statistics(self):
        behavior = OmissionBehavior(probability=0.0, digest_probability=0.3)
        rng = random.Random(1)
        fires = sum(behavior.omits_digest(rng) for _ in range(2000))
        assert 450 < fires < 750

    def test_describe_strings(self):
        assert "commission" in CommissionBehavior().describe()
        assert "omission" in OmissionBehavior().describe()
        assert "slow" in SlowBehavior().describe()
        assert "crash" in CrashBehavior().describe()
        assert "equivocate" in EquivocateBehavior().describe()
        assert "storage-rot" in StorageCorruptionBehavior().describe()


class TestTamperOne:
    def test_changes_exactly_one_record(self):
        records = records_from_rows([(i,) for i in range(50)])
        corrupted = tamper_one(records, random.Random(0))
        assert sum(a != b for a, b in zip(records, corrupted)) == 1
        assert len(corrupted) == len(records)


class TestCrashBehavior:
    def test_crashes_after_k_task_starts(self):
        behavior = CrashBehavior(after_tasks=2)
        assert not behavior.is_crashed()
        behavior.note_task_start()
        assert not behavior.is_crashed()
        behavior.note_task_start()
        assert behavior.is_crashed()

    def test_after_zero_is_dead_on_arrival(self):
        assert CrashBehavior(after_tasks=0).is_crashed()

    def test_counter_is_per_instance(self):
        a, b = CrashBehavior(after_tasks=1), CrashBehavior(after_tasks=1)
        a.note_task_start()
        assert a.is_crashed() and not b.is_crashed()

    def test_pipeline_itself_is_honest(self):
        """Crash-stop nodes never tamper — they only fall silent."""
        behavior = CrashBehavior(after_tasks=1)
        records = records_from_rows([(1,)])
        assert behavior.corrupt_records(records, random.Random(0)) == records
        assert not behavior.omits_digest(random.Random(0))


class TestEquivocateBehavior:
    def test_digests_honest_storage_poisoned(self):
        """The defining property: the consumed stream (digest source)
        is untouched, the persisted stream is tampered."""
        behavior = EquivocateBehavior(probability=1.0)
        records = records_from_rows([(i,) for i in range(10)])
        assert behavior.corrupt_records(records, random.Random(0)) == records
        stored = behavior.corrupt_stored_output(records, random.Random(0))
        assert stored != records
        assert sum(a != b for a, b in zip(records, stored)) == 1

    def test_probability_zero_never_fires(self):
        behavior = EquivocateBehavior(probability=0.0)
        records = records_from_rows([(1,)])
        for seed in range(20):
            assert (
                behavior.corrupt_stored_output(records, random.Random(seed))
                == records
            )

    def test_empty_stream_safe(self):
        behavior = EquivocateBehavior(probability=1.0)
        assert behavior.corrupt_stored_output([], random.Random(0)) == []


class TestStorageCorruptionBehavior:
    def test_read_path_rots_pipeline_honest(self):
        behavior = StorageCorruptionBehavior(probability=1.0)
        assert behavior.corrupts_storage
        records = records_from_rows([(i,) for i in range(10)])
        assert behavior.corrupt_records(records, random.Random(0)) == records
        observed = behavior.corrupt_read(records, random.Random(0))
        assert observed != records

    def test_correct_behavior_does_not_corrupt_storage(self):
        records = records_from_rows([(1,)])
        assert not CORRECT.corrupts_storage
        assert CORRECT.corrupt_read(records, random.Random(0)) == records
        assert CORRECT.corrupt_stored_output(records, random.Random(0)) == records

    def test_empty_stream_safe(self):
        behavior = StorageCorruptionBehavior(probability=1.0)
        assert behavior.corrupt_read([], random.Random(0)) == []


class TestFaultPlans:
    def test_default_is_correct(self):
        plan = no_faults()
        assert plan.behavior_for("anything") is CORRECT
        assert plan.faulty_nodes() == set()

    def test_single_commission_plan(self):
        plan = single_commission("n1", probability=0.5)
        assert plan.faulty_nodes() == {"n1"}
        assert plan.behavior_for("n1").probability == 0.5

    def test_commission_nodes_plan(self):
        plan = commission_nodes(["a", "b"], 0.7)
        assert plan.faulty_nodes() == {"a", "b"}

    def test_slow_node_not_faulty(self):
        assert slow_node("n1").faulty_nodes() == set()

    def test_combined_merges(self):
        plan = combined(single_commission("a"), single_omission("b"))
        assert plan.faulty_nodes() == {"a", "b"}

    def test_combined_rejects_conflicts(self):
        with pytest.raises(FaultInjectionError):
            combined(single_commission("a"), single_omission("a"))

    def test_crash_node_plan(self):
        plan = crash_node("n1", after_tasks=3)
        assert plan.faulty_nodes() == {"n1"}
        assert plan.behavior_for("n1").after_tasks == 3

    def test_equivocate_node_plan(self):
        plan = equivocate_node("n1", probability=0.5)
        assert plan.faulty_nodes() == {"n1"}
        assert plan.behavior_for("n1").probability == 0.5

    def test_storage_rot_node_plan(self):
        plan = storage_rot_node("n1")
        assert plan.faulty_nodes() == {"n1"}
        assert plan.behavior_for("n1").corrupts_storage

    def test_combined_rejects_conflicts_across_new_kinds(self):
        with pytest.raises(FaultInjectionError):
            combined(crash_node("a"), storage_rot_node("a"))

    def test_combined_merges_new_kinds(self):
        plan = combined(crash_node("a"), equivocate_node("b"), storage_rot_node("c"))
        assert plan.faulty_nodes() == {"a", "b", "c"}

    def test_describe(self):
        assert no_faults().describe() == "no faults"
        assert "n1" in single_commission("n1").describe()


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


#: Hooks through which a node can alter data (or hide that it did), so a
#: class overriding any of them must not share replica results.
DATA_HOOKS = ("corrupt_records", "corrupt_stored_output", "omits_completion", "omits_digest")


class TestShareSafety:
    """Replica sharing trusts ``faulty`` and ``corrupts_storage``
    (DESIGN.md §16): every behaviour that overrides a hook able to alter
    data must set the flag the sharing predicate reads."""

    def test_every_subclass_that_can_alter_data_says_so(self):
        found = set(subclasses(NodeBehavior))
        assert {
            CommissionBehavior, CrashBehavior, EquivocateBehavior,
            FlakyCommissionBehavior, OmissionBehavior, SlowBehavior,
            StorageCorruptionBehavior,
        } <= found
        for cls in found:
            overrides = {
                hook for hook in (*DATA_HOOKS, "corrupt_read")
                if getattr(cls, hook) is not getattr(NodeBehavior, hook)
            }
            if overrides & set(DATA_HOOKS):
                assert cls.faulty, f"{cls.__name__} overrides {sorted(overrides)}"
            if "corrupt_read" in overrides:
                assert cls.corrupts_storage, f"{cls.__name__} overrides corrupt_read"
