"""Tests for the task data-path (map/reduce execution, taps, corruption)."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Record, records_from_rows
from repro.compiler.jobspec import JobSpec, MapBranch, PipelineOp
from repro.compiler.mr_compiler import compile_plan
from repro.dataflow import expressions as ex
from repro.dataflow.operators import (
    DistinctOp,
    FilterOp,
    ForeachOp,
    GroupOp,
    Projection,
    VerifyOp,
)
from repro.dataflow.piglatin import parse_script
from repro.dataflow.schema import INT, Schema
from repro.faults.behaviors import CORRECT, CommissionBehavior
from repro.mapreduce.runtime import (
    execute_map_task,
    execute_reduce_task,
    partition_for,
    run_pipeline,
)
from tests.common.test_records import reference_encode

EDGES = Schema.of(("user", INT), ("follower", INT))


def group_spec(num_reducers=3, pipeline=None, reduce_pipeline=None):
    return JobSpec(
        name="j",
        branches=[MapBranch("in", 0, pipeline or [])],
        blocking=GroupOp([ex.field("user")], bag_name="A"),
        blocking_input_schemas=[EDGES],
        reduce_pipeline=reduce_pipeline or [],
        output_path="out",
        num_reducers=num_reducers,
    )


def distinct_spec(num_reducers):
    """DISTINCT: the reduce key is the whole record's ``fields``."""
    return JobSpec(
        name="d",
        branches=[MapBranch("in", 0, [])],
        blocking=DistinctOp(),
        blocking_input_schemas=[EDGES],
        output_path="out",
        num_reducers=num_reducers,
    )


def combining_spec(num_reducers):
    """A compiled GROUP + COUNT/SUM job, which carries a map-side combiner."""
    graph = compile_plan(parse_script("""
        A = LOAD 'in' AS (user:int, follower:int);
        G = GROUP A BY user;
        C = FOREACH G GENERATE group, COUNT(A), SUM(A.follower);
        STORE C INTO 'out';
    """))
    (spec,) = [job for job in graph.jobs if job.combiner is not None]
    spec.num_reducers = num_reducers
    return spec


# What the runtime did before reduce keys were encoded once per keyed
# record, written out with the reference encoder (tests/common).


def reference_partition(key, num_reducers):
    as_tuple = key if isinstance(key, tuple) else (key,)
    digest = hashlib.sha256(reference_encode(as_tuple)).digest()
    return int.from_bytes(digest[:4], "big") % num_reducers


def reference_shuffle_bytes(keyed_records):
    return sum(
        len(reference_encode(record.fields)) + len(reference_encode(key))
        for key, _, record, *_ in keyed_records
    )


def reference_key_order(keyed_records):
    """Group keys as the reducer emits them: the first-seen key of each
    group of equal keys, ordered by its encoding as a tuple."""
    first_seen = list({key: None for key, *_ in keyed_records})
    return sorted(
        first_seen,
        key=lambda k: reference_encode(k if isinstance(k, tuple) else (k,)),
    )


def entry(key, record, tag=0):
    """A shuffle entry as the map side builds it, its key encoded by the
    reference encoder: (key, tag, record, key as a tuple, own size)."""
    as_tuple = key if isinstance(key, tuple) else (key,)
    return key, tag, record, reference_encode(as_tuple), len(reference_encode(key))


def assert_encodings_carried(keyed_records):
    """Every entry carries its key's reference encoding."""
    for key, tag, record, key_as_tuple, key_bytes in keyed_records:
        assert (key_as_tuple, key_bytes) == entry(key, record)[3:], key


#: ``partition_for(key, n)`` for n in (1, 3, 7, 64), computed with the
#: code of the commit before the single key-encoding helper (9b207a8).
PINNED_PARTITIONS = [
    (1, [0, 0, 4, 30]),
    (1.0, [0, 1, 6, 20]),
    (True, [0, 2, 1, 39]),
    (False, [0, 0, 6, 13]),
    (None, [0, 0, 5, 47]),
    (0, [0, 2, 6, 31]),
    (-5, [0, 2, 4, 24]),
    (2**70, [0, 1, 1, 22]),
    (3.5, [0, 1, 2, 52]),
    (float("inf"), [0, 0, 0, 62]),
    ("", [0, 2, 1, 44]),
    ("abc", [0, 0, 2, 21]),
    ("zoë", [0, 0, 2, 7]),
    ((1,), [0, 0, 4, 30]),
    ((1.0,), [0, 1, 6, 20]),
    ((1, "x"), [0, 0, 1, 61]),
    (("a", None), [0, 0, 1, 52]),
    (((1, 2), "n"), [0, 2, 4, 57]),
    ((), [0, 1, 1, 10]),
]

#: Equal as dict keys, distinct as encoded values.
LOOKALIKES = (True, 1.0, 1)


def same_keys(actual, expected):
    """Equal and of the same types (``1 == 1.0 == True`` would pass ``==``)."""
    return [(type(k), k) for k in actual] == [(type(k), k) for k in expected]


class TestPartitioner:
    def test_pinned_partition_table(self):
        for key, expected in PINNED_PARTITIONS:
            assert [partition_for(key, n) for n in (1, 3, 7, 64)] == expected, key
            assert [reference_partition(key, n) for n in (1, 3, 7, 64)] == expected


    @given(st.integers(-(10**9), 10**9), st.integers(1, 64))
    @settings(max_examples=100)
    def test_partition_in_range(self, key, reducers):
        assert 0 <= partition_for(key, reducers) < reducers

    def test_partition_deterministic(self):
        assert partition_for("abc", 7) == partition_for("abc", 7)

    def test_tuple_and_scalar_keys_supported(self):
        partition_for((1, "x"), 4)
        partition_for(None, 4)

    def test_spread_over_reducers(self):
        parts = {partition_for(i, 8) for i in range(1000)}
        assert parts == set(range(8))


#: Scalars equal across types (``0 == 0.0 == -0.0 == False``) drawn from
#: small pools, so one task often meets several lookalikes of one key.
SCALAR_KEYS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["", "a", "zoë"]),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0]),
)
SHUFFLE_KEYS = st.one_of(
    SCALAR_KEYS, st.tuples(SCALAR_KEYS), st.tuples(SCALAR_KEYS, SCALAR_KEYS)
)


class TestShuffleKeys:
    """A key is encoded once, on the map side, and carried to the reducer;
    what it partitions, costs and sorts by must equal the reference."""

    @given(
        st.lists(SHUFFLE_KEYS, min_size=1, max_size=24),
        st.booleans(),
        st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_carried_keys_match_reference(self, keys, whole_record, reducers):
        spec = distinct_spec(reducers) if whole_record else group_spec(reducers)
        records = records_from_rows([(key, n % 2) for n, key in enumerate(keys)])
        out = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
        keyed = [k for part in out.partitions.values() for k in part]
        assert len(keyed) == len(records)
        assert out.bytes_out == reference_shuffle_bytes(keyed)
        assert_encodings_carried(keyed)
        for part, entries in out.partitions.items():
            for key, _, record, *_ in entries:
                assert part == reference_partition(key, reducers)
                assert (key is record.fields) == whole_record
            reduced = execute_reduce_task(spec, entries, CORRECT, random.Random(0))
            assert reduced.bytes_in == reference_shuffle_bytes(entries)
            emitted = [
                r.fields if whole_record else r[0] for r in reduced.output_records
            ]
            assert [reference_encode(k) for k in emitted] == [
                reference_encode(k) for k in reference_key_order(entries)
            ]


class TestRunPipeline:
    def test_streams_through_operators(self):
        pipeline = [
            PipelineOp(FilterOp(ex.gt(ex.field("user"), ex.lit(1))), EDGES),
            PipelineOp(
                ForeachOp([Projection(ex.field("user"), "u")]), EDGES
            ),
        ]
        records = records_from_rows([(1, 2), (5, 6)])
        out, taps = run_pipeline(records, pipeline)
        assert out == [Record((5,))]
        assert taps == []

    def test_tap_observes_stream_at_its_position(self):
        pipeline = [
            PipelineOp(VerifyOp("before"), EDGES),
            PipelineOp(FilterOp(ex.gt(ex.field("user"), ex.lit(1))), EDGES),
            PipelineOp(VerifyOp("after"), EDGES),
        ]
        records = records_from_rows([(1, 2), (5, 6)])
        out, taps = run_pipeline(records, pipeline)
        by_id = {t.vp_id: t for t in taps}
        assert by_id["before"].record_count == 2
        assert by_id["after"].record_count == 1
        assert len(out) == 1

    def test_tap_digest_is_order_independent(self):
        pipeline = [PipelineOp(VerifyOp("vp"), EDGES)]
        records = records_from_rows([(1, 2), (3, 4), (5, 6)])
        _, taps_fwd = run_pipeline(records, pipeline)
        _, taps_rev = run_pipeline(records[::-1], pipeline)
        assert [d.value for d in taps_fwd[0].digests] == [
            d.value for d in taps_rev[0].digests
        ]

    def test_chunked_tap_digests_stable_across_order(self):
        pipeline = [PipelineOp(VerifyOp("vp", chunk_records=2), EDGES)]
        records = records_from_rows([(i, i) for i in range(7)])
        _, fwd = run_pipeline(records, pipeline)
        _, rev = run_pipeline(records[::-1], pipeline)
        assert [d.value for d in fwd[0].digests] == [d.value for d in rev[0].digests]
        assert len(fwd[0].digests) == 4  # 3 chunks + final


class TestMapTask:
    def test_map_only_emits_records(self):
        spec = JobSpec(
            name="m",
            branches=[
                MapBranch(
                    "in",
                    0,
                    [PipelineOp(FilterOp(ex.gt(ex.field("user"), ex.lit(2))), EDGES)],
                )
            ],
            blocking=None,
            output_path="out",
            num_reducers=0,
        )
        records = records_from_rows([(1, 1), (5, 5)])
        out = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
        assert out.output_records == [Record((5, 5))]
        assert out.partitions == {}
        assert out.records_in == 2 and out.records_out == 1

    def test_shuffle_partitions_by_key(self):
        spec = group_spec(num_reducers=4)
        records = records_from_rows([(i, i) for i in range(20)])
        out = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
        total = sum(len(v) for v in out.partitions.values())
        assert total == 20
        for part, keyed in out.partitions.items():
            for key, tag, record, *_ in keyed:
                assert partition_for(key, 4) == part
                assert tag == 0 and key == record[0]
            assert_encodings_carried(keyed)

    def test_bytes_out_matches_reference_formula(self):
        records = records_from_rows([(i % 7, i * 1000) for i in range(40)])
        for spec in (group_spec(num_reducers=4), combining_spec(4)):
            out = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
            keyed = [k for part in out.partitions.values() for k in part]
            assert len(keyed) == (40 if spec.combiner is None else 7)
            assert out.bytes_out == reference_shuffle_bytes(keyed)
            assert_encodings_carried(keyed)

    def test_lookalike_keys_partition_and_account_by_their_own_encoding(self):
        records = records_from_rows([(key, 5) for key in LOOKALIKES + (2,)])
        out = execute_map_task(
            group_spec(num_reducers=64), 0, records, 100, CORRECT, random.Random(0)
        )
        placed = {
            (type(key), key): part
            for part, keyed in out.partitions.items()
            for key, *_ in keyed
        }
        assert placed == {
            (type(key), key): reference_partition(key, 64) for key in LOOKALIKES + (2,)
        }
        assert len(set(placed.values())) == 4
        keyed = [k for part in out.partitions.values() for k in part]
        assert out.bytes_out == reference_shuffle_bytes(keyed)
        assert_encodings_carried(keyed)

    def test_combiner_groups_lookalike_keys_under_the_first_seen(self):
        spec = combining_spec(64)
        for first in LOOKALIKES:
            rest = [key for key in LOOKALIKES if key is not first]
            records = records_from_rows([(key, 5) for key in [first] + rest])
            out = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
            ((part, keyed),) = out.partitions.items()
            assert part == reference_partition(first, 64)
            assert same_keys([key for key, *_ in keyed], [first])
            assert out.bytes_out == reference_shuffle_bytes(keyed)
            assert_encodings_carried(keyed)

    def test_commission_behavior_corrupts_stream(self):
        spec = group_spec()
        records = records_from_rows([(i, i) for i in range(10)])
        clean = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
        dirty = execute_map_task(
            spec, 0, records, 100, CommissionBehavior(probability=1.0), random.Random(0)
        )
        clean_keys = sorted(
            str(k) for keyed in clean.partitions.values() for k, *_ in keyed
        )
        dirty_keys = sorted(
            str(k) for keyed in dirty.partitions.values() for k, *_ in keyed
        )
        assert clean_keys != dirty_keys


class TestReduceTask:
    def test_groups_and_reduces_sorted_by_key(self):
        spec = group_spec(reduce_pipeline=[])
        keyed = [
            entry(2, Record((2, 9))), entry(1, Record((1, 8))), entry(1, Record((1, 7)))
        ]
        out = execute_reduce_task(spec, keyed, CORRECT, random.Random(0))
        assert [r[0] for r in out.output_records] == [1, 2]
        bag = out.output_records[0][1]
        assert len(bag) == 2

    def test_reduce_output_independent_of_arrival_order(self):
        spec = group_spec()
        keyed = [entry(k, Record((k, v))) for k, v in [(1, 1), (2, 2), (1, 3)]]
        a = execute_reduce_task(spec, keyed, CORRECT, random.Random(0))
        b = execute_reduce_task(spec, keyed[::-1], CORRECT, random.Random(0))
        assert a.output_records == b.output_records

    def test_bytes_in_matches_reference_formula(self):
        keyed = [entry(k % 5, Record((k % 5, k * 1000))) for k in range(30)]
        out = execute_reduce_task(group_spec(), keyed, CORRECT, random.Random(0))
        assert out.bytes_in == reference_shuffle_bytes(keyed)

    def test_lookalike_keys_group_sort_and_account_as_before(self):
        for first in LOOKALIKES:
            rest = [key for key in LOOKALIKES if key is not first]
            keys = [2, first, 0] + rest + [first]
            keyed = [entry(key, Record((key, n))) for n, key in enumerate(keys)]
            out = execute_reduce_task(group_spec(), keyed, CORRECT, random.Random(0))
            # One group for the three lookalikes, under the first-seen
            # key, sorted by *its* encoding; each key charged its own size.
            assert same_keys(
                [r[0] for r in out.output_records], reference_key_order(keyed)
            )
            assert sorted(len(r[1]) for r in out.output_records) == [1, 1, 4]
            assert out.bytes_in == reference_shuffle_bytes(keyed)
        # The first-seen key decides the order: b"t3:b1;;" sorts before
        # b"t5:i1:0;;", which sorts before b"t5:i1:1;;".
        assert reference_key_order([entry(True, None), entry(0, None)]) == [True, 0]
        assert reference_key_order([entry(1, None), entry(0, None)]) == [0, 1]

    def test_combining_reducer_orders_lookalike_keys_as_before(self):
        spec = combining_spec(1)
        for first in LOOKALIKES:
            rest = [key for key in LOOKALIKES if key is not first]
            records = records_from_rows([(key, 5) for key in [2, first, 0] + rest])
            mapped = execute_map_task(spec, 0, records, 100, CORRECT, random.Random(0))
            keyed = mapped.partitions[0]
            assert_encodings_carried(keyed)
            out = execute_reduce_task(spec, keyed, CORRECT, random.Random(0))
            assert same_keys(
                [r[0] for r in out.output_records], reference_key_order(keyed)
            )
            assert out.bytes_in == reference_shuffle_bytes(keyed)

    def test_fused_limit_slices_output(self):
        spec = group_spec()
        spec.fused_limit = 1
        keyed = [entry(k, Record((k, k))) for k in range(5)]
        out = execute_reduce_task(spec, keyed, CORRECT, random.Random(0))
        assert len(out.output_records) == 1

    def test_reduce_pipeline_and_taps(self):
        schema = Schema.of(("group", INT), ("A", "bag"))
        spec = group_spec(
            reduce_pipeline=[PipelineOp(VerifyOp("vp"), schema)]
        )
        keyed = [entry(1, Record((1, 1)))]
        out = execute_reduce_task(spec, keyed, CORRECT, random.Random(0))
        assert len(out.taps) == 1
        assert out.taps[0].record_count == 1

    def test_empty_partition_still_digests(self):
        schema = Schema.of(("group", INT), ("A", "bag"))
        spec = group_spec(reduce_pipeline=[PipelineOp(VerifyOp("vp"), schema)])
        out = execute_reduce_task(spec, [], CORRECT, random.Random(0))
        assert out.taps[0].record_count == 0
        assert len(out.taps[0].digests) == 1
