"""Fused reduce side (DESIGN.md §27): a reduce task runs its blocking
operator and the reduce-pipeline stages before the first VerifyOp as
one generated function.  The staged reduce it replaced — ``reduce`` per
key, then every stage through ``run_pipeline`` — is kept here verbatim
as the reference, and every output byte, tap, digest and byte count of
the fused task must equal it."""

import hashlib
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.records import Record, records_from_rows
from repro.common.rng import RngRegistry
from repro.compiler.jobspec import JobSpec, MapBranch, PipelineOp
from repro.core.controller import ClusterBFTController
from repro.dataflow import expressions as ex
from repro.dataflow.operators import (
    BlockingOperator,
    DistinctOp,
    ForeachOp,
    GroupOp,
    JoinOp,
    LimitOp,
    OrderOp,
    Projection,
    SortKey,
    VerifyOp,
    canonical_sort,
)
from repro.dataflow.schema import BAG, LONG, Field, Schema
from repro.faults.behaviors import CORRECT, CommissionBehavior, EquivocateBehavior
from repro.faults.injection import single_commission, storage_rot_node
from repro.mapreduce.runtime import execute_map_task, execute_reduce_task, run_pipeline
from repro.workloads.twitter import TWO_HOP_ANALYSIS, follower_edges
from tests.mapreduce.test_fused_branch import ROWS, SCHEMA, STAGES, tap_view


class CogroupOp(BlockingOperator):
    """A two-input grouping with no clause of its own, so it takes the
    default one: ``(group, left bag, right bag)`` per key."""

    is_blocking = True
    arity = 2

    def derive_schema(self, input_schemas):
        left, right = input_schemas
        return Schema([Field("group", LONG), Field("l", BAG, left), Field("r", BAG, right)])

    def emit_key(self, emitter, input_index):
        return emitter.expr(ex.field("k1"))

    def reduce(self, key, tagged, input_schemas):
        sides = [canonical_sort([r for t, r in tagged if t == side]) for side in (0, 1)]
        return [Record((key, tuple(sides[0]), tuple(sides[1])))]


def project(*pairs):
    """A FOREACH back onto ``SCHEMA``'s names, so ``STAGES`` chains follow."""
    return ForeachOp([Projection(expr, name) for expr, name in zip(pairs, ("k1", "k2", "v"))])


#: Blocking operator -> (number of inputs, the stage that brings its
#: output back to ``SCHEMA``, or None when it already is).
SHAPES = {
    "group": (1, project(ex.field("group"), ex.count(ex.field("A")),
                         ex.call("SUM", ex.BagProject(ex.field("A"), "v")))),
    "join": (2, project(ex.field("b::k1"), ex.field("a::k2"), ex.field("a::v"))),
    "cogroup": (2, project(ex.field("group"), ex.count(ex.field("l")), ex.count(ex.field("r")))),
    "distinct": (1, None),
    "order": (1, None),
    "limit": (1, None),
}


def blocking_for(shape, key_parts):
    keys = [ex.field(name) for name in ("k1", "k2")[:key_parts]]
    return {
        "group": lambda: GroupOp(keys, bag_name="A"),
        "join": lambda: JoinOp(keys, list(reversed(keys)), input_aliases=("a", "b")),
        "cogroup": CogroupOp,
        "distinct": DistinctOp,
        "order": lambda: OrderOp([SortKey("k1"), SortKey("v", ascending=False)]),
        "limit": lambda: LimitOp(3),
    }[shape]()


def pipeline_of(ops, schema, verify_at, chunk):
    """Stages over ``schema`` with a VerifyOp before each position in
    ``verify_at`` (``len(ops)``: after the last stage)."""
    stages = []
    for n in range(len(ops) + 1):
        if n in verify_at:
            stages.append(PipelineOp(VerifyOp(f"vp{n}", chunk), schema))
        if n < len(ops):
            stages.append(PipelineOp(ops[n], schema))
            schema = ops[n].derive_schema([schema])
    return stages, schema


def build_spec(shape, key_parts, ops, verify_at, chunk, limit, post_ops, reducers):
    inputs, back = SHAPES[shape]
    blocking = blocking_for(shape, key_parts)
    schemas = [SCHEMA] * inputs
    ops = ([back] if back else []) + ops
    reduce_pipeline, schema = pipeline_of(
        ops, blocking.derive_schema(schemas), {min(n, len(ops)) for n in verify_at}, chunk
    )
    post = []
    if shape == "order" and limit is not None:
        post, _ = pipeline_of(post_ops, schema, {len(post_ops)}, chunk)
    else:
        limit = None
    return JobSpec(
        shape, [MapBranch(f"in{tag}", tag) for tag in range(inputs)], blocking, schemas,
        reduce_pipeline, limit, post, output_path="out",
        num_reducers=blocking.preferred_reducers() or reducers,
    )


def shuffled(spec, inputs):
    """Every reduce partition's entries, map tasks in branch order."""
    partitions = defaultdict(list)
    for index, rows in enumerate(inputs[: len(spec.branches)]):
        mapped = execute_map_task(spec, index, records_from_rows(rows), 0, CORRECT, None)
        for part, entries in mapped.partitions.items():
            partitions[part] += entries
    return [partitions[part] for part in sorted(partitions)]


def staged_reduce_task(spec, keyed_records, behavior, rng):
    """The reduce task before fusion, verbatim but for its result: the
    blocking operator's ``reduce`` per key, then ``run_pipeline``."""
    corrupted = behavior.corrupt_records([entry[2] for entry in keyed_records], rng)
    bytes_in = 0
    sort_form: dict = {}
    groups: dict = defaultdict(list)
    for (key, tag, record, key_as_tuple, key_bytes), seen in zip(keyed_records, corrupted):
        sort_form.setdefault(key, key_as_tuple)
        bytes_in += record.size_bytes() + key_bytes
        groups[key].append((tag, seen))

    reduced: list[Record] = []
    ordered_keys = sorted(groups, key=sort_form.__getitem__)
    for key in ordered_keys:
        reduced.extend(spec.blocking.reduce(key, groups[key], spec.blocking_input_schemas))
    out_records, taps = run_pipeline(reduced, spec.reduce_pipeline)
    if spec.fused_limit is not None:
        out_records = out_records[: spec.fused_limit]
    if spec.post_limit_pipeline:
        out_records, post_taps = run_pipeline(out_records, spec.post_limit_pipeline)
        taps = taps + post_taps
    out_records = behavior.corrupt_stored_output(out_records, rng)
    return {
        "out": [r.encoded() for r in out_records],
        "taps": tap_view(taps),
        "records_out": len(out_records),
        "bytes_in": bytes_in,
        "bytes_out": sum(r.size_bytes() for r in out_records),
    }


def fused_view(result):
    return {
        "out": [r.encoded() for r in result.output_records],
        "taps": tap_view(result.taps),
        "records_out": result.records_out,
        "bytes_in": result.bytes_in,
        "bytes_out": result.bytes_out,
    }


def assert_fused_equals_staged(spec, inputs, behavior=CORRECT):
    partitions = shuffled(spec, inputs)
    for entries in partitions:
        fused = execute_reduce_task(spec, entries, behavior, random.Random(3))
        assert fused.records_in == len(entries)
        assert fused_view(fused) == staged_reduce_task(spec, entries, behavior, random.Random(3))
    return partitions


BEHAVIORS = st.sampled_from([
    CORRECT, CommissionBehavior(probability=1.0, per_record_fraction=0.3), EquivocateBehavior(),
])


class TestFusedEqualsStaged:
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(1, 2),
        STAGES,
        st.sets(st.integers(0, 7), max_size=2),  # VerifyOps: before any stage, or last
        st.sampled_from([0, 1, 3]),
        st.none() | st.integers(0, 6),
        STAGES,
        st.sampled_from([1, 3]),
        st.lists(ROWS, min_size=2, max_size=2),
        BEHAVIORS,
    )
    @settings(max_examples=150, deadline=None)
    def test_reduce_output_equals_the_staged_path(
        self, shape, key_parts, ops, verify_at, chunk, limit, post_ops, reducers, inputs, behavior
    ):
        spec = build_spec(shape, key_parts, ops, verify_at, chunk, limit, post_ops, reducers)
        assert_fused_equals_staged(spec, inputs, behavior)

    def test_split_goes_at_the_first_verify_op(self):
        spec = build_spec("join", 1, [], {0, 1}, 0, None, [], 2)
        assert [type(stage.op) for stage in spec.reduce_staged] == [VerifyOp, ForeachOp, VerifyOp]
        spec = build_spec("join", 1, [], {1}, 0, None, [], 2)
        assert [type(stage.op) for stage in spec.reduce_staged] == [VerifyOp]
        spec = build_spec("distinct", 1, [], set(), 0, None, [], 2)
        assert spec.reduce_staged == []

    def test_a_fused_stage_is_never_bound_alone(self):
        spec = build_spec("join", 1, [], {1}, 0, None, [], 1)
        rows = [(i % 4, i % 3, i) for i in range(30)]
        (entries,) = shuffled(spec, [rows, rows])
        assert execute_reduce_task(spec, entries, CORRECT, None).taps[0].record_count == 226
        assert "run" not in vars(spec.reduce_pipeline[0])

    def test_lookalike_and_nan_keys_group_as_before(self):
        nan = float("nan")
        rows = [(1, 0, 1), (1.0, 0, 2), (True, 0, 3), (0.0, 1, 4), (-0.0, 1, 5),
                (nan, 2, 6), (nan, 2, 7), (float("nan"), 2, 8), (None, 3, 9),
                # whole-record lookalikes: one DISTINCT group, three encodings
                (1, 0, 1.0), (True, 0, 1), (0.0, 1, -0.0), (-0.0, True, 0)]
        for shape in ("group", "join", "cogroup", "distinct"):
            spec = build_spec(shape, 1, [], {0}, 1, None, [], 1)
            (entries,) = assert_fused_equals_staged(spec, [rows, rows[::-1]])
            assert entries
        spec = build_spec("distinct", 1, [], {0}, 1, None, [], 1)
        (entries,) = shuffled(spec, [rows])
        out = execute_reduce_task(spec, entries, CORRECT, None).output_records
        assert len(out) == len(rows) - 3  # the first-seen record of each group
        assert [r.fields for r in out if r.fields == (1, 0, 1)] == [(1, 0, 1)]
        assert [type(v) for r in out if r.fields == (1, 0, 1) for v in r.fields] == [int] * 3


#: (fault) -> (assured, attempts, simulated latency, first 16 hex digits
#: of the SHA-256 over the output paths and records), computed with the
#: staged reduce side on the hardened two-hop run.
FAULTY_PINS = {
    "commission": (True, 1, 8.92970524469757, "58a809dd0f102142"),
    "storage_rot": (True, 1, 8.92970524469757, "58a809dd0f102142"),
}
HARDENED = dict(f=1, replication=4, verification_points=2, digest_chunk_records=50,
                checkpoints=True)


class TestFaultyNodesPinned:
    """A commission-faulty reducer computes on tampered records and a
    storage-rot node reads rotten blocks; fusing the reduce side must
    leave what each does to a hardened two-hop run unchanged."""

    @pytest.mark.parametrize("fault", sorted(FAULTY_PINS))
    def test_verdict_latency_and_outputs_as_before(self, fault):
        plan = {"commission": single_commission("node_0000"),
                "storage_rot": storage_rot_node("node_0001")}[fault]
        edges = follower_edges(600, num_users=150, rng=RngRegistry(7).stream("reduce/600"))
        config = SystemConfig(
            cluster=ClusterConfig(num_nodes=8, slots_per_node=2), bft=ClusterBFTConfig(**HARDENED)
        )
        controller = ClusterBFTController(config, fault_plan=plan)
        controller.load_input("twitter/followers", edges)
        result = controller.run_assured(TWO_HOP_ANALYSIS)
        digest = hashlib.sha256()
        for path in sorted(result.outputs):
            digest.update(path.encode())
            for record in result.outputs[path]:
                digest.update(record.encoded())
        assert sum(len(outcome.faults) for outcome in result.outcomes) == 2  # it bit
        assert (result.assured, result.attempts, result.latency,
                digest.hexdigest()[:16]) == FAULTY_PINS[fault]
