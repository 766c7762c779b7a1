"""Fused map branches (DESIGN.md §24): a map task runs its branch's
stages after the last VerifyOp, its shuffle key and a COUNT combiner as
one generated function.  The staged path it replaced — ``run_pipeline``
stage by stage, the bound key per record, ``initial_partial`` per key —
is kept here as the reference, and every shuffle entry, tap and byte
count of the fused task must equal it."""

import hashlib
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig, SystemConfig
from repro.common.records import records_from_rows
from repro.common.rng import RngRegistry
from repro.compiler.combiner import build_combiner
from repro.compiler.jobspec import JobSpec, MapBranch, PipelineOp
from repro.compiler.mr_compiler import compile_plan
from repro.core.controller import ClusterBFTController
from repro.core.instrument import instrument
from repro.dataflow import expressions as ex
from repro.dataflow.operators import FilterOp, ForeachOp, GroupOp, Projection, VerifyOp
from repro.dataflow.piglatin import parse_script
from repro.dataflow.schema import INT, Schema
from repro.faults.behaviors import CORRECT, CommissionBehavior
from repro.faults.injection import single_commission, storage_rot_node
from repro.mapreduce.runtime import execute_map_task, run_pipeline
from repro.workloads.twitter import FOLLOWER_ANALYSIS, TWO_HOP_ANALYSIS, follower_edges
from tests.common.test_records import reference_encode
from tests.mapreduce.test_runtime import entry, reference_partition

SCHEMA = Schema.of(("k1", INT), ("k2", INT), ("v", INT))
NAN = float("nan")  # one object: records holding it share a dict key
#: Lookalikes (1 / 1.0 / True, 0 / 0.0 / -0.0 / False), None and NaN —
#: equal or unequal as dict keys in the ways encodings are not.
KEY_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 1.0, True, False, 0.0, -0.0, None, "a", NAN]),
    st.builds(float, st.just("nan")),  # a NaN of its own
)
NUMBERS = st.sampled_from([0, 1, -1, 3, 2**40, 1.0, True, 0.0, -0.0, None, NAN])
ROWS = st.lists(st.tuples(KEY_VALUES, KEY_VALUES, NUMBERS), max_size=40)

FILTERS = st.sampled_from([
    ex.not_null(ex.field("v")),
    ex.IsNull(ex.field("k2")),
    ex.gt(ex.field("v"), ex.lit(0)),
    ex.neq(ex.field("k1"), ex.lit(1)),
    ex.or_(ex.eq(ex.field("k2"), ex.lit(0.0)), ex.lt(ex.field("v"), ex.lit(2))),
    ex.and_(ex.not_null(ex.field("k1")), ex.UnaryOp("not", ex.eq(ex.field("v"), ex.lit(3)))),
])
#: FOREACHs that keep the names (k1, k2, v), so any chain stays typed.
FOREACHS = st.sampled_from([
    [("k2", "k1"), ("k1", "k2"), ("v", "v")],
    [("k1", "k1"), ("k2", "k2"), (ex.BinOp("+", ex.field("v"), ex.lit(1)), "v")],
    [("k1", "k1"), ("v", "k2"), (ex.UnaryOp("neg", ex.field("v")), "v")],
])
STAGES = st.lists(
    st.one_of(FILTERS.map(FilterOp), FOREACHS.map(
        lambda spec: ForeachOp([
            Projection(ex.field(e) if isinstance(e, str) else e, name) for e, name in spec
        ])
    )),
    max_size=5,
)
AGGREGATES = {
    "COUNT": ex.count(ex.field("A")),
    "SUM": ex.call("SUM", ex.BagProject(ex.field("A"), "v")),
    "MIN": ex.call("MIN", ex.BagProject(ex.field("A"), "v")),
    "MAX": ex.call("MAX", ex.BagProject(ex.field("A"), "v")),
    "AVG": ex.avg(ex.BagProject(ex.field("A"), "v")),
}


def pipeline_of(ops):
    schema, stages = SCHEMA, []
    for op in ops:
        stages.append(PipelineOp(op, schema))
        schema = op.derive_schema([schema])
    return stages, schema


def build_spec(ops, key_parts, aggregates, combine, reducers, map_only=False):
    stages, schema = pipeline_of(ops)
    branches = [MapBranch("in", 0, stages)]
    if map_only:
        return JobSpec("m", branches, None, output_path="out", num_reducers=0)
    group = GroupOp([ex.field(name) for name in ("k1", "k2")[:key_parts]], bag_name="A")
    group_schema = group.derive_schema([schema])
    projections = [Projection(ex.field("group"))] + [
        Projection(AGGREGATES[name], name.lower()) for name in aggregates
    ]
    reduce_pipeline = [PipelineOp(ForeachOp(projections), group_schema)]
    combiner = build_combiner(group, branches, reduce_pipeline) if combine else None
    assert (combiner is not None) == combine  # int fields: every slot combines
    return JobSpec(
        "j", branches, group, [schema], reduce_pipeline, output_path="out",
        num_reducers=reducers, combiner=combiner,
    )


def staged_map_task(spec, records, behavior=CORRECT):
    """The map task before fusion: every stage through ``run_pipeline``,
    the reduce key bound on its own and called per record, the combiner
    grouping records per key, entries encoded by the reference encoder."""
    (branch,) = spec.branches
    records = behavior.corrupt_records(records, random.Random(0))
    out, taps = run_pipeline(records, branch.pipeline)
    records_out = len(out)
    if spec.blocking is None:
        return {"out": out, "taps": taps, "records_out": records_out}
    key_of = spec.blocking.bind_key(branch.tag, spec.blocking_input_schemas)
    if spec.combiner is None:
        keyed = [(key_of(record), record) for record in out]
    else:
        per_key = defaultdict(list)
        for record in out:
            per_key[key_of(record)].append(record)
        keyed = [(key, spec.combiner.initial_partial(group)) for key, group in per_key.items()]
        records_out = len(keyed)
    partitions = defaultdict(list)
    for key, record in keyed:
        partitions[reference_partition(key, spec.num_reducers)].append(entry(key, record))
    bytes_out = sum(len(e[2].encoded()) + e[4] for part in partitions.values() for e in part)
    return {"partitions": dict(partitions), "taps": taps, "records_out": records_out,
            "bytes_out": bytes_out}


def comparable(entries):
    """Entries by type and bytes: NaN != NaN, and 1 == 1.0 == True."""
    return [
        (type(key), reference_encode(key), tag, record.encoded(), as_tuple, size)
        for key, tag, record, as_tuple, size in entries
    ]


def tap_view(taps):
    return [(t.vp_id, [d.value for d in t.digests], t.record_count, t.bytes_hashed)
            for t in taps]


def assert_fused_equals_staged(spec, records, behavior=CORRECT):
    fused = execute_map_task(spec, 0, records, 100, behavior, random.Random(0))
    staged = staged_map_task(spec, records, behavior)
    assert fused.records_in == len(records)
    assert fused.records_out == staged["records_out"]
    assert tap_view(fused.taps) == tap_view(staged["taps"])
    if spec.blocking is None:
        assert [r.encoded() for r in fused.output_records] == [
            r.encoded() for r in staged["out"]
        ]
        return fused
    assert list(fused.partitions) == list(staged["partitions"])  # first-seen order
    for part, entries in fused.partitions.items():
        assert comparable(entries) == comparable(staged["partitions"][part]), part
    assert fused.bytes_out == staged["bytes_out"]
    return fused


class TestFusedEqualsStaged:
    @given(
        STAGES,
        st.integers(1, 2),
        st.one_of(  # COUNT alone is the counted path: draw it often
            st.just(["COUNT"]),
            st.lists(st.sampled_from(sorted(AGGREGATES)), min_size=1, max_size=5, unique=True),
        ),
        st.booleans(),
        st.sampled_from([1, 3, 8]),  # one reducer: every key's order shows
        ROWS,
    )
    @settings(max_examples=300, deadline=None)
    def test_shuffle_entries_equal_the_staged_path(
        self, ops, key_parts, aggregates, combine, reducers, rows
    ):
        spec = build_spec(ops, key_parts, aggregates, combine, reducers)
        if combine:
            assert spec.combiner.counts_only == (aggregates == ["COUNT"])
        assert_fused_equals_staged(spec, records_from_rows(rows))

    @given(STAGES, ROWS)
    @settings(max_examples=100, deadline=None)
    def test_map_only_output_equals_the_staged_path(self, ops, rows):
        spec = build_spec(ops, 1, [], False, 0, map_only=True)
        assert_fused_equals_staged(spec, records_from_rows(rows))

    def test_counted_keys_keep_the_first_seen_lookalike(self):
        spec = build_spec([], 1, ["COUNT"], True, 64)
        for first in (1, 1.0, True):
            rows = [(first, 0, 1)] + [(k, 0, 1) for k in (1, 1.0, True) if k is not first]
            fused = assert_fused_equals_staged(spec, records_from_rows(rows + [(NAN, 0, 1)] * 2))
            keys = [key for entries in fused.partitions.values() for key, *_ in entries]
            assert [type(k) for k in keys if not (isinstance(k, float) and math.isnan(k))] == [
                type(first)
            ]
            assert fused.records_out == 2  # the shared NaN object is one key

    def test_commission_fault_acts_on_the_records_alike(self):
        rows = [(i % 5, i % 3, i) for i in range(60)]
        behavior = CommissionBehavior(probability=1.0)
        for aggregates in (["COUNT"], ["SUM", "AVG"]):
            spec = build_spec([FilterOp(ex.gt(ex.field("v"), ex.lit(4)))], 1, aggregates, True, 3)
            assert_fused_equals_staged(spec, records_from_rows(rows), behavior)


MAP_VERIFY = """
A = LOAD 'in' AS (user:int, follower:int);
B = FILTER A BY follower IS NOT NULL;
C = FOREACH B GENERATE user, follower % 3 AS bucket;
G = GROUP C BY (user, bucket);
D = FOREACH G GENERATE group, COUNT(C) AS n;
STORE D INTO 'out';
"""


class TestMapSideVerifyOp:
    def test_taps_and_entries_equal_the_staged_path(self):
        plan = parse_script(MAP_VERIFY)
        instrumented = instrument(plan, [plan.find_by_alias("B")], chunk_records=7)
        (job,) = [j for j in compile_plan(instrumented.plan).jobs if j.blocking]
        (branch,) = job.branches
        assert [type(stage.op) for stage in branch.staged] == [FilterOp, VerifyOp]
        assert [type(stage.op) for stage in branch.pipeline[2:]] == [ForeachOp]
        assert job.combiner.counts_only
        rows = [(i % 11, None if i % 7 == 0 else i) for i in range(200)]
        execute_map_task(job, 0, records_from_rows(rows), 100, CORRECT, random.Random(0))
        assert "run" not in vars(branch.pipeline[2])  # fused, never bound alone
        fused = assert_fused_equals_staged(job, records_from_rows(rows))
        assert fused.taps and fused.taps[0].record_count == 171

    def test_a_verify_op_last_leaves_nothing_to_fuse(self):
        stages = [PipelineOp(FilterOp(ex.not_null(ex.field("v"))), SCHEMA),
                  PipelineOp(VerifyOp("vp"), SCHEMA)]
        spec = JobSpec("j", [MapBranch("in", 0, stages)], GroupOp([ex.field("k1")]),
                       [SCHEMA], output_path="out", num_reducers=2)
        assert spec.branches[0].staged == stages
        assert_fused_equals_staged(spec, records_from_rows([(1, 2, None), (2, 2, 3)]))


SUM_AVG = """
edges = LOAD 'twitter/followers' AS (user:int, follower:int);
known = FILTER edges BY follower IS NOT NULL;
shifted = FOREACH known GENERATE user % 50 AS u, follower;
g = GROUP shifted BY u;
s = FOREACH g GENERATE group, SUM(shifted.follower) AS total,
    AVG(shifted.follower) AS mean, MAX(shifted.follower) AS hi;
STORE s INTO 'output/sums';
"""
#: (script, fault) -> (assured, attempts, simulated latency, first 16 hex
#: digits of the SHA-256 over the output paths and records), computed
#: with the code before map branches were fused.
FAULTY_PINS = {
    ("follower", "commission"): (True, 1, 4.361189475431442, "472c1f35d20f02e0"),
    ("follower", "storage_rot"): (True, 1, 4.361189475431442, "472c1f35d20f02e0"),
    ("twohop", "commission"): (True, 1, 8.861725877788542, "2ae869b6b0c74378"),
    ("twohop", "storage_rot"): (True, 1, 8.861725877788542, "2ae869b6b0c74378"),
    ("sum_avg", "commission"): (True, 1, 4.361052852420807, "2de9647925cff230"),
    ("sum_avg", "storage_rot"): (True, 1, 4.361052852420807, "2de9647925cff230"),
}


class TestFaultyNodesPinned:
    """A commission-faulty node corrupts the records a map task reads and
    a storage-rot node the blocks it reads; fusion must leave what each
    does to a run unchanged: same verdict, latency and outputs."""

    @pytest.mark.parametrize("case", sorted(FAULTY_PINS))
    def test_verdict_latency_and_outputs_as_before(self, case):
        name, fault = case
        script = {"follower": FOLLOWER_ANALYSIS, "twohop": TWO_HOP_ANALYSIS,
                  "sum_avg": SUM_AVG}[name]
        plan = {"commission": single_commission("node_0000"),
                "storage_rot": storage_rot_node("node_0001")}[fault]
        edges = follower_edges(1000, num_users=1000,
                               rng=RngRegistry(7).stream("fused/1000"))
        config = SystemConfig(cluster=ClusterConfig(num_nodes=8, slots_per_node=2))
        controller = ClusterBFTController(config, fault_plan=plan)
        controller.load_input("twitter/followers", edges)
        result = controller.run_assured(script)
        digest = hashlib.sha256()
        for path in sorted(result.outputs):
            digest.update(path.encode())
            for record in result.outputs[path]:
                digest.update(record.encoded())
        assert sum(len(outcome.faults) for outcome in result.outcomes) == 1  # it bit
        assert (result.assured, result.attempts, result.latency,
                digest.hexdigest()[:16]) == FAULTY_PINS[case]
