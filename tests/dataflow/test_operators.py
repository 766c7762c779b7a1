"""Tests for logical-operator semantics (streaming and blocking)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError, SchemaError
from repro.common.records import Record, records_from_rows
from repro.dataflow import expressions as ex
from repro.dataflow.operators import (
    DistinctOp,
    FilterOp,
    ForeachOp,
    GroupOp,
    JoinOp,
    LimitOp,
    LoadOp,
    OrderOp,
    Projection,
    SortKey,
    StoreOp,
    UnionOp,
    VerifyOp,
    canonical_sort,
)
from repro.dataflow.schema import BAG, INT, Schema
from tests.dataflow.test_expressions import reference

EDGES = Schema.of(("user", INT), ("follower", INT))


class TestStreamingOperators:
    def test_filter_passes_and_drops(self):
        op = FilterOp(ex.gt(ex.field("user"), ex.lit(1)))
        assert op.bind(EDGES)([Record((2, 3))]) == [Record((2, 3))]
        assert op.bind(EDGES)([Record((1, 3))]) == []

    def test_filter_schema_passthrough(self):
        op = FilterOp(ex.not_null(ex.field("user")))
        assert op.derive_schema([EDGES]) == EDGES

    def test_filter_validates_references(self):
        op = FilterOp(ex.field("ghost"))
        with pytest.raises(SchemaError):
            op.derive_schema([EDGES])

    def test_foreach_projects(self):
        op = ForeachOp([Projection(ex.field("follower"), "f")])
        assert op.bind(EDGES)([Record((1, 2))]) == [Record((2,))]
        assert op.derive_schema([EDGES]).names() == ["f"]

    def test_foreach_needs_projections(self):
        with pytest.raises(PlanError):
            ForeachOp([])

    def test_verify_is_identity(self):
        op = VerifyOp("vp1")
        assert op.bind(EDGES)([Record((1, 2))]) == [Record((1, 2))]
        assert op.derive_schema([EDGES]) == EDGES

    def test_union_schema_checks_arity(self):
        op = UnionOp()
        with pytest.raises(SchemaError):
            op.derive_schema([EDGES, Schema.of("only_one")])

    def test_union_needs_two_inputs(self):
        with pytest.raises(PlanError):
            UnionOp().derive_schema([EDGES])


class TestGroup:
    def test_groups_by_key(self):
        op = GroupOp([ex.field("user")], bag_name="edges")
        tagged = [(0, r) for r in records_from_rows([(1, 2), (1, 3), (2, 4)])]
        grouped = {}
        for tag, record in tagged:
            key = op.bind_key(0, [EDGES])(record)
            grouped.setdefault(key, []).append((tag, record))
        out1 = op.reduce(1, grouped[1], [EDGES])
        assert out1 == [Record((1, (Record((1, 2)), Record((1, 3)))))]

    def test_bag_is_canonically_sorted(self):
        op = GroupOp([ex.field("user")])
        forward = op.reduce(1, [(0, Record((1, 2))), (0, Record((1, 3)))], [EDGES])
        backward = op.reduce(1, [(0, Record((1, 3))), (0, Record((1, 2)))], [EDGES])
        assert forward == backward

    def test_schema_carries_inner_bag_schema(self):
        op = GroupOp([ex.field("user")], bag_name="edges")
        schema = op.derive_schema([EDGES])
        assert schema.names() == ["group", "edges"]
        assert schema.field(1).type == BAG
        assert schema.field(1).inner == EDGES

    def test_multi_key_group(self):
        op = GroupOp([ex.field("user"), ex.field("follower")])
        key = op.bind_key(0, [EDGES])(Record((1, 2)))
        assert key == (1, 2)
        assert op.derive_schema([EDGES]).field(0).type == "tuple"

    def test_needs_keys(self):
        with pytest.raises(PlanError):
            GroupOp([])


class TestJoin:
    def setup_method(self):
        self.op = JoinOp([ex.field("user")], [ex.field("follower")])
        self.schemas = [EDGES, EDGES]

    def test_keys_by_side(self):
        assert self.op.bind_key(0, self.schemas)(Record((1, 2))) == 1
        assert self.op.bind_key(1, self.schemas)(Record((1, 2))) == 2

    def test_cross_product_per_key(self):
        tagged = [
            (0, Record((1, 10))),
            (0, Record((1, 11))),
            (1, Record((5, 1))),
        ]
        out = self.op.reduce(1, tagged, self.schemas)
        assert sorted(r.fields for r in out) == [(1, 10, 5, 1), (1, 11, 5, 1)]

    def test_no_match_emits_nothing(self):
        assert self.op.reduce(1, [(0, Record((1, 2)))], self.schemas) == []

    def test_schema_concat(self):
        assert len(self.op.derive_schema(self.schemas)) == 4

    def test_qualified_schema_with_aliases(self):
        op = JoinOp(
            [ex.field("user")],
            [ex.field("follower")],
            input_aliases=("A", "B"),
        )
        schema = op.derive_schema(self.schemas)
        assert schema.names() == ["A::user", "A::follower", "B::user", "B::follower"]

    def test_mismatched_key_lists_rejected(self):
        with pytest.raises(PlanError):
            JoinOp([ex.field("a")], [])


class TestDistinctOrderLimit:
    def test_distinct_keeps_one(self):
        op = DistinctOp()
        out = op.reduce((1, 2), [(0, Record((1, 2))), (0, Record((1, 2)))], [EDGES])
        assert out == [Record((1, 2))]

    def test_order_sorts_descending(self):
        op = OrderOp([SortKey("follower", ascending=False)])
        tagged = [(0, r) for r in records_from_rows([(1, 2), (1, 9), (1, 5)])]
        out = op.reduce(OrderOp.GLOBAL_KEY, tagged, [EDGES])
        assert [r[1] for r in out] == [9, 5, 2]

    def test_order_multi_key_stable(self):
        op = OrderOp([SortKey("user"), SortKey("follower", ascending=False)])
        tagged = [(0, r) for r in records_from_rows([(2, 1), (1, 1), (1, 9)])]
        out = op.reduce(OrderOp.GLOBAL_KEY, tagged, [EDGES])
        assert [r.fields for r in out] == [(1, 9), (1, 1), (2, 1)]

    def test_order_tolerates_nulls_and_mixed_types(self):
        op = OrderOp([SortKey("user")])
        tagged = [(0, Record((None, 1))), (0, Record((2, 1))), (0, Record(("a", 1)))]
        out = op.reduce(OrderOp.GLOBAL_KEY, tagged, [EDGES])
        assert [r[0] for r in out] == [None, 2, "a"]

    def test_order_wants_single_reducer(self):
        assert OrderOp([SortKey("user")]).preferred_reducers() == 1

    def test_limit_slices_deterministically(self):
        op = LimitOp(2)
        tagged = [(0, r) for r in records_from_rows([(3, 1), (1, 1), (2, 1)])]
        out1 = op.reduce(OrderOp.GLOBAL_KEY, tagged, [EDGES])
        out2 = op.reduce(OrderOp.GLOBAL_KEY, list(reversed(tagged)), [EDGES])
        assert out1 == out2 and len(out1) == 2

    def test_limit_rejects_negative(self):
        with pytest.raises(PlanError):
            LimitOp(-1)


class TestSourcesSinks:
    def test_load_schema(self):
        op = LoadOp("path", EDGES)
        assert op.derive_schema([]) == EDGES
        with pytest.raises(PlanError):
            op.derive_schema([EDGES])

    def test_store_passthrough(self):
        op = StoreOp("out")
        assert op.derive_schema([EDGES]) == EDGES
        with pytest.raises(PlanError):
            op.derive_schema([])

    def test_kind_names(self):
        assert LoadOp("p", EDGES).kind == "load"
        assert GroupOp([ex.field("user")]).kind == "group"


def test_canonical_sort_is_total_and_stable():
    records = records_from_rows([(2,), (1,), (None,), ("a",)])
    once = canonical_sort(records)
    assert canonical_sort(list(reversed(records))) == once


# ----------------------------------------------------------------------
# Bound stages and keys against the per-record reference
# ----------------------------------------------------------------------


def reference_key(op, record, input_index, input_schemas):
    """The reduce key as blocking operators computed it before binding."""

    def key_value(exprs, schema):
        if len(exprs) == 1:
            return reference(exprs[0], record, schema)
        return tuple(reference(expr, record, schema) for expr in exprs)

    if isinstance(op, GroupOp):
        return key_value(op.key_exprs, input_schemas[0])
    if isinstance(op, JoinOp):
        exprs = op.left_keys if input_index == 0 else op.right_keys
        return key_value(exprs, input_schemas[input_index])
    if isinstance(op, DistinctOp):
        return record.fields
    return OrderOp.GLOBAL_KEY  # ORDER and LIMIT


nullable = st.none() | st.integers(-5, 5)
streams = st.lists(st.tuples(nullable, nullable), max_size=20).map(records_from_rows)

PREDICATES = [
    ex.not_null(ex.field("follower")),
    ex.gt(ex.field("user"), ex.lit(1)),
    ex.or_(ex.IsNull(ex.field("$0")), ex.eq(ex.field("user"), ex.field("follower"))),
]
PROJECTIONS = [
    [Projection(ex.field("follower"), "f")],
    [
        Projection(ex.BinOp("+", ex.field("user"), ex.field("$1")), "sum"),
        Projection(ex.lit("k")),
        Projection(ex.call("ABS", ex.field("user")), "abs"),
    ],
]
GROUPED = GroupOp([ex.field("user")], bag_name="e").derive_schema([EDGES])
JOINED = [Schema.of(("user", INT), ("follower", INT)), Schema.of(("id", INT), ("name", "chararray"))]


class TestBoundStagesMatchReference:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=repr)
    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_filter(self, predicate, stream):
        expected = [record for record in stream if reference(predicate, record, EDGES)]
        assert FilterOp(predicate).bind(EDGES)(stream) == expected

    @pytest.mark.parametrize("projections", PROJECTIONS, ids=len)
    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_foreach(self, projections, stream):
        expected = [
            Record(tuple(reference(p.expr, record, EDGES) for p in projections))
            for record in stream
        ]
        assert ForeachOp(projections).bind(EDGES)(stream) == expected

    def test_foreach_over_groups(self):
        projections = [
            Projection(ex.field("group")),
            Projection(ex.count(ex.field("e"))),
            Projection(ex.call("MAX", ex.BagProject(ex.field("e"), "follower"))),
        ]
        groups = [
            Record((1, (Record((1, 2)), Record((1, 7))))),
            Record((2, ())),
            Record((3, (Record((3, None)),))),
        ]
        expected = [
            Record(tuple(reference(p.expr, record, GROUPED) for p in projections))
            for record in groups
        ]
        assert ForeachOp(projections).bind(GROUPED)(groups) == expected
        assert expected == [Record((1, 2, 7)), Record((2, 0, None)), Record((3, 1, None))]

    @given(stream=streams)
    @settings(max_examples=20, deadline=None)
    def test_union_and_verify_pass_through(self, stream):
        for op in (UnionOp(), VerifyOp("vp")):
            out = op.bind(EDGES)(stream)
            assert out == stream and out is not stream

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_keys(self, stream):
        cases = [
            (GroupOp([ex.field("user")]), [EDGES], 0),
            (GroupOp([ex.field("follower"), ex.field("$0")]), [EDGES], 0),
            (JoinOp([ex.field("follower")], [ex.field("id")]), JOINED, 0),
            (JoinOp([ex.field("follower")], [ex.field("id")]), JOINED, 1),
            (DistinctOp(), [EDGES], 0),
            (OrderOp([SortKey("user")]), [EDGES], 0),
            (LimitOp(3), [EDGES], 0),
        ]
        for op, schemas, side in cases:
            key_of = op.bind_key(side, schemas)
            assert [key_of(record) for record in stream] == [
                reference_key(op, record, side, schemas) for record in stream
            ], (op, side)


class TestBadBagField:
    """``MAX(e.nosuch)`` names a field the bag does not have: binding the
    projection rejects it when the schema is derived."""

    def test_foreach_schema_rejects_unknown_bag_field(self):
        op = ForeachOp([Projection(ex.call("MAX", ex.BagProject(ex.field("e"), "nosuch")))])
        with pytest.raises(SchemaError, match="nosuch"):
            op.derive_schema([GROUPED])

    def test_known_bag_field_still_derives(self):
        op = ForeachOp([Projection(ex.call("MAX", ex.BagProject(ex.field("e"), "follower")))])
        assert op.derive_schema([GROUPED]).names() == ["max_follower"]
