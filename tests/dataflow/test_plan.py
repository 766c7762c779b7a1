"""Tests for the logical-plan DAG."""

import pytest

from repro.common.errors import PlanError
from repro.dataflow import expressions as ex
from repro.dataflow.operators import (
    FilterOp,
    GroupOp,
    JoinOp,
    LoadOp,
    StoreOp,
    VerifyOp,
)
from repro.dataflow.plan import LogicalPlan
from repro.dataflow.schema import INT, Schema

EDGES = Schema.of(("user", INT), ("follower", INT))


def linear_plan():
    plan = LogicalPlan()
    load = plan.add(LoadOp("in", EDGES, alias="A"))
    filt = plan.add(FilterOp(ex.not_null(ex.field("follower")), alias="B"), [load])
    store = plan.add(StoreOp("out"), [filt])
    return plan, load, filt, store


class TestStructure:
    def test_inputs_outputs(self):
        plan, load, filt, store = linear_plan()
        assert plan.inputs(filt) == [load]
        assert plan.outputs(load) == [filt]
        assert plan.sources() == [load]
        assert plan.sinks() == [store]

    def test_unknown_input_rejected(self):
        plan = LogicalPlan()
        with pytest.raises(PlanError):
            plan.add(StoreOp("out"), [99])

    def test_topological_order_respects_edges(self):
        plan, load, filt, store = linear_plan()
        order = plan.topological_order()
        assert order.index(load) < order.index(filt) < order.index(store)

    def test_levels_match_paper_definition(self):
        plan = LogicalPlan()
        l1 = plan.add(LoadOp("a", EDGES))
        l2 = plan.add(LoadOp("b", EDGES))
        f = plan.add(FilterOp(ex.lit(True)), [l2])
        j = plan.add(JoinOp([ex.field("user")], [ex.field("user")]), [l1, f])
        plan.add(StoreOp("out"), [j])
        levels = plan.levels()
        assert levels[l1] == 1 and levels[l2] == 1
        assert levels[f] == 2
        assert levels[j] == 3  # max(1+1, 1+2)

    def test_find_by_alias_takes_latest(self):
        plan = LogicalPlan()
        first = plan.add(LoadOp("a", EDGES, alias="A"))
        second = plan.add(FilterOp(ex.lit(True), alias="A"), [first])
        plan.add(StoreOp("out"), [second])
        assert plan.find_by_alias("A") == second

    def test_find_by_alias_missing(self):
        plan, *_ = linear_plan()
        with pytest.raises(PlanError):
            plan.find_by_alias("ZZZ")

    def test_load_and_store_paths(self):
        plan, load, _, store = linear_plan()
        assert plan.load_paths() == {load: "in"}
        assert plan.sinks() == [store] and plan.op(store).path == "out"


class TestValidation:
    def test_valid_plan_passes(self):
        plan, *_ = linear_plan()
        plan.validate()

    def test_no_store_rejected(self):
        plan = LogicalPlan()
        plan.add(LoadOp("in", EDGES))
        with pytest.raises(PlanError):
            plan.validate()

    def test_dangling_branch_rejected(self):
        plan, load, filt, store = linear_plan()
        plan.add(FilterOp(ex.lit(True)), [load])  # no store downstream
        with pytest.raises(PlanError):
            plan.validate()

    def test_join_arity_enforced(self):
        plan = LogicalPlan()
        load = plan.add(LoadOp("in", EDGES))
        join = plan.add(JoinOp([ex.field("user")], [ex.field("user")]), [load])
        plan.add(StoreOp("out"), [join])
        with pytest.raises(PlanError):
            plan.validate()

    def test_schema_inference_cached_and_correct(self):
        plan, load, filt, _ = linear_plan()
        assert plan.schema_of(filt) == EDGES
        assert plan.schema_of(filt) is plan.schema_of(filt)

    def test_group_schema_via_plan(self):
        plan = LogicalPlan()
        load = plan.add(LoadOp("in", EDGES, alias="A"))
        group = plan.add(GroupOp([ex.field("user")], bag_name="A"), [load])
        plan.add(StoreOp("out"), [group])
        assert plan.schema_of(group).names() == ["group", "A"]


class TestMutation:
    def test_insert_after_rewires_consumers(self):
        plan, load, filt, store = linear_plan()
        verify = plan.insert_after(filt, VerifyOp("vp0"))
        assert plan.outputs(filt) == [verify]
        assert plan.inputs(store) == [verify]
        plan.validate()

    def test_insert_after_multi_consumer(self):
        plan = LogicalPlan()
        load = plan.add(LoadOp("in", EDGES))
        f1 = plan.add(FilterOp(ex.lit(True)), [load])
        f2 = plan.add(FilterOp(ex.lit(True)), [load])
        plan.add(StoreOp("o1"), [f1])
        plan.add(StoreOp("o2"), [f2])
        verify = plan.insert_after(load, VerifyOp("vp0"))
        assert plan.outputs(load) == [verify]
        assert sorted(plan.outputs(verify)) == sorted([f1, f2])
        plan.validate()

    def test_insert_after_unknown_vertex(self):
        plan, *_ = linear_plan()
        with pytest.raises(PlanError):
            plan.insert_after(1234, VerifyOp("vp0"))

    def test_clone_is_independent(self):
        plan, load, filt, store = linear_plan()
        clone = plan.clone()
        clone.insert_after(filt, VerifyOp("vp0"))
        assert len(clone.vertices()) == len(plan.vertices()) + 1
        assert plan.outputs(filt) == [store]

    def test_describe_lists_all_vertices(self):
        plan, *_ = linear_plan()
        text = plan.describe()
        assert "load 'in'" in text and "store 'out'" in text
