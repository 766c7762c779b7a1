"""Layer 2 fixtures: every plan-checker invariant fires on a plan with
one known defect, with the right rule id and a useful location."""

import argparse

import pytest

from repro.common.config import ClusterBFTConfig
from repro.common.errors import SchemaError
from repro.core.request_handler import RequestHandler
from repro.dataflow.operators import LoadOp, StoreOp, UnionOp
from repro.dataflow.piglatin import parse_script
from repro.dataflow.plan import LogicalPlan
from repro.dataflow.schema import Field, Schema
from repro.lint.plan_rules import (
    PlanCheckError,
    check_config,
    check_plan,
    check_sink_coverage,
    precheck_plan,
)

INT_X = Schema((Field("x", "int"),))


def rules_of(diags):
    return [d.rule for d in diags]


def test_plan001_cycle():
    plan = LogicalPlan()
    load = plan.add(LoadOp("in", INT_X))
    union = plan.add(UnionOp(), [load])
    plan.add(StoreOp("out"), [union])
    plan.set_inputs(union, [load, union])  # self-edge
    assert rules_of(check_plan(plan)) == ["PLAN001"]


def test_plan002_arity():
    plan = LogicalPlan()
    load = plan.add(LoadOp("in", INT_X))
    union = plan.add(UnionOp(), [load])  # UNION needs >= 2 inputs
    plan.add(StoreOp("out"), [union])
    diags = check_plan(plan)
    assert "PLAN002" in rules_of(diags)
    (arity,) = [d for d in diags if d.rule == "PLAN002"]
    assert "UNION" in arity.message


def test_plan003_schema_with_script_line():
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FOREACH a GENERATE missing_field;\n"
        "STORE b INTO 'out';\n",
        validate=False,
    )
    diags = check_plan(plan, "script.pig")
    assert rules_of(diags) == ["PLAN003"]
    assert diags[0].path == "script.pig"
    assert diags[0].line == 2  # the FOREACH statement's source line
    assert "missing_field" in diags[0].message


#: A bag-inner field the bag does not have (the bag's schema is GROUP's
#: input schema); only binding the projection resolves it.
BAD_BAG_FIELD = (
    "e = LOAD 'in' AS (user:int, follower:int);\n"
    "g = GROUP e BY user;\n"
    "m = FOREACH g GENERATE group, MAX(e.nosuch);\n"
    "STORE m INTO 'out';\n"
)


def test_plan003_unknown_bag_field():
    diags = check_plan(parse_script(BAD_BAG_FIELD, validate=False), "script.pig")
    assert rules_of(diags) == ["PLAN003"]
    assert diags[0].line == 3
    assert "nosuch" in diags[0].message


def test_prepare_rejects_unknown_bag_field():
    handler = RequestHandler(ClusterBFTConfig(f=1, replication=4))
    with pytest.raises(SchemaError, match="nosuch"):
        parse_script(BAD_BAG_FIELD)
    with pytest.raises(SchemaError, match="nosuch"):
        handler.prepare(parse_script(BAD_BAG_FIELD, validate=False), {"in": 10})


def test_plan004_no_store():
    plan = parse_script("a = LOAD 'in' AS (x:int);\n", validate=False)
    assert "PLAN004" in rules_of(check_plan(plan))


def test_plan005_unused_alias():
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"  # never stored: dangling
        "STORE a INTO 'out';\n",
        validate=False,
    )
    diags = [d for d in check_plan(plan, "script.pig") if d.rule == "PLAN005"]
    assert len(diags) == 1
    assert diags[0].line == 2
    assert "filter" in diags[0].message


def test_plan006_uncovered_sink():
    # An uninstrumented plan has no VerifyOp parents at all.
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\nSTORE a INTO 'out';\n", validate=False
    )
    diags = check_sink_coverage(plan, "script.pig")
    assert rules_of(diags) == ["PLAN006"]
    assert "'out'" in diags[0].message


def test_plan006_clean_after_instrumentation():
    config = ClusterBFTConfig(f=1, replication=4, verification_points=1)
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"
        "STORE b INTO 'out';\n"
    )
    prepared = RequestHandler(config).prepare(plan, {"in": 100})
    assert check_sink_coverage(prepared.instrumented.plan) == []


@pytest.mark.parametrize("replication", [2, 3, 4])
def test_plan007_accepts_guarantee_levels(replication):
    config = argparse.Namespace(f=1, replication=replication)
    assert check_config(config) == []


@pytest.mark.parametrize("replication", [1, 5, 6, 0])
def test_plan007_rejects_other_degrees(replication):
    config = argparse.Namespace(f=1, replication=replication)
    diags = check_config(config)
    assert rules_of(diags) == ["PLAN007"]
    assert f"r={replication}" in diags[0].message


def test_problems_matches_validate_first_error():
    """validate() must keep raising the exact error problems() lists first."""
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FOREACH a GENERATE missing;\n"
        "STORE b INTO 'out';\n",
        validate=False,
    )
    problems = plan.problems()
    with pytest.raises(type(problems[0].error)) as excinfo:
        plan.validate()
    assert str(excinfo.value) == str(problems[0].error)


def test_clean_plan_has_no_problems():
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"
        "STORE b INTO 'out';\n"
    )
    assert plan.problems() == []
    assert check_plan(plan) == []


def test_precheck_raises_with_all_findings():
    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FILTER a BY x > 0;\n"  # dangling
        "c = FOREACH a GENERATE missing;\n"  # schema error
        "STORE c INTO 'out';\n",
        validate=False,
    )
    with pytest.raises(PlanCheckError) as excinfo:
        precheck_plan(plan, "script.pig")
    reported = rules_of(excinfo.value.diagnostics)
    assert "PLAN003" in reported and "PLAN005" in reported
    assert "script.pig" in str(excinfo.value)


def test_interpreter_precheck_hook():
    from repro.dataflow.interpreter import interpret

    plan = parse_script(
        "a = LOAD 'in' AS (x:int);\n"
        "b = FOREACH a GENERATE missing;\n"
        "STORE b INTO 'out';\n",
        validate=False,
    )
    with pytest.raises(PlanCheckError):
        interpret(plan, inputs={"in": []}, precheck=True)
