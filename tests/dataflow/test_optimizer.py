"""Tests for the logical-plan optimizer.

Every rule is checked twice: structurally (the rewrite happened) and
semantically (optimized and unoptimized plans agree with the reference
interpreter on the same inputs) — plus a hypothesis sweep over random
data for the full rule pipeline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.common.records import records_from_rows
from repro.core.controller import ClusterBFTController
from repro.dataflow.interpreter import interpret
from repro.dataflow.operators import FilterOp, JoinOp, OrderOp, UnionOp
from repro.dataflow.optimizer import optimize, rewrite_refs
from repro.dataflow.piglatin import parse_script
from repro.dataflow import expressions as ex


def ops_of(plan, op_type):
    return [vid for vid in plan.vertices() if isinstance(plan.op(vid), op_type)]


def check_equivalent(script, inputs):
    plan = parse_script(script)
    reference = interpret(plan.clone(), inputs=inputs)
    report = optimize(plan)
    optimized = interpret(plan, inputs=inputs)
    assert set(reference) == set(optimized)
    for path in reference:
        assert sorted(map(repr, reference[path])) == sorted(
            map(repr, optimized[path])
        ), path
    return plan, report


class TestMergeFilters:
    SCRIPT = """
    A = LOAD 'in' AS (x:int, y:int);
    B = FILTER A BY x > 1;
    C = FILTER B BY y > 2;
    STORE C INTO 'out';
    """

    def test_merges_into_one_filter(self):
        plan, report = check_equivalent(
            self.SCRIPT,
            {"in": records_from_rows([(0, 0), (2, 3), (2, 0), (5, 9)])},
        )
        assert report.count("merge-filters") == 1
        assert len(ops_of(plan, FilterOp)) == 1

    def test_merging_stops_at_the_depth_cap(self):
        # Sixty FILTERs whose predicates are 35 levels deep: fifteen
        # merges reach MAX_DEPTH (50); one more would be a PlanError.
        deep = " + ".join(["v"] * 34)
        lines = ["A0 = LOAD 'in' AS (k:int, v:int);"]
        lines += [f"A{i} = FILTER A{i - 1} BY {deep} != {i};" for i in range(1, 61)]
        script = "\n".join(lines + ["STORE A60 INTO 'out';"])
        rows = records_from_rows([(k, v) for k in range(3) for v in (None, 0, 1, 2)])
        plan, report = check_equivalent(script, {"in": rows})
        assert report.count("merge-filters") > 0
        expected = interpret(parse_script(script), inputs={"in": rows})["out"]
        controller = ClusterBFTController(SystemConfig())
        controller.load_input("in", rows)
        result = controller.run_assured(plan)
        assert result.assured
        assert sorted(r.fields for r in result.outputs["out"]) == sorted(
            r.fields for r in expected
        )
        assert len(expected) == 6  # v = 1 sums to 34 and fails FILTER 34

    def test_no_merge_when_parent_shared(self):
        script = """
        A = LOAD 'in' AS (x:int, y:int);
        B = FILTER A BY x > 1;
        C = FILTER B BY y > 2;
        STORE B INTO 'other';
        STORE C INTO 'out';
        """
        plan, report = check_equivalent(
            script, {"in": records_from_rows([(2, 3), (2, 0)])}
        )
        assert report.count("merge-filters") == 0


class TestFilterBeforeOrder:
    SCRIPT = """
    A = LOAD 'in' AS (x:int, y:int);
    O = ORDER A BY y DESC;
    F = FILTER O BY x > 1;
    STORE F INTO 'out';
    """

    def test_filter_moves_before_sort(self):
        plan, report = check_equivalent(
            self.SCRIPT,
            {"in": records_from_rows([(1, 9), (2, 5), (3, 7), (0, 1)])},
        )
        assert report.count("filter-before-order") == 1
        order = ops_of(plan, OrderOp)[0]
        parent = plan.inputs(order)[0]
        assert isinstance(plan.op(parent), FilterOp)

    def test_order_preserved_through_rewrite(self):
        plan = parse_script(self.SCRIPT)
        inputs = {"in": records_from_rows([(2, 1), (3, 9), (2, 4)])}
        reference = interpret(plan.clone(), inputs=inputs)["out"]
        optimize(plan)
        assert interpret(plan, inputs=inputs)["out"] == reference  # exact order


class TestFilterThroughUnion:
    SCRIPT = """
    A = LOAD 'x' AS (k:int);
    B = LOAD 'y' AS (k:int);
    U = UNION A, B;
    F = FILTER U BY k > 2;
    STORE F INTO 'out';
    """

    def test_filter_replicated_into_branches(self):
        plan, report = check_equivalent(
            self.SCRIPT,
            {
                "x": records_from_rows([(1,), (5,)]),
                "y": records_from_rows([(3,), (0,)]),
            },
        )
        assert report.count("filter-through-union") == 1
        union = ops_of(plan, UnionOp)[0]
        for parent in plan.inputs(union):
            assert isinstance(plan.op(parent), FilterOp)

    def test_blocked_when_union_shared(self):
        script = """
        A = LOAD 'x' AS (k:int);
        B = LOAD 'y' AS (k:int);
        U = UNION A, B;
        F = FILTER U BY k > 2;
        STORE U INTO 'raw';
        STORE F INTO 'out';
        """
        plan, report = check_equivalent(
            script,
            {"x": records_from_rows([(1,)]), "y": records_from_rows([(3,)])},
        )
        assert report.count("filter-through-union") == 0


class TestFilterIntoJoin:
    SCRIPT = """
    A = LOAD 'x' AS (k:int, v:int);
    B = LOAD 'y' AS (k:int, w:int);
    J = JOIN A BY k, B BY k;
    F = FILTER J BY A::v > 10;
    STORE F INTO 'out';
    """

    def test_one_sided_predicate_pushed(self):
        plan, report = check_equivalent(
            self.SCRIPT,
            {
                "x": records_from_rows([(1, 5), (1, 20), (2, 30)]),
                "y": records_from_rows([(1, 7), (2, 8)]),
            },
        )
        assert report.count("filter-into-join") == 1
        join = ops_of(plan, JoinOp)[0]
        left = plan.inputs(join)[0]
        assert isinstance(plan.op(left), FilterOp)

    def test_two_sided_predicate_stays(self):
        script = self.SCRIPT.replace("A::v > 10", "A::v > B::w")
        plan, report = check_equivalent(
            script,
            {
                "x": records_from_rows([(1, 5), (1, 20)]),
                "y": records_from_rows([(1, 7)]),
            },
        )
        assert report.count("filter-into-join") == 0

    def test_right_side_predicate_pushed_right(self):
        script = self.SCRIPT.replace("A::v > 10", "B::w > 7")
        plan, report = check_equivalent(
            script,
            {
                "x": records_from_rows([(1, 5)]),
                "y": records_from_rows([(1, 7), (1, 9)]),
            },
        )
        assert report.count("filter-into-join") == 1
        join = ops_of(plan, JoinOp)[0]
        right = plan.inputs(join)[1]
        assert isinstance(plan.op(right), FilterOp)


class TestRewriteRefs:
    def test_rewrites_nested_expressions(self):
        expr = ex.and_(
            ex.gt(ex.field("A::v"), ex.lit(1)),
            ex.IsNull(ex.field("A::k"), negate=True),
        )
        rewritten = rewrite_refs(expr, {"A::v": "$1", "A::k": "$0"})
        assert rewritten.references() == {"$0", "$1"}

    def test_funcall_and_bagproject(self):
        expr = ex.call("SIZE", ex.BagProject(ex.field("b"), "t"))
        rewritten = rewrite_refs(expr, {"b": "$2"})
        assert rewritten.references() == {"$2"}


PIPELINE_SCRIPT = """
A = LOAD 'x' AS (k:int, v:int);
B = LOAD 'y' AS (k:int, v:int);
U = UNION A, B;
F1 = FILTER U BY v IS NOT NULL;
F2 = FILTER F1 BY k > 0;
J = JOIN F2 BY k, A BY k;
F3 = FILTER J BY A::v > -100;
G = GROUP F3 BY F2::k;
C = FOREACH G GENERATE group AS k, COUNT(F3) AS n;
O = ORDER C BY n DESC, k ASC;
T = LIMIT O 5;
STORE T INTO 'out';
"""

rows = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=5),
        st.one_of(st.none(), st.integers(-50, 50)),
    ),
    max_size=30,
)


class TestPipeline:
    @given(rows, rows)
    @settings(max_examples=30, deadline=None)
    def test_full_pipeline_equivalence(self, x_rows, y_rows):
        inputs = {
            "x": records_from_rows(x_rows),
            "y": records_from_rows(y_rows),
        }
        plan = parse_script(PIPELINE_SCRIPT)
        reference = interpret(plan.clone(), inputs=inputs)["out"]
        report = optimize(plan)
        optimized = interpret(plan, inputs=inputs)["out"]
        assert optimized == reference  # ordered output: exact match
        assert report.applied  # at least one rule fires on this shape

    def test_idempotent(self):
        plan = parse_script(PIPELINE_SCRIPT)
        optimize(plan)
        second = optimize(plan)
        assert second.applied == []
