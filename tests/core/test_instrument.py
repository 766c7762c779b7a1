"""Tests for verification-point instrumentation."""

from repro.core.instrument import instrument
from repro.dataflow.operators import VerifyOp
from repro.dataflow.piglatin import parse_script

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

MULTI_STORE = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v > 0;
STORE B INTO 'o1';
C = FILTER A BY v < 0;
STORE C INTO 'o2';
"""


class TestInstrument:
    def test_original_plan_untouched(self):
        plan = parse_script(SCRIPT)
        before = len(plan.vertices())
        instrument(plan, [plan.find_by_alias("G")])
        assert len(plan.vertices()) == before

    def test_marked_vertex_gets_verify_op(self):
        plan = parse_script(SCRIPT)
        group = plan.find_by_alias("G")
        result = instrument(plan, [group])
        point = next(p for p in result.points if not p.is_output)
        clone = result.plan
        assert isinstance(clone.op(point.verify_vertex), VerifyOp)
        assert clone.inputs(point.verify_vertex) == [group]

    def test_outputs_always_instrumented(self):
        plan = parse_script(SCRIPT)
        result = instrument(plan, [])
        outputs = [p for p in result.points if p.is_output]
        assert len(outputs) == 1
        store = result.plan.sinks()[0]
        assert isinstance(
            result.plan.op(result.plan.inputs(store)[0]), VerifyOp
        )

    def test_every_store_covered_in_multi_store_plan(self):
        plan = parse_script(MULTI_STORE)
        result = instrument(plan, [])
        assert len([p for p in result.points if p.is_output]) == 2

    def test_marked_store_parent_not_double_instrumented(self):
        plan = parse_script(SCRIPT)
        counts_vertex = plan.find_by_alias("C")  # feeds the store
        result = instrument(plan, [counts_vertex])
        assert len(result.points) == 1  # no extra output point

    def test_outputs_can_be_disabled(self):
        plan = parse_script(SCRIPT)
        result = instrument(plan, [], include_outputs=False)
        assert result.points == []

    def test_chunk_size_propagates(self):
        plan = parse_script(SCRIPT)
        result = instrument(plan, [plan.find_by_alias("G")], chunk_records=100)
        for point in result.points:
            op = result.plan.op(point.verify_vertex)
            assert op.chunk_records == 100

    def test_vp_ids_unique(self):
        plan = parse_script(MULTI_STORE)
        result = instrument(plan, [plan.find_by_alias("A")])
        vp_ids = result.vp_ids()
        assert len(vp_ids) == len(set(vp_ids))
        assert sum(not point.is_output for point in result.points) == 1

    def test_instrumented_plan_still_validates(self):
        plan = parse_script(MULTI_STORE)
        result = instrument(plan, [plan.find_by_alias("A")])
        result.plan.validate()  # must not raise
