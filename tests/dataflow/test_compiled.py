"""Compiled stages (DESIGN.md §23): what the generated source may
contain, the code table, and the depth cap."""

import io
import re
import tokenize

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import PlanError
from repro.common.records import Record, records_from_rows
from repro.compiler.mr_compiler import compile_plan
from repro.core.controller import ClusterBFTController
from repro.dataflow import expressions as ex
from repro.dataflow.interpreter import interpret
from repro.dataflow.operators import FilterOp, ForeachOp, GroupOp, Projection
from repro.dataflow.piglatin import parse_script
from repro.dataflow.schema import INT, Schema
from tests.dataflow.test_expressions import reference

#: Field names that are Python builtins or the generated functions' own
#: names, a string literal that closes a call and starts a statement,
#: and a path that is not a Python string.
HOSTILE = """
A = LOAD 'in"); __import__("os"); ("' AS (len:int, print:chararray, r:int, records:int, _1:int);
B = FILTER A BY print != '); import os; (' AND len IS NOT NULL OR records > 3;
C = FOREACH B GENERATE len + _1 AS eval, CONCAT(print, '); import os; (') AS exec, r, -records AS Record;
G = GROUP C BY (eval, r);
D = FOREACH G GENERATE group, COUNT(C) AS n, MAX(C.Record) AS m;
STORE D INTO 'out); exit(';
"""
ROWS = [
    (1, "); import os; (", 2, 3, 4),
    (1, "x", 2, 5, 4),
    (None, "y", 2, 9, 0),
    (3, None, 7, 1, 1),
    (3, "z", 7, 4, None),
]
#: Fields named like a fused branch's own words (``records``, ``r``,
#: ``Record``) and like what counts its keys (``Counter``).
FUSED_HOSTILE = """
A = LOAD 'in' AS (records:int, r:int, Record:chararray, Counter:int);
B = FILTER A BY Record != '); import os; (' AND records IS NOT NULL;
C = FOREACH B GENERATE r AS Counter, CONCAT(Record, '"') AS records, records * 2 AS r;
G = GROUP C BY (Counter, records);
D = FOREACH G GENERATE group, COUNT(C) AS n;
H = GROUP C BY Counter;
E = FOREACH H GENERATE group, SUM(C.r) AS total, MAX(C.records) AS m;
M = LOAD 'in' AS (records:int, r:int, Record:chararray, Counter:int);
N = FILTER M BY Counter IS NOT NULL;
P = FOREACH N GENERATE Counter AS records, CONCAT(Record, '"') AS Counter;
STORE D INTO 'counts';
STORE E INTO 'sums';
STORE P INTO 'rows';
"""
FUSED_ROWS = [
    (1, 2, "); import os; (", 0),
    (1, 2, "x", 0),
    (None, 2, "y", 1),
    (3, 7, "x", None),
    (4, 7, None, 2),
    (5, 7, "z", 3),
]
#: Names a generated source may use besides ``_<n>`` slots and locals.
TEMPLATE_NAMES = {
    "lambda", "r", "records", "for", "in", "if", "else", "is", "not", "None",
    "False", "and", "or", "bool", "tuple", "Record", "fields", "_i",
}
SLOT = re.compile(r"_\d+")


def sorted_rows(records):
    return sorted((r.fields for r in records), key=repr)


def assert_only_shape(source):
    """Every token is a template word, a slot name, an integer position
    or an operator symbol: no string, float or script name."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in TEMPLATE_NAMES or SLOT.fullmatch(token.string), (
                token.string, source
            )
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit(), (token.string, source)
        else:
            assert token.type in (
                tokenize.OP, tokenize.NEWLINE, tokenize.ENDMARKER
            ), (token, source)


class TestGeneratedSource:
    def test_hostile_names_and_literals_run_to_the_interpreters_output(self, monkeypatch):
        monkeypatch.setattr(ex, "CODE", {})
        plan = parse_script(HOSTILE)
        path = plan.op(plan.sinks()[0]).path
        source = plan.op(plan.sources()[0]).path
        records = records_from_rows(ROWS)
        expected = interpret(plan, inputs={source: records})[path]
        controller = ClusterBFTController(SystemConfig())
        controller.load_input(source, records)
        result = controller.run_assured(HOSTILE)
        assert result.assured
        assert sorted_rows(result.outputs[path]) == sorted_rows(expected)
        assert expected  # the filter let something through
        for text in ex.CODE:
            assert_only_shape(text)
            assert "import" not in text and "print" not in text

    def test_no_source_holds_script_text(self, monkeypatch):
        monkeypatch.setattr(ex, "CODE", {})
        schema = Schema.of(("a", INT), ("b", INT), ("s", "chararray"))
        exprs = [
            ex.and_(ex.gt(ex.field("a"), ex.lit(3.5)), ex.eq(ex.field("s"), ex.lit("a'b"))),
            ex.or_(ex.IsNull(ex.field("b")), ex.UnaryOp("not", ex.field("s"))),
            ex.BinOp("%", ex.UnaryOp("neg", ex.field("$1")), ex.lit(-7)),
            ex.call("CONCAT", ex.field("s"), ex.lit("\n")),
        ]
        FilterOp(exprs[0]).bind(schema)
        ForeachOp([Projection(expr) for expr in exprs]).bind(schema)
        GroupOp([exprs[2], exprs[3]]).bind_key(0, [schema])
        for expr in exprs:
            expr.bind(schema)
        assert ex.CODE
        for text in ex.CODE:
            assert_only_shape(text)

    def test_scripts_differing_in_literals_and_paths_share_code(self):
        template = (
            "A = LOAD '{src}' AS (k:int, v:int);\n"
            "B = FILTER A BY v > {low} AND k != {key};\n"
            "C = FOREACH B GENERATE k, v * {scale} AS w;\n"
            "G = GROUP C BY (k, w);\n"
            "D = FOREACH G GENERATE group, COUNT(C);\n"
            "STORE D INTO '{dst}';\n"
        )

        def codes(**values):
            graph = compile_plan(parse_script(template.format(**values)))
            stages = []
            for job in graph.jobs:
                stages += [branch.run for branch in job.branches]  # one each (§24)
                stages += [stage.run for stage in job.reduce_pipeline]
            return [getattr(stage, "__code__", stage) for stage in stages if stage]

        one = codes(src="in", low=1, key=2, scale=3, dst="out")
        other = codes(src="x/y", low=9.5, key="'k'", scale=0, dst="z")
        assert one and len(one) == len(other)
        assert all(a is b for a, b in zip(one, other))

    def test_fused_branches_hold_no_script_text(self, monkeypatch):
        """A fused map branch (§24) is one source per branch: a map-only
        FILTER + FOREACH, a COUNT-only key count and a SUM shuffle, over
        fields named like the function's own words."""
        monkeypatch.setattr(ex, "CODE", {})
        plan = parse_script(FUSED_HOSTILE)
        records = records_from_rows(FUSED_ROWS)
        expected = interpret(plan, inputs={"in": records})
        controller = ClusterBFTController(SystemConfig())
        controller.load_input("in", records)
        result = controller.run_assured(FUSED_HOSTILE)
        assert result.assured
        for path in ("counts", "sums", "rows"):
            assert sorted_rows(result.outputs[path]) == sorted_rows(expected[path]), path
            assert expected[path]
        fused = [text for text in ex.CODE if text.startswith("lambda records: [")]
        assert any(" for r in (_" in text for text in fused)  # a FOREACH rebinds r
        assert "lambda records: [(r.fields[0], r.fields[1]) for r in records]" in fused
        for text in ex.CODE:
            assert_only_shape(text)
            assert "import" not in text and "Counter" not in text

    def test_plan_validation_compiles_nothing(self, monkeypatch):
        monkeypatch.setattr(ex, "CODE", {})
        plan = parse_script(HOSTILE)
        plan.validate()
        assert ex.CODE == {}


def chain(depth, op="+"):
    """A left-deep tree ``depth`` levels deep: ``a op a op ... op a``."""
    expr = ex.field("a")
    for _ in range(depth - 1):
        expr = ex.BinOp(op, expr, ex.field("a"))
    return expr


def nested(depth, wrap):
    expr = ex.field("a")
    for _ in range(depth - 1):
        expr = wrap(expr)
    return expr


SCHEMA = Schema.of(("a", INT))
#: One tree per node shape that adds brackets, each at the cap.
AT_CAP = {
    "arithmetic": chain(ex.MAX_DEPTH, "+"),
    "comparison": nested(ex.MAX_DEPTH, lambda e: ex.BinOp("<", e, ex.lit(10**6))),
    "and": nested(ex.MAX_DEPTH, lambda e: ex.and_(e, ex.lit(True))),
    "neg": nested(ex.MAX_DEPTH, lambda e: ex.UnaryOp("neg", e)),
    "call": nested(ex.MAX_DEPTH, lambda e: ex.call("ABS", e)),
    "is null": nested(ex.MAX_DEPTH, ex.IsNull),
}


class TestDepthCap:
    @pytest.mark.parametrize("name", sorted(AT_CAP))
    def test_a_tree_at_the_cap_compiles_in_every_stage(self, name):
        expr = AT_CAP[name]
        records = [Record((2,)), Record((None,))]
        expected = [reference(expr, record, SCHEMA) for record in records]
        assert [expr.bind(SCHEMA)(record) for record in records] == expected
        assert ForeachOp([Projection(expr), Projection(expr)]).bind(SCHEMA)(records) == [
            Record((value, value)) for value in expected
        ]
        kept = [record for record, value in zip(records, expected) if value]
        assert FilterOp(expr).bind(SCHEMA)(records) == kept
        assert GroupOp([expr, expr]).bind_key(0, [SCHEMA])(records[0]) == (
            expected[0], expected[0]
        )

    @pytest.mark.parametrize("name", sorted(AT_CAP))
    def test_one_level_more_is_a_plan_error(self, name):
        deeper = ex.UnaryOp("not", AT_CAP[name])
        with pytest.raises(PlanError, match="deeper than 50"):
            deeper.bind(SCHEMA)
        with pytest.raises(PlanError):
            FilterOp(deeper).derive_schema([SCHEMA])

    def test_a_long_sum_in_a_script_fails_closed(self):
        terms = " + ".join(["a"] * 1200)
        script = f"A = LOAD 'in' AS (a:int);\nB = FILTER A BY {terms} > 0;\nSTORE B INTO 'o';"
        with pytest.raises(PlanError):
            parse_script(script)
