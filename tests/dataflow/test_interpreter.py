"""Tests for the local reference interpreter."""

import pytest

from repro.common.errors import PlanError
from repro.common.records import Record, records_from_rows
from repro.dataflow.interpreter import interpret
from repro.dataflow.piglatin import parse_script
from repro.storage.dfs import TrustedDFS

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""
EDGES = "A = LOAD 'in' AS (user:int, follower:int);\n"


class TestInterpret:
    def test_basic_pipeline(self):
        out = interpret(
            parse_script(SCRIPT),
            inputs={"in": records_from_rows([(1, 1), (1, None), (2, 2)])},
        )
        assert sorted(r.fields for r in out["out"]) == [(1, 1), (2, 1)]

    @pytest.mark.parametrize(
        "script, rows, expected",
        [
            (
                EDGES + "B = LOAD 'in' AS (user:int, follower:int);\n"
                "J = JOIN A BY user, B BY follower;\n"
                "P = FOREACH J GENERATE A::follower, B::user;\nSTORE P INTO 'out';",
                # A=(1,2) joins B=(2,1) on 1: emits (2, 2); A=(2,1) joins B=(1,2).
                [(1, 2), (2, 1)],
                [(2, 2), (1, 1)],
            ),
            (
                EDGES + "B = LOAD 'in' AS (user:int, follower:int);\n"
                "U = UNION A, B;\nD = DISTINCT U;\nSTORE D INTO 'out';",
                [(1, 2), (3, 4)],
                [(1, 2), (3, 4)],
            ),
            (
                EDGES + "O = ORDER A BY follower DESC;\nL = LIMIT O 2;\n"
                "STORE L INTO 'out';",
                [(1, 5), (2, 9), (3, 1)],
                [(2, 9), (1, 5)],
            ),
            (
                EDGES + "P = FOREACH A GENERATE user, 1 AS one;\nSTORE P INTO 'out';",
                [(7, 8)],
                [(7, 1)],
            ),
        ],
        ids=["join-on-two-keys", "union-distinct", "order-limit", "generate-literal"],
    )
    def test_answers(self, script, rows, expected):
        """A join on two different keys, a union then distinct, a
        descending order with a limit, a literal column: each answer in
        the interpreter's output order."""
        out = interpret(parse_script(script), inputs={"in": records_from_rows(rows)})
        assert [r.fields for r in out["out"]] == expected

    def test_missing_input_rejected(self):
        with pytest.raises(PlanError):
            interpret(parse_script(SCRIPT), inputs={})

    def test_reads_and_writes_dfs(self):
        dfs = TrustedDFS(block_bytes=128)
        dfs.write_file("in", records_from_rows([(1, 1), (2, 2)]))
        out = interpret(parse_script(SCRIPT), dfs=dfs)
        assert dfs.exists("out")
        assert sorted(r.fields for r in dfs.read("out")) == [(1, 1), (2, 1)]
        assert out["out"] == dfs.read("out")

    def test_inputs_override_dfs(self):
        dfs = TrustedDFS()
        dfs.write_file("in", records_from_rows([(9, 9)]))
        out = interpret(
            parse_script(SCRIPT),
            dfs=dfs,
            inputs={"in": records_from_rows([(1, 1)])},
        )
        assert out["out"] == [Record((1, 1))]

    def test_overwrites_existing_output(self):
        dfs = TrustedDFS()
        dfs.write_file("in", records_from_rows([(1, 1)]))
        dfs.write_file("out", records_from_rows([("stale",)]))
        interpret(parse_script(SCRIPT), dfs=dfs)
        assert dfs.read("out") == [Record((1, 1))]

    def test_multi_store_script(self):
        script = """
        A = LOAD 'in' AS (k:int, v:int);
        B = FILTER A BY v > 0;
        C = FILTER A BY v < 0;
        STORE B INTO 'pos';
        STORE C INTO 'neg';
        """
        out = interpret(
            parse_script(script),
            inputs={"in": records_from_rows([(1, 5), (2, -5)])},
        )
        assert [r.fields for r in out["pos"]] == [(1, 5)]
        assert [r.fields for r in out["neg"]] == [(2, -5)]

    def test_union_concatenates(self):
        script = """
        A = LOAD 'x' AS (k:int);
        B = LOAD 'y' AS (k:int);
        U = UNION A, B;
        STORE U INTO 'out';
        """
        out = interpret(
            parse_script(script),
            inputs={
                "x": records_from_rows([(1,)]),
                "y": records_from_rows([(2,)]),
            },
        )
        assert sorted(r.fields for r in out["out"]) == [(1,), (2,)]

    def test_blocking_output_deterministic_across_input_order(self):
        script = """
        A = LOAD 'in' AS (k:int, v:int);
        G = GROUP A BY k;
        C = FOREACH G GENERATE group AS k, SUM(A.v) AS s;
        STORE C INTO 'out';
        """
        rows = [(2, 1), (1, 5), (2, 3), (1, 2)]
        forward = interpret(parse_script(script), inputs={"in": records_from_rows(rows)})
        backward = interpret(
            parse_script(script), inputs={"in": records_from_rows(rows[::-1])}
        )
        assert forward["out"] == backward["out"]
