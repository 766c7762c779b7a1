"""Tests for map-side combining (algebraic partial aggregation)."""

from repro.common.records import Record, records_from_rows
from repro.compiler.combiner import AggregateSlot, CombinerSpec
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.dataflow.interpreter import interpret
from repro.dataflow.piglatin import parse_script

COUNT_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n, SUM(A.v) AS total,
    MIN(A.v) AS lo, MAX(A.v) AS hi, AVG(A.v) AS mean;
STORE C INTO 'out';
"""

FLOAT_SCRIPT = """
A = LOAD 'in' AS (k:int, v:double);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, SUM(A.v) AS total;
STORE C INTO 'out';
"""

BAG_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, A AS bag;
STORE C INTO 'out';
"""


#: A combined AVG over an int field with a null: 15.0 for key 1, not 10.0.
AVG_SCRIPT = """
t = LOAD 'in' AS (k:int, v:int);
g = GROUP t BY k;
a = FOREACH g GENERATE group AS k, AVG(t.v) AS m;
STORE a INTO 'out';
"""
AVG_ROWS = [(1, 10), (1, None), (1, 20), (2, 5)]

COUNT_ONLY_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n, COUNT(A.v) AS m;
STORE C INTO 'out';
"""


def combiner_of(script, **options) -> CombinerSpec | None:
    graph = compile_plan(parse_script(script), CompileOptions(**options))
    group_jobs = [j for j in graph.jobs if j.blocking is not None]
    return group_jobs[0].combiner


class TestEligibility:
    def test_algebraic_aggregates_combine(self):
        spec = combiner_of(COUNT_SCRIPT)
        assert spec is not None
        # COUNT counts records and the AVG's count the field's non-null
        # values, so they are two slots; SUM is shared with AVG.
        kinds = sorted(s.kind for s in spec.slots)
        assert kinds == ["count", "count", "max", "min", "sum"]
        assert len(spec.layout) == 6
        assert not spec.counts_only

    def test_float_sum_excluded(self):
        assert combiner_of(FLOAT_SCRIPT) is None

    def test_bag_projection_output_excluded(self):
        assert combiner_of(BAG_SCRIPT) is None

    def test_disabled_by_option(self):
        assert combiner_of(COUNT_SCRIPT, enable_combiners=False) is None

    def test_min_max_on_floats_allowed(self):
        script = FLOAT_SCRIPT.replace("SUM(A.v)", "MIN(A.v)")
        assert combiner_of(script) is not None

    def test_join_jobs_never_combine(self):
        script = """
        A = LOAD 'x' AS (k:int);
        B = LOAD 'y' AS (k:int);
        J = JOIN A BY k, B BY k;
        P = FOREACH J GENERATE A::k AS k;
        STORE P INTO 'out';
        """
        graph = compile_plan(parse_script(script))
        assert all(job.combiner is None for job in graph.jobs)

    def test_verify_between_group_and_foreach_blocks_combining(self):
        from repro.core.instrument import instrument

        plan = parse_script(COUNT_SCRIPT)
        group_vertex = plan.find_by_alias("G")
        instrumented = instrument(plan, [group_vertex], include_outputs=False)
        graph = compile_plan(instrumented.plan)
        group_jobs = [j for j in graph.jobs if j.blocking is not None]
        assert group_jobs[0].combiner is None


class TestSemantics:
    def test_avg_divides_by_the_non_null_count(self):
        spec = combiner_of(AVG_SCRIPT)
        assert spec.slots == (AggregateSlot("sum", 1), AggregateSlot("count", 1))
        rows = records_from_rows(AVG_ROWS)
        partials = [spec.initial_partial(rows[:2]), spec.initial_partial(rows[2:3])]
        assert spec.finalize(1, spec.merge(partials)) == Record((1, 15.0))
        expected = interpret(parse_script(AVG_SCRIPT), inputs={"in": rows})["out"]
        assert sorted(r.fields for r in expected) == [(1, 15.0), (2, 5.0)]

    def test_count_only_combiners_are_flagged(self):
        spec = combiner_of(COUNT_ONLY_SCRIPT)
        assert spec.counts_only and spec.slots == (AggregateSlot("count", None),)

    def test_partial_merge_finalize_roundtrip(self):
        spec = combiner_of(COUNT_SCRIPT)
        records = records_from_rows([(1, 5), (1, 7), (1, None)])
        p1 = spec.initial_partial(records[:2])
        p2 = spec.initial_partial(records[2:])
        merged = spec.merge([p1, p2])
        final = spec.finalize(1, merged)
        # (k, count, sum, min, max, avg) — NULLs skipped by SUM/MIN/MAX
        # but COUNT counts records (Pig's COUNT counts tuples in the bag).
        assert final[0] == 1
        assert final[2] == 12 and final[3] == 5 and final[4] == 7

    def test_all_null_column(self):
        spec = combiner_of(COUNT_SCRIPT)
        partial = spec.initial_partial(records_from_rows([(1, None)]))
        merged = spec.merge([partial])
        final = spec.finalize(1, merged)
        assert final[2] is None and final[5] is None


class TestEndToEnd:
    def run_engine(self, script, rows, enable):
        import random

        from repro.common.config import ClusterConfig, CostModelConfig
        from repro.faults.injection import FaultPlan
        from repro.mapreduce.cluster import Cluster
        from repro.mapreduce.engine import JobRun, MapReduceEngine
        from repro.mapreduce.scheduler import NaiveScheduler
        from repro.simulation.events import EventLoop
        from repro.storage.dfs import TrustedDFS

        loop = EventLoop()
        # Blocks large enough that each map sees many records per key —
        # that is where combining pays (tiny blocks barely aggregate).
        dfs = TrustedDFS(block_bytes=8192)
        cluster = Cluster(ClusterConfig(num_nodes=4, slots_per_node=3), FaultPlan())
        dfs.set_placement_nodes(cluster.node_ids())
        engine = MapReduceEngine(
            loop, dfs, cluster, NaiveScheduler(), CostModelConfig(), random.Random(0)
        )
        dfs.write_file("in", records_from_rows(rows))
        graph = compile_plan(
            parse_script(script),
            CompileOptions(num_reducers=3, enable_combiners=enable),
        )
        run = JobRun("j", "s", 0, graph.jobs[0], {"out": "r/out"}, scope="x")
        engine.submit(run)
        loop.run_until_idle()
        return dfs.read("r/out"), run

    def test_combined_output_equals_uncombined_and_reference(self):
        rows = [(i % 7, (i * 3) % 11) for i in range(300)]
        combined_out, combined_run = self.run_engine(COUNT_SCRIPT, rows, True)
        plain_out, plain_run = self.run_engine(COUNT_SCRIPT, rows, False)
        assert sorted(r.fields for r in combined_out) == sorted(
            r.fields for r in plain_out
        )
        reference = interpret(
            parse_script(COUNT_SCRIPT), inputs={"in": records_from_rows(rows)}
        )["out"]
        assert sorted(r.fields for r in combined_out) == sorted(
            r.fields for r in reference
        )

    def test_combining_shrinks_shuffle(self):
        rows = [(i % 7, i) for i in range(500)]
        _, combined_run = self.run_engine(COUNT_SCRIPT, rows, True)
        _, plain_run = self.run_engine(COUNT_SCRIPT, rows, False)
        assert combined_run.metrics.file_write < plain_run.metrics.file_write / 5

    def test_avg_with_nulls_runs_to_the_interpreters_output(self):
        from repro.common.config import SystemConfig
        from repro.core.controller import ClusterBFTController

        rows = records_from_rows(AVG_ROWS)
        expected = interpret(parse_script(AVG_SCRIPT), inputs={"in": rows})["out"]
        for run in ("run_plain", "run_assured"):
            controller = ClusterBFTController(SystemConfig())
            controller.load_input("in", rows)
            result = getattr(controller, run)(AVG_SCRIPT)
            assert result.assured == (run == "run_assured")
            assert sorted(r.fields for r in result.outputs["out"]) == sorted(
                r.fields for r in expected
            ), run

    def test_combined_replicas_still_verify(self):
        from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
        from repro.core.controller import ClusterBFTController

        config = SystemConfig(
            cluster=ClusterConfig(num_nodes=8, slots_per_node=3, heartbeat_period=0.5),
            bft=ClusterBFTConfig(f=1, replication=3, verifier_timeout=60.0),
        )
        controller = ClusterBFTController(config, block_bytes=512)
        rows = [(i % 5, i % 9) for i in range(300)]
        controller.load_input("in", records_from_rows(rows))
        result = controller.run_assured(COUNT_SCRIPT)
        assert result.assured and result.attempts == 1
