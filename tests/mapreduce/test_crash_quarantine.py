"""Crash-stop detection and quarantine: the graceful-degradation tier.

Crash detection piggybacks on heartbeats: a node whose behaviour says
``is_crashed()`` stops beating, the engine notices the silence after
``crash_timeout`` and re-dispatches the tasks that died with it.
Quarantine is the softer tier below eviction: a quarantined node keeps
its membership but receives no new tasks.
"""

import random

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.dataflow.interpreter import interpret
from repro.dataflow.piglatin import parse_script
from repro.faults.injection import FaultPlan, crash_node
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import JobRun, MapReduceEngine
from repro.mapreduce.scheduler import ClusterBFTScheduler, NaiveScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS
from repro.telemetry import Telemetry

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 5, i) for i in range(100)]


def build_engine(
    fault_plan=None,
    nodes=6,
    scheduler=None,
    heartbeat=0.3,
    crash_timeout=1.0,
    telemetry=None,
):
    loop = EventLoop()
    dfs = TrustedDFS(block_bytes=512)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=nodes,
            slots_per_node=2,
            heartbeat_period=heartbeat,
            crash_timeout=crash_timeout,
        ),
        fault_plan or FaultPlan(),
    )
    dfs.set_placement_nodes(cluster.node_ids())
    engine = MapReduceEngine(
        loop,
        dfs,
        cluster,
        scheduler or NaiveScheduler(),
        CostModelConfig(),
        random.Random(7),
        telemetry=telemetry,
    )
    return loop, dfs, cluster, engine


def submit_job(engine, dfs, prefix="r0/"):
    dfs.write_file("in", records_from_rows(ROWS))
    plan = parse_script(SCRIPT)
    graph = compile_plan(plan, CompileOptions(num_reducers=3))
    spec = graph.jobs[0]
    run = JobRun(
        job_id="j0-r0",
        sid="sid0",
        replica=0,
        spec=spec,
        path_map={"out": f"{prefix}out"},
        scope="r0",
        total_replicas=1,
    )
    engine.submit(run)
    return plan, run


class TestCrashDetection:
    def test_crashed_node_detected_and_tasks_redispatched(self):
        loop = None
        telemetry = Telemetry.recording()
        loop, dfs, cluster, engine = build_engine(
            fault_plan=crash_node("node_0000", after_tasks=1),
            telemetry=telemetry,
        )
        telemetry.bind_clock(lambda: loop.now)
        plan, run = submit_job(engine, dfs)
        loop.run_until_idle()

        # The run survives the crash and its output is still correct.
        assert run.state == "done"
        expected = interpret(
            plan.clone(), inputs={"in": records_from_rows(ROWS)}
        )["out"]
        assert sorted(r.fields for r in dfs.read("r0/out")) == sorted(
            r.fields for r in expected
        )
        # Heartbeat silence was noticed and attributed.
        assert engine._dead_nodes == {"node_0000"}
        assert cluster.node("node_0000").excluded
        assert not cluster.node("node_0000").alive
        assert telemetry.metrics.counter_value("nodes_crash_detected") == 1
        assert (
            telemetry.metrics.counter_value("tasks_redispatched", reason="crash")
            >= 1
        )
        events = [
            r
            for r in telemetry.export_records()
            if r.get("name") == "node.crash_detected"
        ]
        assert events and events[0]["attrs"]["node"] == "node_0000"

    def test_crash_free_run_detects_nothing(self):
        loop, dfs, cluster, engine = build_engine()
        _, run = submit_job(engine, dfs)
        loop.run_until_idle()
        assert run.state == "done"
        assert engine._dead_nodes == set()

    def test_crash_timeout_zero_disables_detection(self):
        loop, dfs, cluster, engine = build_engine(crash_timeout=0.0)
        # A node silent for arbitrarily long is never declared dead.
        engine._last_heartbeat["node_0000"] = -1e9
        engine._detect_crashes()
        assert engine._dead_nodes == set()

    def test_in_flight_tasks_reassigned_to_live_nodes(self):
        """Every task the dead node held must be finished elsewhere."""
        loop, dfs, cluster, engine = build_engine(
            fault_plan=crash_node("node_0000", after_tasks=1)
        )
        _, run = submit_job(engine, dfs)
        loop.run_until_idle()
        assert run.state == "done"
        assert not cluster.node("node_0000").running


class TestQuarantine:
    def test_quarantined_node_receives_zero_tasks(self):
        scheduler = NaiveScheduler()
        loop, dfs, cluster, engine = build_engine(scheduler=scheduler)
        scheduler.quarantine("node_0001")
        _, run = submit_job(engine, dfs)
        loop.run_until_idle()
        assert run.state == "done"
        assert "node_0001" not in run.nodes_used
        assert run.nodes_used  # the other nodes did the work

    def test_quarantine_applies_to_bft_scheduler(self):
        scheduler = ClusterBFTScheduler()
        loop, dfs, cluster, engine = build_engine(scheduler=scheduler)
        scheduler.quarantine("node_0002")
        _, run = submit_job(engine, dfs)
        loop.run_until_idle()
        assert run.state == "done"
        assert "node_0002" not in run.nodes_used

    def test_quarantine_is_queryable(self):
        scheduler = NaiveScheduler()
        assert not scheduler.is_quarantined("n1")
        scheduler.quarantine("n1")
        assert scheduler.is_quarantined("n1")
