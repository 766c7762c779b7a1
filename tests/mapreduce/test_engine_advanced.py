"""Advanced engine behaviours: locality, sequential scripts, heartbeat
lifecycle."""

import random

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import compile_plan
from repro.dataflow.piglatin import parse_script
from repro.faults.injection import FaultPlan
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import JobRun, MapReduceEngine
from repro.mapreduce.scheduler import NaiveScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS

MAP_ONLY = (
    "A = LOAD 'in' AS (k:int, v:int);\nB = FILTER A BY v >= 0;\nSTORE B INTO 'out';"
)


def build(nodes=6, slots=2):
    loop = EventLoop()
    dfs = TrustedDFS(block_bytes=512)
    cluster = Cluster(
        ClusterConfig(num_nodes=nodes, slots_per_node=slots, heartbeat_period=0.5),
        FaultPlan(),
    )
    dfs.set_placement_nodes(cluster.node_ids())
    engine = MapReduceEngine(
        loop, dfs, cluster, NaiveScheduler(), CostModelConfig(), random.Random(1)
    )
    return loop, dfs, cluster, engine


class TestLocality:
    def test_map_tasks_prefer_block_holders(self):
        loop, dfs, cluster, engine = build(nodes=6, slots=3)
        dfs.write_file("in", records_from_rows([(i, i) for i in range(400)]))
        graph = compile_plan(parse_script(MAP_ONLY))
        spec = graph.jobs[0]
        run = JobRun("j0", "s0", 0, spec, {"out": "r/out"}, scope="s")
        engine.submit(run)
        loop.run_until_idle()
        # Check each executed map landed on a block replica holder when
        # the scheduler had the choice (free cluster, staggered starts).
        local = 0
        for index, state in enumerate(run.map_states):
            if state.node in run.splits[index].locations:
                local += 1
        assert local >= len(run.map_states) // 2

    def test_ready_map_tasks_split_by_locality(self):
        loop, dfs, cluster, engine = build()
        dfs.write_file("in", records_from_rows([(i, i) for i in range(400)]))
        graph = compile_plan(parse_script(MAP_ONLY))
        run = JobRun("j0", "s0", 0, graph.jobs[0], {"out": "r/out"}, scope="s")
        engine._compute_splits(run)
        holder = run.splits[0].locations[0]
        local, remote = run.ready_map_tasks(holder)
        assert 0 in local or 0 in remote
        assert local, "block holder should see local work"


class TestLifecycle:
    def test_heartbeats_stop_when_idle_and_restart(self):
        loop, dfs, cluster, engine = build()
        dfs.write_file("in", records_from_rows([(1, 1)]))
        graph = compile_plan(parse_script(MAP_ONLY))
        run1 = JobRun("j1", "s1", 0, graph.jobs[0], {"out": "a/out"}, scope="s")
        engine.submit(run1)
        loop.run_until_idle()  # terminates => heartbeats stopped
        assert run1.state == "done"
        run2 = JobRun("j2", "s2", 0, graph.jobs[0], {"out": "b/out"}, scope="s")
        engine.submit(run2)
        loop.run_until_idle()
        assert run2.state == "done"

    def test_sequential_runs_isolated_by_path_map(self):
        loop, dfs, cluster, engine = build()
        dfs.write_file("in", records_from_rows([(i, i) for i in range(50)]))
        graph = compile_plan(parse_script(MAP_ONLY))
        for tag in ("x", "y"):
            run = JobRun(
                f"j{tag}", f"s{tag}", 0, graph.jobs[0], {"out": f"{tag}/out"},
                scope=tag,
            )
            engine.submit(run)
        loop.run_until_idle()
        assert dfs.read("x/out") == dfs.read("y/out")

    def test_scoped_dfs_accounting_per_run(self):
        loop, dfs, cluster, engine = build()
        dfs.write_file("in", records_from_rows([(i, i) for i in range(50)]))
        graph = compile_plan(parse_script(MAP_ONLY))
        run = JobRun("j", "s", 0, graph.jobs[0], {"out": "r/out"}, scope="scopeA")
        engine.submit(run)
        loop.run_until_idle()
        counters = dfs.counters_for("scopeA")
        assert counters.bytes_read > 0
        assert counters.bytes_written > 0
