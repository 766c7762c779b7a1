"""Clean-lineage replica sharing (DESIGN.md §16).

Honest replicas of one attempt share task *results* through an
attempt-scoped :class:`ReplicaResults` table instead of recomputing
them.  Sharing must be invisible everywhere but the host clock, so
every claim here is checked against an *unshared twin*: the same run
with the table patched to never hit — there is no product switch to
turn sharing off.
"""

import gc
import random
import weakref

import pytest

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from repro.common.records import encode_record, records_from_rows
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.core import journal as wal
from repro.core.controller import ClusterBFTController
from repro.dataflow.piglatin import parse_script
from repro.faults.behaviors import (
    CommissionBehavior,
    CrashBehavior,
    EquivocateBehavior,
    FlakyCommissionBehavior,
    SlowBehavior,
    StorageCorruptionBehavior,
)
from repro.faults.injection import FaultPlan
from repro.mapreduce import engine as engine_module
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import JobRun, MapReduceEngine, ReplicaResults
from repro.mapreduce.scheduler import NaiveScheduler
from repro.service import loop as service_loop
from repro.service.tenants import parse_trace
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS
from repro.telemetry import Telemetry
from repro.workloads import FOLLOWER_ANALYSIS, TWO_HOP_ANALYSIS, follower_edges

EDGES_PATH = "twitter/followers"
SEED = 20131209
BAD_NODE = "node_0003"


def config(**bft):
    bft = {"f": 1, "replication": 4, "verification_points": 2, **bft}
    return SystemConfig(
        cluster=ClusterConfig(num_nodes=12, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(**bft),
        seed=SEED,
    )


def edges(script):
    count = 1500 if script is FOLLOWER_ANALYSIS else 300
    return follower_edges(count, num_users=120, rng=random.Random(SEED))


def plan_for(behavior, node=BAD_NODE):
    plan = FaultPlan()
    plan.assign(node, behavior)
    return plan


def never_hit(monkeypatch):
    """Turn the next runs into the unshared twin."""
    monkeypatch.setattr(ReplicaResults, "get", lambda self, key, default=None: None)


class Spy:
    """Which task attempts were placed where, and which of them really
    ran ``execute_map_task`` / ``execute_reduce_task``."""

    def __init__(self, monkeypatch):
        #: (run, kind, index, node id, node could alter data)
        self.placed: list[tuple] = []
        self.executed: list[tuple] = []
        start = MapReduceEngine._start_task
        execute = {
            "map": engine_module.execute_map_task,
            "reduce": engine_module.execute_reduce_task,
        }

        def spy_start(engine, node, ref, backup=False):
            unsafe = node.behavior.faulty or node.behavior.corrupts_storage
            self.placed.append((ref.run, ref.kind, ref.index, node.node_id, unsafe))
            return start(engine, node, ref, backup)

        def spy_on(kind):
            def wrapper(*args):
                self.executed.append(self.placed[-1])
                assert self.placed[-1][1] == kind
                return execute[kind](*args)

            return wrapper

        monkeypatch.setattr(MapReduceEngine, "_start_task", spy_start)
        monkeypatch.setattr(engine_module, "execute_map_task", spy_on("map"))
        monkeypatch.setattr(engine_module, "execute_reduce_task", spy_on("reduce"))

    def reset(self):
        self.placed.clear()
        self.executed.clear()

    def counts(self):
        return {
            kind: sum(1 for entry in self.executed if entry[1] == kind)
            for kind in ("map", "reduce")
        }


def run_script(script, cfg, fault_plan=None, tmp_path=None, tag="", plain=False):
    """One run; with ``tmp_path``, traced to JSONL and journaled."""
    telemetry = journal = None
    records = edges(script)
    if tmp_path is not None:
        telemetry = Telemetry.streaming(str(tmp_path / f"{tag}.jsonl"))
        journal = wal.Journal.create(
            str(tmp_path / f"{tag}.wal"), cfg, script, {EDGES_PATH: records},
            block_bytes=4096,
        )
    controller = ClusterBFTController(
        cfg, fault_plan=fault_plan, block_bytes=4096,
        telemetry=telemetry, journal=journal,
    )
    controller.load_input(EDGES_PATH, records)
    result = controller.run_plain(script) if plain else controller.run_assured(script)
    if journal is not None:
        journal.close()
        telemetry.finalize()
    return controller, result


def fingerprint(controller, result):
    """Everything sharing must leave untouched."""
    dfs = controller.dfs
    return {
        "outputs": {
            path: [encode_record(r) for r in records]
            for path, records in sorted(result.outputs.items())
        },
        "latency": result.latency,
        "assured": result.assured,
        "attempts": result.attempts,
        "job_metrics": [run.metrics for run in controller.engine.runs],
        "run_metrics": result.metrics,
        "dfs_scoped": dict(dfs._scoped),
        "dfs_global": dfs.global_counters,
        "verdicts": [(o.sid, o.status, sorted(o.winners)) for o in result.outcomes],
        "audit": controller.audit.render(),
        "suspicion": {
            node: controller.resources.suspicion.level(node)
            for node in controller.cluster.node_ids()
        },
        "quarantined": sorted(
            node
            for node in controller.cluster.node_ids()
            if controller.scheduler.is_quarantined(node)
        ),
        "events": controller.loop.events_processed,
    }


class TestTwinEquality:
    @pytest.mark.parametrize("script", [FOLLOWER_ANALYSIS, TWO_HOP_ANALYSIS])
    def test_traced_journaled_run_is_byte_identical_to_unshared_twin(
        self, script, tmp_path, monkeypatch
    ):
        cfg = config(checkpoints=True, digest_chunk_records=100)
        shared = fingerprint(*run_script(script, cfg, tmp_path=tmp_path, tag="shared"))
        never_hit(monkeypatch)
        twin = fingerprint(*run_script(script, cfg, tmp_path=tmp_path, tag="twin"))
        assert shared == twin
        assert shared["assured"]
        for suffix in ("jsonl", "wal"):
            assert (tmp_path / f"shared.{suffix}").read_bytes() == (
                tmp_path / f"twin.{suffix}"
            ).read_bytes()


class TamperOnce(CommissionBehavior):
    """Tampers with the first task it runs and is honest from then on:
    the node is repaired, the replica chain it touched is not — its
    downstream runs land on honest nodes only and must still not share."""

    def corrupt_records(self, records, rng):
        if not self.faulty:
            return records
        self.faulty = False
        return super().corrupt_records(records, rng)


class TestWorkCounts:
    @pytest.mark.parametrize("script", [FOLLOWER_ANALYSIS, TWO_HOP_ANALYSIS])
    def test_honest_r4_executes_as_often_as_plain(self, script, monkeypatch):
        spy = Spy(monkeypatch)
        run_script(script, config(), plain=True)
        plain = spy.counts()
        plain_placed = len(spy.placed)
        spy.reset()
        _, result = run_script(script, config())
        assert result.assured
        assert spy.counts() == plain
        assert plain["map"] > 1 and plain["reduce"] > 1
        assert len(spy.placed) == 4 * plain_placed

    @pytest.mark.parametrize(
        "make_behavior",
        [
            lambda: CommissionBehavior(1.0),
            EquivocateBehavior,
            StorageCorruptionBehavior,
            lambda: FlakyCommissionBehavior(0.5),
            TamperOnce,
        ],
        ids=["commission", "equivocate", "storage-rot", "flaky", "tamper-once"],
    )
    def test_faulty_node_and_its_chain_execute_for_real(
        self, make_behavior, monkeypatch
    ):
        def run_faulty():
            # A fresh behaviour per run: some carry state.
            return run_script(
                TWO_HOP_ANALYSIS,
                config(quarantine_threshold=0.3),
                fault_plan=plan_for(make_behavior()),
            )

        spy = Spy(monkeypatch)
        shared = fingerprint(*run_faulty())

        # Replay the placements: a run computes for real from its first
        # task on a node that can alter data, and so does every
        # downstream run of that replica chain (TWO_HOP's jobs form a
        # chain, so downstream is "higher job index, same attempt and
        # replica") — wherever its own tasks land.
        dirtied: dict[tuple, int] = {}
        must_execute = []
        for entry in spy.placed:
            run, _, _, _, unsafe = entry
            chain = (run.scope, run.replica)
            if unsafe:
                dirtied.setdefault(chain, run.job_index)
            if run.job_index >= dirtied.get(chain, len(spy.placed)):
                must_execute.append(entry)
        assert any(
            run.job_index > dirtied[run.scope, run.replica]
            for run, *_ in must_execute
        ), "no downstream run observed"
        assert set(must_execute) <= set(spy.executed)
        # ... and the honest remainder still shares.
        assert len(spy.executed) < len(spy.placed)

        spy.reset()
        never_hit(monkeypatch)
        twin = fingerprint(*run_faulty())
        assert len(spy.executed) == len(spy.placed)
        assert shared == twin

    def test_slow_node_shares_results_but_keeps_its_durations(self, monkeypatch):
        plan = plan_for(SlowBehavior(factor=3.0))
        spy = Spy(monkeypatch)
        run_script(FOLLOWER_ANALYSIS, config(), plain=True)
        plain = spy.counts()
        spy.reset()
        controller, result = run_script(FOLLOWER_ANALYSIS, config(), fault_plan=plan)
        assert any(entry[3] == BAD_NODE for entry in spy.placed)
        assert spy.counts() == plain
        shared = fingerprint(controller, result)
        never_hit(monkeypatch)
        twin = fingerprint(*run_script(FOLLOWER_ANALYSIS, config(), fault_plan=plan))
        assert shared == twin
        honest = fingerprint(*run_script(FOLLOWER_ANALYSIS, config()))
        assert shared["job_metrics"] != honest["job_metrics"]


class TestLifetime:
    @pytest.fixture
    def tables(self, monkeypatch):
        """Weak references to every table constructed."""
        refs = []
        init = ReplicaResults.__init__

        def tracking_init(self, *args):
            init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(ReplicaResults, "__init__", tracking_init)
        return refs

    def test_table_dies_with_its_attempt(self, tables):
        plan = plan_for(CommissionBehavior(1.0))
        # The controller (and engine.runs, which keeps every JobRun) is
        # still alive here: the attempt's end alone must free the table.
        controller, result = run_script(TWO_HOP_ANALYSIS, config(), fault_plan=plan)
        gc.collect()
        assert len(tables) == result.attempts >= 1
        assert all(ref() is None for ref in tables)
        assert controller.engine.runs

    def test_plain_run_never_constructs_a_table(self, tables):
        run_script(FOLLOWER_ANALYSIS, config(), plain=True)
        controller = ClusterBFTController(config(f=0, replication=1))
        controller.load_input(EDGES_PATH, edges(FOLLOWER_ANALYSIS))
        controller.run_assured(FOLLOWER_ANALYSIS)
        assert tables == []

    def test_two_controllers_share_nothing(self, tables, monkeypatch):
        spy = Spy(monkeypatch)
        run_script(FOLLOWER_ANALYSIS, config())
        first = spy.counts()
        run_script(FOLLOWER_ANALYSIS, config())
        assert spy.counts() == {kind: 2 * n for kind, n in first.items()}
        assert len(tables) == 2

    def test_two_serve_runs_share_nothing(self, tables, monkeypatch):
        text = """{"name": "t", "seed": 7,
          "cluster": {"nodes": 8, "slots": 2, "heartbeat": 0.4},
          "bft": {"f": 1, "replication": 4},
          "tenants": [{"tenant": "a", "jobs": [
            {"at": 0.0, "workload": "groupcount", "rows": 40},
            {"at": 0.5, "workload": "select", "rows": 40}]}]}"""
        spy = Spy(monkeypatch)
        first_result = service_loop.run_trace(parse_trace(text, name="t"))
        first, first_tables = spy.counts(), len(tables)
        second_result = service_loop.run_trace(parse_trace(text, name="t"))
        assert first_result.all_assured and second_result.all_assured
        assert spy.counts() == {kind: 2 * n for kind, n in first.items()}
        assert len(tables) == 2 * first_tables > 0
        gc.collect()
        assert all(ref() is None for ref in tables)


# -- engine level: every attempt at one task lands on one entry -----------

GROUP_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
STORE C INTO 'out';
"""


class HonestCrash(CrashBehavior):
    """Crash-stops like :class:`CrashBehavior` but is declared unable to
    alter data, so its run stays on the table and the re-dispatch path
    can be observed hitting it."""

    faulty = False


def build_engine(fault_plan=None, speculative=False):
    loop = EventLoop()
    dfs = TrustedDFS(block_bytes=512)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=6,
            slots_per_node=2,
            heartbeat_period=0.5,
            crash_timeout=1.0,
            speculative_execution=speculative,
        ),
        fault_plan or FaultPlan(),
    )
    dfs.set_placement_nodes(cluster.node_ids())
    engine = MapReduceEngine(
        loop, dfs, cluster, NaiveScheduler(), CostModelConfig(), random.Random(2)
    )
    dfs.write_file("in", records_from_rows([(i % 5, i) for i in range(400)]))
    graph = compile_plan(
        parse_script(GROUP_SCRIPT),
        CompileOptions(num_reducers=2, enable_combiners=False),
    )
    run = JobRun(
        "j", "s", 0, graph.jobs[0], {"out": "r/out"}, scope="x",
        shared=ReplicaResults(),
    )
    engine.submit(run)
    return loop, engine, run


class TestRedispatchHitsTheSameEntry:
    def assert_one_execution_per_task(self, spy, run):
        tasks = [entry[1:3] for entry in spy.placed]
        assert len(tasks) > len(set(tasks)), "no task was attempted twice"
        executed = [entry[1:3] for entry in spy.executed]
        assert sorted(executed) == sorted(set(tasks))
        assert run.state == "done" and run.clean
        assert run.shared is None  # released on completion

    def test_speculative_backup(self, monkeypatch):
        spy = Spy(monkeypatch)
        plan = plan_for(SlowBehavior(factor=40.0), "node_0000")
        loop, _, run = build_engine(plan, speculative=True)
        loop.run_until(200.0)
        assert run.speculative_attempts >= 1
        self.assert_one_execution_per_task(spy, run)

    def test_crash_redispatch(self, monkeypatch):
        spy = Spy(monkeypatch)
        plan = plan_for(HonestCrash(after_tasks=1), "node_0000")
        loop, engine, run = build_engine(plan)
        loop.run_until_idle()
        assert engine._dead_nodes == {"node_0000"}
        self.assert_one_execution_per_task(spy, run)

    def test_evacuation_redispatch(self, monkeypatch):
        spy = Spy(monkeypatch)
        loop, engine, run = build_engine()
        loop.run_while(lambda: not spy.placed)
        busy = spy.placed[0][3]
        assert engine.evacuate_node(busy) >= 1
        loop.run_until_idle()
        self.assert_one_execution_per_task(spy, run)

    def test_a_cancelled_run_lets_go_of_the_table(self):
        loop, engine, run = build_engine()
        engine.cancel(run)
        assert run.shared is None
