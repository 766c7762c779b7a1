"""Heartbeat cost (DESIGN.md §18): the engine's live-run list and each
run's per-status task counts equal what a full rescan would find, after
every event of every kind of run; and a heartbeat examines the runs in
flight, not the runs ever submitted.
"""

import json
import random
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from repro.common.records import records_from_rows
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.core.controller import ClusterBFTController
from repro.dataflow.piglatin import parse_script
from repro.faults.injection import (
    FaultPlan,
    combined,
    crash_node,
    single_commission,
    single_omission,
)
from repro.mapreduce.cluster import Cluster, WorkerNode
from repro.mapreduce.engine import (
    DONE,
    OMITTED,
    PENDING,
    RUNNING,
    STATUSES,
    JobRun,
    MapReduceEngine,
    Split,
)
from repro.mapreduce.scheduler import (
    ClusterBFTScheduler,
    FairShareScheduler,
    NaiveScheduler,
)
from repro.service.loop import ClusterBFTService
from repro.service.tenants import parse_trace
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS

SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
STORE C INTO 'out';
"""

ROWS = [(i % 5, i) for i in range(400)]
KINDS = ("map", "reduce")


def states_of(run, kind):
    return run.map_states if kind == "map" else run.reduce_states


def recount(run):
    """The counts and queries as a scan of the states defines them."""
    maps = [state.status for state in run.map_states]
    reduces = [state.status for state in run.reduce_states]
    maps_finished = all(status == DONE for status in maps)
    return {
        "counts": {"map": Counter(maps), "reduce": Counter(reduces)},
        "maps_finished": maps_finished,
        "all_finished": maps_finished and all(s == DONE for s in reduces),
        "has_ready_tasks": PENDING in maps or (maps_finished and PENDING in reduces),
        "has_omitted_task": OMITTED in maps + reduces,
        "busy_tasks": sum(s in (RUNNING, OMITTED) for s in maps + reduces),
    }


def kept(run):
    return {
        "counts": {
            kind: Counter({s: n for s, n in run.task_counts[kind].items() if n})
            for kind in KINDS
        },
        "maps_finished": run.maps_finished(),
        "all_finished": run.all_finished(),
        "has_ready_tasks": run.has_ready_tasks(),
        "has_omitted_task": run.has_omitted_task(),
        "busy_tasks": run.busy_tasks(),
    }


class Invariants:
    """Checks the engine after an event; remembers what it has seen."""

    def __init__(self, engine):
        self.engine = engine
        self.statuses = set()
        self.checks = 0

    def __call__(self):
        engine = self.engine
        assert engine.live_runs == [run for run in engine.runs if run.is_active]
        for run in engine.runs:
            assert kept(run) == recount(run), run.job_id
            self.statuses.update(state.status for state in run.map_states)
            self.statuses.update(state.status for state in run.reduce_states)
        self.checks += 1

    def step_to_idle(self, loop, max_events=20_000):
        for _ in range(max_events):
            if not loop.step():
                return
            self()
        raise AssertionError("event loop did not go idle")


def build_engine(fault_plan=None, scheduler=None, rows=ROWS, **cluster):
    loop = EventLoop()
    dfs = TrustedDFS(block_bytes=512)
    config = dict(num_nodes=6, slots_per_node=2, heartbeat_period=0.5)
    config.update(cluster)
    cluster = Cluster(ClusterConfig(**config), fault_plan or FaultPlan())
    dfs.set_placement_nodes(cluster.node_ids())
    engine = MapReduceEngine(
        loop, dfs, cluster, scheduler or NaiveScheduler(), CostModelConfig(),
        random.Random(2),
    )
    dfs.write_file("in", records_from_rows(rows))
    return loop, dfs, cluster, engine


def job_spec(reducers=2):
    graph = compile_plan(
        parse_script(SCRIPT),
        CompileOptions(num_reducers=reducers, enable_combiners=False),
    )
    return graph.jobs[0]


def make_run(name="j", replica=0, total=1):
    return JobRun(
        name, "s", replica, job_spec(), {"out": f"{name}/out"}, scope=name,
        total_replicas=total,
    )


# ---------------------------------------------------------------------------
# (a) the invariant holds after every event, for every status writer
# ---------------------------------------------------------------------------


class TestInvariantUnderStepping:
    def test_clean_run_and_bounded_history(self):
        loop, dfs, cluster, engine = build_engine()
        run = make_run()
        engine.submit(run)
        check = Invariants(engine)
        check()
        assert engine.live_runs == [run]
        check.step_to_idle(loop)
        assert run.state == "done" and engine.live_runs == []
        assert engine.runs == [run]
        assert check.statuses == {PENDING, RUNNING, DONE}
        # History keeps the metrics and the output, not the task records.
        assert run.map_results == {} and run.reduce_results == {}
        assert run.metrics.map_tasks == len(run.map_states) > 1
        assert len(dfs.read("j/out")) == 5

    def test_omission_and_speculation_rescue(self):
        loop, dfs, cluster, engine = build_engine(
            single_omission("node_0000", probability=1.0),
            speculative_execution=True,
        )
        run = make_run()
        engine.submit(run)
        check = Invariants(engine)
        check.step_to_idle(loop)
        assert run.state == "done" and run.speculative_attempts >= 1
        assert OMITTED in check.statuses

    def test_crash_stop_and_timeout_redispatch(self):
        loop, dfs, cluster, engine = build_engine(
            crash_node("node_0000", after_tasks=1),
            heartbeat_period=0.3,
            crash_timeout=1.0,
        )
        run = make_run()
        engine.submit(run)
        check = Invariants(engine)
        check.step_to_idle(loop)
        assert engine._dead_nodes == {"node_0000"}
        assert run.state == "done"

    def test_evacuate_node_returns_running_tasks_to_pending(self):
        loop, dfs, cluster, engine = build_engine()
        run = make_run()
        engine.submit(run)
        check = Invariants(engine)
        while not any(state.status == RUNNING for state in run.map_states):
            assert loop.step()
            check()
        node_id = next(s.node for s in run.map_states if s.status == RUNNING)
        pending_before = run.task_counts["map"][PENDING]
        moved = engine.evacuate_node(node_id)
        check()
        assert moved >= 1
        assert run.task_counts["map"][PENDING] == pending_before + moved
        check.step_to_idle(loop)
        assert run.state == "done"

    def test_empty_input_job(self):
        loop, dfs, cluster, engine = build_engine(rows=[])
        run = make_run()
        engine.submit(run)
        check = Invariants(engine)
        check()
        # No map task, yet live from submission until the
        # startup-overhead event completes it.
        assert engine.live_runs == [run] and run.map_states == []
        check.step_to_idle(loop)
        assert run.state == "done" and engine.live_runs == []

    def test_cancel_keeps_submission_order_and_is_idempotent(self):
        loop, dfs, cluster, engine = build_engine(scheduler=ClusterBFTScheduler())
        runs = [make_run(f"j{k}", replica=k, total=3) for k in range(3)]
        for run in runs:
            engine.submit(run)
        check = Invariants(engine)
        while not any(state.status == RUNNING for state in runs[1].map_states):
            assert loop.step()
            check()
        engine.cancel(runs[1])
        check()
        assert engine.live_runs == [runs[0], runs[2]]
        assert runs[1].task_counts["map"][PENDING] == 0
        assert runs[1].map_results == {} and runs[1].reduce_results == {}
        engine.cancel(runs[1])
        check()
        check.step_to_idle(loop)
        assert [run.state for run in runs] == ["done", "running", "done"]
        engine.cancel(runs[0])  # a finished run: nothing to take out
        check()
        assert engine.runs == runs and engine.live_runs == []

    def test_rerun_after_commission_cancels_the_hung_sibling(self):
        controller = ClusterBFTController(
            SystemConfig(
                cluster=ClusterConfig(num_nodes=8, slots_per_node=2),
                bft=ClusterBFTConfig(f=1, replication=2),
            ),
            fault_plan=combined(
                single_commission("node_0001"), single_omission("node_0002")
            ),
        )
        controller.load_input("in", records_from_rows(ROWS))
        engine = controller.engine
        check = Invariants(engine)
        plain_step = controller.loop.step

        def checked_step():
            fired = plain_step()
            check()
            return fired

        controller.loop.step = checked_step
        result = controller.run_assured(SCRIPT)
        check()
        assert result.assured and result.attempts > 1
        assert any(run.cancelled for run in engine.runs)
        assert check.checks > 100 and engine.live_runs == []
        assert OMITTED in check.statuses
        assert all(
            run.map_results == {} and run.reduce_results == {} for run in engine.runs
        )


# ---------------------------------------------------------------------------
# (b) the transition method against a recount, over random interleavings
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    maps=st.integers(min_value=0, max_value=5),
    ops=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=4),
            st.sampled_from(STATUSES),
        ),
        max_size=40,
    ),
)
def test_set_status_keeps_counts_equal_to_a_recount(maps, ops):
    run = make_run()
    run.splits = [Split(0, index, 1, ()) for index in range(maps)]
    run.create_tasks()
    assert kept(run) == recount(run)
    for kind, index, status in ops:
        states = states_of(run, kind)
        if not states:
            continue
        run.set_status(states[index % len(states)], status)
        assert kept(run) == recount(run)


# ---------------------------------------------------------------------------
# (c) work ratchet: a heartbeat examines the runs in flight
# ---------------------------------------------------------------------------


def service_trace(jobs_per_tenant):
    workloads = ("select", "groupcount", "distinctcount")
    tenants = [
        {
            "tenant": name,
            "quota": {"max_concurrent": 2, "queue_limit": 4},
            "jobs": [
                {
                    "at": round(6.0 * index + 0.7 * offset, 3),
                    "workload": workloads[(index + offset) % 3],
                    "rows": 24,
                }
                for index in range(jobs_per_tenant)
            ],
        }
        for offset, name in enumerate(("alice", "bob", "carol"))
    ]
    return json.dumps(
        {
            "name": "ratchet",
            "seed": 11,
            "cluster": {"nodes": 8, "slots": 3, "heartbeat": 0.4},
            "tenants": tenants,
        }
    )


def runs_examined_per_heartbeat(monkeypatch, jobs_per_tenant):
    """Run the trace; per heartbeat, the number of distinct run objects
    whose ``is_active`` or ``has_ready_tasks`` was read, and the number
    of live runs when the beat began."""
    examined: set[int] = set()
    per_beat: list[tuple[int, int]] = []
    plain_active = JobRun.is_active.fget
    plain_ready = JobRun.has_ready_tasks
    plain_heartbeat = MapReduceEngine._heartbeat

    def is_active(run):
        examined.add(id(run))
        return plain_active(run)

    def has_ready_tasks(run):
        examined.add(id(run))
        return plain_ready(run)

    def heartbeat(engine, node_id):
        examined.clear()
        live = len(engine.live_runs)
        plain_heartbeat(engine, node_id)
        per_beat.append((len(examined), live))

    monkeypatch.setattr(JobRun, "is_active", property(is_active))
    monkeypatch.setattr(JobRun, "has_ready_tasks", has_ready_tasks)
    monkeypatch.setattr(MapReduceEngine, "_heartbeat", heartbeat)
    service = ClusterBFTService(parse_trace(service_trace(jobs_per_tenant)))
    result = service.run()
    assert len(result.runs) == 3 * jobs_per_tenant and result.all_assured
    return per_beat, len(service.controller.engine.runs)


def test_heartbeat_examines_live_runs_not_history(monkeypatch):
    per_beat, submitted = runs_examined_per_heartbeat(monkeypatch, 12)
    assert all(examined <= live for examined, live in per_beat)
    peak_live = max(live for _, live in per_beat)
    assert peak_live < submitted / 4  # the history is much longer

    with monkeypatch.context() as longer:
        per_beat_3x, submitted_3x = runs_examined_per_heartbeat(longer, 36)
    assert submitted_3x == 3 * submitted

    def mean(beats):
        return sum(examined for examined, _ in beats) / len(beats)

    # Same arrival rate for three times as long: the same work per beat.
    assert mean(per_beat_3x) <= 1.10 * mean(per_beat)


# ---------------------------------------------------------------------------
# (d) the scheduler's caches and early exits
# ---------------------------------------------------------------------------


class StubRun:
    def __init__(self, sid):
        self.sid = sid
        self.job_id = sid
        self.is_active = True
        self.nodes_used = set()


def test_tenant_of_memo_is_dropped_by_register_owner():
    sched = FairShareScheduler()
    run = StubRun("script0003.r0")
    assert sched.tenant_of(run) == ""
    assert sched.tenant_of(run) == ""  # from the memo
    sched.register_owner("script0003", "carol")
    assert sched.tenant_of(run) == "carol"
    sched.register_owner("script0003", "dave")
    assert sched.tenant_of(run) == "dave"


def test_cached_ordinals_follow_exclude_and_reinstate():
    cluster = Cluster(ClusterConfig(num_nodes=6, slots_per_node=2))
    scheduler = ClusterBFTScheduler()
    scheduler.set_cluster(cluster)
    node = cluster.node("node_0003")
    assert scheduler._partition_ordinal(node) == 3
    assert cluster.node_ids() == sorted(cluster.nodes)
    cluster.exclude("node_0001")
    assert scheduler._partition_ordinal(node) == 2
    assert list(cluster.active_ordinals()) == [
        "node_0000", "node_0002", "node_0003", "node_0004", "node_0005",
    ]
    # An excluded node falls back to the ordinal in its name.
    assert scheduler._partition_ordinal(cluster.node("node_0001")) == 1
    cluster.reinstate("node_0001")
    assert scheduler._partition_ordinal(node) == 3
    # The caller's copy is not the cluster's list.
    cluster.node_ids().clear()
    assert len(cluster.node_ids()) == 6


def test_cached_region_ordinals_follow_exclude_and_reinstate():
    cluster = Cluster(
        ClusterConfig(
            num_nodes=6, slots_per_node=2, regions=(("east", 3, 1.0), ("west", 3, 1.0))
        )
    )
    scheduler = ClusterBFTScheduler()
    scheduler.set_cluster(cluster)
    node = cluster.node("node_0005")
    assert node.region == "west"
    assert scheduler._region_ordinal(node) == 2
    cluster.exclude("node_0003")
    assert scheduler._region_ordinal(node) == 1
    assert scheduler._partition_ordinal(node) == 4
    cluster.reinstate("node_0003")
    assert scheduler._region_ordinal(node) == 2


def test_assign_on_a_full_node_still_accrues_fair_share_credit():
    sched = FairShareScheduler(inner=ClusterBFTScheduler())
    sched.register_owner("script0001", "alice")
    sched.register_owner("script0002", "bob")
    runs = [StubRun("script0001.r0"), StubRun("script0002.r0")]
    full = WorkerNode("node_0000", slots=1, running={"some-task"})
    assert full.free_slots == 0
    for beat in (1.0, 2.0, 3.0):
        assert sched.assign(full, runs) == []
        # Values pinned from the code before the early return existed.
        assert sched._deficit == {"alice": beat, "bob": beat}
    sched.max_credit = 3.5
    sched.assign(full, runs)
    assert sched._deficit == {"alice": 3.5, "bob": 3.5}


def test_slots_in_use_is_read_only_when_a_budget_exists():
    sched = FairShareScheduler(inner=ClusterBFTScheduler())
    sched.register_owner("script0001", "alice")
    sched.register_owner("script0002", "bob")
    reads = []

    class Engine:
        @property
        def live_runs(self):
            reads.append(1)
            return []

    sched.observe_engine(Engine())
    runs = [StubRun("script0001.r0"), StubRun("script0002.r0")]
    full = SimpleNamespace(node_id="node_0000", free_slots=0)
    sched.assign(full, runs)
    assert reads == []
    sched.set_slot_budget("alice", 2)
    sched.assign(full, runs)
    assert reads == [1]
