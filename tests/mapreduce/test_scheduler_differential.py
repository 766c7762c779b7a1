"""Differential test of task selection (DESIGN.md §18).

``ClusterBFTScheduler.assign`` judges each run's eligibility once per
call and picks a task in one scan; ``NaiveScheduler.assign`` does the
same without the overlap preference.  The two-pass ``_first_task``
selection they replaced is kept below as the reference.  On generated
clusters and run lists — pins, quarantines, exclusions, regions,
straggler profiles, full and empty nodes, runs that are done, cancelled
or have nothing ready — every scheduler returns the
same ``TaskRef`` sequence as its reference, and leaves the same pins,
task states and fair-share credit behind.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig
from repro.compiler.mr_compiler import CompileOptions, compile_plan
from repro.dataflow.piglatin import parse_script
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import DONE, PENDING, RUNNING, JobRun, Split
from repro.mapreduce.scheduler import (
    ClusterBFTScheduler,
    FairShareScheduler,
    NaiveScheduler,
    TaskRef,
)

GROUP_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
STORE C INTO 'out';
"""
FILTER_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY k > 1;
STORE B INTO 'out';
"""


def compiled(script, reducers):
    graph = compile_plan(
        parse_script(script),
        CompileOptions(num_reducers=reducers, enable_combiners=False),
    )
    return graph.jobs[0]


SPECS = (
    compiled(FILTER_SCRIPT, 1),  # map-only
    compiled(GROUP_SCRIPT, 1),
    compiled(GROUP_SCRIPT, 2),
)


# ---------------------------------------------------------------------------
# the reference: the selection the one-scan assign replaced
# ---------------------------------------------------------------------------


def first_task(node, runs, run_filter):
    """First ready task over runs in submission order; map tasks prefer
    blocks with a replica on this node (data locality)."""
    for run in runs:
        if not run_filter(run) or not run.is_active:
            continue
        local, remote = run.ready_map_tasks(node.node_id)
        if local:
            return TaskRef(run, "map", local[0])
        if remote:
            return TaskRef(run, "map", remote[0])
        reduces = run.ready_reduce_tasks()
        if reduces:
            return TaskRef(run, "reduce", reduces[0])
    return None


class ReferenceNaive(NaiveScheduler):
    def assign(self, node, runs):
        assignments = []
        free = node.free_slots
        while free > 0:
            ref = first_task(node, runs, lambda run: self.eligible(node, run))
            if ref is None:
                break
            assignments.append(ref)
            ref.run.mark_scheduled(ref.kind, ref.index, node.node_id)
            free -= 1
        self.record_assignments(node, assignments)
        return assignments


class ReferenceClusterBFT(ClusterBFTScheduler):
    def assign(self, node, runs):
        assignments = []
        free = node.free_slots
        if free <= 0:
            return assignments
        jobs_on_node = {
            run.job_id for run in runs if node.node_id in run.nodes_used
        }
        while free > 0:
            ref = first_task(
                node,
                runs,
                lambda run: self.eligible(node, run)
                and run.job_id not in jobs_on_node,
            )
            if ref is None:
                ref = first_task(node, runs, lambda run: self.eligible(node, run))
            if ref is None:
                break
            self.note_assignment(node, ref)
            jobs_on_node.add(ref.run.job_id)
            assignments.append(ref)
            ref.run.mark_scheduled(ref.kind, ref.index, node.node_id)
            free -= 1
        self.record_assignments(node, assignments)
        return assignments


PAIRS = {
    "naive": (NaiveScheduler, ReferenceNaive),
    "clusterbft": (ClusterBFTScheduler, ReferenceClusterBFT),
    "fairshare": (
        lambda: FairShareScheduler(inner=ClusterBFTScheduler()),
        lambda: FairShareScheduler(inner=ReferenceClusterBFT()),
    ),
}


# ---------------------------------------------------------------------------
# generated worlds
# ---------------------------------------------------------------------------

STATUS = st.sampled_from((PENDING, PENDING, RUNNING, DONE))


@st.composite
def worlds(draw):
    """A cluster, its runs and a sequence of heartbeats.

    Every world has an anchor, so that placing beats and deciding pins
    are common on every seed: its first beat lands on a node in
    service with every slot free, and its first run is active, has a
    pending map task, may run on that node, and is pinned there (the
    pin names the run's own replica).  Everything else is drawn freely,
    so most later beats still place nothing.
    """
    nodes = draw(st.integers(min_value=1, max_value=7))
    node_ix = st.integers(min_value=0, max_value=nodes - 1)
    node_set = st.frozensets(node_ix, max_size=nodes)
    regions = ()
    if nodes >= 2 and draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=nodes - 1))
        regions = (("east", cut, 1.0), ("west", nodes - cut, 1.0))
    sid_totals = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
    )
    sid_ix = st.integers(min_value=0, max_value=len(sid_totals) - 1)
    slots = draw(st.integers(min_value=1, max_value=3))
    # At least one node stays out of quarantine: the anchor's.
    quarantined = draw(st.frozensets(node_ix, max_size=nodes - 1))
    anchor = draw(st.sampled_from([i for i in range(nodes) if i not in quarantined]))

    @st.composite
    def runs(draw):
        sid = draw(sid_ix)
        return {
            "sid": sid,
            "replica": draw(st.integers(0, sid_totals[sid] - 1)),
            "spec": draw(st.integers(0, len(SPECS) - 1)),
            # Some runs share a job id, as the overlap preference keys on it.
            "job": draw(st.integers(0, 5)),
            "maps": draw(st.lists(st.tuples(STATUS, node_set), max_size=4)),
            "reduces": draw(st.lists(STATUS, max_size=2)),
            "used": draw(node_set),
            "life": draw(st.sampled_from(("active",) * 4 + ("done", "cancelled"))),
        }

    drawn_runs = draw(st.lists(runs(), min_size=1, max_size=8))
    first = drawn_runs[0]
    first["life"] = "active"
    first["maps"] = [(PENDING, draw(node_set)), *first["maps"][1:]]
    # The anchor's pin comes last: a later pin on its key would win.
    pins = draw(
        st.lists(st.tuples(node_ix, sid_ix, st.integers(0, 3)), max_size=3)
    ) + [(anchor, first["sid"], first["replica"])]
    # (node, busy slots, pass only ready runs as the engine does)
    beats = [(anchor, 0, False)] + draw(
        st.lists(
            st.tuples(node_ix, st.integers(0, slots), st.booleans()),
            max_size=7,
        )
    )
    return {
        "nodes": nodes,
        "slots": slots,
        "regions": regions,
        "sid_totals": sid_totals,
        "excluded": draw(node_set),
        "quarantined": quarantined,
        "stragglers": draw(st.none() | node_set),
        "pins": pins,
        "budget": draw(st.none() | st.integers(min_value=0, max_value=3)),
        "runs": drawn_runs,
        "beats": beats,
    }


def node_id(index):
    return f"node_{index:04d}"


def build(world, make_scheduler):
    cluster = Cluster(
        ClusterConfig(
            num_nodes=world["nodes"],
            slots_per_node=world["slots"],
            regions=world["regions"],
        )
    )
    for index in sorted(world["excluded"]):
        cluster.exclude(node_id(index))
    scheduler = make_scheduler()
    placement = hasattr(scheduler, "set_cluster")  # not the naive one
    if placement:
        scheduler.set_cluster(cluster)
    if placement and world["stragglers"] is not None:
        stragglers = tuple(map(node_id, sorted(world["stragglers"])))
        scheduler.set_straggler_profile(SimpleNamespace(stragglers=stragglers))
    for index in sorted(world["quarantined"]):
        scheduler.quarantine(node_id(index))
    inner = getattr(scheduler, "inner", scheduler)
    for index, sid, replica in world["pins"]:
        if hasattr(inner, "_pins"):
            inner._pins[(node_id(index), f"script{sid}.s")] = replica

    runs = []
    for position, spec in enumerate(world["runs"]):
        sid = f"script{spec['sid']}.s"
        run = JobRun(
            f"{sid}.j{spec['job']}",
            sid,
            spec["replica"],
            SPECS[spec["spec"]],
            {},
            scope=f"run{position}",
            total_replicas=spec.get("total", world["sid_totals"][spec["sid"]]),
        )
        run.splits = [
            Split(0, index, 1, tuple(map(node_id, sorted(locations))))
            for index, (_, locations) in enumerate(spec["maps"])
        ]
        run.create_tasks()
        for state, (status, _) in zip(run.map_states, spec["maps"]):
            run.set_status(state, status)
        for state, status in zip(run.reduce_states, spec["reduces"]):
            run.set_status(state, status)
        run.nodes_used = set(map(node_id, spec["used"]))
        run.state = DONE if spec["life"] == "done" else RUNNING
        run.cancelled = spec["life"] == "cancelled"
        runs.append(run)

    if isinstance(scheduler, FairShareScheduler):
        # script2's runs, when drawn, have no owner: tenant "".
        scheduler.register_owner("script0", "tenant0")
        scheduler.register_owner("script1", "tenant1")
        scheduler.observe_engine(
            SimpleNamespace(live_runs=[run for run in runs if run.is_active])
        )
        scheduler.set_slot_budget("tenant0", world["budget"])
    return cluster, scheduler, runs


def replay(world, make_scheduler):
    """Every beat's assignments as (run position, kind, index), and the
    state the beats leave behind."""
    cluster, scheduler, runs = build(world, make_scheduler)
    position = {id(run): index for index, run in enumerate(runs)}
    beats = []
    for index, busy, ready_only in world["beats"]:
        node = cluster.node(node_id(index))
        node.running = {f"busy{slot}" for slot in range(busy)}
        offered = [run for run in runs if run.ready] if ready_only else runs
        beats.append(
            [
                (position[id(ref.run)], ref.kind, ref.index)
                for ref in scheduler.assign(node, offered)
            ]
        )
    inner = getattr(scheduler, "inner", scheduler)
    return {
        "beats": beats,
        "pins": dict(getattr(inner, "_pins", {})),
        "deficit": dict(getattr(scheduler, "_deficit", {})),
        "tasks": [
            [(state.status, state.node) for state in states]
            for run in runs
            for states in (run.map_states, run.reduce_states)
        ],
        "ready": [run.ready for run in runs],
        "nodes_used": [sorted(run.nodes_used) for run in runs],
    }


def sid0_run(replica, job, total):
    return {
        "sid": 0, "replica": replica, "spec": 0, "job": job, "total": total,
        "maps": [(PENDING, frozenset())], "reduces": [],
        "used": frozenset(), "life": "active",
    }


#: A pin written mid-call both excludes and admits.  Runs of one sid
#: with different replication degrees split node_0003 (ordinal 3)
#: differently: 3 % 2 admits replica 1 of degree 2, 3 % 3 admits
#: replica 0 of degree 3.  Placing the first pins the node to replica
#: 1: the replica-0 run must drop out (anti-collocation) and the
#: partition-excluded replica-1 run of degree 3 must come in.
PIN_MID_CALL = {
    "nodes": 4, "slots": 3, "regions": (), "sid_totals": [2],
    "excluded": frozenset(), "quarantined": frozenset(), "stragglers": None,
    "pins": [], "budget": None,
    "runs": [sid0_run(1, 0, 2), sid0_run(0, 1, 3), sid0_run(1, 2, 3)],
    "beats": [(3, 0, False)],
}


@settings(max_examples=100, deadline=None)
@given(world=worlds(), name=st.sampled_from(sorted(PAIRS)))
@example(world=PIN_MID_CALL, name="clusterbft")
@example(world=PIN_MID_CALL, name="fairshare")
def test_one_scan_selection_matches_the_two_pass_reference(world, name):
    make, make_reference = PAIRS[name]
    assert replay(world, make) == replay(world, make_reference)


def test_generated_worlds_reach_assignments():
    """The generator is not vacuous: it reaches beats that place tasks,
    beats that place none, and pins that decide eligibility."""
    seen = {"placed": 0, "empty": 0, "pinned": 0}

    @settings(max_examples=40, deadline=None, database=None)
    @given(world=worlds())
    def probe(world):
        outcome = replay(world, ClusterBFTScheduler)
        for beat in outcome["beats"]:
            seen["placed" if beat else "empty"] += 1
        seen["pinned"] += bool(world["pins"]) and bool(world["runs"])

    probe()
    assert all(count > 0 for count in seen.values()), seen


def test_the_pin_example_places_the_admitted_run():
    assert replay(PIN_MID_CALL, ClusterBFTScheduler)["beats"] == [
        [(0, "map", 0), (2, "map", 0)]
    ]
