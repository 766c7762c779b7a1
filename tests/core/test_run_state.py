"""The run-state object (`repro.core.journal.RunState`, DESIGN.md §19).

Three things are checked here.  The run half of an ``attempt_end``
record and its inverse agree on every state, not just the ones the
recovery tests happen to crash in.  A result settled at verdict time
(staged in the attempt, merged at its boundary) leaves the run where
settling it at the boundary leaves it.  And a run without a journal
computes nothing for the journal's sake.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterBFTConfig
from repro.core import journal as wal
from repro.core.audit import COMMIT
from repro.core.controller import ClusterBFTController
from repro.core.request_handler import RequestHandler
from repro.faults.behaviors import EquivocateBehavior, SlowBehavior
from repro.faults.injection import FaultPlan

from tests.core import test_checkpoint as ckpt

#: Four jobs in a tree — 0 feeds 1 and 2, 1 feeds 3; 0 and 3 carry
#: verification points, 1 is a plain intermediate, 2 and 3 write the two
#: user-visible outputs (2 without a point of its own).
TREE = """
A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
H = GROUP C BY n;
D = FOREACH H GENERATE group AS n, COUNT(C) AS m;
I = GROUP D BY m;
E = FOREACH I GENERATE group AS m, COUNT(D) AS c;
STORE E INTO 'out';
STORE C INTO 'counts';
"""
PREPARED = RequestHandler(ClusterBFTConfig()).prepare(TREE, {"in": 1000})
JOBS = range(len(PREPARED.job_graph.jobs))

#: The tier half of the record: opaque to the run state.
TIER = {"suspicion": {}, "analyzer": {}, "evicted": [], "quarantined": []}


class Capture:
    """A journal that keeps its records."""

    def __init__(self):
        self.records = []

    def append(self, kind, **fields):
        self.records.append({"kind": kind, **fields})


def test_the_tree_is_the_tree_the_properties_assume():
    graph = PREPARED.job_graph
    assert graph.dependencies() == {0: set(), 1: {0}, 2: {0}, 3: {1}}
    assert PREPARED.jobs_with_digests() == [0, 3]
    assert [job.output_is_temp for job in graph.jobs] == [True, True, False, False]


@st.composite
def run_states(draw):
    config = ClusterBFTConfig(
        rerun_extra_replicas=draw(st.integers(0, 3)),
        verifier_timeout=1.0,
        max_verifier_timeout=draw(
            st.none() | st.floats(1.0, 1e6, allow_nan=False)
        ),
        max_reruns=draw(st.integers(0, 5)),
    )
    verified_ok = draw(st.sets(st.sampled_from(JOBS)))
    verified_jobs = draw(st.sets(st.sampled_from(sorted(verified_ok)))) if verified_ok else set()
    run = wal.RunState(
        script_id=f"script{draw(st.integers(1, 9999)):04d}",
        replication=draw(st.integers(1, 12)),
        timeout=draw(st.floats(1.0, 1e6, allow_nan=False)),
        attempts_used=draw(st.integers(0, 9)),
        verified_ok=verified_ok,
        verified_jobs=verified_jobs,
        verified_paths={
            PREPARED.job_graph.jobs[job].output_path: f"__run/v/{job}"
            for job in verified_jobs
        },
        reused=draw(st.integers(0, 40)),
    )
    return run.bind(dataclasses.replace(PREPARED, config=config), Capture())


@given(run_states(), st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_attempt_end_round_trips_the_run_state(run, attempt_index):
    run.journal_attempt_end(attempt_index, **TIER)
    (record,) = run.journal.records
    record = json.loads(json.dumps(record, sort_keys=True))
    restored = wal.RunState.replayed(
        {"script_id": run.script_id}, record, run.config
    ).bind(run.prepared, None)

    run.escalate()  # what the live run does after writing the record
    assert restored == dataclasses.replace(
        run, start_attempt=attempt_index + 1, resumed=True
    )
    assert restored.rerun_closure() == run.rerun_closure()
    assert restored.assured == run.assured
    assert restored.unsettled() == run.unsettled()
    # Escalating from the restored state goes where the live run goes.
    restored.escalate()
    run.escalate()
    assert (restored.replication, restored.timeout) == (run.replication, run.timeout)


@given(run_states())
@settings(max_examples=200, deadline=None)
def test_rerun_closure_reuses_exactly_what_is_committed(run):
    closure = run.rerun_closure()
    assert closure == [job for job in run.order if job in closure]
    # Everything verifiable and not yet VERIFIED runs again...
    assert run.verifiable - run.verified_ok <= set(closure)
    for job in closure:
        # ...with every upstream job whose output is not committed...
        assert all(
            dep in closure or dep in run.verified_jobs for dep in run.deps[job]
        )
        # ...and nothing else: each job is needed by something that is.
        assert job in run.verifiable - run.verified_ok or any(
            job in run.deps[downstream] for downstream in closure
        )
    assert run.assured == (
        {2, 3} <= run.verified_jobs and {0, 3} <= run.verified_ok
    )


def settled_run(checkpoints, plan, timeout):
    """One assured run of the checkpoint tests' two-job script; returns
    its controller, result and the state it ended in."""
    config = ckpt.make_config(checkpoints=checkpoints, timeout=timeout, points=2)
    controller = ClusterBFTController(config, fault_plan=plan, block_bytes=2048)
    controller.load_input("in", ckpt.inputs()["in"])
    run = wal.RunState.fresh("script0001", config.bft)
    result = controller._run_assured(controller.prepare(ckpt.SCRIPT), resume=run)
    return controller, result, run


@given(
    slow=st.sampled_from(["node_0002", "node_0003", "node_0009"]),
    factor=st.sampled_from([1.0, 8.0]),
    equivocator=st.none() | st.sampled_from(["node_0002", "node_0006"]),
    timeout=st.sampled_from([6.0, 60.0]),
)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_staged_and_direct_settlement_leave_the_same_run_state(
    slow, factor, equivocator, timeout
):
    def plan():
        plan = FaultPlan()
        plan.assign(slow, SlowBehavior(factor=factor))
        if equivocator not in (None, slow):
            plan.assign(equivocator, EquivocateBehavior(probability=1.0))
        return plan

    staged_ctl, staged_result, staged = settled_run(True, plan(), timeout)
    _, direct_result, direct = settled_run(False, plan(), timeout)
    assert staged == direct
    assert staged_result.latency == direct_result.latency
    eager = [
        event
        for event in staged_ctl.audit.events(kind=COMMIT)
        if event.details.get("checkpoint")
    ]
    assert staged.checkpointed == len(eager)
    assert direct.checkpointed == 0


def test_unjournaled_run_computes_no_wal_argument(monkeypatch, tmp_path):
    """``content=`` of a commit or checkpoint and ``outputs=`` of
    ``run_end`` serialise whole files: without a journal nobody asks."""
    calls = []
    real = wal.records_to_json

    def counting(records):
        calls.append(len(records))
        return real(records)

    monkeypatch.setattr(wal, "records_to_json", counting)
    for checkpoints in (False, True):
        _, result = ckpt.run_one(
            ckpt.make_config(checkpoints=checkpoints, timeout=6.0),
            fault_plan=ckpt.slow_node_plan(),
        )
        assert result.assured and result.attempts == 2
    assert calls == []
    # The same run, journaled: header inputs, two commits, the outputs.
    ckpt.run_one(
        ckpt.make_config(checkpoints=True, timeout=6.0),
        fault_plan=ckpt.slow_node_plan(),
        path=str(tmp_path / "run.wal"),
    )
    assert len(calls) == 4
