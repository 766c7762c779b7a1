"""Fair-share scheduler: deficit round-robin, budgets, shared quarantine."""

from types import SimpleNamespace

from repro.mapreduce.scheduler import (
    ClusterBFTScheduler,
    FairShareScheduler,
    TaskRef,
    TaskScheduler,
)


class StubRun:
    """Just enough of a JobRun for tenancy + slot accounting."""

    def __init__(self, sid, busy=0):
        self.sid = sid
        self.job_id = sid
        self.is_active = True
        self.busy = busy

    def busy_tasks(self):
        return self.busy


class RecordingInner(TaskScheduler):
    """Returns one task per call for the first run; records the order
    the wrapper presented the runnable runs in."""

    def __init__(self, per_call=1):
        self.calls = []
        self.per_call = per_call

    def assign(self, node, runs):
        self.calls.append([run.sid for run in runs])
        return [TaskRef(run, "map", 0) for run in runs[: self.per_call]]


NODE = SimpleNamespace(node_id="node_0000", free_slots=3)


def make(per_call=1, **kwargs):
    inner = RecordingInner(per_call)
    sched = FairShareScheduler(inner=inner, **kwargs)
    sched.register_owner("script0001", "alice")
    sched.register_owner("script0002", "bob")
    return sched, inner


def test_tenant_of_maps_sid_prefix_to_owner():
    sched, _ = make()
    assert sched.tenant_of(StubRun("script0001.r0")) == "alice"
    assert sched.tenant_of(StubRun("script0002.r1.m3")) == "bob"
    assert sched.tenant_of(StubRun("script9999")) == ""


def test_deficit_round_robin_alternates_tenants():
    sched, inner = make(per_call=1)
    runs = [StubRun("script0001.r0"), StubRun("script0002.r0")]
    # Round 1: equal credit, name tie-break — alice's runs first; the
    # one assigned task charges alice.
    sched.assign(NODE, runs)
    assert inner.calls[-1] == ["script0001.r0", "script0002.r0"]
    # Round 2: bob is now the most-credited tenant and goes first.
    sched.assign(NODE, runs)
    assert inner.calls[-1] == ["script0002.r0", "script0001.r0"]
    # Round 3: back to alice — strict alternation under equal demand.
    sched.assign(NODE, runs)
    assert inner.calls[-1] == ["script0001.r0", "script0002.r0"]


def test_single_tenant_fast_path_delegates_unchanged():
    sched, inner = make()
    runs = [StubRun("script0001.r0"), StubRun("script0001.r1")]
    sched.assign(NODE, runs)
    assert inner.calls == [["script0001.r0", "script0001.r1"]]
    # No credit bookkeeping happened: deficits untouched at zero.
    assert all(value == 0.0 for value in sched._deficit.values())


def test_slot_budget_skips_tenant_at_capacity():
    sched, inner = make()
    alice_run = StubRun("script0001.r0", busy=2)
    bob_run = StubRun("script0002.r0")
    sched.observe_engine(SimpleNamespace(live_runs=[alice_run, bob_run]))
    sched.set_slot_budget("alice", 2)
    sched.assign(NODE, [alice_run, bob_run])
    # alice is at budget (2 running slots): sits this round out.
    assert inner.calls[-1] == ["script0002.r0"]
    # Lifting the budget re-admits her next round.
    sched.set_slot_budget("alice", None)
    sched.assign(NODE, [alice_run, bob_run])
    assert "script0001.r0" in inner.calls[-1]


def test_credit_is_capped_for_idle_tenants():
    sched, _ = make(per_call=0, quantum=1.0, max_credit=3.0)
    runs = [StubRun("script0001.r0"), StubRun("script0002.r0")]
    for _ in range(10):
        sched.assign(NODE, runs)
    assert all(value <= 3.0 for value in sched._deficit.values())


def test_quarantine_is_shared_with_inner_scheduler():
    inner = ClusterBFTScheduler()
    sched = FairShareScheduler(inner=inner)
    sched.quarantine("node_0005")
    assert inner.is_quarantined("node_0005")
    assert sched.is_quarantined("node_0005")
    assert sched.quarantined is inner.quarantined
    sched.release("node_0005")
    assert not inner.is_quarantined("node_0005")
