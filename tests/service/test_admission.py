"""Admission control: quotas, bounded queues, fail-closed rejection."""

from repro.service.admission import (
    ADMIT,
    QUEUE,
    REJECT_QUEUE_FULL,
    REJECT_UNKNOWN_TENANT,
    REJECT_ZERO_QUOTA,
    AdmissionController,
)
from repro.service.tenants import JobRequest, TenantQuota


def req(tenant, index=0, at=0.0):
    return JobRequest(
        tenant=tenant, index=index, at=at, workload="select", rows=10
    )


def make(quota=None):
    return AdmissionController(
        {"alice": quota or TenantQuota(max_concurrent=2, queue_limit=2)}
    )


def test_admit_until_quota_then_queue_then_reject():
    ctl = make()
    assert ctl.decide(req("alice")) == ADMIT
    ctl.note_admitted("alice")
    assert ctl.decide(req("alice", 1)) == ADMIT
    ctl.note_admitted("alice")
    assert ctl.decide(req("alice", 2)) == QUEUE
    ctl.enqueue(req("alice", 2))
    assert ctl.decide(req("alice", 3)) == QUEUE
    ctl.enqueue(req("alice", 3))
    assert ctl.decide(req("alice", 4)) == REJECT_QUEUE_FULL
    assert ctl.queue_depth("alice") == 2


def test_unknown_tenant_rejected():
    assert make().decide(req("mallory")) == REJECT_UNKNOWN_TENANT


def test_zero_quota_rejected_fail_closed():
    ctl = make(TenantQuota(max_concurrent=0, queue_limit=5))
    # Even with queue room, a zero quota admits nothing, ever.
    assert ctl.decide(req("alice")) == REJECT_ZERO_QUOTA


def test_pop_runnable_is_fifo_and_respects_headroom():
    ctl = make(TenantQuota(max_concurrent=1, queue_limit=3))
    ctl.note_admitted("alice")
    ctl.enqueue(req("alice", 1))
    ctl.enqueue(req("alice", 2))
    # Still at max concurrency: nothing runnable.
    assert ctl.pop_runnable("alice") is None
    ctl.note_finished("alice")
    first = ctl.pop_runnable("alice")
    assert first is not None and first.index == 1
    ctl.note_admitted("alice")
    # Headroom consumed again.
    assert ctl.pop_runnable("alice") is None
    assert ctl.queue_depth("alice") == 1


def test_pop_runnable_unknown_tenant():
    assert make().pop_runnable("mallory") is None


def test_finish_never_goes_negative():
    ctl = make()
    ctl.note_finished("alice")
    assert ctl.active("alice") == 0
