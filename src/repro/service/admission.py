"""Admission control: per-tenant quotas, fail-closed.

The service's first line of defence against a misbehaving (or merely
greedy) tenant is refusing work *before* it touches the cluster:

* ``max_concurrent`` caps a tenant's simultaneously active runs;
* a bounded FIFO queue (``queue_limit``) absorbs short bursts;
* anything beyond the queue — or from an unknown tenant, or under a
  zero quota — is **rejected**, never silently queued (fail-closed:
  when the configuration cannot be honored, the safe answer is no).

The controller here is pure bookkeeping — no clock, no randomness, no
I/O — so admission decisions are trivially deterministic and unit-
testable; the service loop owns recording decisions to the audit log
and ledger.
"""

from __future__ import annotations

from collections import deque

from repro.service.tenants import JobRequest, TenantQuota

#: Decision verdicts ``decide`` can return.
ADMIT = "admit"
QUEUE = "queue"
REJECT_UNKNOWN_TENANT = "reject-unknown-tenant"
REJECT_ZERO_QUOTA = "reject-zero-quota"
REJECT_QUEUE_FULL = "reject-queue-full"

REJECTS = (REJECT_UNKNOWN_TENANT, REJECT_ZERO_QUOTA, REJECT_QUEUE_FULL)


class AdmissionController:
    """Quota state machine for one service instance."""

    def __init__(self, quotas: dict[str, TenantQuota]) -> None:
        self.quotas = dict(quotas)
        self._active: dict[str, int] = {name: 0 for name in quotas}
        self._queues: dict[str, deque[JobRequest]] = {
            name: deque() for name in quotas
        }

    # -- queries --------------------------------------------------------

    def active(self, tenant: str) -> int:
        return self._active.get(tenant, 0)

    def queue_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    # -- decisions ------------------------------------------------------

    def decide(self, request: JobRequest) -> str:
        """Classify an arrival.  Pure — mutate via ``note_*``/``enqueue``."""
        quota = self.quotas.get(request.tenant)
        if quota is None:
            return REJECT_UNKNOWN_TENANT
        if quota.max_concurrent <= 0:
            return REJECT_ZERO_QUOTA
        if self._active[request.tenant] < quota.max_concurrent:
            return ADMIT
        if len(self._queues[request.tenant]) < quota.queue_limit:
            return QUEUE
        return REJECT_QUEUE_FULL

    def note_admitted(self, tenant: str) -> None:
        self._active[tenant] = self._active.get(tenant, 0) + 1

    def note_finished(self, tenant: str) -> None:
        self._active[tenant] = max(self._active.get(tenant, 0) - 1, 0)

    def enqueue(self, request: JobRequest) -> None:
        self._queues[request.tenant].append(request)

    def pop_runnable(self, tenant: str) -> JobRequest | None:
        """Next queued request iff the tenant has concurrency headroom
        (FIFO; the caller must ``note_admitted`` when it starts it)."""
        quota = self.quotas.get(tenant)
        queue = self._queues.get(tenant)
        if quota is None or not queue:
            return None
        if self._active[tenant] >= quota.max_concurrent:
            return None
        return queue.popleft()
