"""Audit log for the trusted tier.

The paper motivates BFT in the cloud partly by *attribution*: "it is
also necessary to keep track of where such accesses were attempted, as
these may hint to exploited leaks and intruders" (§3.1).  The audit log
is the queryable record backing that: every verification verdict, fault
attribution, suspicion change and eviction lands here with its
simulated timestamp.

Entries always append to the log directly.  With telemetry enabled,
:meth:`AuditLog.record` also emits the entry as an ``audit.<kind>``
event, so the trace holds the same facts in the same order as every
other record of the run.

Attribution is stamped here, where entries are made: while the service
tier steps one tenant's run, :attr:`AuditLog.context` holds
``{"tenant": ...}`` and every entry recorded meanwhile carries it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.telemetry.spans import NULL_TRACER

SUBMIT = "submit"
VERDICT = "verdict"
FAULT = "fault"
EVICTION = "eviction"
QUARANTINE = "quarantine"
#: Online reconfiguration: replica sets migrated out of a region whose
#: aggregate suspicion crossed the threshold.
RECONFIG = "reconfig"
RERUN = "rerun"
COMMIT = "commit"
EXHAUSTED = "exhausted"
#: Rerun escalation wanted to double the verifier timeout past the
#: configured ``max_verifier_timeout`` ceiling — the clamp is audited
#: because a capped escalation that still cannot verify is a liveness
#: signal, not silent tuning.
TIMEOUT_CAP = "timeout_cap"
#: Crash damage observed while reopening a journal/ledger: the byte
#: count of the torn tail the reopen truncated.  Dropped data is
#: evidence of *when* the control tier died — it must land in the
#: audit record, not vanish silently.
TORN_TAIL = "torn_tail"
#: Service-tier admission decisions (multi-tenant control plane).
ADMIT = "admit"
REJECT = "reject"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"

_AUDIT_PREFIX = "audit."


@dataclass(frozen=True)
class AuditEvent:
    time: float
    kind: str
    subject: str  # sid / node id / script id
    details: dict = field(default_factory=dict)

    def render(self) -> str:
        detail_text = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:10.3f}] {self.kind:<9} {self.subject} {detail_text}"


class AuditLog:
    """Append-only event log with simple queries.

    ``tracer``: when given (and enabled), every entry is also emitted as
    an ``audit.<kind>`` trace event with the entry's time, subject and
    details.
    """

    def __init__(self, tracer=None) -> None:
        self._events: list[AuditEvent] = []
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Merged last into every entry's details.  ``RunDriver.advance``
        #: sets it to ``{"tenant": ...}`` for one step of a tenant's run
        #: and clears it after, so a shared-state change names the
        #: tenant whose run caused it.  Empty outside the service tier.
        self.context: dict[str, object] = {}

    def record(self, time: float, kind: str, subject: str, **details) -> AuditEvent:
        if self.context:
            details.update(self.context)
        event = AuditEvent(time=time, kind=kind, subject=subject, details=details)
        self._events.append(event)
        if self._tracer.enabled:
            self._tracer.event(
                _AUDIT_PREFIX + kind, time=time, subject=subject, **details
            )
        return event

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        kind: str | None = None,
        subject: str | None = None,
        since: float | None = None,
    ) -> list[AuditEvent]:
        out: Iterable[AuditEvent] = self._events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if subject is not None:
            out = (e for e in out if e.subject == subject)
        if since is not None:
            out = (e for e in out if e.time >= since)
        return list(out)

    def node_history(self, node_id: str) -> list[AuditEvent]:
        """Everything attributing behaviour to one node."""
        return [
            event
            for event in self._events
            if event.subject == node_id
            or node_id in event.details.get("nodes", ())
        ]

    def render(self, limit: int = 0) -> str:
        events = self._events[-limit:] if limit else self._events
        return "\n".join(event.render() for event in events)
