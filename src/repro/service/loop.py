"""The service loop: multiplexed assured runs over one deployment.

One :class:`~repro.core.controller.ClusterBFTController` owns the
deployment — event loop, cluster, engine, DFS, resource manager
(suspicion tracker, fault analyzer), audit log — and the service drives
*many* concurrent assured runs over it by advancing each run's
``_assured_steps`` generator cooperatively:

* trace arrivals are scheduled as admission events at their sim times;
* each admitted job becomes a :class:`RunDriver` holding the generator
  and its current wait condition;
* a periodic service tick (one per cluster heartbeat period) advances
  every driver whose wait condition has been satisfied, to a fixpoint,
  in admission order — deterministic by construction;
* the :class:`~repro.mapreduce.scheduler.FairShareScheduler` interleaves
  the active runs' task dispatch per heartbeat by deficit counter;
* suspicion, the fault analyzer and the quarantine set are *shared*:
  a fault attributed under tenant A's run protects tenant B's next run
  (the paper's Fig. 7 cross-job amortization, across tenants), and the
  audit log attributes each eviction/quarantine to the tenant whose
  traffic triggered it.

Determinism: arrivals, ticks and driver order are all derived from the
trace; nothing reads the wall clock or unseeded randomness.  The same
trace + seed produces a byte-identical ledger — which is also how
crash-resume works (see :mod:`repro.service.ledger`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import journal as wal
from repro.core.audit import ADMIT, DEQUEUE, ENQUEUE, REJECT, TORN_TAIL
from repro.core.controller import ClusterBFTController, ScriptResult
from repro.core.request_handler import PreparedScript
from repro.mapreduce.scheduler import FairShareScheduler
from repro.service import admission as adm
from repro.service.admission import AdmissionController
from repro.service.ledger import LedgerError, MultiplexedLedger
from repro.service.tenants import (
    WORKLOADS,
    JobRequest,
    ServiceTrace,
    workload_records,
)
from repro.telemetry import Telemetry


@dataclass
class RunRecord:
    """One admitted job's lifecycle."""

    tenant: str
    run_id: str
    workload: str
    index: int
    submitted_at: float
    started_at: float
    finished_at: float = 0.0
    assured: bool = False
    exhausted: bool = False
    attempts: int = 0
    queued: bool = False

    @property
    def latency(self) -> float:
        """Admission-to-verdict latency: arrival (including any queue
        wait) to final verdict."""
        return self.finished_at - self.submitted_at


@dataclass
class RejectRecord:
    tenant: str
    index: int
    workload: str
    at: float
    reason: str


@dataclass
class ServiceResult:
    """Outcome of one service execution (one trace)."""

    trace_name: str
    seed: int
    #: The trace's tenants flagged ``faulty``; every other tenant is honest.
    faulty_tenants: frozenset[str] = frozenset()
    runs: list[RunRecord] = field(default_factory=list)
    rejects: list[RejectRecord] = field(default_factory=list)
    #: Published outputs per run id (logical path -> records) — what
    #: the chaos TEN1 checker compares against fault-free truth.
    outputs: dict[str, dict] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    makespan: float = 0.0
    ledger_path: str | None = None
    #: Durable records a resume verified before appending (0 = fresh).
    resumed_prefix: int = 0

    def runs_for(self, tenant: str) -> list[RunRecord]:
        return [run for run in self.runs if run.tenant == tenant]

    def latencies(self, tenant: str | None = None) -> list[float]:
        return [
            run.latency
            for run in self.runs
            if tenant is None or run.tenant == tenant
        ]

    @property
    def all_assured(self) -> bool:
        return all(run.assured for run in self.runs)


class RunDriver:
    """One admitted run: the assured-step generator plus its current
    wait condition.  ``advance`` steps the generator (with tenant
    attribution bound for any shared-state audit records it emits)
    until it yields the next wait or finishes."""

    __slots__ = (
        "service",
        "request",
        "record",
        "stream",
        "_steps",
        "_wait",
        "result",
        "done",
    )

    def __init__(self, service: "ClusterBFTService", request: JobRequest,
                 record: RunRecord, stream) -> None:
        self.service = service
        self.request = request
        self.record = record
        self.stream = stream
        self._steps = None
        self._wait = None
        self.result: ScriptResult | None = None
        self.done = False

    def start(self) -> None:
        controller = self.service.controller
        run_id = self.record.run_id
        input_path = f"__svc/{run_id}/in"
        output_path = f"__svc/{run_id}/out"
        controller.load_input(
            input_path,
            workload_records(
                self.service.trace.seed,
                self.request.tenant,
                self.request.index,
                self.request.rows,
            ),
        )
        self._steps = controller._assured_steps(
            self.service.prepare(self.request.workload, input_path, output_path),
            journal=self.stream,
            script_id=run_id,
            span_attrs={"tenant": self.request.tenant},
        )
        self.advance()

    def ready(self) -> bool:
        if self.done:
            return False
        if self._wait is None:
            return True
        return not self._wait.pending(self.service.controller.loop)

    def advance(self) -> None:
        audit = self.service.controller.audit
        # Tenant attribution only: run-scoped ledger records already
        # carry the run id via their stream tag.
        audit.context = {"tenant": self.request.tenant}
        try:
            self._wait = next(self._steps)
        except StopIteration as stop:
            self.result = stop.value
            self.done = True
        finally:
            audit.context = {}


class ClusterBFTService:
    """Run a tenant trace over one shared deployment."""

    def __init__(
        self,
        trace: ServiceTrace,
        telemetry: Telemetry | None = None,
        ledger: MultiplexedLedger | None = None,
    ) -> None:
        self.trace = trace
        self.ledger = ledger
        self.scheduler = FairShareScheduler()
        self.controller = ClusterBFTController(
            config=trace.system_config(),
            fault_plan=trace.fault_plan(),
            scheduler=self.scheduler,
            block_bytes=2048,
            telemetry=telemetry,
        )
        self.scheduler.observe_engine(self.controller.engine)
        for tenant in trace.tenants:
            if tenant.quota.slot_budget is not None:
                self.scheduler.set_slot_budget(
                    tenant.name, tenant.quota.slot_budget
                )
        self.admission = AdmissionController(trace.quotas())
        self.audit = self.controller.audit
        self.telemetry = self.controller.telemetry
        if ledger is not None:
            ledger.bind_tracer(self.telemetry.tracer)
        self.result = ServiceResult(
            trace.name, trace.seed, faulty_tenants=trace.faulty_tenants
        )
        #: Unfinished drivers in admission order (``_start_run`` appends,
        #: ``_finish_run`` removes), so a tick costs the runs in flight.
        self._drivers: list[RunDriver] = []
        self._arrivals_pending = 0
        self._tick_scheduled = False
        #: (workload, compile options) -> the first run's prepared script
        #: and its input and output paths (DESIGN.md §26).
        self._prepared: dict[tuple, tuple[PreparedScript, str, str]] = {}

    # -- bookkeeping helpers -------------------------------------------

    @property
    def loop(self):
        return self.controller.loop

    def _ledger(self, kind: str, **fields) -> None:
        if self.ledger is not None:
            self.ledger.append(kind, **fields)

    def _record_decision(
        self, kind: str, request: JobRequest, run: str | None = None, **fields
    ) -> None:
        """Write one admission decision to the audit log and the ledger
        from one field set.  The ledger adds ``tenant`` and ``t``; an
        admit is audited under its run id and also names it in the
        ledger.  (Audit and ledger kinds share their names.)"""
        now = self.loop.now
        fields = {"workload": request.workload, "index": request.index, **fields}
        if run is None:
            self.audit.record(now, kind, request.tenant, **fields)
            self._ledger(kind, tenant=request.tenant, t=now, **fields)
        else:
            self.audit.record(now, kind, run, tenant=request.tenant, **fields)
            self._ledger(kind, run=run, tenant=request.tenant, t=now, **fields)

    def prepare(self, workload: str, input_path: str, output_path: str) -> PreparedScript:
        """``workload``'s template prepared on these paths.  The first run
        of a key prepares it; later runs rebase that script onto their
        own paths.  The marker's input ratios need no key: every template
        has one LOAD, so its ratio is 1 whatever the (positive) rows."""
        key = (workload, self.controller._compile_options())
        cached = self._prepared.get(key)
        if cached is None:
            script = WORKLOADS[workload].template.format(input=input_path, output=output_path)
            prepared = self.controller.prepare(script)
            self._prepared[key] = (prepared, input_path, output_path)
            return prepared
        prepared, first_input, first_output = cached
        return prepared.with_paths({first_input: input_path, first_output: output_path})

    def _publish_tenant_gauges(self, tenant: str) -> None:
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        metrics.gauge("service_active_runs", tenant=tenant).set(
            self.admission.active(tenant)
        )
        metrics.gauge("service_queue_depth", tenant=tenant).set(
            self.admission.queue_depth(tenant)
        )

    def _count_decision(self, tenant: str, decision: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "service_jobs", tenant=tenant, decision=decision
            ).inc()

    # -- admission ------------------------------------------------------

    def _arrive(self, request: JobRequest) -> None:
        self._arrivals_pending -= 1
        now = self.loop.now
        decision = self.admission.decide(request)
        if decision == adm.ADMIT:
            self.admission.note_admitted(request.tenant)
            self._start_run(request, queued=False)
        elif decision == adm.QUEUE:
            self.admission.enqueue(request)
            self._record_decision(
                ENQUEUE, request, depth=self.admission.queue_depth(request.tenant)
            )
            self._count_decision(request.tenant, "queued")
        else:
            self.result.rejects.append(
                RejectRecord(
                    tenant=request.tenant,
                    index=request.index,
                    workload=request.workload,
                    at=now,
                    reason=decision,
                )
            )
            self._record_decision(REJECT, request, reason=decision)
            self._count_decision(request.tenant, decision)
        self._publish_tenant_gauges(request.tenant)

    def _start_run(self, request: JobRequest, queued: bool) -> None:
        now = self.loop.now
        run_id = self.controller._next_script_id()
        self.scheduler.register_owner(run_id, request.tenant)
        record = RunRecord(
            tenant=request.tenant,
            run_id=run_id,
            workload=request.workload,
            index=request.index,
            submitted_at=request.at,
            started_at=now,
            queued=queued,
        )
        self.result.runs.append(record)
        self._record_decision(ADMIT, request, run=run_id, queued_for=now - request.at)
        self._count_decision(request.tenant, "admitted")
        stream = (
            self.ledger.stream(run_id) if self.ledger is not None else None
        )
        driver = RunDriver(self, request, record, stream)
        self._drivers.append(driver)
        driver.start()
        if driver.done:
            self._finish_run(driver)

    def _finish_run(self, driver: RunDriver) -> None:
        self._drivers.remove(driver)
        record = driver.record
        result = driver.result
        record.finished_at = self.loop.now
        record.assured = result.assured
        record.exhausted = result.exhausted
        record.attempts = result.attempts
        self.result.outputs[record.run_id] = result.outputs
        if self.telemetry.enabled:
            self.telemetry.metrics.histogram(
                "service_latency_seconds", tenant=record.tenant
            ).observe(record.latency)
        self.admission.note_finished(record.tenant)
        self._publish_tenant_gauges(record.tenant)
        # Concurrency freed: pull the tenant's next queued job (FIFO).
        pending = self.admission.pop_runnable(record.tenant)
        if pending is not None:
            self.admission.note_admitted(pending.tenant)
            self._record_decision(DEQUEUE, pending, waited=self.loop.now - pending.at)
            self._start_run(pending, queued=True)

    # -- the service tick ----------------------------------------------

    def _busy(self) -> bool:
        return self._arrivals_pending > 0 or bool(self._drivers)

    def _advance_drivers(self) -> None:
        """Advance every satisfied driver, to a fixpoint, in admission
        order.  A driver finishing can start a queued successor, whose
        driver appends to the list and is picked up by the next sweep
        of the same call."""
        progressed = True
        while progressed:
            progressed = False
            for driver in list(self._drivers):
                while not driver.done and driver.ready():
                    driver.advance()
                    progressed = True
                    if driver.done:
                        self._finish_run(driver)

    def _tick(self) -> None:
        self._tick_scheduled = False
        self._advance_drivers()
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        if self._tick_scheduled or not self._busy():
            return
        self._tick_scheduled = True
        period = self.controller.config.cluster.heartbeat_period
        self.loop.schedule(period, self._tick, label="service-tick")

    # -- execution ------------------------------------------------------

    def run(self) -> ServiceResult:
        if self.ledger is not None and self.ledger.torn_bytes_truncated:
            # Crash damage observed while reopening: surface the byte
            # count (audit parity with Journal.reopen callers).
            self.audit.record(
                self.loop.now,
                TORN_TAIL,
                self.ledger.path,
                bytes_truncated=self.ledger.torn_bytes_truncated,
            )
        self.result.resumed_prefix = (
            self.ledger.durable_prefix_len() if self.ledger is not None else 0
        )
        requests = self.trace.requests()
        self._arrivals_pending = len(requests)
        for request in requests:
            self.loop.schedule_at(
                request.at,
                lambda r=request: self._arrive(r),
                label=f"service-arrival:{request.tenant}:{request.index}",
            )
        self._schedule_tick()
        self.loop.run_while(self._busy)
        # One final pass: the last driver may have finished inside the
        # run_while exit condition without a trailing tick.
        self._advance_drivers()
        self.result.makespan = self.loop.now
        self.result.quarantined = self.controller.resources.quarantined()
        self.result.evicted = self.controller.resources.evicted()
        if self.ledger is not None:
            self.result.ledger_path = self.ledger.path
            self._ledger(
                wal.SERVICE_END,
                runs=len(self.result.runs),
                assured=sum(1 for run in self.result.runs if run.assured),
                rejected=len(self.result.rejects),
                quarantined=self.result.quarantined,
                evicted=self.result.evicted,
                makespan=self.result.makespan,
            )
            self.ledger.close()
        return self.result


def run_trace(
    trace: ServiceTrace | None,
    ledger_path: str | None = None,
    resume: bool = False,
    telemetry: Telemetry | None = None,
    crash_hook=None,
) -> ServiceResult:
    """Convenience wrapper: build the ledger (fresh or resumed), run
    the trace, return the result.

    On ``resume`` the authoritative trace is the one embedded in the
    ledger header — ``trace`` may be ``None`` (it is re-parsed from the
    ledger), and if supplied its text must match the embedded one.
    """
    from repro.service.tenants import parse_trace

    ledger = None
    if ledger_path is not None:
        if resume:
            ledger = MultiplexedLedger.resume(ledger_path, crash_hook=crash_hook)
            embedded = ledger.trace_text or ""
            if trace is None:
                trace = parse_trace(embedded, name="ledger")
            elif trace.text != embedded:
                raise LedgerError(
                    f"trace does not match the one embedded in {ledger_path} "
                    "— a resume must replay the original trace"
                )
        else:
            ledger = MultiplexedLedger.create(
                ledger_path, trace.text, crash_hook=crash_hook
            )
    elif trace is None:
        raise LedgerError("run_trace needs a trace or a ledger to resume")
    service = ClusterBFTService(trace, telemetry=telemetry, ledger=ledger)
    return service.run()
