"""ClusterBFT controller: the end-to-end assured-execution facade.

Wires the whole system together (paper Fig. 2): the trusted control
tier (request handler, job initiator, verifier, execution tracker,
resource manager, fault analyzer) around the untrusted computation tier
(cluster + MapReduce engine).

Execution model
---------------

``run_assured`` submits ``r`` replicas of every job in the compiled
graph.  Replica chains run *optimistically*: replica k of a downstream
job starts as soon as replica k of its upstream jobs finished — digest
comparison is offline, off the critical path (paper §3.3 "Approximate,
offline redundancy").  When a sub-graph's verification fails or times
out, the script is re-run with an escalated replication degree and
timeout, **reusing the outputs of already-verified sub-graphs** — this
is the recomputation saving that variable-grain clustering buys
(paper Table 3: rescheduled ClusterBFT runs beat final-output-only
verification by ~23%).

A verified job's output is only *committed* (reused across attempts,
published to the user-visible store path) when its output stream is
covered by a verification point — see
:func:`repro.core.request_handler.output_coverage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.config import ClusterBFTConfig, SystemConfig
from repro.common.errors import ReproError, VerificationExhausted
from repro.common.ids import NodeId
from repro.common.records import Record, encode_record
from repro.common.rng import RngRegistry
from repro.compiler.mr_compiler import CompileOptions
from repro.core import journal as wal
from repro.core.audit import (
    COMMIT,
    EXHAUSTED,
    RERUN,
    SUBMIT,
    TIMEOUT_CAP,
    VERDICT,
    AuditLog,
)
from repro.core.request_handler import (
    PreparedScript,
    RequestHandler,
    output_coverage,
)
from repro.core.resource_manager import ResourceManager
from repro.core.verifier import (
    FAILED,
    OMISSION,
    TIMEOUT,
    VERIFIED,
    ReplicaFault,
    VerificationOutcome,
    Verifier,
)
from repro.dataflow.plan import LogicalPlan, VertexId
from repro.faults.injection import FaultPlan
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engine import JobRun, MapReduceEngine, ReplicaResults
from repro.mapreduce.metrics import RunMetrics, publish_run
from repro.mapreduce.scheduler import ClusterBFTScheduler, TaskScheduler
from repro.simulation.events import EventLoop
from repro.storage.dfs import TrustedDFS
from repro.telemetry import DISABLED, Telemetry


@dataclass
class ScriptResult:
    """Outcome of one script execution."""

    script_id: str
    assured: bool  # all final outputs verified by an f+1 digest quorum
    outputs: dict[str, list[Record]]
    latency: float
    attempts: int
    metrics: RunMetrics
    outcomes: list[VerificationOutcome] = field(default_factory=list)
    marked_vertices: list[VertexId] = field(default_factory=list)
    reused_jobs: int = 0  # jobs skipped on reruns thanks to commits
    #: Verdict-time checkpoint commits (``ClusterBFTConfig.checkpoints``).
    checkpoint_commits: int = 0
    #: Rerun escalation ran out of ``max_reruns`` without assurance.
    exhausted: bool = False


#: Fault kind of a digest-quorum winner whose *stored* bytes diverged
#: from the majority's (the verifier's kinds cover digests only).
EQUIVOCATION = "equivocation"


class _Attempt:
    """Book-keeping for one attempt (one replication degree)."""

    def __init__(self, run: wal.RunState, index: int, pending: list[int]) -> None:
        self.index = index
        self.pending = pending
        self.replication = run.replication
        self.timeout = run.timeout
        self.job_sids = {
            job_index: f"{run.script_id}.a{index}.j{job_index}"
            for job_index in pending
        }
        self.sid_jobs = {sid: job_index for job_index, sid in self.job_sids.items()}
        self.prefix = f"__run/{run.script_id}/a{index}"
        self.span = None
        #: Explicit parent of the attempt's "verify" and job spans (the
        #: attempt span's id; None when tracing is off).
        self.span_parent: int | None = None
        self.verifier: Verifier | None = None
        self.outcomes: dict[str, VerificationOutcome] = {}
        self.expected_verdicts: set[str] = set()
        self.plain_jobs_pending: set[tuple[int, int]] = set()
        #: Subset of plain_jobs_pending producing user-visible outputs.
        self.plain_final_pending: set[tuple[int, int]] = set()
        self.runs: list[JobRun] = []
        #: (job_index, replica) -> the run submitted / completed for it.
        self.submitted: dict[tuple[int, int], JobRun] = {}
        self.completed: set[tuple[int, int]] = set()
        #: (job_index, replica) -> nodes of the whole unverified replica
        #: chain up to (and including) that job.  This is the paper's
        #: "job cluster": the replication unit is the sub-graph since the
        #: last verified point, so a digest mismatch implicates every
        #: node that touched the chain, not just the last job's nodes.
        self.chain_nodes: dict[tuple[int, int], set[str]] = {}
        #: job_index -> its upstream jobs that run in this attempt too.
        pending_set = set(pending)
        self.deps: dict[int, set[int]] = {
            i: run.deps[i] & pending_set for i in pending
        }
        #: Task results this attempt's replicas share; set only for
        #: replicated attempts and dropped when the attempt ends.
        self.shared: ReplicaResults | None = None
        #: Sids settled eagerly at verdict time (checkpoint tier): their
        #: WAL/audit records and DFS copies already happened, and their
        #: results — ``RunState.settle`` arguments — wait in ``staged``
        #: for the attempt boundary, which applies them instead of
        #: settling the sid again.
        self.settled_sids: set[str] = set()
        self.staged: list[tuple] = []
        self.force_end = False

    def replica_path(self, replica: int, logical: str) -> str:
        """Where ``replica`` of this attempt keeps ``logical``."""
        return f"{self.prefix}/r{replica}/{logical}"

    def stage(self, *result) -> None:
        self.staged.append(result)

    def chain(self, job_run: JobRun) -> set[NodeId]:
        """Nodes ``job_run`` and its finished upstream chain ran on."""
        nodes = set(job_run.nodes_used)
        for dep in self.deps[job_run.job_index]:
            nodes |= self.chain_nodes.get((dep, job_run.replica), set())
        return nodes

    def done(self) -> bool:
        if self.force_end:
            return True
        verdicts_in = all(sid in self.outcomes for sid in self.expected_verdicts)
        if self.expected_verdicts:
            # Verification is the completion signal: plain intermediate
            # jobs either fed the verified chains already or belong to
            # loser replicas nobody waits for.  Final outputs without
            # their own verification point (rare) must still land.
            return verdicts_in and not self.plain_final_pending
        return not self.plain_jobs_pending


class _WaitWhile:
    """Wait condition yielded by ``_assured_steps``: the run cannot make
    control-tier progress while ``predicate()`` holds.  The single-run
    wrapper blocks the event loop on it; the service tier polls it while
    other tenants' runs keep the loop busy."""

    __slots__ = ("predicate",)

    def __init__(self, predicate) -> None:
        self.predicate = predicate

    def block(self, loop: EventLoop) -> None:
        loop.run_while(self.predicate)

    def pending(self, loop: EventLoop) -> bool:
        return self.predicate()


class _WaitUntil:
    """Wait condition: the run resumes once the sim clock reaches
    ``deadline`` (the digest-flush window after the drain)."""

    __slots__ = ("deadline",)

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def block(self, loop: EventLoop) -> None:
        loop.run_until(self.deadline)

    def pending(self, loop: EventLoop) -> bool:
        return loop.now < self.deadline


class ClusterBFTController:
    """Owns the simulated deployment and runs scripts on it."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        fault_plan: FaultPlan | None = None,
        scheduler: TaskScheduler | None = None,
        block_bytes: int = 1 << 20,
        replicate_frontend: bool = False,
        telemetry: Telemetry | None = None,
        journal: wal.Journal | None = None,
    ) -> None:
        self.config = (config or SystemConfig()).validate()
        self.rng = RngRegistry(self.config.seed)
        self.loop = EventLoop()
        # The deterministic event loop is the telemetry clock source:
        # spans and events carry simulated seconds, so a traced run is
        # byte-identical to an untraced one (the tracer never schedules
        # loop events and never draws randomness).
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.telemetry.bind_clock(lambda: self.loop.now)
        self.telemetry.observe_loop(self.loop)
        self.dfs = TrustedDFS(block_bytes=block_bytes)
        self.cluster = Cluster(
            self.config.cluster, fault_plan, self.rng.stream("cluster")
        )
        self.dfs.set_placement_nodes(self.cluster.node_ids())
        self.scheduler = scheduler or ClusterBFTScheduler()
        self.engine = MapReduceEngine(
            self.loop,
            self.dfs,
            self.cluster,
            self.scheduler,
            self.config.cost,
            self.rng.stream("engine"),
            telemetry=self.telemetry,
        )
        self.audit = AuditLog(tracer=self.telemetry.tracer)
        # Durable control-plane journal (write-ahead log): pure host-side
        # I/O — never schedules loop events, never draws randomness — so
        # attaching one leaves the simulation byte-identical.
        self.journal = journal
        if journal is not None:
            journal.bind_tracer(self.telemetry.tracer)
        #: Extra key/values merged into audit (and journal) records that
        #: attribute shared-state changes — the service tier sets this to
        #: ``{"tenant": ...}`` around each run step so evictions and
        #: quarantines name the tenant whose traffic triggered them.
        #: Empty outside the service tier (records are byte-identical).
        self.audit_context: dict[str, object] = {}
        #: Everything the tier knows about the cluster, shared by every
        #: run on this deployment (DESIGN.md §20).
        self.resources = ResourceManager(self)
        self._script_counter = 0
        # §6.4: drop the implicit-trust assumption for the control tier —
        # request handling is ordered through 3f+1 PBFT replicas, adding
        # one consensus round of latency per script submission.
        self.frontend = None
        if replicate_frontend:
            from repro.bft.service import ReplicatedService

            self.frontend = ReplicatedService(
                f=self.config.bft.f,
                handler=lambda payload: ("accepted", payload),
                loop=self.loop,
                rng=self.rng.stream("frontend"),
                telemetry=self.telemetry,
            )

    # ------------------------------------------------------------------
    # data management
    # ------------------------------------------------------------------

    def load_input(self, path: str, records: list[Record]) -> None:
        """Stage a data-set into the trusted DFS, in place of whatever
        is at ``path``."""
        if self.dfs.exists(path):
            self.dfs.delete(path)
        self.dfs.write_file(path, records)

    def read_output(self, path: str) -> list[Record]:
        return self.dfs.read(path)

    def _input_sizes(self, plan: LogicalPlan) -> dict[str, int]:
        sizes = {}
        for path in plan.load_paths().values():
            if not self.dfs.exists(path):
                raise ReproError(f"input {path!r} not loaded")
            sizes[path] = self.dfs.file_info(path).size_bytes
        return sizes

    def _next_script_id(self) -> str:
        self._script_counter += 1
        return f"script{self._script_counter:04d}"

    def _compile_options(self) -> CompileOptions:
        reducers = min(4, max(1, len(self.cluster) // 2))
        return CompileOptions(num_reducers=reducers)

    # ------------------------------------------------------------------
    # execution modes
    # ------------------------------------------------------------------

    def prepare(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
        config: ClusterBFTConfig | None = None,
    ) -> PreparedScript:
        """Parse (if needed), instrument and compile ``script`` against
        the inputs staged in this deployment's DFS."""
        plan = self._to_plan(script)
        return RequestHandler(config or self.config.bft).prepare(
            plan,
            self._input_sizes(plan),
            explicit_points=explicit_points,
            include_output_points=include_output_points,
            compile_options=self._compile_options(),
        )

    def run_plain(self, script: str | LogicalPlan) -> ScriptResult:
        """Baseline: unreplicated, uninstrumented run ("Pure Pig")."""
        return self._run_unverified(self.prepare(script, [], False))

    def run_single(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
    ) -> ScriptResult:
        """One replica with digest computation but no replication — the
        "Single Execution" series of paper Fig. 9/10."""
        return self._run_unverified(
            self.prepare(script, explicit_points, include_output_points)
        )

    def run_assured(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
        replication: int | None = None,
        strict: bool = False,
    ) -> ScriptResult:
        """Full ClusterBFT execution with verification and reruns.

        With ``strict`` the controller raises
        :class:`~repro.common.errors.VerificationExhausted` (carrying the
        best-effort result) instead of returning an unassured result when
        the rerun escalation runs out of ``max_reruns``.
        """
        cfg = self.config.bft
        if replication is not None:
            cfg = replace(cfg, replication=replication).validate()
        prepared = self.prepare(script, explicit_points, include_output_points, cfg)
        return self._run_assured(prepared, strict=strict)

    def _to_plan(self, script: str | LogicalPlan) -> LogicalPlan:
        if isinstance(script, LogicalPlan):
            return script
        from repro.dataflow.piglatin import parse_script

        return parse_script(script)

    # ------------------------------------------------------------------
    # unverified execution (baselines)
    # ------------------------------------------------------------------

    def _run_unverified(self, prepared: PreparedScript) -> ScriptResult:
        """One replica of every job, nothing verified: one attempt of a
        run that commits nothing and publishes what replica 0 wrote."""
        run = wal.RunState(
            script_id=self._next_script_id(),
            replication=1,
            timeout=prepared.config.verifier_timeout,
        ).bind(prepared, None)
        start = self.loop.now
        run_span = self.telemetry.tracer.begin(
            "run",
            start=start,
            script_id=run.script_id,
            mode="plain",
            replication=1,
            jobs=len(prepared.job_graph.jobs),
        )
        metrics = run.metrics
        attempt = run.last_attempt = _Attempt(
            run, 0, list(range(len(prepared.job_graph.jobs)))
        )
        self._submit_attempt(run, attempt)
        self.loop.run_while(lambda: not attempt.done())
        for job_run in attempt.runs:
            metrics.absorb_job(job_run.metrics)
        outputs = self._publish_outputs(run)
        metrics.latency = self.loop.now - start
        run_span.end(latency=metrics.latency, assured=False)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode="plain")
        return ScriptResult(
            script_id=run.script_id,
            assured=False,
            outputs=outputs,
            latency=metrics.latency,
            attempts=1,
            metrics=metrics,
            marked_vertices=list(prepared.marked_vertices),
        )

    # ------------------------------------------------------------------
    # assured execution
    # ------------------------------------------------------------------

    def _run_assured(
        self,
        prepared: PreparedScript,
        resume: wal.RunState | None = None,
        strict: bool = False,
    ) -> ScriptResult:
        """Single-run driver: block the event loop through every wait
        condition the assured state machine yields.  Event-for-event
        identical to the pre-generator controller — the service tier
        (:mod:`repro.service`) drives the same generator cooperatively
        to multiplex runs instead.

        ``resume`` continues a journaled run from its last settled
        attempt boundary.  Callers (see :mod:`repro.core.recovery`) must
        already have re-staged the journal's inputs and committed outputs
        into this controller's DFS; the rerun-escalation loop picks up
        with the restored replication degree/timeout and re-executes
        only the unsettled sub-graphs."""
        steps = self._assured_steps(prepared, resume=resume, strict=strict)
        try:
            while True:
                next(steps).block(self.loop)
        except StopIteration as stop:
            return stop.value

    def _assured_steps(
        self,
        prepared: PreparedScript,
        resume: wal.RunState | None = None,
        strict: bool = False,
        journal: wal.Journal | None = None,
        script_id: str | None = None,
        span_attrs: dict | None = None,
    ):
        """Generator form of assured execution.

        Yields a wait condition (:class:`_WaitWhile` / :class:`_WaitUntil`)
        whenever the control tier must let simulated time pass; the
        caller decides how — ``run_while`` for an exclusive run,
        condition polling from the service tick for multiplexed runs.
        Returns the :class:`ScriptResult` via ``StopIteration.value``.

        ``journal`` overrides ``self.journal`` so each multiplexed run
        can write its own stream of a shared ledger; ``script_id`` lets
        the service allocate ids at admission time; ``span_attrs`` adds
        attribution (e.g. tenant) to the run span.

        Everything the steps below share is on two objects: ``run``
        (:class:`~repro.core.journal.RunState`, one per script — given
        as ``resume`` when a journal is being resumed) and the
        :class:`_Attempt` in flight (DESIGN.md §19).
        """
        run = resume or wal.RunState.fresh(
            script_id or self._next_script_id(), prepared.config
        )
        run.bind(prepared, self.journal if journal is None else journal)
        self._begin_run(run, span_attrs)
        for attempt_index in run.attempt_indexes():
            attempt = self._start_attempt(run, attempt_index)
            if attempt is None:
                break
            yield _WaitWhile(lambda a=attempt: not a.done())
            self._settle_attempt(run, attempt)
            if run.assured or not run.verifiable:
                break
            self._escalate(run, attempt)
        return (yield from self._finish_run(run, strict))

    def _begin_run(self, run: wal.RunState, span_attrs: dict | None) -> None:
        """Open the run: span, write-ahead ``run_start``, audit, and the
        replicated front end's ordering round."""
        prepared = run.prepared
        cfg = prepared.config
        script_id = run.script_id
        jobs = len(prepared.job_graph.jobs)
        tracer = self.telemetry.tracer
        run.started_at = self.loop.now
        run.span = tracer.begin(
            "run",
            start=run.started_at,
            script_id=script_id,
            mode="assured",
            replication=cfg.replication,
            jobs=jobs,
            points=len(prepared.marked_vertices),
            **(span_attrs or {}),
        )
        if run.journal is not None and not run.resumed:
            # Write-ahead: the run exists in the journal before any job
            # is submitted.  ``marked``/``include_output_points`` let a
            # recovery re-prepare the exact same instrumented plan.
            run.journal.append(
                wal.RUN_START,
                script_id=script_id,
                jobs=jobs,
                replication=cfg.replication,
                points=len(prepared.marked_vertices),
                marked=list(prepared.marked_vertices),
                include_output_points=prepared.include_output_points,
            )
        self.audit.record(
            run.started_at,
            SUBMIT,
            script_id,
            jobs=jobs,
            replication=cfg.replication,
            points=len(prepared.marked_vertices),
            **self.audit_context,
        )
        if self.frontend is not None:
            # The submission is ordered by the replicated request handler
            # before any job starts; its consensus round is on the
            # critical path (part of the latency Fig. 14 measures).
            if self.telemetry.causal and tracer.enabled:
                # Anchor the ordering round's Request send (and the whole
                # pre-prepare/prepare/commit cascade behind it) to this
                # run's root span.
                tracer.push_context(run.span.span_id)
                try:
                    self.frontend.call((script_id, jobs))
                finally:
                    tracer.pop_context()
            else:
                self.frontend.call((script_id, jobs))

    def _start_attempt(self, run: wal.RunState, attempt_index: int) -> _Attempt | None:
        """Work out what attempt ``attempt_index`` has to run and submit
        it; ``None`` when nothing is left to run."""
        script_id = run.script_id
        run.attempts_used += 1
        pending = run.next_pending(attempt_index)
        if attempt_index > 0:
            run.metrics.reruns += 1
            self.audit.record(
                self.loop.now,
                RERUN,
                script_id,
                attempt=attempt_index,
                replication=run.replication,
                jobs_rerun=len(pending),
                jobs_reused=len(run.order) - len(pending),
                **self.audit_context,
            )
        if not pending:
            # Nothing left to run — e.g. every verifiable job VERIFIED
            # but a final output uncommittable.  ``run.assured`` judges
            # by the state reached.
            return None
        if run.journal is not None:
            run.journal.append(
                wal.ATTEMPT_START,
                script_id=script_id,
                attempt=attempt_index,
                replication=run.replication,
                timeout=run.timeout,
                jobs=list(pending),
            )
        attempt = run.last_attempt = _Attempt(run, attempt_index, pending)
        tracer = self.telemetry.tracer
        attempt.span = tracer.begin(
            "attempt",
            parent=run.span,
            start=self.loop.now,
            script_id=script_id,
            attempt=attempt_index,
            replication=attempt.replication,
            timeout=attempt.timeout,
            jobs=len(pending),
        )
        if tracer.enabled:
            attempt.span_parent = attempt.span.span_id
        attempt.verifier = Verifier(
            self.loop,
            run.config.f,
            self.config.cost,
            attempt.timeout,
            on_verdict=lambda outcome: self._on_verdict(run, attempt, outcome),
            on_late_fault=lambda sid, fault: self.resources.late_fault(
                run.journal, sid, fault
            ),
            telemetry=self.telemetry,
            span_parent=attempt.span_parent,
        )
        self._submit_attempt(run, attempt)
        # Global fail-safe: if stalled unverified jobs never finish,
        # end the attempt once every verification deadline has passed.
        self.loop.schedule(
            attempt.timeout + 4 * self.config.cost.digest_network_seconds,
            lambda: setattr(attempt, "force_end", True),
            label=f"attempt-deadline:{script_id}:{attempt_index}",
        )
        return attempt

    def _settle_attempt(self, run: wal.RunState, attempt: _Attempt) -> None:
        """The attempt boundary: collect verdicts, apply them to the
        shared tier state, settle every sid and journal the snapshot."""
        verifier = attempt.verifier
        # The force-end deadline can beat a verdict's delivery event;
        # pull any internally-decided outcomes so reruns see them.
        for sid in sorted(attempt.expected_verdicts - set(attempt.outcomes)):
            decided = verifier.outcome(sid)
            if decided is not None:
                attempt.outcomes[sid] = decided
        for job_run in attempt.runs:
            outcome = attempt.outcomes.get(job_run.sid)
            sid_verified = outcome is not None and outcome.status == VERIFIED
            if job_run.state != "done" and (
                not sid_verified or job_run.has_omitted_task()
            ):
                # Cancel runs that can never verify; keep the late
                # replicas of verified sids running — their digests
                # still feed offline fault attribution.
                self.engine.cancel(job_run)
        attempt.shared = None
        run.job_runs.extend(attempt.runs)
        run.metrics.verification_comparisons += verifier.total_comparisons
        outcomes = list(attempt.outcomes.values())
        run.outcomes.extend(outcomes)
        self._apply_outcomes(run, attempt)

        # Commit verified, output-covered jobs; record every VERIFIED
        # sid (committable or not) as settled.  Verdict-time results
        # land first: from here on rerun closures and assurance checks
        # see what a checkpoint-free run sees.
        for job_index, *commit in attempt.staged:
            run.settle(job_index, *commit)
            run.checkpointed += bool(commit)
        for sid in attempt.sid_jobs:
            if sid not in attempt.settled_sids:
                self._settle(run, attempt, sid)

        attempt.span.end(
            verdicts={
                status: sum(1 for o in outcomes if o.status == status)
                for status in (VERIFIED, FAILED, TIMEOUT)
            },
            comparisons=verifier.total_comparisons,
        )
        if run.journal is not None:
            run.journal_attempt_end(attempt.index, **self.resources.snapshot())

    def _escalate(self, run: wal.RunState, attempt: _Attempt) -> None:
        """The attempt left something unverified: more replicas and a
        longer timeout for the next one."""
        uncapped = run.timeout * 2
        run.escalate()
        if run.timeout < uncapped:
            # Liveness signal: escalation wanted to keep doubling but
            # hit the configured ceiling — audited, never silent.
            self.audit.record(
                self.loop.now,
                TIMEOUT_CAP,
                run.script_id,
                attempt=attempt.index,
                capped=run.timeout,
                uncapped=uncapped,
                **self.audit_context,
            )
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.event(
                "escalation",
                script_id=run.script_id,
                next_replication=run.replication,
                next_timeout=run.timeout,
            )

    def _finish_run(self, run: wal.RunState, strict: bool):
        """Publish, stop the latency clock, drain the late replicas and
        report (a generator: the drain waits)."""
        script_id = run.script_id
        metrics = run.metrics
        assured = run.assured
        exhausted = run.exhausted
        outputs = self._publish_outputs(run)
        metrics.latency = self.loop.now - run.started_at
        unsettled = run.unsettled()
        if exhausted:
            self.audit.record(
                self.loop.now,
                EXHAUSTED,
                script_id,
                attempts=run.attempts_used,
                unsettled=tuple(unsettled),
                **self.audit_context,
            )
        run.span.end(
            end=self.loop.now,
            latency=metrics.latency,
            assured=assured,
            attempts=run.attempts_used,
            reused_jobs=run.reused,
            checkpoints=run.checkpointed,
        )
        # Drain the late replicas of verified sids (offline attribution):
        # happens after the latency clock stops — verification is not on
        # the critical path.  The drain is bounded: replicas that cannot
        # make progress (e.g. their partition was evicted) are cancelled.
        drain_deadline = self.loop.now + run.config.verifier_timeout
        yield _WaitWhile(
            lambda: self.loop.now < drain_deadline
            and any(
                job_run.is_active and not job_run.all_finished()
                for job_run in run.job_runs
            )
        )
        # Digest messages and verifier finalization trail task completion
        # by a few network hops — flush them, or late-replica faults
        # would never be attributed.
        yield _WaitUntil(
            self.loop.now + 10 * self.config.cost.digest_network_seconds + 0.5
        )
        for job_run in run.job_runs:
            if job_run.state != "done":
                self.engine.cancel(job_run)
        self.resources.enforce(run.journal)
        for job_run in run.job_runs:
            metrics.absorb_job(job_run.metrics)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode="assured")
        if run.journal is not None:
            # Terminal record (fsync'd): a journal ending in run_end is
            # complete — resuming it replays the recorded result instead
            # of re-executing anything.  Closing here also enforces the
            # one-WAL-one-run contract.
            run.journal.append(
                wal.RUN_END,
                script_id=script_id,
                assured=assured,
                exhausted=exhausted,
                attempts=run.attempts_used,
                reused=run.reused,
                checkpoints=run.checkpointed,
                latency=metrics.latency,
                outputs={
                    logical: wal.records_to_json(records)
                    for logical, records in sorted(outputs.items())
                },
            )
            run.journal.close()
        result = ScriptResult(
            script_id=script_id,
            assured=assured,
            outputs=outputs,
            latency=metrics.latency,
            attempts=run.attempts_used,
            metrics=metrics,
            outcomes=run.outcomes,
            marked_vertices=list(run.prepared.marked_vertices),
            reused_jobs=run.reused,
            exhausted=exhausted,
            checkpoint_commits=run.checkpointed,
        )
        if exhausted and strict:
            error = VerificationExhausted(script_id, run.attempts_used, unsettled)
            error.result = result
            raise error
        return result

    # ------------------------------------------------------------------
    # attempt plumbing
    # ------------------------------------------------------------------

    def _submit_attempt(self, run: wal.RunState, attempt: _Attempt) -> None:
        """Register the attempt's verifiable sids and submit every
        replica whose upstream jobs are not part of the attempt."""
        graph = run.prepared.job_graph
        if attempt.replication > 1:
            attempt.shared = ReplicaResults()
        for job_index in attempt.pending:
            if attempt.verifier is not None and job_index in run.verifiable:
                attempt.expected_verdicts.add(attempt.job_sids[job_index])
                # Register up front: the timeout clock must cover stalls
                # anywhere in the chain, including upstream jobs that
                # keep this sid's replicas from ever being submitted.
                attempt.verifier.register(
                    attempt.job_sids[job_index], attempt.replication
                )
            else:
                for replica in range(attempt.replication):
                    attempt.plain_jobs_pending.add((job_index, replica))
                    if not graph.jobs[job_index].output_is_temp:
                        attempt.plain_final_pending.add((job_index, replica))
        self._submit_ready(run, attempt)

    def _path_map(
        self, run: wal.RunState, attempt: _Attempt, job_index: int, replica: int
    ) -> dict[str, str]:
        """Logical -> physical paths of one replica: committed inputs
        from their verified copy, this attempt's intermediates and the
        output under the replica's own prefix."""
        spec = run.prepared.job_graph.jobs[job_index]
        mapping: dict[str, str] = {}
        for path in spec.input_paths():
            if path in run.verified_paths:
                mapping[path] = run.verified_paths[path]
            elif path in run.internal_paths:
                mapping[path] = attempt.replica_path(replica, path)
        mapping[spec.output_path] = attempt.replica_path(replica, spec.output_path)
        return mapping

    def _on_job_complete(
        self, run: wal.RunState, attempt: _Attempt, job_run: JobRun
    ) -> None:
        job_index, replica = key = (job_run.job_index, job_run.replica)
        attempt.completed.add(key)
        attempt.plain_jobs_pending.discard(key)
        attempt.plain_final_pending.discard(key)
        self.resources.record_job(job_run.nodes_used)
        chain = attempt.chain_nodes[key] = attempt.chain(job_run)
        if attempt.verifier is not None and job_index in run.verifiable:
            if run.journal is not None:
                # Write-ahead: the digest receipt is journaled before
                # the verifier acts on it.
                run.journal.append(
                    wal.DIGEST,
                    sid=job_run.sid,
                    replica=replica,
                    nodes=sorted(chain),
                )
            attempt.verifier.replica_completed(job_run.sid, replica, chain)
        self._submit_ready(run, attempt)

    def _submit_ready(self, run: wal.RunState, attempt: _Attempt) -> None:
        """Submit every replica whose upstream replicas (same replica
        index: chains run optimistically, each on its own) completed."""
        graph = run.prepared.job_graph
        verifier = attempt.verifier
        submitted = attempt.submitted
        for job_index in attempt.pending:
            job_deps = attempt.deps[job_index]
            for replica in range(attempt.replication):
                key = (job_index, replica)
                if key in submitted:
                    continue
                if not all((d, replica) in attempt.completed for d in job_deps):
                    continue
                sid = attempt.job_sids[job_index]
                # Replicas share task results only along chains that
                # stayed on data-honest nodes (DESIGN.md §16).
                clean_chain = all(submitted[d, replica].clean for d in job_deps)
                job_run = submitted[key] = JobRun(
                    job_id=f"{sid}.r{replica}",
                    sid=sid,
                    replica=replica,
                    spec=graph.jobs[job_index],
                    path_map=self._path_map(run, attempt, job_index, replica),
                    scope=f"{run.script_id}.a{attempt.index}",
                    digest_sink=verifier.on_report if verifier else None,
                    on_complete=lambda done: self._on_job_complete(run, attempt, done),
                    total_replicas=attempt.replication,
                    # Span attributes for trace analysis: the deps
                    # (restricted to this attempt's pending set) are
                    # what the critical-path computation follows.
                    trace_attrs={
                        "attempt": attempt.index,
                        "job_index": job_index,
                        "deps": sorted(job_deps),
                    },
                    span_parent=attempt.span_parent,
                    shared=attempt.shared if clean_chain else None,
                    job_index=job_index,
                )
                attempt.runs.append(job_run)
                self.engine.submit(job_run)

    # ------------------------------------------------------------------
    # verdicts: settlement, and the faults they hand the resource manager
    # ------------------------------------------------------------------

    def _on_verdict(
        self, run: wal.RunState, attempt: _Attempt, outcome: VerificationOutcome
    ) -> None:
        attempt.outcomes[outcome.sid] = outcome
        # Checkpoint tier: settle a VERIFIED sid now.  TIMEOUT/FAILED
        # sids stay with the attempt boundary: they produce no commit,
        # so eager settlement buys no durability.
        if (
            run.config.checkpoints
            and outcome.status == VERIFIED
            and outcome.sid in attempt.sid_jobs
        ):
            self._settle(run, attempt, outcome.sid, staged=True)

    def _settle(
        self, run: wal.RunState, attempt: _Attempt, sid: str, staged: bool = False
    ) -> None:
        """Settle one sid: journal and audit its verdict and, when the
        verdict is VERIFIED, covers the job's output stream and survives
        the content cross-check, commit the job's output.

        The attempt boundary calls this for every sid of the attempt.
        With ``ClusterBFTConfig.checkpoints`` a VERIFIED sid is settled
        earlier, when its verdict arrives (``staged``): the commit is an
        fsync'd ``checkpoint`` record *inside* the running attempt, so a
        crash mid-attempt resumes from the last verified sub-graph
        instead of rerunning everything.  A checkpoint is a commit taken
        earlier and nothing else: only the record kind differs, and
        where the result lands — in ``attempt.staged`` until the
        boundary, because the in-flight attempt's path map must not
        change under it (DESIGN.md §19).
        """
        outcome = attempt.outcomes.get(sid)
        if outcome is None:
            return
        journal = run.journal
        if journal is not None:
            journal.append(
                wal.VERDICT,
                sid=sid,
                status=outcome.status,
                winners=sorted(outcome.winners),
                faulty_replicas=sorted(fault.replica for fault in outcome.faults),
            )
        self.audit.record(
            self.loop.now,
            VERDICT,
            sid,
            status=outcome.status,
            winners=tuple(sorted(outcome.winners)),
            faulty_replicas=tuple(fault.replica for fault in outcome.faults),
            **self.audit_context,
        )
        if staged:
            # Settled even when the cross-check below yields no
            # majority: the verdict is journaled either way, and the
            # attempt boundary must not journal it (or attribute
            # equivocation faults) twice.
            attempt.settled_sids.add(sid)
        if outcome.status != VERIFIED:
            return
        settle = attempt.stage if staged else run.settle
        job_index = attempt.sid_jobs[sid]
        spec = run.prepared.job_graph.jobs[job_index]
        if output_coverage(spec) is None:
            settle(job_index)
            return
        # Equivocation defense: digests cover the *computed* stream, so
        # a node may verify yet persist different bytes.  Cross-check
        # winners' stored outputs before trusting any of them; no
        # majority means the sid stays unsettled and the rerun
        # escalation takes over.
        winner = self._cross_checked_winner(run, attempt, outcome, job_index)
        if winner is None:
            return
        source = attempt.replica_path(winner, spec.output_path)
        target = f"__run/{run.script_id}/verified/{spec.output_path}"
        if journal is not None:
            # The record carries the full winning content (fsync'd):
            # recovery re-stages it into a fresh DFS without
            # re-executing the job.
            journal.append(
                wal.CHECKPOINT if staged else wal.COMMIT,
                sid=sid,
                job_index=job_index,
                path=spec.output_path,
                target=target,
                winner=winner,
                content=wal.records_to_json(self.dfs.read(source)),
            )
        self.load_input(target, self.dfs.read(source))
        settle(job_index, spec.output_path, target)
        # A checkpoint is audited as a COMMIT (with a marker) so
        # coverage checks over committed sids keep seeing one kind.
        self.audit.record(
            self.loop.now,
            COMMIT,
            sid,
            path=spec.output_path,
            winner=winner,
            **({"checkpoint": True} if staged else {}),
            **self.audit_context,
        )
        if staged and self.telemetry.enabled:
            self.telemetry.tracer.event(
                "checkpoint.commit", sid=sid, path=spec.output_path
            )
            self.telemetry.metrics.counter("checkpoint_commits").inc()

    def _apply_outcomes(self, run: wal.RunState, attempt: _Attempt) -> None:
        """Apply the attempt's verdicts to what the tier knows about the
        cluster, then act on it: exonerate, evict, quarantine, migrate."""
        for outcome in attempt.outcomes.values():
            faults = outcome.faults
            if outcome.status == TIMEOUT:
                # Suspect only the replicas that never reported: one
                # omission over every node that touched their chains.
                missing = self._missing_replica_nodes(attempt, outcome)
                faults = [ReplicaFault(-1, OMISSION, frozenset(missing))]
            for fault in faults:
                # VERIFIED: losers are *known* faulty clusters — quorum
                # proved the correct digests, these replicas disagreed.
                # FAILED: no quorum — every cluster is a suspect, none
                # is proven.
                self.resources.record_fault(
                    run.journal, outcome.sid, fault, proven=outcome.status == VERIFIED
                )
        self.resources.enforce(run.journal, exonerate=True)
        self.resources.reconfigure(run.journal)

    def _missing_replica_nodes(
        self, attempt: _Attempt, outcome: VerificationOutcome
    ) -> set[NodeId]:
        """Nodes that touched a replica chain that never reported: the
        stalled job's own nodes plus the finished upstream chain."""
        nodes: set[NodeId] = set()
        job_index = attempt.sid_jobs[outcome.sid]
        for replica in outcome.missing_replicas:
            job_run = attempt.submitted.get((job_index, replica))
            if job_run is not None:
                nodes |= attempt.chain(job_run)
        return nodes

    def _cross_checked_winner(
        self,
        run: wal.RunState,
        attempt: _Attempt,
        outcome: VerificationOutcome,
        job_index: int,
    ) -> int | None:
        """Content cross-check over the digest quorum's winner replicas.

        Groups the winners by the bytes they actually stored and commits
        the lowest replica of a strict majority.  Divergent winners are
        demoted to equivocation faults (their digests matched, their
        stored file did not), feeding suspicion and the fault analyzer.
        Returns ``None`` when no majority exists — the caller must leave
        the sid unsettled so the rerun escalation handles it.
        """
        logical = run.prepared.job_graph.jobs[job_index].output_path
        groups: dict[tuple, list[int]] = {}
        for replica in sorted(outcome.winners):
            path = attempt.replica_path(replica, logical)
            if not self.dfs.exists(path):
                continue
            content = tuple(
                encode_record(r) for r in self.dfs.file_info(path).records()
            )
            groups.setdefault(content, []).append(replica)
        if not groups:
            return None
        readable = sum(len(replicas) for replicas in groups.values())
        majority = next(
            (group for group in groups.values() if len(group) * 2 > readable), None
        )
        divergent = sorted(
            replica
            for replicas in groups.values()
            if replicas is not majority
            for replica in replicas
        )
        for replica in divergent:
            nodes = attempt.chain_nodes.get((job_index, replica), set())
            self.resources.record_fault(
                run.journal,
                outcome.sid,
                ReplicaFault(replica, EQUIVOCATION, frozenset(nodes)),
            )
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("equivocations_detected").inc()
        if divergent:
            # Equivocation is often the first region-level signal a
            # degrading zone gives off — check for migration here too,
            # not just at attempt boundaries.
            self.resources.reconfigure(run.journal)
        if majority is None:
            return None
        return min(majority)

    # ------------------------------------------------------------------
    # output publication
    # ------------------------------------------------------------------

    def _publish_outputs(self, run: wal.RunState) -> dict[str, list[Record]]:
        outputs: dict[str, list[Record]] = {}
        for job in run.prepared.job_graph.jobs:
            if job.output_is_temp:
                continue
            logical = job.output_path
            source = run.verified_paths.get(logical)
            if source is None and run.last_attempt:
                # Unassured fallback: best-effort replica 0 of the last
                # attempt (flagged by ScriptResult.assured = False).
                source = run.last_attempt.replica_path(0, logical)
            if source is None or not self.dfs.exists(source):
                outputs[logical] = []
                continue
            self.load_input(logical, self.dfs.read(source))
            outputs[logical] = self.dfs.read(logical)
        return outputs
