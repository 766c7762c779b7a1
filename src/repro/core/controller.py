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

from repro.common.config import SystemConfig
from repro.common.errors import ReproError, VerificationExhausted
from repro.common.ids import NodeId
from repro.common.records import Record, encode_record
from repro.common.rng import RngRegistry
from repro.compiler.mr_compiler import CompileOptions
from repro.core import journal as wal
from repro.core.audit import (
    COMMIT,
    EVICTION,
    EXHAUSTED,
    FAULT,
    QUARANTINE,
    RECONFIG,
    RERUN,
    SUBMIT,
    TIMEOUT_CAP,
    VERDICT,
    AuditLog,
)
from repro.core.fault_analyzer import FaultAnalyzer
from repro.core.gauges import publish_suspicion
from repro.core.request_handler import (
    PreparedScript,
    RequestHandler,
    job_has_verification,
    output_coverage,
)
from repro.core.suspicion import SuspicionTracker
from repro.core.verifier import (
    COMMISSION,
    FAILED,
    TIMEOUT,
    VERIFIED,
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

    @property
    def verified(self) -> bool:
        return self.assured


class _Attempt:
    """Book-keeping for one attempt (one replication degree)."""

    def __init__(self) -> None:
        self.outcomes: dict[str, VerificationOutcome] = {}
        self.expected_verdicts: set[str] = set()
        self.plain_jobs_pending: set[tuple[int, int]] = set()
        #: Subset of plain_jobs_pending producing user-visible outputs.
        self.plain_final_pending: set[tuple[int, int]] = set()
        self.runs: list[JobRun] = []
        self.runs_by_job: dict[int, list[JobRun]] = {}
        #: (job_index, replica) -> nodes of the whole unverified replica
        #: chain up to (and including) that job.  This is the paper's
        #: "job cluster": the replication unit is the sub-graph since the
        #: last verified point, so a digest mismatch implicates every
        #: node that touched the chain, not just the last job's nodes.
        self.chain_nodes: dict[tuple[int, int], set[str]] = {}
        self.deps: dict[int, set[int]] = {}
        #: Task results this attempt's replicas share; set only for
        #: replicated attempts and dropped when the attempt ends.
        self.shared: ReplicaResults | None = None
        self.force_end = False

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
        self.suspicion = SuspicionTracker()
        self.fault_analyzer = FaultAnalyzer(f=self.config.bft.f)
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
        """Stage an input data-set into the trusted DFS."""
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

    def run_plain(self, script: str | LogicalPlan) -> ScriptResult:
        """Baseline: unreplicated, uninstrumented run ("Pure Pig")."""
        handler = RequestHandler(self.config.bft)
        plan = self._to_plan(script)
        prepared = handler.prepare(
            plan,
            self._input_sizes(plan),
            explicit_points=[],
            include_output_points=False,
            compile_options=self._compile_options(),
        )
        return self._run_unverified(prepared, replication=1)

    def run_single(
        self,
        script: str | LogicalPlan,
        explicit_points: list[VertexId] | None = None,
        include_output_points: bool = True,
    ) -> ScriptResult:
        """One replica with digest computation but no replication — the
        "Single Execution" series of paper Fig. 9/10."""
        handler = RequestHandler(self.config.bft)
        plan = self._to_plan(script)
        prepared = handler.prepare(
            plan,
            self._input_sizes(plan),
            explicit_points=explicit_points,
            include_output_points=include_output_points,
            compile_options=self._compile_options(),
        )
        return self._run_unverified(prepared, replication=1)

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
        handler = RequestHandler(cfg)
        plan = self._to_plan(script)
        prepared = handler.prepare(
            plan,
            self._input_sizes(plan),
            explicit_points=explicit_points,
            include_output_points=include_output_points,
            compile_options=self._compile_options(),
        )
        return self._run_assured(prepared, strict=strict)

    def resume_assured(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState,
        strict: bool = False,
    ) -> ScriptResult:
        """Continue a journaled run from its last settled attempt
        boundary.  Callers (see :mod:`repro.core.recovery`) must already
        have re-staged the journal's inputs and committed outputs into
        this controller's DFS; the rerun-escalation loop picks up with
        the restored replication degree/timeout and re-executes only the
        unsettled sub-graphs."""
        return self._run_assured(prepared, resume=resume, strict=strict)

    def _to_plan(self, script: str | LogicalPlan) -> LogicalPlan:
        if isinstance(script, LogicalPlan):
            return script
        from repro.dataflow.piglatin import parse_script

        return parse_script(script)

    # ------------------------------------------------------------------
    # unverified execution (baselines)
    # ------------------------------------------------------------------

    def _run_unverified(self, prepared: PreparedScript, replication: int) -> ScriptResult:
        script_id = self._next_script_id()
        start = self.loop.now
        tracer = self.telemetry.tracer
        run_span = tracer.begin(
            "run",
            start=start,
            script_id=script_id,
            mode="plain" if replication == 1 else "unverified",
            replication=replication,
            jobs=len(prepared.job_graph.jobs),
        )
        metrics = RunMetrics()
        attempt = _Attempt()
        self._submit_attempt(
            prepared,
            pending=list(range(len(prepared.job_graph.jobs))),
            replication=replication,
            script_id=script_id,
            attempt_index=0,
            verified_paths={},
            verifier=None,
            attempt=attempt,
        )
        self.loop.run_while(lambda: not attempt.done())
        for run in attempt.runs:
            metrics.absorb_job(run.metrics)
        outputs = self._publish_replica_outputs(prepared, script_id, 0, replica=0)
        metrics.latency = self.loop.now - start
        run_span.end(latency=metrics.latency, assured=False)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode="plain")
        return ScriptResult(
            script_id=script_id,
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
        resume: wal.ResumeState | None = None,
        strict: bool = False,
    ) -> ScriptResult:
        """Single-run driver: block the event loop through every wait
        condition the assured state machine yields.  Event-for-event
        identical to the pre-generator controller — the service tier
        (:mod:`repro.service`) drives the same generator cooperatively
        to multiplex runs instead."""
        steps = self._assured_steps(prepared, resume=resume, strict=strict)
        try:
            while True:
                next(steps).block(self.loop)
        except StopIteration as stop:
            return stop.value

    def _assured_steps(
        self,
        prepared: PreparedScript,
        resume: wal.ResumeState | None = None,
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
        """
        cfg = prepared.config
        if journal is None:
            journal = self.journal
        if script_id is None:
            script_id = (
                resume.script_id if resume is not None else self._next_script_id()
            )
        start = self.loop.now
        tracer = self.telemetry.tracer
        run_span = tracer.begin(
            "run",
            start=start,
            script_id=script_id,
            mode="assured",
            replication=cfg.replication,
            jobs=len(prepared.job_graph.jobs),
            points=len(prepared.marked_vertices),
            **(span_attrs or {}),
        )
        if journal is not None and resume is None:
            # Write-ahead: the run exists in the journal before any job
            # is submitted.  ``marked``/``include_output_points`` let a
            # recovery re-prepare the exact same instrumented plan.
            journal.append(
                wal.RUN_START,
                script_id=script_id,
                jobs=len(prepared.job_graph.jobs),
                replication=cfg.replication,
                points=len(prepared.marked_vertices),
                marked=list(prepared.marked_vertices),
                include_output_points=prepared.include_output_points,
            )
            journal.run_started = True
        self.audit.record(
            start,
            SUBMIT,
            script_id,
            jobs=len(prepared.job_graph.jobs),
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
                tracer.push_context(run_span.span_id)
                try:
                    self.frontend.call((script_id, len(prepared.job_graph.jobs)))
                finally:
                    tracer.pop_context()
            else:
                self.frontend.call((script_id, len(prepared.job_graph.jobs)))
        graph = prepared.job_graph
        order = graph.topological_order()

        metrics = RunMetrics()
        all_outcomes: list[VerificationOutcome] = []
        all_runs: list[JobRun] = []
        verified_jobs: set[int] = set()  # committed (output reusable)
        verified_ok: set[int] = set()  # sid VERIFIED (maybe uncommittable)
        verified_paths: dict[str, str] = {}
        reused = 0
        if resume is not None:
            verified_jobs = set(resume.verified_jobs)
            verified_ok = set(resume.verified_ok)
            verified_paths = dict(resume.verified_paths)
            reused = resume.reused

        deps = graph.dependencies()
        verifiable = {
            i for i in order if job_has_verification(graph.jobs[i])
        }
        final_jobs = [i for i, job in enumerate(graph.jobs) if not job.output_is_temp]

        def rerun_closure() -> list[int]:
            """Jobs that must run again: every verifiable job not yet
            VERIFIED, plus (transitively) the uncommitted upstream jobs
            feeding them.  Committed sub-graphs are reused — the paper's
            variable-grain recomputation saving."""
            needed = set(verifiable) - verified_ok
            frontier = sorted(needed)
            while frontier:
                job_index = frontier.pop()
                for dep in deps[job_index]:
                    if dep not in verified_jobs and dep not in needed:
                        needed.add(dep)
                        frontier.append(dep)
            return [i for i in order if i in needed]

        replication = cfg.replication
        timeout = cfg.verifier_timeout
        attempts_used = 0
        start_attempt = 0
        if resume is not None:
            replication = resume.replication
            timeout = resume.timeout
            attempts_used = resume.attempts_used
            start_attempt = resume.start_attempt
        assured = False
        last_attempt: _Attempt | None = None
        checkpointed = 0

        def escalated_timeout(current: float) -> float:
            """Next attempt's verifier timeout: doubled, clamped to the
            configured ``max_verifier_timeout`` ceiling.  Used for both
            the live escalation and the journaled ``next_timeout`` so a
            resumed run restores exactly the value an uninterrupted run
            would have used."""
            doubled = current * 2
            cap = cfg.max_verifier_timeout
            if cap is not None and doubled > cap:
                return cap
            return doubled

        # A restored snapshot may already cover the full commit set —
        # e.g. a crash landed between the final attempt's ``attempt_end``
        # and ``run_end``, leaving start_attempt past max_reruns and the
        # rerun range below empty.  Assurance of a fully-settled snapshot
        # is decided by the restored state alone, so evaluate it *before*
        # the loop: an empty range must never read as exhaustion.
        settled_on_resume = resume is not None and not rerun_closure()
        if settled_on_resume:
            reused += len(order)
            if verifiable:
                assured = (
                    all(i in verified_jobs for i in final_jobs)
                    and verifiable <= verified_ok
                )
        rerun_range = (
            range(0)
            if settled_on_resume
            else range(start_attempt, cfg.max_reruns + 1)
        )
        for attempt_index in rerun_range:
            attempts_used += 1
            if attempt_index == start_attempt and resume is None:
                pending = list(order)
            else:
                # Resumed first attempts also take the closure path:
                # commits replayed from the journal are reused, never
                # re-executed.
                pending = rerun_closure()
                reused += len(order) - len(pending)
                if attempt_index > 0:
                    metrics.reruns += 1
                    self.audit.record(
                        self.loop.now,
                        RERUN,
                        script_id,
                        attempt=attempt_index,
                        replication=replication,
                        jobs_rerun=len(pending),
                        jobs_reused=len(order) - len(pending),
                        **self.audit_context,
                    )
            if not pending:
                # Nothing left to run — e.g. a resume whose journal
                # already captured the full commit set.  Assurance holds
                # iff the restored state covers every output.
                if verifiable:
                    assured = (
                        all(i in verified_jobs for i in final_jobs)
                        and verifiable <= verified_ok
                    )
                break
            if journal is not None:
                journal.append(
                    wal.ATTEMPT_START,
                    script_id=script_id,
                    attempt=attempt_index,
                    replication=replication,
                    timeout=timeout,
                    jobs=list(pending),
                )
            attempt = _Attempt()
            last_attempt = attempt
            attempt_span = tracer.begin(
                "attempt",
                parent=run_span,
                start=self.loop.now,
                script_id=script_id,
                attempt=attempt_index,
                replication=replication,
                timeout=timeout,
                jobs=len(pending),
            )
            sid_jobs = {
                sid: job_index
                for job_index, sid in self._sids(
                    prepared, pending, script_id, attempt_index
                )
            }
            #: Sids settled eagerly at verdict time (checkpoint tier):
            #: their WAL/audit records and DFS copies already happened;
            #: the attempt-boundary loop merges the staged state instead
            #: of re-journaling.
            settled_sids: set[str] = set()
            staged_ok: set[int] = set()
            staged_commits: dict[int, tuple[str, str]] = {}

            def on_verdict(
                outcome,
                a=attempt,
                index=attempt_index,
                sids=sid_jobs,
                settled=settled_sids,
                ok=staged_ok,
                commits=staged_commits,
            ):
                self._on_verdict(a, outcome)
                if cfg.checkpoints:
                    self._checkpoint_verdict(
                        prepared,
                        a,
                        outcome,
                        script_id,
                        index,
                        sids,
                        settled,
                        ok,
                        commits,
                        journal,
                    )

            verifier = Verifier(
                self.loop,
                cfg.f,
                self.config.cost,
                timeout,
                on_verdict=on_verdict,
                on_late_fault=lambda sid, fault, j=journal: self._on_late_fault(
                    sid, fault, journal=j
                ),
                telemetry=self.telemetry,
                span_parent=attempt_span.span_id if tracer.enabled else None,
            )
            self._submit_attempt(
                prepared,
                pending=pending,
                replication=replication,
                script_id=script_id,
                attempt_index=attempt_index,
                verified_paths=verified_paths,
                verifier=verifier,
                attempt=attempt,
                journal=journal,
                span_parent=attempt_span.span_id if tracer.enabled else None,
            )
            # Global fail-safe: if stalled unverified jobs never finish,
            # end the attempt once every verification deadline has passed.
            self.loop.schedule(
                timeout + 4 * self.config.cost.digest_network_seconds,
                lambda a=attempt: setattr(a, "force_end", True),
                label=f"attempt-deadline:{script_id}:{attempt_index}",
            )
            yield _WaitWhile(lambda a=attempt: not a.done())
            # The force-end deadline can beat a verdict's delivery event;
            # pull any internally-decided outcomes so reruns see them.
            for sid in sorted(attempt.expected_verdicts - set(attempt.outcomes)):
                decided = verifier.outcome(sid)
                if decided is not None:
                    attempt.outcomes[sid] = decided
            for run in attempt.runs:
                outcome = attempt.outcomes.get(run.sid)
                sid_verified = outcome is not None and outcome.status == VERIFIED
                if run.state != "done" and (
                    not sid_verified or run.has_omitted_task()
                ):
                    # Cancel runs that can never verify; keep the late
                    # replicas of verified sids running — their digests
                    # still feed offline fault attribution.
                    self.engine.cancel(run)
            attempt.shared = None
            all_runs.extend(attempt.runs)
            metrics.verification_comparisons += verifier.total_comparisons

            outcomes = list(attempt.outcomes.values())
            all_outcomes.extend(outcomes)
            self._apply_outcomes(prepared, attempt, outcomes, journal=journal)

            # Commit verified, output-covered jobs; record every VERIFIED
            # sid (committable or not) as settled.
            for job_index, sid in self._sids(prepared, pending, script_id, attempt_index):
                if sid in settled_sids:
                    # Settled at verdict time (checkpoint tier): merge
                    # the staged effects at the same point in the
                    # attempt boundary the regular path applies them, so
                    # rerun closures and assurance checks are identical.
                    if job_index in staged_ok:
                        verified_ok.add(job_index)
                    staged = staged_commits.get(job_index)
                    if staged is not None:
                        logical, target = staged
                        verified_paths[logical] = target
                        verified_jobs.add(job_index)
                        checkpointed += 1
                    continue
                outcome = attempt.outcomes.get(sid)
                if outcome is not None:
                    if journal is not None:
                        journal.append(
                            wal.VERDICT,
                            sid=sid,
                            status=outcome.status,
                            winners=sorted(outcome.winners),
                            faulty_replicas=sorted(
                                fault.replica for fault in outcome.faults
                            ),
                        )
                    self.audit.record(
                        self.loop.now,
                        VERDICT,
                        sid,
                        status=outcome.status,
                        winners=tuple(sorted(outcome.winners)),
                        faulty_replicas=tuple(
                            fault.replica for fault in outcome.faults
                        ),
                        **self.audit_context,
                    )
                if outcome is None or outcome.status != VERIFIED:
                    continue
                spec = graph.jobs[job_index]
                if output_coverage(spec) is None:
                    verified_ok.add(job_index)
                    continue
                # Equivocation defense: digests cover the *computed*
                # stream, so a node may verify yet persist different
                # bytes.  Cross-check winners' stored outputs before
                # trusting any of them; no majority means the sid stays
                # unsettled and the rerun escalation takes over.
                winner = self._cross_checked_winner(
                    attempt,
                    outcome,
                    script_id,
                    attempt_index,
                    job_index,
                    spec,
                    journal=journal,
                )
                if winner is None:
                    continue
                verified_ok.add(job_index)
                source = self._replica_path(
                    script_id, attempt_index, winner, spec.output_path
                )
                target = f"__run/{script_id}/verified/{spec.output_path}"
                if journal is not None:
                    # The commit record carries the full winning content
                    # (fsync'd): recovery re-stages it into a fresh DFS
                    # without re-executing the job.
                    journal.append(
                        wal.COMMIT,
                        sid=sid,
                        job_index=job_index,
                        path=spec.output_path,
                        target=target,
                        winner=winner,
                        content=wal.records_to_json(self.dfs.read(source)),
                    )
                self._copy_file(source, target)
                verified_paths[spec.output_path] = target
                verified_jobs.add(job_index)
                self.audit.record(
                    self.loop.now,
                    COMMIT,
                    sid,
                    path=spec.output_path,
                    winner=winner,
                    **self.audit_context,
                )

            attempt_span.end(
                verdicts={
                    status: sum(1 for o in outcomes if o.status == status)
                    for status in (VERIFIED, FAILED, TIMEOUT)
                },
                comparisons=verifier.total_comparisons,
            )
            if journal is not None:
                # The settled attempt boundary (fsync'd): everything
                # recovery needs to rebuild the control tier's state.
                # next_replication/next_timeout are the deterministic
                # escalation values — written *before* the escalation
                # branch runs (write-ahead).
                journal.append(
                    wal.ATTEMPT_END,
                    script_id=script_id,
                    attempt=attempt_index,
                    attempts_used=attempts_used,
                    next_replication=replication + cfg.rerun_extra_replicas,
                    next_timeout=escalated_timeout(timeout),
                    verified_jobs=sorted(verified_jobs),
                    verified_ok=sorted(verified_ok),
                    verified_paths=dict(sorted(verified_paths.items())),
                    reused=reused,
                    suspicion={
                        node_id: [state.jobs_executed, state.faults_associated]
                        for node_id, state in sorted(self.suspicion.nodes.items())
                    },
                    analyzer={
                        "observations": self.fault_analyzer.observations,
                        "saturated_at": self.fault_analyzer.saturated_at,
                        "disjoint": [
                            sorted(s) for s in self.fault_analyzer.disjoint
                        ],
                        "overlapping": [
                            sorted(s) for s in self.fault_analyzer.overlapping
                        ],
                    },
                    evicted=sorted(
                        node_id
                        for node_id, node in self.cluster.nodes.items()
                        if node.excluded
                    ),
                    quarantined=sorted(self.scheduler.quarantined),
                )
            if not verifiable:
                # Nothing to verify (outputs not instrumented): run once,
                # publish best-effort, report unassured.
                break
            if all(i in verified_jobs for i in final_jobs) and verifiable <= verified_ok:
                assured = True
                break
            replication += cfg.rerun_extra_replicas
            next_timeout = escalated_timeout(timeout)
            if next_timeout < timeout * 2:
                # Liveness signal: escalation wanted to keep doubling but
                # hit the configured ceiling — audited, never silent.
                self.audit.record(
                    self.loop.now,
                    TIMEOUT_CAP,
                    script_id,
                    attempt=attempt_index,
                    capped=next_timeout,
                    uncapped=timeout * 2,
                    **self.audit_context,
                )
            timeout = next_timeout
            if tracer.enabled:
                tracer.event(
                    "escalation",
                    script_id=script_id,
                    next_replication=replication,
                    next_timeout=timeout,
                )

        outputs = self._publish_outputs(
            prepared, script_id, verified_paths, assured, last_attempt
        )
        metrics.latency = self.loop.now - start
        exhausted = bool(verifiable) and not assured
        unsettled = [
            f"{script_id}.j{job_index}"
            for job_index in sorted(verifiable - verified_ok)
        ]
        if exhausted:
            self.audit.record(
                self.loop.now,
                EXHAUSTED,
                script_id,
                attempts=attempts_used,
                unsettled=tuple(unsettled),
                **self.audit_context,
            )
        run_span.end(
            end=self.loop.now,
            latency=metrics.latency,
            assured=assured,
            attempts=attempts_used,
            reused_jobs=reused,
            checkpoints=checkpointed,
        )
        # Drain the late replicas of verified sids (offline attribution):
        # happens after the latency clock stops — verification is not on
        # the critical path.  The drain is bounded: replicas that cannot
        # make progress (e.g. their partition was evicted) are cancelled.
        drain_deadline = self.loop.now + cfg.verifier_timeout
        yield _WaitWhile(
            lambda: self.loop.now < drain_deadline
            and any(run.is_active and not run.all_finished() for run in all_runs)
        )
        # Digest messages and verifier finalization trail task completion
        # by a few network hops — flush them, or late-replica faults
        # would never be attributed.
        yield _WaitUntil(
            self.loop.now + 10 * self.config.cost.digest_network_seconds + 0.5
        )
        for run in all_runs:
            if run.state != "done":
                self.engine.cancel(run)
        self._evict_suspects(journal=journal)
        for run in all_runs:
            metrics.absorb_job(run.metrics)
        if self.telemetry.enabled:
            publish_run(self.telemetry.metrics, metrics, mode="assured")
        if journal is not None:
            # Terminal record (fsync'd): a journal ending in run_end is
            # complete — resuming it replays the recorded result instead
            # of re-executing anything.  Closing here also enforces the
            # one-WAL-one-run contract.
            journal.append(
                wal.RUN_END,
                script_id=script_id,
                assured=assured,
                exhausted=exhausted,
                attempts=attempts_used,
                reused=reused,
                checkpoints=checkpointed,
                latency=metrics.latency,
                outputs={
                    logical: wal.records_to_json(records)
                    for logical, records in sorted(outputs.items())
                },
            )
            journal.close()
        result = ScriptResult(
            script_id=script_id,
            assured=assured,
            outputs=outputs,
            latency=metrics.latency,
            attempts=attempts_used,
            metrics=metrics,
            outcomes=all_outcomes,
            marked_vertices=list(prepared.marked_vertices),
            reused_jobs=reused,
            exhausted=exhausted,
            checkpoint_commits=checkpointed,
        )
        if exhausted and strict:
            error = VerificationExhausted(script_id, attempts_used, unsettled)
            error.result = result
            raise error
        return result

    # ------------------------------------------------------------------
    # attempt plumbing
    # ------------------------------------------------------------------

    def _sids(self, prepared, pending, script_id, attempt_index):
        return [
            (job_index, f"{script_id}.a{attempt_index}.j{job_index}")
            for job_index in pending
        ]

    def _replica_path(self, script_id: str, attempt: int, replica: int, logical: str) -> str:
        return f"__run/{script_id}/a{attempt}/r{replica}/{logical}"

    def _submit_attempt(
        self,
        prepared: PreparedScript,
        pending: list[int],
        replication: int,
        script_id: str,
        attempt_index: int,
        verified_paths: dict[str, str],
        verifier: Verifier | None,
        attempt: _Attempt,
        journal: wal.Journal | None = None,
        span_parent: int | None = None,
    ) -> None:
        graph = prepared.job_graph
        internal = graph.internal_paths()
        deps = graph.dependencies()
        pending_set = set(pending)
        attempt.deps = {i: {d for d in deps[i] if d in pending_set} for i in pending}

        submitted: dict[tuple[int, int], JobRun] = {}
        if replication > 1:
            attempt.shared = ReplicaResults()
        done: set[tuple[int, int]] = set()

        job_sids = dict(self._sids(prepared, pending, script_id, attempt_index))
        for job_index in pending:
            spec = graph.jobs[job_index]
            if verifier is not None and job_has_verification(spec):
                attempt.expected_verdicts.add(job_sids[job_index])
                # Register up front: the timeout clock must cover stalls
                # anywhere in the chain, including upstream jobs that
                # keep this sid's replicas from ever being submitted.
                verifier.register(job_sids[job_index], replication)
            else:
                for replica in range(replication):
                    attempt.plain_jobs_pending.add((job_index, replica))
                    if not spec.output_is_temp:
                        attempt.plain_final_pending.add((job_index, replica))

        def path_map_for(job_index: int, replica: int) -> dict[str, str]:
            spec = graph.jobs[job_index]
            mapping: dict[str, str] = {}
            for path in spec.input_paths():
                if path in verified_paths:
                    mapping[path] = verified_paths[path]
                elif path in internal:
                    mapping[path] = self._replica_path(
                        script_id, attempt_index, replica, path
                    )
            mapping[spec.output_path] = self._replica_path(
                script_id, attempt_index, replica, spec.output_path
            )
            return mapping

        def on_complete(run: JobRun, job_index: int, replica: int) -> None:
            done.add((job_index, replica))
            attempt.plain_jobs_pending.discard((job_index, replica))
            attempt.plain_final_pending.discard((job_index, replica))
            self.suspicion.record_job(run.nodes_used)
            chain = set(run.nodes_used)
            for dep in deps[job_index]:
                if dep in pending_set:
                    chain |= attempt.chain_nodes.get((dep, replica), set())
            attempt.chain_nodes[(job_index, replica)] = chain
            if verifier is not None and job_has_verification(run.spec):
                if journal is not None:
                    # Write-ahead: the digest receipt is journaled before
                    # the verifier acts on it.
                    journal.append(
                        wal.DIGEST,
                        sid=run.sid,
                        replica=replica,
                        nodes=sorted(chain),
                    )
                verifier.replica_completed(run.sid, replica, chain)
            submit_ready()

        def submit_ready() -> None:
            for job_index in pending:
                job_deps = {d for d in deps[job_index] if d in pending_set}
                for replica in range(replication):
                    key = (job_index, replica)
                    if key in submitted:
                        continue
                    if not all((d, replica) in done for d in job_deps):
                        continue
                    sid = job_sids[job_index]
                    spec = graph.jobs[job_index]
                    # Replicas share task results only along chains that
                    # stayed on data-honest nodes (DESIGN.md §16).
                    clean_chain = all(submitted[d, replica].clean for d in job_deps)
                    run = submitted[key] = JobRun(
                        job_id=f"{sid}.r{replica}",
                        sid=sid,
                        replica=replica,
                        spec=spec,
                        path_map=path_map_for(job_index, replica),
                        scope=f"{script_id}.a{attempt_index}",
                        digest_sink=verifier.on_report if verifier else None,
                        on_complete=lambda run, i=job_index, k=replica: on_complete(
                            run, i, k
                        ),
                        total_replicas=replication,
                        # Span attributes for trace analysis: the deps
                        # (restricted to this attempt's pending set) are
                        # what the critical-path computation follows.
                        trace_attrs={
                            "attempt": attempt_index,
                            "job_index": job_index,
                            "deps": sorted(job_deps),
                        },
                        span_parent=span_parent,
                        shared=attempt.shared if clean_chain else None,
                        job_index=job_index,
                    )
                    attempt.runs.append(run)
                    attempt.runs_by_job.setdefault(job_index, []).append(run)
                    self.engine.submit(run)

        submit_ready()

    def _on_verdict(self, attempt: _Attempt, outcome: VerificationOutcome) -> None:
        attempt.outcomes[outcome.sid] = outcome

    def _checkpoint_verdict(
        self,
        prepared: PreparedScript,
        attempt: _Attempt,
        outcome: VerificationOutcome,
        script_id: str,
        attempt_index: int,
        sid_jobs: dict[str, int],
        settled: set[str],
        staged_ok: set[int],
        staged_commits: dict[int, tuple[str, str]],
        journal: wal.Journal | None,
    ) -> None:
        """Verdict-time commit (``ClusterBFTConfig.checkpoints``).

        Journals the verdict and — for output-covered, cross-checked
        VERIFIED sids — an fsync'd ``checkpoint`` record *inside* the
        running attempt, so a crash mid-attempt resumes from the last
        verified sub-graph instead of rerunning everything.  Run-state
        effects (``verified_jobs``/``verified_ok``/``verified_paths``)
        are *staged* and merged at the attempt boundary: the in-flight
        attempt's path map must not change under it, keeping a
        checkpointed uninterrupted run event-for-event identical to a
        checkpoint-free one.
        """
        if outcome.status != VERIFIED:
            # TIMEOUT/FAILED sids stay with the attempt-end loop: they
            # produce no commit, so eager settlement buys no durability.
            return
        job_index = sid_jobs.get(outcome.sid)
        if job_index is None:
            return
        if journal is None:
            journal = self.journal
        spec = prepared.job_graph.jobs[job_index]
        if journal is not None:
            journal.append(
                wal.VERDICT,
                sid=outcome.sid,
                status=outcome.status,
                winners=sorted(outcome.winners),
                faulty_replicas=sorted(
                    fault.replica for fault in outcome.faults
                ),
            )
        self.audit.record(
            self.loop.now,
            VERDICT,
            outcome.sid,
            status=outcome.status,
            winners=tuple(sorted(outcome.winners)),
            faulty_replicas=tuple(fault.replica for fault in outcome.faults),
            **self.audit_context,
        )
        # Settled even when the cross-check below yields no majority:
        # the verdict is journaled either way, and the attempt-end loop
        # must not journal it (or attribute equivocation faults) twice.
        settled.add(outcome.sid)
        if output_coverage(spec) is None:
            staged_ok.add(job_index)
            return
        winner = self._cross_checked_winner(
            attempt,
            outcome,
            script_id,
            attempt_index,
            job_index,
            spec,
            journal=journal,
        )
        if winner is None:
            return
        staged_ok.add(job_index)
        source = self._replica_path(
            script_id, attempt_index, winner, spec.output_path
        )
        target = f"__run/{script_id}/verified/{spec.output_path}"
        if journal is not None:
            # Like a commit record, the checkpoint carries the winning
            # content inline (fsync'd): recovery re-stages it into a
            # fresh DFS without re-executing the job.
            journal.append(
                wal.CHECKPOINT,
                sid=outcome.sid,
                job_index=job_index,
                path=spec.output_path,
                target=target,
                winner=winner,
                content=wal.records_to_json(self.dfs.read(source)),
            )
        self._copy_file(source, target)
        staged_commits[job_index] = (spec.output_path, target)
        # Audited as a COMMIT (with a checkpoint marker) so coverage
        # checks over committed sids keep seeing one uniform kind.
        self.audit.record(
            self.loop.now,
            COMMIT,
            outcome.sid,
            path=spec.output_path,
            winner=winner,
            checkpoint=True,
            **self.audit_context,
        )
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "checkpoint.commit", sid=outcome.sid, path=spec.output_path
            )
            self.telemetry.metrics.counter("checkpoint_commits").inc()

    def _on_late_fault(
        self, sid: str, fault, journal: wal.Journal | None = None
    ) -> None:
        """A replica that finished after its sid's verdict disagreed with
        the winning digest vector."""
        if journal is None:
            journal = self.journal
        if journal is not None:
            journal.append(
                wal.LATE_FAULT,
                sid=sid,
                replica=fault.replica,
                fault_kind=fault.kind,
                nodes=sorted(fault.nodes),
            )
        # Late faults mutate cross-run shared state (suspicion, fault
        # analyzer) inside a tenant's attribution window, so the audit
        # trail must name that tenant — same contract as the verdict-time
        # fault path in _apply_outcomes (AUD001).
        self.audit.record(
            self.loop.now,
            FAULT,
            sid,
            replica=fault.replica,
            fault_kind=fault.kind,
            nodes=tuple(sorted(fault.nodes)),
            late=True,
            **self.audit_context,
        )
        self.suspicion.record_fault(set(fault.nodes))
        if fault.kind == COMMISSION:
            self.fault_analyzer.observe(set(fault.nodes))
        self._maybe_reconfigure(journal=journal)
        if self.telemetry.enabled:
            self._publish_suspicion_gauges()

    # ------------------------------------------------------------------
    # outcome handling: suspicion, fault isolation, eviction
    # ------------------------------------------------------------------

    def _apply_outcomes(
        self,
        prepared: PreparedScript,
        attempt: _Attempt,
        outcomes: list[VerificationOutcome],
        journal: wal.Journal | None = None,
    ) -> None:
        if journal is None:
            journal = self.journal
        for outcome in outcomes:
            if outcome.status == VERIFIED:
                # Losers are *known* faulty clusters: quorum proved the
                # correct digests, these replicas disagreed.
                for fault in outcome.faults:
                    if journal is not None:
                        journal.append(
                            wal.FAULT,
                            sid=outcome.sid,
                            replica=fault.replica,
                            fault_kind=fault.kind,
                            nodes=sorted(fault.nodes),
                        )
                    self.audit.record(
                        self.loop.now,
                        FAULT,
                        outcome.sid,
                        replica=fault.replica,
                        fault_kind=fault.kind,
                        nodes=tuple(sorted(fault.nodes)),
                        **self.audit_context,
                    )
                    self.suspicion.record_fault(set(fault.nodes))
                    if fault.kind == COMMISSION:
                        self.fault_analyzer.observe(set(fault.nodes))
            elif outcome.status == FAILED:
                # No quorum: every cluster is a suspect, none is proven.
                for fault in outcome.faults:
                    self.suspicion.record_fault(set(fault.nodes))
            elif outcome.status == TIMEOUT:
                # Suspect only the replicas that never reported.
                missing_nodes = self._missing_replica_nodes(attempt, outcome)
                if missing_nodes:
                    self.suspicion.record_fault(missing_nodes)
        # Once the fault analyzer saturates (|D| = f), every fault must
        # live inside its suspect set — exonerate the rest (paper §4.3).
        if self.fault_analyzer.saturated:
            cleared = self.suspicion.suspects() - self.fault_analyzer.suspects()
            if journal is not None:
                # The analyzer's conclusion, journaled before it acts
                # (exoneration mutates suspicion levels).
                journal.append(
                    wal.ANALYZER,
                    suspects=sorted(self.fault_analyzer.suspects()),
                    cleared=sorted(cleared),
                )
            if cleared:
                self.suspicion.clear_faults(cleared)
        self._evict_suspects(journal=journal)
        self._maybe_reconfigure(journal=journal)
        if self.telemetry.enabled:
            self._publish_suspicion_gauges()

    def _missing_replica_nodes(
        self, attempt: _Attempt, outcome: VerificationOutcome
    ) -> set[NodeId]:
        """Nodes that touched a replica chain that never reported: the
        stalled job's own nodes plus the finished upstream chain."""
        nodes: set[NodeId] = set()
        for job_index, runs in attempt.runs_by_job.items():
            for run in runs:
                if run.sid == outcome.sid and run.replica in outcome.missing_replicas:
                    nodes |= run.nodes_used
                    for dep in attempt.deps.get(job_index, set()):
                        nodes |= attempt.chain_nodes.get((dep, run.replica), set())
        return nodes

    def _cross_checked_winner(
        self,
        attempt: _Attempt,
        outcome: VerificationOutcome,
        script_id: str,
        attempt_index: int,
        job_index: int,
        spec,
        journal: wal.Journal | None = None,
    ) -> int | None:
        """Content cross-check over the digest quorum's winner replicas.

        Groups the winners by the bytes they actually stored and commits
        the lowest replica of a strict majority.  Divergent winners are
        demoted to equivocation faults (their digests matched, their
        stored file did not), feeding suspicion and the fault analyzer.
        Returns ``None`` when no majority exists — the caller must leave
        the sid unsettled so the rerun escalation handles it.
        """
        groups: dict[tuple, list[int]] = {}
        for replica in sorted(outcome.winners):
            path = self._replica_path(
                script_id, attempt_index, replica, spec.output_path
            )
            if not self.dfs.exists(path):
                continue
            content = tuple(
                encode_record(r) for r in self.dfs.file_info(path).records()
            )
            groups.setdefault(content, []).append(replica)
        if not groups:
            return None
        readable = sum(len(replicas) for replicas in groups.values())
        majority: list[int] | None = None
        for replicas in groups.values():
            if len(replicas) * 2 > readable:
                majority = replicas
                break
        divergent = sorted(
            replica
            for replicas in groups.values()
            if replicas is not majority
            for replica in replicas
        )
        if journal is None:
            journal = self.journal
        for replica in divergent:
            nodes = attempt.chain_nodes.get((job_index, replica), set())
            if journal is not None:
                journal.append(
                    wal.FAULT,
                    sid=outcome.sid,
                    replica=replica,
                    fault_kind="equivocation",
                    nodes=sorted(nodes),
                )
            self.audit.record(
                self.loop.now,
                FAULT,
                outcome.sid,
                replica=replica,
                fault_kind="equivocation",
                nodes=tuple(sorted(nodes)),
                **self.audit_context,
            )
            if nodes:
                self.suspicion.record_fault(set(nodes))
                self.fault_analyzer.observe(set(nodes))
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "equivocations_detected"
                ).inc()
        if divergent:
            # Equivocation is often the first region-level signal a
            # degrading zone gives off — check for migration here too,
            # not just at attempt boundaries.
            self._maybe_reconfigure(journal=journal)
            if self.telemetry.enabled:
                self._publish_suspicion_gauges()
        if majority is None:
            return None
        return min(majority)

    def _evict_suspects(self, journal: wal.Journal | None = None) -> None:
        cfg = self.config.bft
        if journal is None:
            journal = self.journal
        # Sorted: audit-entry order must not depend on set iteration
        # (string hashing is salted per process — byte-identical trace
        # replays need a canonical order).
        for node_id in sorted(self.suspicion.over_threshold(cfg.suspicion_threshold)):
            state = self.suspicion.nodes[node_id]
            if state.jobs_executed < cfg.suspicion_min_jobs:
                continue
            if not self.cluster.node(node_id).excluded:
                if journal is not None:
                    journal.append(
                        wal.EVICTION,
                        node=node_id,
                        suspicion=round(state.level, 3),
                        jobs=state.jobs_executed,
                        **self.audit_context,
                    )
                self.cluster.exclude(node_id)
                self.audit.record(
                    self.loop.now,
                    EVICTION,
                    node_id,
                    suspicion=round(state.level, 3),
                    jobs=state.jobs_executed,
                    **self.audit_context,
                )
        if cfg.quarantine_threshold is None:
            return
        for node_id in sorted(self.suspicion.over_threshold(cfg.quarantine_threshold)):
            state = self.suspicion.nodes[node_id]
            if state.jobs_executed < cfg.suspicion_min_jobs:
                continue
            if self.cluster.node(node_id).excluded:
                continue  # eviction supersedes quarantine
            if self.scheduler.is_quarantined(node_id):
                continue
            if journal is not None:
                journal.append(
                    wal.QUARANTINE,
                    node=node_id,
                    suspicion=round(state.level, 3),
                    jobs=state.jobs_executed,
                    **self.audit_context,
                )
            self.scheduler.quarantine(node_id)
            self.audit.record(
                self.loop.now,
                QUARANTINE,
                node_id,
                suspicion=round(state.level, 3),
                jobs=state.jobs_executed,
                **self.audit_context,
            )

    # ------------------------------------------------------------------
    # online reconfiguration: region-level migration
    # ------------------------------------------------------------------

    def _region_suspicion(self, region: str) -> tuple[float, int]:
        """Aggregate suspicion of a region: total faults over total jobs
        across its nodes (0.0 before any node there executed a job)."""
        jobs = faults = 0
        for node_id in self.cluster.region_node_ids(region):
            state = self.suspicion.nodes.get(node_id)
            if state is None:
                continue
            jobs += state.jobs_executed
            faults += state.faults_associated
        return (faults / jobs if jobs else 0.0, jobs)

    def _schedulable_region_nodes(self, region: str) -> list[NodeId]:
        return [
            node_id
            for node_id in self.cluster.region_node_ids(region)
            if not self.cluster.node(node_id).excluded
            and not self.scheduler.is_quarantined(node_id)
        ]

    def _maybe_reconfigure(self, journal: wal.Journal | None = None) -> None:
        """Migrate replica sets out of any region whose aggregate
        suspicion crossed the threshold.

        Invoked after every fault application; a no-op (and therefore
        byte-identical to the seed) unless ``region_suspicion_threshold``
        is set on a multi-region cluster.  Never drains the last
        schedulable region — a fully-suspect cluster is the rerun
        escalation's problem, not the topology's.
        """
        cfg = self.config.bft
        threshold = cfg.region_suspicion_threshold
        if threshold is None or not self.cluster.config.regions:
            return
        if journal is None:
            journal = self.journal
        regions = self.cluster.regions()
        for region in regions:
            nodes = self._schedulable_region_nodes(region)
            if not nodes:
                continue  # already migrated, quarantined or evicted
            level, jobs = self._region_suspicion(region)
            if jobs < cfg.region_min_jobs or level <= threshold:
                continue
            others_alive = any(
                self._schedulable_region_nodes(other)
                for other in regions
                if other != region
            )
            if not others_alive:
                continue
            self._migrate_region(region, level, jobs, nodes, journal)

    def _migrate_region(
        self,
        region: str,
        level: float,
        jobs: int,
        nodes: list[NodeId],
        journal: wal.Journal | None,
    ) -> None:
        """Quarantine a degrading region wholesale and re-dispatch its
        in-flight work; journaled write-ahead so a resumed run replays
        the same placement decision."""
        sids = sorted({run.sid for run in self.engine.live_runs})
        if journal is not None:
            journal.append(
                wal.RECONFIG,
                region=region,
                suspicion=round(level, 3),
                jobs=jobs,
                nodes=sorted(nodes),
                sids=sids,
                **self.audit_context,
            )
        for node_id in sorted(nodes):
            self.scheduler.quarantine(node_id)
        moved = 0
        for node_id in sorted(nodes):
            moved += self.engine.evacuate_node(node_id)
        self.audit.record(
            self.loop.now,
            RECONFIG,
            region,
            suspicion=round(level, 3),
            jobs=jobs,
            nodes=tuple(sorted(nodes)),
            tasks_moved=moved,
            **self.audit_context,
        )
        if self.telemetry.enabled:
            self.telemetry.tracer.event(
                "region.migrated",
                region=region,
                suspicion=round(level, 3),
                nodes=len(nodes),
                tasks_moved=moved,
            )
            self.telemetry.metrics.counter("region_migrations").inc()

    def _publish_suspicion_gauges(self) -> None:
        """One gauge-publication path for every execution surface: the
        same series the isolation simulator emits (via the shared
        :func:`~repro.core.gauges.publish_suspicion`), so controller
        traces — including chaos-campaign cells — carry Fig. 12-style
        time-series too."""
        publish_suspicion(
            self.telemetry.metrics,
            self.suspicion,
            self.fault_analyzer,
            quarantined=len(self.scheduler.quarantined),
        )
        # Per-region aggregate suspicion (geo clusters only; flat
        # clusters declare no regions, so their gauge set is unchanged).
        for region in self.cluster.regions():
            level, _jobs = self._region_suspicion(region)
            self.telemetry.metrics.gauge("region_suspicion", region=region).set(level)

    # ------------------------------------------------------------------
    # output publication
    # ------------------------------------------------------------------

    def _copy_file(self, source: str, target: str) -> None:
        records = self.dfs.read(source)
        if self.dfs.exists(target):
            self.dfs.delete(target)
        self.dfs.write_file(target, records)

    def _publish_outputs(
        self,
        prepared: PreparedScript,
        script_id: str,
        verified_paths: dict[str, str],
        assured: bool,
        last_attempt: _Attempt | None,
    ) -> dict[str, list[Record]]:
        outputs: dict[str, list[Record]] = {}
        for job in prepared.job_graph.jobs:
            if job.output_is_temp:
                continue
            logical = job.output_path
            if logical in verified_paths:
                source = verified_paths[logical]
            else:
                # Unassured fallback: best-effort replica 0 of the last
                # attempt (flagged by ScriptResult.assured = False).
                source = None
                if last_attempt:
                    for run in last_attempt.runs:
                        if run.spec.output_path == logical and run.replica == 0:
                            source = run.physical_path(logical)
                            break
            if source is None or not self.dfs.exists(source):
                outputs[logical] = []
                continue
            self._copy_file(source, logical)
            outputs[logical] = self.dfs.read(logical)
        return outputs

    def _publish_replica_outputs(
        self, prepared: PreparedScript, script_id: str, attempt: int, replica: int
    ) -> dict[str, list[Record]]:
        outputs: dict[str, list[Record]] = {}
        for job in prepared.job_graph.jobs:
            if job.output_is_temp:
                continue
            physical = self._replica_path(script_id, attempt, replica, job.output_path)
            if self.dfs.exists(physical):
                self._copy_file(physical, job.output_path)
                outputs[job.output_path] = self.dfs.read(job.output_path)
            else:
                outputs[job.output_path] = []
        return outputs
