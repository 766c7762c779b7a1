"""Crash recovery: replay a control-plane journal and resume the run.

The counterpart to :mod:`repro.core.journal`.  Given a WAL left behind
by a crashed control tier, :func:`resume_run`

1. reopens the journal (:meth:`~repro.core.journal.Journal.reopen`:
   a torn tail is cut off first, then the rest is read), validates the
   header (schema version, script hash) and rebuilds the exact
   :class:`~repro.common.config.SystemConfig` the run used;
2. builds a *fresh* controller/request-handler/verifier stack and
   re-stages the journal's input data-sets into its trusted DFS;
3. restores the state captured by the last fsync'd ``attempt_end``
   snapshot — the last *settled attempt boundary*: the run's half
   becomes a :class:`~repro.core.journal.RunState`, the tier's half
   (suspicion levels, fault-analyzer sets, evictions, quarantine) and
   every journaled ``reconfig`` go back into the controller's
   :class:`~repro.core.resource_manager.ResourceManager`;
4. replays every fsync'd ``commit`` and ``checkpoint`` record
   (including ones from the crashed, unfinished attempt) into the DFS
   and the run state: committed VERIFIED jobs are reused, never
   re-executed — checkpoints are verdict-time commits, so a crash
   *mid-attempt* resumes after the last verified sub-graph rather than
   rerunning the whole closure;
5. re-prepares the script with the *recorded* verification points and
   hands the run state to
   :meth:`~repro.core.controller.ClusterBFTController._run_assured`,
   which re-enters the rerun-escalation loop for the unsettled sids.

A journal that already ends in ``run_end`` is *complete*: the recorded
result is returned without executing anything.

What resumption guarantees — and what it does not
-------------------------------------------------
An assured run's published outputs are the verified (digest-quorum +
content-cross-checked) computation results, which are a pure function
of the script and its inputs.  A resumed run therefore publishes
**byte-identical outputs** to the uninterrupted run with the same seed
(the chaos harness' ``DUR1`` invariant).  Latency, attempt counts and
scheduling detail of re-executed attempts may differ: the resumed
controller starts fresh RNG streams, so the crashed attempt's partial
work is re-simulated, not replayed event-for-event.

One WAL describes one assured run.  The caller must supply the same
fault plan the original run used (fault plans are an experiment input,
not journaled state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import journal as wal
from repro.core.audit import TORN_TAIL
from repro.core.controller import ClusterBFTController, ScriptResult
from repro.faults.injection import FaultPlan
from repro.mapreduce.metrics import RunMetrics
from repro.mapreduce.scheduler import TaskScheduler
from repro.telemetry import Telemetry


@dataclass
class RecoveredRun:
    """What :func:`resume_run` hands back."""

    result: ScriptResult
    #: The controller that finished the run — ``None`` when the journal
    #: was already complete (nothing was executed).
    controller: ClusterBFTController | None
    warnings: list[str] = field(default_factory=list)
    #: Fsync'd commit records replayed into the fresh DFS (jobs reused,
    #: never re-executed).
    commits_replayed: int = 0
    #: Fsync'd ``checkpoint`` records replayed into the fresh DFS:
    #: verdict-time commits from the crashed attempt
    #: (``ClusterBFTConfig.checkpoints``) — the sub-graphs the rerun
    #: escalation resumes *after* instead of re-executing.
    checkpoints_replayed: int = 0
    #: Attempt index the rerun-escalation loop re-entered at.
    start_attempt: int = 0
    #: True when the journal ended in ``run_end`` (recorded result
    #: returned verbatim, no execution).
    completed: bool = False


def _completed_result(run_end: dict) -> ScriptResult:
    """Reconstruct the recorded result of a finished journal."""
    return ScriptResult(
        script_id=run_end["script_id"],
        assured=run_end["assured"],
        outputs={
            logical: wal.records_from_json(rows)
            for logical, rows in run_end["outputs"].items()
        },
        latency=run_end["latency"],
        attempts=run_end["attempts"],
        metrics=RunMetrics(),
        reused_jobs=run_end["reused"],
        exhausted=run_end["exhausted"],
        # Older journals predate the checkpoint tier.
        checkpoint_commits=run_end.get("checkpoints", 0),
    )


def resume_run(
    path: str,
    fault_plan: FaultPlan | None = None,
    scheduler: TaskScheduler | None = None,
    telemetry: Telemetry | None = None,
    crash_hook=None,
    strict: bool = False,
) -> RecoveredRun:
    """Resume (or report) the run described by the journal at ``path``.

    ``crash_hook`` is re-armed on the reopened journal — the chaos
    harness uses it to crash the control tier *again* mid-recovery.
    With ``strict`` the resumed controller raises
    :class:`~repro.common.errors.VerificationExhausted` when the
    escalation budget runs out.
    """
    journal, records = wal.Journal.reopen(path, crash_hook=crash_hook)
    header = records[0]
    config = wal.config_from_json(header["config"])
    warnings = []
    if journal.torn_bytes_truncated:
        # Crash damage is evidence: the reopen dropped a torn final
        # line — surface how much, in the warnings *and* the audit log.
        warnings.append(
            f"journal tail truncated: dropped {journal.torn_bytes_truncated} "
            "byte(s) of torn final record"
        )

    run_start: dict | None = None
    snapshot: dict | None = None
    commits: list[dict] = []
    checkpoints: list[dict] = []
    reconfigs: list[dict] = []
    run_end: dict | None = None
    for record in records[1:]:
        kind = record["kind"]
        if kind == wal.RUN_START:
            run_start = record
        elif kind == wal.ATTEMPT_END:
            snapshot = record  # the latest settled boundary wins
        elif kind == wal.COMMIT:
            commits.append(record)
        elif kind == wal.CHECKPOINT:
            checkpoints.append(record)
        elif kind == wal.RECONFIG:
            reconfigs.append(record)
        elif kind == wal.RUN_END:
            run_end = record

    if run_end is not None:
        journal.close()
        return RecoveredRun(
            result=_completed_result(run_end),
            controller=None,
            warnings=warnings,
            completed=True,
        )

    controller = ClusterBFTController(
        config=config,
        fault_plan=fault_plan,
        scheduler=scheduler,
        block_bytes=header["block_bytes"],
        telemetry=telemetry,
        journal=journal,
    )
    if journal.torn_bytes_truncated:
        controller.audit.record(
            controller.loop.now,
            TORN_TAIL,
            path,
            bytes_truncated=journal.torn_bytes_truncated,
        )
    for dfs_path, staged in header["inputs"].items():
        controller.load_input(dfs_path, staged)

    script = header["script"]

    if run_start is None:
        # Crashed before the run even started: nothing to restore —
        # run from scratch on the reopened journal.
        journal.append(wal.RESUME, start_attempt=0, commits_replayed=0)
        return RecoveredRun(
            result=controller.run_assured(script, strict=strict),
            controller=controller,
            warnings=warnings,
        )

    # -- restore the last settled attempt boundary ----------------------
    run = wal.RunState.replayed(run_start, snapshot, config.bft)
    controller.resources.replay(snapshot, reconfigs)

    # -- replay fsync'd commits (even from the crashed attempt) ---------
    # A checkpoint is a verdict-time commit: same shape, same idempotent
    # delete-then-write staging (one folded into a later snapshot is
    # simply re-staged to the identical content) — this is how a crash
    # *inside* an attempt resumes from the last verified sub-graph
    # instead of rerunning the whole closure.  Boundary commits go
    # first, then checkpoints, whatever their WAL order: DFS block
    # placement advances a cursor per block written, so the staging
    # order is simulated state.
    commits_replayed = len(commits)
    commits.extend(checkpoints)
    for commit in commits:
        target = commit["target"]
        controller.load_input(target, wal.records_from_json(commit["content"]))
        run.settle(commit["job_index"], commit["path"], target)
        if commit["kind"] == wal.CHECKPOINT and controller.telemetry.enabled:
            controller.telemetry.tracer.event(
                "checkpoint.restore", sid=commit["sid"], path=commit["path"]
            )

    journal.append(
        wal.RESUME,
        script_id=run.script_id,
        start_attempt=run.start_attempt,
        commits_replayed=commits_replayed,
        checkpoints_replayed=len(checkpoints),
    )

    # -- re-prepare with the *recorded* instrumentation -----------------
    prepared = controller.prepare(
        script, list(run_start["marked"]), run_start["include_output_points"]
    )
    return RecoveredRun(
        result=controller._run_assured(prepared, run, strict=strict),
        controller=controller,
        warnings=warnings,
        commits_replayed=commits_replayed,
        checkpoints_replayed=len(checkpoints),
        start_attempt=run.start_attempt,
    )
