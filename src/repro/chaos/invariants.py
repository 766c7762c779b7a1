"""Safety / liveness / degradation invariant checkers.

Each checker inspects one finished chaos run — the controller state,
the script results, the ground-truth outputs and the telemetry trace —
and returns :class:`Violation`\\ s.  Checkers only *observe*: they never
mutate the controller, so evaluation order is irrelevant and a report
can be recomputed from a persisted trace plus the replica files.

Invariant ids (stable — referenced by reports, tests and DESIGN.md):

``SAFE1``
    No tampered record in any verified sink: when a run reports
    ``assured``, its published outputs equal the fault-free reference.
``SAFE2``
    The verifier never *silently* matched digests from divergent stored
    outputs: whenever the digest-quorum winners of a committed sid
    persisted more than one distinct content, the trusted tier audited
    an equivocation fault for that sid.
``LIVE1``
    Every script run terminates within the rerun budget with an
    explicit verdict (and ends assured when the scenario expects it).
``LIVE2``
    Attribution converges: the end-of-campaign suspect set is a
    superset of the culprits the scenario expects attributed.
``DEGR1``
    Quarantined nodes receive no new task attempts after the
    quarantine's audit timestamp.
``DUR1``
    Crash-resume equivalence: a run killed at any journaled decision
    point and resumed from its WAL publishes byte-identical outputs
    (and the same assured verdict) as the uninterrupted journaled run
    with the same seed.
``REG1``
    Regional resilience: runs stay assured and terminate despite
    losing (or migrating away from) a minority region — every node of
    an expected region outage ends detected-dead or excluded, and when
    the scenario expects online reconfiguration, a ``reconfig`` audit
    record names the degraded region.
``TEN1``
    Tenant isolation under flood: honest tenants' runs all end assured
    with truth-equal outputs, suffer no rejections, and their p99
    admission-to-verdict latency stays under the scenario's bound —
    regardless of what a flooding/faulty tenant does.
``TEN2``
    Cross-tenant quarantine amortization: a node implicated by one
    tenant's traffic is quarantined (attributed to that tenant in the
    audit log) and never runs another task afterwards, including for
    tenants whose runs were admitted later (paper Fig. 7, across
    tenants).
``OBS1``
    Alert fidelity: every built-in SLO alert rule the scenario expects
    (``expected_alerts``) fires over the faulty run's trace, and none
    of those rules fires over the trace of a fault-free twin of the
    same deployment — alerts detect injected faults without false
    positives.
``CKPT1``
    Checkpointed rerun equivalence: a checkpointed run publishes
    byte-identical outputs to its checkpoint-free twin (checkpoints
    change recovery granularity, never results), and a crash-resume
    at *every checkpoint boundary* — right after each ``checkpoint``
    WAL record became durable, and right after the record following
    it — restores from the checkpoint and still publishes the same
    bytes with the same assured verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.records import Record, encode_record
from repro.core.audit import COMMIT, EVICTION, FAULT, QUARANTINE, RECONFIG
from repro.core.verifier import VERIFIED

SAFE1 = "SAFE1"
SAFE2 = "SAFE2"
LIVE1 = "LIVE1"
LIVE2 = "LIVE2"
DEGR1 = "DEGR1"
DUR1 = "DUR1"
REG1 = "REG1"
TEN1 = "TEN1"
TEN2 = "TEN2"
OBS1 = "OBS1"
CKPT1 = "CKPT1"

INVARIANTS = (
    SAFE1, SAFE2, LIVE1, LIVE2, DEGR1, DUR1, REG1, TEN1, TEN2, OBS1, CKPT1,
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with a pointer into the evidence."""

    invariant: str
    detail: str
    #: Trace pointer: the relative trace file plus a locator (an event
    #: name / sim timestamp / sid) that pins the evidence inside it.
    trace_ref: str | None = None

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "trace_ref": self.trace_ref,
        }


@dataclass(frozen=True)
class CrashCell:
    """One crash point of a control-tier crash sweep: the run was
    killed right after journal record ``seq`` became durable, then
    resumed from the WAL."""

    seq: int
    kind: str  # journal record kind the crash landed on
    start_attempt: int
    commits_replayed: int
    assured: bool
    exhausted: bool
    checkpoints_replayed: int = 0
    #: Canonical published outputs of the resumed run (per logical
    #: path, as tuples of encoded record bytes — bag-order free).
    outputs: dict[str, tuple[bytes, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class CrashProbe:
    """A full crash sweep plus its uninterrupted reference run.  A
    checkpoint-boundary sweep (``seq`` is a ``checkpoint`` record or
    the record immediately following one) also carries a second
    uninterrupted reference: a checkpoint-free twin of the same
    scenario + seed."""

    reference_assured: bool
    reference_outputs: dict[str, tuple[bytes, ...]]
    cells: tuple[CrashCell, ...] = ()
    #: Number of ``checkpoint`` records the reference run journaled.
    checkpoint_records: int = 0
    twin_assured: bool | None = None
    twin_outputs: dict[str, tuple[bytes, ...]] = field(default_factory=dict)


def canonical_outputs(outputs: dict[str, list[Record]]) -> dict[str, tuple[bytes, ...]]:
    """Encode published outputs for order-insensitive byte comparison: a
    sorted tuple of encoded records per path, so two outputs compare
    equal exactly when they hold the same multiset of records (the
    semantics of the verifier's AdHash digest)."""
    return {
        path: tuple(sorted(encode_record(record) for record in records))
        for path, records in outputs.items()
    }


def _diverging(
    expected: dict[str, tuple[bytes, ...]], got: dict[str, tuple[bytes, ...]]
) -> list[tuple[str, int, int]]:
    """``(path, records got, records expected)`` for every path of
    ``expected`` whose canonical outputs ``got`` does not equal."""
    return [
        (path, len(got.get(path, ())), len(records))
        for path, records in expected.items()
        if got.get(path, ()) != records
    ]


@dataclass
class RunContext:
    """Everything a checker may look at for one (scenario, seed) run."""

    scenario: object  # Scenario (untyped to avoid an import cycle)
    controller: object  # ClusterBFTController
    results: list  # list[ScriptResult]
    truth: dict[str, list[Record]]
    records: list[dict] = field(default_factory=list)  # trace records
    trace_name: str | None = None
    #: Control-tier crash sweep results (scenarios with
    #: ``control_crashes``); ``None`` when the sweep did not run.
    durability: CrashProbe | None = None
    #: Checkpoint-boundary crash sweep results (scenarios with
    #: ``ckpt_sweep``); ``None`` when the sweep did not run.
    ckpt: CrashProbe | None = None
    #: Trace records of the telemetry-enabled fault-free twin (only
    #: populated when the scenario declares ``expected_alerts``).
    twin_records: list[dict] = field(default_factory=list)

    def ref(self, locator: str) -> str | None:
        if self.trace_name is None:
            return locator
        return f"{self.trace_name}#{locator}"


def check_safe1(ctx: RunContext) -> list[Violation]:
    """Assured outputs must be byte-for-byte the fault-free truth."""
    truth = canonical_outputs(ctx.truth)
    return [
        Violation(
            SAFE1,
            f"run {run_index}: verified sink {path!r} diverges "
            f"from reference ({got} vs {expected} records)",
            ctx.ref(f"run={run_index},sink={path}"),
        )
        for run_index, result in enumerate(ctx.results)
        if result.assured
        for path, got, expected in _diverging(truth, canonical_outputs(result.outputs))
    ]


def _committed_sids(ctx: RunContext) -> list[tuple[str, str, int]]:
    """(sid, committed logical path, winner) from the audit log."""
    audit = ctx.controller.audit
    return [
        (event.subject, event.details.get("path", ""), event.details.get("winner", 0))
        for event in audit.events(kind=COMMIT)
    ]


def _sid_parts(sid: str) -> tuple[str, int] | None:
    """``script0001.a2.j3`` -> (script_id, attempt_index)."""
    parts = sid.split(".")
    if len(parts) != 3 or not parts[1].startswith("a"):
        return None
    try:
        return parts[0], int(parts[1][1:])
    except ValueError:
        return None


def check_safe2(ctx: RunContext) -> list[Violation]:
    """Divergence among a committed sid's digest winners must have been
    detected (audited as an equivocation fault) — never silent."""
    violations = []
    controller = ctx.controller
    dfs = controller.dfs
    outcomes_by_sid = {
        outcome.sid: outcome
        for result in ctx.results
        for outcome in result.outcomes
        if outcome.status == VERIFIED
    }
    audited = {
        event.subject
        for event in controller.audit.events(kind=FAULT)
        if event.details.get("fault_kind") == "equivocation"
    }
    for sid, path, _winner in _committed_sids(ctx):
        outcome = outcomes_by_sid.get(sid)
        parts = _sid_parts(sid)
        if outcome is None or parts is None or not path:
            continue
        script_id, attempt_index = parts
        contents = set()
        for replica in sorted(outcome.winners):
            replica_path = f"__run/{script_id}/a{attempt_index}/r{replica}/{path}"
            if not dfs.exists(replica_path):
                continue
            contents.add(
                tuple(encode_record(r) for r in dfs.file_info(replica_path).records())
            )
        if len(contents) > 1 and sid not in audited:
            violations.append(
                Violation(
                    SAFE2,
                    f"digest winners of {sid} stored {len(contents)} distinct "
                    f"outputs for {path!r} with no equivocation fault audited",
                    ctx.ref(f"sid={sid}"),
                )
            )
    return violations


def check_live1(ctx: RunContext) -> list[Violation]:
    """Termination with an explicit verdict, inside the rerun budget."""
    violations = []
    scenario = ctx.scenario
    budget = scenario.max_reruns + 1
    for run_index, result in enumerate(ctx.results):
        if result.attempts > budget:
            violations.append(
                Violation(
                    LIVE1,
                    f"run {run_index}: {result.attempts} attempts exceed the "
                    f"max_reruns budget of {budget}",
                    ctx.ref(f"run={run_index}"),
                )
            )
        if not result.assured:
            # Rerun-budget exhaustion is an explicit LIVE-class verdict
            # (the controller reports it, audits it, and ``repro run``
            # maps it to a dedicated exit code) — not a crash.
            explicit = (
                result.exhausted
                or result.attempts >= budget
                or any(
                    outcome.status != VERIFIED for outcome in result.outcomes
                )
            )
            if not explicit:
                violations.append(
                    Violation(
                        LIVE1,
                        f"run {run_index}: unassured without an explicit "
                        f"failing verdict or an exhausted rerun budget",
                        ctx.ref(f"run={run_index}"),
                    )
                )
            if scenario.expect_assured:
                violations.append(
                    Violation(
                        LIVE1,
                        f"run {run_index}: scenario expects assured "
                        f"completion but the run ended unassured "
                        f"(attempts={result.attempts})",
                        ctx.ref(f"run={run_index}"),
                    )
                )
    return violations


def check_live2(ctx: RunContext) -> list[Violation]:
    """Suspect set must end a superset of the expected culprits."""
    scenario = ctx.scenario
    if not scenario.attributed_nodes:
        return []
    controller = ctx.controller
    node_ids = controller.cluster.node_ids()
    expected = {node_ids[index] for index in scenario.attributed_nodes}
    resources = controller.resources
    suspects = set(resources.suspicion.suspects())
    if resources.fault_analyzer.saturated:
        suspects |= set(resources.fault_analyzer.suspects())
    missed = sorted(expected - suspects)
    if missed:
        return [
            Violation(
                LIVE2,
                f"culprits never suspected: {', '.join(missed)} "
                f"(suspects: {', '.join(sorted(suspects)) or 'none'})",
                ctx.ref("suspects"),
            )
        ]
    return []


def check_degr1(ctx: RunContext) -> list[Violation]:
    """No task attempt may start on a node after its quarantine."""
    quarantined_at: dict[str, float] = {}
    for event in ctx.controller.audit.events(kind=QUARANTINE):
        quarantined_at.setdefault(event.subject, event.time)
    if not quarantined_at:
        return []
    violations = []
    for record in ctx.records:
        node = None
        started = None
        if record.get("type") == "span" and record.get("name") == "task":
            attrs = record.get("attrs") or {}
            node = attrs.get("node")
            started = record.get("start")
        elif record.get("type") == "event" and record.get("name") == "speculate":
            attrs = record.get("attrs") or {}
            node = attrs.get("node")
            started = record.get("ts")
        if node is None or started is None:
            continue
        cutoff = quarantined_at.get(node)
        if cutoff is not None and started > cutoff + 1e-9:
            violations.append(
                Violation(
                    DEGR1,
                    f"node {node} started a task at t={started:.3f} after "
                    f"its quarantine at t={cutoff:.3f}",
                    ctx.ref(f"node={node},t={started:.3f}"),
                )
            )
    return violations


def _resume_divergences(
    ctx: RunContext, invariant: str, probe: CrashProbe, cell: CrashCell
) -> list[Violation]:
    """A crash-resume cell against the uninterrupted run: the same
    assured verdict and byte-identical published outputs.  (Latency and
    attempt counts legitimately differ — the resumed controller
    re-simulates the crashed attempt with fresh RNG streams;
    correctness is output equivalence.)"""
    violations = []
    if cell.assured != probe.reference_assured:
        violations.append(
            Violation(
                invariant,
                f"crash at seq {cell.seq} ({cell.kind}): resumed run "
                f"reported assured={cell.assured}, uninterrupted run "
                f"reported assured={probe.reference_assured}",
                ctx.ref(f"seq={cell.seq}"),
            )
        )
    for path, got, expected in _diverging(probe.reference_outputs, cell.outputs):
        violations.append(
            Violation(
                invariant,
                f"crash at seq {cell.seq} ({cell.kind}): resumed "
                f"output {path!r} diverges from the uninterrupted "
                f"run ({got} vs {expected} records)",
                ctx.ref(f"seq={cell.seq},sink={path}"),
            )
        )
    return violations


def check_dur1(ctx: RunContext) -> list[Violation]:
    """Every crash-resume cell must match the uninterrupted run:
    byte-identical published outputs and the same assured verdict."""
    probe = ctx.durability
    if probe is None:
        return []
    return [
        violation
        for cell in probe.cells
        for violation in _resume_divergences(ctx, DUR1, probe, cell)
    ]


def check_reg1(ctx: RunContext) -> list[Violation]:
    """Regional resilience: a region-scale failure (outage or suspicion
    degradation) must neither stall the run nor leave the region
    half-alive.  Lost-region nodes all end detected-dead/excluded;
    expected migrations leave a ``reconfig`` audit record naming the
    region; and every run still ends assured."""
    scenario = ctx.scenario
    lost = getattr(scenario, "expect_region_outage", None)
    migrated = getattr(scenario, "expect_migration_from", None)
    if lost is None and migrated is None:
        return []
    violations = []
    controller = ctx.controller
    if lost is not None:
        dead = set(controller.engine._dead_nodes)
        for node_id in controller.cluster.region_node_ids(lost):
            if node_id in dead or controller.cluster.node(node_id).excluded:
                continue
            violations.append(
                Violation(
                    REG1,
                    f"node {node_id} of lost region {lost!r} was never "
                    f"detected dead or excluded",
                    ctx.ref(f"node={node_id}"),
                )
            )
    if migrated is not None:
        if not controller.audit.events(kind=RECONFIG, subject=migrated):
            violations.append(
                Violation(
                    REG1,
                    f"no reconfig audited for region {migrated!r} — "
                    f"replica sets never migrated out",
                    ctx.ref(f"region={migrated}"),
                )
            )
    for run_index, result in enumerate(ctx.results):
        if not result.assured:
            violations.append(
                Violation(
                    REG1,
                    f"run {run_index} ended unassured despite losing only "
                    f"a minority region",
                    ctx.ref(f"run={run_index}"),
                )
            )
    return violations


def check_obs1(ctx: RunContext) -> list[Violation]:
    """Expected alerts fire on the faulty trace; the fault-free twin of
    the same deployment stays silent on those same rules."""
    from repro.telemetry.slo import DEFAULT_RULES, evaluate

    scenario = ctx.scenario
    expected = tuple(getattr(scenario, "expected_alerts", ()) or ())
    if not expected:
        return []
    violations = []
    known = {rule.name for rule in DEFAULT_RULES}
    for name in expected:
        if name not in known:
            violations.append(
                Violation(
                    OBS1,
                    f"scenario expects unknown alert rule {name!r}",
                    ctx.ref(f"rule={name}"),
                )
            )
    fired = {f.rule for f in evaluate(ctx.records)}
    for name in expected:
        if name in known and name not in fired:
            violations.append(
                Violation(
                    OBS1,
                    f"injected fault never fired expected alert {name!r} "
                    f"(fired: {', '.join(sorted(fired)) or 'none'})",
                    ctx.ref(f"rule={name}"),
                )
            )
    twin_fired = {f.rule for f in evaluate(ctx.twin_records)}
    for name in sorted(twin_fired & set(expected)):
        violations.append(
            Violation(
                OBS1,
                f"fault-free twin fired alert {name!r} — the rule does "
                f"not discriminate injected faults",
                ctx.ref(f"twin,rule={name}"),
            )
        )
    return violations


def check_ckpt1(ctx: RunContext) -> list[Violation]:
    """Checkpointed execution must be invisible in the results: the
    checkpointed run equals its checkpoint-free twin byte-for-byte,
    and resuming from a crash at any checkpoint boundary restores the
    committed prefix and converges to the same outputs and verdict."""
    probe = ctx.ckpt
    if probe is None:
        return []
    violations = []
    if probe.checkpoint_records == 0:
        violations.append(
            Violation(
                CKPT1,
                "checkpoint sweep found no checkpoint WAL records — the "
                "checkpoint tier never engaged for this scenario",
                ctx.ref("checkpoints=0"),
            )
        )
    if probe.reference_assured != probe.twin_assured:
        violations.append(
            Violation(
                CKPT1,
                f"checkpointed run reported assured="
                f"{probe.reference_assured} but its checkpoint-free twin "
                f"reported assured={probe.twin_assured}",
                ctx.ref("twin,assured"),
            )
        )
    for path, got, expected in _diverging(probe.twin_outputs, probe.reference_outputs):
        violations.append(
            Violation(
                CKPT1,
                f"checkpointed output {path!r} diverges from the "
                f"checkpoint-free twin ({got} vs {expected} "
                f"records) — checkpoints changed the results",
                ctx.ref(f"twin,sink={path}"),
            )
        )
    for cell in probe.cells:
        if cell.kind == "checkpoint" and cell.checkpoints_replayed < 1:
            violations.append(
                Violation(
                    CKPT1,
                    f"crash at seq {cell.seq} landed on a durable "
                    f"checkpoint record but the resume replayed none — "
                    f"the restore path never engaged",
                    ctx.ref(f"seq={cell.seq}"),
                )
            )
        violations.extend(_resume_divergences(ctx, CKPT1, probe, cell))
    return violations


_CHECKERS = (
    (SAFE1, check_safe1),
    (SAFE2, check_safe2),
    (LIVE1, check_live1),
    (LIVE2, check_live2),
    (DEGR1, check_degr1),
    (DUR1, check_dur1),
    (REG1, check_reg1),
    (OBS1, check_obs1),
    (CKPT1, check_ckpt1),
)


def check_all(ctx: RunContext) -> list[Violation]:
    """Run every invariant checker, in declaration order."""
    violations: list[Violation] = []
    for _invariant, checker in _CHECKERS:
        violations.extend(checker(ctx))
    return violations


# ---------------------------------------------------------------------------
# service-tier invariants (multi-tenant cells)
# ---------------------------------------------------------------------------


@dataclass
class ServiceRunContext:
    """Everything the tenant-isolation checkers may look at for one
    (service scenario, seed) cell."""

    scenario: object  # ServiceScenario
    service: object  # ClusterBFTService
    result: object  # ServiceResult
    #: Honest tenants (trace tenants not flagged faulty).
    honest: frozenset
    #: Fault-free ground truth per run id (canonical encoded outputs).
    truths: dict = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)
    trace_name: str | None = None

    def ref(self, locator: str) -> str | None:
        if self.trace_name is None:
            return locator
        return f"{self.trace_name}#{locator}"


def check_ten1(ctx: ServiceRunContext) -> list[Violation]:
    """Honest tenants are isolated from the flood: assured, truth-equal
    outputs, no rejections, bounded p99 latency."""
    from repro.telemetry.analysis import percentile

    violations = []
    honest_runs = [
        run for run in ctx.result.runs if run.tenant in ctx.honest
    ]
    for run in honest_runs:
        if not run.assured:
            violations.append(
                Violation(
                    TEN1,
                    f"honest tenant {run.tenant} run {run.run_id} ended "
                    f"unassured (exhausted={run.exhausted})",
                    ctx.ref(f"run={run.run_id}"),
                )
            )
            continue
        truth = ctx.truths.get(run.run_id)
        if truth is None:
            continue
        got = canonical_outputs(ctx.result.outputs.get(run.run_id, {}))
        for path, _got, _expected in _diverging(truth, got):
            violations.append(
                Violation(
                    TEN1,
                    f"honest tenant {run.tenant} run {run.run_id} "
                    f"published output {path!r} diverging from the "
                    "fault-free truth",
                    ctx.ref(f"run={run.run_id},sink={path}"),
                )
            )
    for reject in ctx.result.rejects:
        if reject.tenant in ctx.honest:
            violations.append(
                Violation(
                    TEN1,
                    f"honest tenant {reject.tenant} job {reject.index} was "
                    f"rejected ({reject.reason}) — the flood consumed "
                    "another tenant's admission capacity",
                    ctx.ref(f"tenant={reject.tenant},index={reject.index}"),
                )
            )
    bound = getattr(ctx.scenario, "honest_p99_bound", None)
    latencies = [run.latency for run in honest_runs if run.assured]
    if bound is not None and latencies:
        p99 = percentile(latencies, 99)
        if p99 > bound + 1e-9:
            violations.append(
                Violation(
                    TEN1,
                    f"honest-tenant p99 latency {p99:.3f}s exceeds the "
                    f"scenario bound {bound:.3f}s",
                    ctx.ref(f"p99={p99:.3f}"),
                )
            )
    if getattr(ctx.scenario, "expect_rejections", False):
        if not ctx.result.rejects:
            violations.append(
                Violation(
                    TEN1,
                    "flood scenario produced no rejections — admission "
                    "control never engaged",
                    ctx.ref("rejects=0"),
                )
            )
    return violations


def check_ten2(ctx: ServiceRunContext) -> list[Violation]:
    """A faulty tenant's traffic must get its node quarantined before
    later honest runs, and the node must stay task-free afterwards."""
    if not getattr(ctx.scenario, "expect_cross_tenant_quarantine", False):
        return []
    audit = ctx.service.controller.audit
    faulty_tenants = {
        run.tenant for run in ctx.result.runs
    } - set(ctx.honest)
    cutoff = None
    node = None
    for event in audit.events():
        if event.kind not in (QUARANTINE, EVICTION):
            continue
        if event.details.get("tenant") in faulty_tenants:
            cutoff, node = event.time, event.subject
            break
    if cutoff is None:
        return [
            Violation(
                TEN2,
                "no quarantine/eviction attributed to a faulty tenant — "
                "shared suspicion never crossed tenants",
                ctx.ref("quarantine=none"),
            )
        ]
    violations = []
    later_honest = [
        run
        for run in ctx.result.runs
        if run.tenant in ctx.honest and run.started_at > cutoff
    ]
    if not later_honest:
        violations.append(
            Violation(
                TEN2,
                f"no honest run was admitted after the quarantine of "
                f"{node} at t={cutoff:.3f} — the cell cannot demonstrate "
                "cross-tenant protection (rescale the trace)",
                ctx.ref(f"node={node},t={cutoff:.3f}"),
            )
        )
    for record in ctx.records:
        if record.get("type") != "span" or record.get("name") != "task":
            continue
        attrs = record.get("attrs") or {}
        started = record.get("start")
        if attrs.get("node") != node or started is None:
            continue
        if started > cutoff + 1e-9:
            violations.append(
                Violation(
                    TEN2,
                    f"node {node} started a task at t={started:.3f} after "
                    f"its cross-tenant quarantine at t={cutoff:.3f}",
                    ctx.ref(f"node={node},t={started:.3f}"),
                )
            )
    return violations


_SERVICE_CHECKERS = (
    (TEN1, check_ten1),
    (TEN2, check_ten2),
)


def check_service_all(ctx: ServiceRunContext) -> list[Violation]:
    """Run every service-tier invariant checker, in declaration order."""
    violations: list[Violation] = []
    for _invariant, checker in _SERVICE_CHECKERS:
        violations.extend(checker(ctx))
    return violations
