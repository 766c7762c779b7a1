"""Campaign runner: scenario matrix × seed sweep → JSON report.

Every (scenario, seed) cell builds a fresh simulated deployment, runs a
fault-free twin first to obtain ground truth, executes the scenario's
script runs under full telemetry, then evaluates the invariant
checkers.  Everything is simulated time and seeded randomness, so the
report — serialized with sorted keys and no wall-clock values — is
byte-identical across re-executions, which CI exploits.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import tempfile

from repro.chaos.invariants import (
    CrashCell,
    CrashProbe,
    RunContext,
    ServiceRunContext,
    Violation,
    canonical_outputs,
    check_all,
    check_service_all,
)
from repro.chaos.scenarios import Scenario, ServiceScenario, build_fault_plan
from repro.common.errors import ReproError
from repro.common.records import Record, records_from_rows
from repro.core import journal as wal
from repro.core.audit import EVICTION, QUARANTINE, RECONFIG, RERUN
from repro.core.controller import ClusterBFTController
from repro.core.recovery import resume_run
from repro.simulation.network import delay_spike, selective_drop
from repro.telemetry import Telemetry

#: The campaign workload: a group-count with a filter — two MapReduce
#: jobs, one internal verification point candidate, a verifiable sink.
DEFAULT_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""

_BLOCK_BYTES = 2048
_WORKLOAD_ROWS = 320
_WORKLOAD_KEYS = 8


class CampaignError(ReproError):
    """Raised for campaign-level misconfiguration (not invariant failures)."""


def workload(seed: int) -> list[Record]:
    """Deterministic per-seed input rows (no wall clock, no global rng)."""
    # lint: allow DET001 workload generation precedes any engine; the cell seed is the stream name
    rng = random.Random(1000003 * seed + 17)
    return records_from_rows(
        [
            (rng.randrange(_WORKLOAD_KEYS), rng.randrange(1000))
            for _ in range(_WORKLOAD_ROWS)
        ]
    )


def _apply_network_faults(
    scenario: Scenario, controller: ClusterBFTController
) -> None:
    """Install the scenario's endpoint drop/delay rules on the PBFT
    front-end network (the only simulated message network)."""
    frontend = controller.frontend
    if frontend is None:
        return
    replica_ids = frontend.replica_ids
    for index, spec in enumerate(
        s for s in scenario.faults if s.kind in ("net-drop", "net-delay")
    ):
        if not 0 <= spec.node < len(replica_ids):
            raise CampaignError(
                f"scenario {scenario.name!r}: replica index {spec.node} out "
                f"of range for {len(replica_ids)} PBFT replicas"
            )
        endpoint = replica_ids[spec.node]
        params = spec.kwargs()
        rng = controller.rng.stream(f"chaos/net/{spec.kind}/{index}")
        if spec.kind == "net-drop":
            frontend.network.add_filter(
                selective_drop({endpoint}, params.get("probability", 1.0), rng)
            )
        else:
            frontend.network.add_delay(
                delay_spike(
                    {endpoint},
                    params.get("extra_seconds", 1.0),
                    rng,
                    probability=params.get("probability", 1.0),
                )
            )


def _reference_truth(scenario: Scenario, seed: int) -> dict[str, list[Record]]:
    """Ground truth from a fault-free twin of the deployment."""
    reference = ClusterBFTController(
        scenario.system_config(seed), block_bytes=_BLOCK_BYTES
    )
    reference.load_input("in", workload(seed))
    return reference.run_plain(DEFAULT_SCRIPT).outputs


def _node_ids(scenario: Scenario) -> list[str]:
    return [f"node_{index:04d}" for index in range(scenario.num_nodes)]


def _journaled_run(
    scenario: Scenario, seed: int, path: str, crash_hook=None
):
    """One fresh deployment executing the campaign script with a WAL."""
    config = scenario.system_config(seed)
    journal = wal.Journal.create(
        path,
        config,
        DEFAULT_SCRIPT,
        {"in": workload(seed)},
        block_bytes=_BLOCK_BYTES,
        crash_hook=crash_hook,
    )
    controller = ClusterBFTController(
        config,
        fault_plan=build_fault_plan(scenario, _node_ids(scenario)),
        block_bytes=_BLOCK_BYTES,
        journal=journal,
    )
    controller.load_input("in", workload(seed))
    return controller.run_assured(DEFAULT_SCRIPT)


def run_crash_sweep(
    scenario: Scenario, seed: int, around: str | None = None
) -> CrashProbe:
    """Control-tier crash sweep: run once journaled and uninterrupted,
    then once per journal record with the control tier dying right
    after that record becomes durable, resuming each crash from its
    WAL.  ``around`` narrows the sweep to the records of that kind and
    the record immediately following each — the boundary where the
    record is durable but the next decision is not.  Every resumed run
    is compared (by the ``DUR1`` or the ``CKPT1`` checker) against the
    uninterrupted reference."""
    fault_plan = build_fault_plan(scenario, _node_ids(scenario))
    cells = []
    with tempfile.TemporaryDirectory(prefix="repro-crash-sweep-") as tmp:
        reference_path = os.path.join(tmp, "reference.wal")
        reference = _journaled_run(scenario, seed, reference_path)
        records, _ = wal.read_journal(reference_path)
        marked = {r["seq"] for r in records if r["kind"] == around}
        for crash_seq in range(1, records[-1]["seq"] + 1):
            if around and crash_seq not in marked and crash_seq - 1 not in marked:
                continue
            crash_path = os.path.join(tmp, f"crash-{crash_seq:04d}.wal")
            try:
                _journaled_run(
                    scenario, seed, crash_path, crash_hook=wal.crash_at(crash_seq)
                )
                continue  # hook never fired (run shorter than reference)
            except wal.ControlTierCrash:
                pass
            recovered = resume_run(crash_path, fault_plan=fault_plan)
            cells.append(
                CrashCell(
                    seq=crash_seq,
                    kind=records[crash_seq]["kind"],
                    start_attempt=recovered.start_attempt,
                    commits_replayed=recovered.commits_replayed,
                    checkpoints_replayed=recovered.checkpoints_replayed,
                    assured=recovered.result.assured,
                    exhausted=recovered.result.exhausted,
                    outputs=canonical_outputs(recovered.result.outputs),
                )
            )
    return CrashProbe(
        reference_assured=reference.assured,
        reference_outputs=canonical_outputs(reference.outputs),
        cells=tuple(cells),
        checkpoint_records=sum(r["kind"] == wal.CHECKPOINT for r in records),
    )


def run_ckpt_sweep(scenario: Scenario, seed: int) -> CrashProbe:
    """Checkpoint-boundary crash sweep, plus a checkpoint-free twin of
    the same cell.  The ``CKPT1`` checker compares every resumed run
    against the uninterrupted reference and the reference against the
    twin."""
    probe = run_crash_sweep(scenario, seed, around=wal.CHECKPOINT)
    # The twin differs in exactly one bit of configuration — the
    # checkpoint tier is off — so any output difference is the
    # checkpoint tier's fault, not placement's or the workload's.
    twin_scenario = dataclasses.replace(scenario, checkpoints=False, ckpt_sweep=False)
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
        twin = _journaled_run(twin_scenario, seed, os.path.join(tmp, "twin.wal"))
    return dataclasses.replace(
        probe,
        twin_assured=twin.assured,
        twin_outputs=canonical_outputs(twin.outputs),
    )


def run_one(
    scenario: Scenario, seed: int, trace_dir: str | None = None
) -> tuple[RunContext, list[Violation]]:
    """Execute one (scenario, seed) cell; returns context + violations."""
    trace_name = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_name = f"{scenario.name}-s{seed}.jsonl"
        telemetry = Telemetry.streaming(os.path.join(trace_dir, trace_name))
    else:
        telemetry = Telemetry.recording()

    config = scenario.system_config(seed)
    fault_plan = build_fault_plan(scenario, _node_ids(scenario))
    controller = ClusterBFTController(
        config,
        fault_plan=fault_plan,
        block_bytes=_BLOCK_BYTES,
        replicate_frontend=scenario.uses_network_faults,
        telemetry=telemetry,
    )
    _apply_network_faults(scenario, controller)
    controller.load_input("in", workload(seed))

    results = [controller.run_assured(DEFAULT_SCRIPT) for _ in range(scenario.runs)]

    if trace_dir is not None:
        telemetry.finalize()
        from repro.telemetry.export import read_jsonl

        records = read_jsonl(os.path.join(trace_dir, trace_name))
    else:
        records = telemetry.export_records()

    truth = _reference_truth(scenario, seed)
    durability = run_crash_sweep(scenario, seed) if scenario.control_crashes else None
    ckpt = run_ckpt_sweep(scenario, seed) if scenario.ckpt_sweep else None
    # OBS1 needs a *traced* fault-free twin: same deployment and
    # workload, no fault plan, telemetry on — expected alerts must stay
    # silent over its records.
    twin_records: list[dict] = []
    if scenario.expected_alerts:
        twin_telemetry = Telemetry.recording()
        twin = ClusterBFTController(
            scenario.system_config(seed),
            block_bytes=_BLOCK_BYTES,
            replicate_frontend=scenario.uses_network_faults,
            telemetry=twin_telemetry,
        )
        twin.load_input("in", workload(seed))
        for _ in range(scenario.runs):
            twin.run_assured(DEFAULT_SCRIPT)
        twin_records = twin_telemetry.export_records()
    ctx = RunContext(
        scenario=scenario,
        controller=controller,
        results=results,
        truth=truth,
        records=records,
        trace_name=trace_name,
        durability=durability,
        ckpt=ckpt,
        twin_records=twin_records,
    )
    return ctx, check_all(ctx)


def _fired_alerts(records: list[dict]) -> list[str]:
    """Sorted names of built-in SLO rules that fired over a trace."""
    from repro.telemetry.slo import evaluate

    return sorted({firing.rule for firing in evaluate(records)})


def _sweep_summary(probe: CrashProbe | None, checkpoints: bool = False) -> dict | None:
    """A crash sweep in the cell report (``None``: it did not run)."""
    if probe is None:
        return None
    cells = probe.cells
    summary = {
        "crash_points": len(cells),
        "commits_replayed": sum(cell.commits_replayed for cell in cells),
        "resumed_assured": sum(1 for cell in cells if cell.assured),
        "kinds": sorted({cell.kind for cell in cells}),
    }
    if checkpoints:
        summary["checkpoint_records"] = probe.checkpoint_records
        summary["checkpoints_replayed"] = sum(
            cell.checkpoints_replayed for cell in cells
        )
    return summary


def _cell_report(
    ctx: RunContext, violations: list[Violation], seed: int
) -> dict:
    controller = ctx.controller
    audit = controller.audit
    return {
        "scenario": ctx.scenario.name,
        "seed": seed,
        "passed": not violations,
        "expected_violations": list(ctx.scenario.expected_violations),
        "expected_alerts": list(ctx.scenario.expected_alerts),
        "alerts": _fired_alerts(ctx.records),
        "violations": [v.as_dict() for v in violations],
        "assured": [bool(r.assured) for r in ctx.results],
        "exhausted": [bool(r.exhausted) for r in ctx.results],
        "attempts": [r.attempts for r in ctx.results],
        "latency": [round(r.latency, 6) for r in ctx.results],
        "durability": _sweep_summary(ctx.durability),
        "ckpt": _sweep_summary(ctx.ckpt, checkpoints=True),
        "reruns": len(audit.events(kind=RERUN)),
        "quarantined": sorted(
            {e.subject for e in audit.events(kind=QUARANTINE)}
        ),
        "evicted": sorted({e.subject for e in audit.events(kind=EVICTION)}),
        "migrations": [
            e.subject for e in audit.events(kind=RECONFIG)
        ],
        "crashes_detected": sorted(controller.engine._dead_nodes),
        "trace": ctx.trace_name,
    }


def run_service_one(
    scenario: ServiceScenario, seed: int, trace_dir: str | None = None
) -> tuple[ServiceRunContext, list[Violation]]:
    """Execute one multi-tenant service cell; returns context +
    TEN1/TEN2 violations."""
    from repro.service.loop import ClusterBFTService
    from repro.service.tenants import (
        WORKLOADS,
        parse_trace,
        workload_records,
    )

    trace_name = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_name = f"{scenario.name}-s{seed}.jsonl"
        telemetry = Telemetry.streaming(os.path.join(trace_dir, trace_name))
    else:
        telemetry = Telemetry.recording()

    trace = parse_trace(scenario.trace_text(seed), name=scenario.name)
    service = ClusterBFTService(trace, telemetry=telemetry)
    result = service.run()

    if trace_dir is not None:
        telemetry.finalize()
        from repro.telemetry.export import read_jsonl

        records = read_jsonl(os.path.join(trace_dir, trace_name))
    else:
        records = telemetry.export_records()

    honest = frozenset(
        spec.name for spec in trace.tenants if not spec.faulty
    )
    # Fault-free ground truth per honest run: the same workload records
    # through a plain twin deployment (same config, no fault plan).
    truths = {}
    specs = {spec.name: spec for spec in trace.tenants}
    for run in result.runs:
        if run.tenant not in honest or not run.assured:
            continue
        request = specs[run.tenant].jobs[run.index]
        input_path = f"__svc/{run.run_id}/in"
        output_path = f"__svc/{run.run_id}/out"
        script = WORKLOADS[run.workload].template.format(
            input=input_path, output=output_path
        )
        twin = ClusterBFTController(
            trace.system_config(), block_bytes=_BLOCK_BYTES
        )
        twin.load_input(
            input_path,
            workload_records(trace.seed, run.tenant, run.index, request.rows),
        )
        truths[run.run_id] = canonical_outputs(
            twin.run_plain(script).outputs
        )
    ctx = ServiceRunContext(
        scenario=scenario,
        service=service,
        result=result,
        honest=honest,
        truths=truths,
        records=records,
        trace_name=trace_name,
    )
    return ctx, check_service_all(ctx)


def _service_cell_report(
    ctx: ServiceRunContext, violations: list[Violation], seed: int
) -> dict:
    result = ctx.result
    audit = ctx.service.controller.audit
    honest_runs = [run for run in result.runs if run.tenant in ctx.honest]
    return {
        "scenario": ctx.scenario.name,
        "seed": seed,
        "passed": not violations,
        "expected_violations": [],
        "expected_alerts": [],
        "alerts": _fired_alerts(ctx.records),
        "violations": [v.as_dict() for v in violations],
        "assured": [bool(run.assured) for run in result.runs],
        "exhausted": [bool(run.exhausted) for run in result.runs],
        "attempts": [run.attempts for run in result.runs],
        "latency": [round(run.latency, 6) for run in result.runs],
        "durability": None,
        "ckpt": None,
        "reruns": len(audit.events(kind=RERUN)),
        "quarantined": sorted(
            {e.subject for e in audit.events(kind=QUARANTINE)}
        ),
        "evicted": sorted({e.subject for e in audit.events(kind=EVICTION)}),
        "crashes_detected": sorted(ctx.service.controller.engine._dead_nodes),
        "trace": ctx.trace_name,
        "service": {
            "tenants": sorted({run.tenant for run in result.runs}),
            "admitted": len(result.runs),
            "rejected": len(result.rejects),
            "honest_assured": sum(1 for run in honest_runs if run.assured),
            "honest_runs": len(honest_runs),
            "makespan": round(result.makespan, 6),
        },
    }


def run_campaign(
    scenarios: list[Scenario],
    seeds: list[int],
    trace_dir: str | None = None,
) -> dict:
    """Sweep ``scenarios`` × ``seeds``; returns the campaign report.

    The report is JSON-serializable, deterministic, and carries one
    entry per cell in sweep order (scenarios outer, seeds inner).
    """
    if not seeds:
        raise CampaignError("campaign needs at least one seed")
    cells = []
    for scenario in scenarios:
        for seed in seeds:
            if isinstance(scenario, ServiceScenario):
                sctx, violations = run_service_one(
                    scenario, seed, trace_dir=trace_dir
                )
                cells.append(_service_cell_report(sctx, violations, seed))
            else:
                ctx, violations = run_one(scenario, seed, trace_dir=trace_dir)
                cells.append(_cell_report(ctx, violations, seed))
    failed = [c for c in cells if not c["passed"]]
    report = {
        "campaign": {
            "scenarios": [s.name for s in scenarios],
            "seeds": list(seeds),
            "script": DEFAULT_SCRIPT.strip(),
        },
        "cells": cells,
        "summary": {
            "total": len(cells),
            "passed": len(cells) - len(failed),
            "failed": len(failed),
            "violations": sum(len(c["violations"]) for c in cells),
        },
    }
    return report


def render_report(report: dict) -> str:
    """Serialize a campaign report deterministically (sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
