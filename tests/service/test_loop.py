"""Service loop end-to-end: admission, fairness, determinism, resume."""

import json
import os

import pytest

from repro.core.audit import DEQUEUE, ENQUEUE, TORN_TAIL
from repro.service.admission import REJECT_QUEUE_FULL
from repro.service.bench import synth_trace
from repro.service.ledger import MultiplexedLedger
from repro.service.loop import ClusterBFTService, run_trace
from repro.service.tenants import parse_trace


def tenant(name, jobs, max_concurrent=2, queue_limit=2, faulty=False):
    return {
        "tenant": name,
        "faulty": faulty,
        "quota": {"max_concurrent": max_concurrent, "queue_limit": queue_limit},
        "jobs": jobs,
    }


def job(at, workload="select", rows=12):
    return {"at": at, "workload": workload, "rows": rows}


def trace_text(tenants, nodes=8, faults=(), bft=None, seed=7):
    doc = {
        "name": "loop-test",
        "seed": seed,
        "cluster": {"nodes": nodes, "slots": 3, "heartbeat": 0.4},
        "faults": list(faults),
        "tenants": tenants,
    }
    if bft:
        doc["bft"] = bft
    return json.dumps(doc)


def test_multi_tenant_trace_runs_all_jobs_assured():
    text = trace_text(
        [
            tenant("alice", [job(0.0), job(1.0, "groupcount")]),
            tenant("bob", [job(0.5), job(1.5, "distinctcount")]),
        ]
    )
    result = run_trace(parse_trace(text))
    assert len(result.runs) == 4
    assert result.all_assured
    assert not result.rejects
    assert result.makespan > 0
    assert set(result.outputs) == {run.run_id for run in result.runs}
    for run in result.runs:
        assert result.outputs[run.run_id]  # published records exist


def test_quota_overflow_queues_then_dequeues_fifo():
    text = trace_text(
        [tenant("alice", [job(0.0), job(0.0)], max_concurrent=1)]
    )
    service = ClusterBFTService(parse_trace(text))
    result = service.run()
    runs = result.runs_for("alice")
    assert len(runs) == 2 and result.all_assured
    assert not runs[0].queued and runs[1].queued
    # The queued job started only after the first verdict landed.
    assert runs[1].started_at >= runs[0].finished_at
    assert service.audit.events(kind=ENQUEUE)
    dequeues = service.audit.events(kind=DEQUEUE)
    assert len(dequeues) == 1
    assert dequeues[0].details["waited"] > 0


def test_tick_keeps_only_unfinished_drivers_in_admission_order():
    text = trace_text(
        [
            tenant("alice", [job(0.0), job(0.0), job(0.1)], max_concurrent=1),
            tenant("bob", [job(0.05, "groupcount")]),
        ]
    )
    service = ClusterBFTService(parse_trace(text))
    seen = []
    advance = service._advance_drivers

    def watched():
        before = len(service.result.runs)
        advance()
        # Unfinished drivers only, in admission order; a successor a
        # finishing driver dequeued is admitted within the same call.
        seen.append([driver.record.run_id for driver in service._drivers])
        assert not any(driver.done for driver in service._drivers)
        assert seen[-1] == sorted(seen[-1])
        watched.dequeued_in_tick |= len(service.result.runs) > before

    watched.dequeued_in_tick = False
    service._advance_drivers = watched
    result = service.run()
    assert len(result.runs) == 4 and result.all_assured
    assert watched.dequeued_in_tick
    assert max(len(ids) for ids in seen) == 2  # alice's quota is one at a time
    assert seen[-1] == [] and not service._busy()
    assert [run.run_id for run in result.runs] == sorted(
        run.run_id for run in result.runs
    )


def test_full_queue_rejects_fail_closed():
    text = trace_text(
        [
            tenant(
                "alice",
                [job(0.0), job(0.0), job(0.0)],
                max_concurrent=1,
                queue_limit=1,
            )
        ]
    )
    result = run_trace(parse_trace(text))
    assert len(result.runs) == 2
    assert [r.reason for r in result.rejects] == [REJECT_QUEUE_FULL]
    assert result.rejects[0].index == 2


def test_quarantine_is_shared_across_tenants_with_attribution():
    # The smoke-bench synthetic trace plants faulty nodes; the flooding
    # tenant's early traffic gets them quarantined/evicted, and honest
    # tenants' later runs still end assured on the survivors.
    text = synth_trace(
        tenants=3, jobs_per_tenant=2, faulty_tenants=1, nodes=10, rows=20
    )
    trace = parse_trace(text, name="smoke")
    service = ClusterBFTService(trace)
    result = service.run()
    assert result.all_assured
    assert result.quarantined or result.evicted
    attributed = [
        event
        for kind in ("quarantine", "eviction")
        for event in service.audit.events(kind=kind)
        if "tenant" in event.details
    ]
    assert attributed, "shared-state audit events must carry tenant attribution"
    tenants = {t.name for t in trace.tenants}
    assert all(event.details["tenant"] in tenants for event in attributed)


def _small_trace():
    return trace_text(
        [
            tenant("alice", [job(0.0), job(0.8, "groupcount")]),
            tenant("bob", [job(0.4)]),
        ],
        faults=[{"kind": "commission", "node": 2}],
    )


def test_same_seed_same_trace_byte_identical_ledger_twice(tmp_path):
    text = _small_trace()
    ledgers, verdicts = [], []
    for attempt in ("one", "two"):
        path = os.path.join(str(tmp_path), f"{attempt}.ledger")
        result = run_trace(parse_trace(text), ledger_path=path)
        with open(path, "rb") as handle:
            ledgers.append(handle.read())
        verdicts.append([(r.run_id, r.assured, r.attempts) for r in result.runs])
    assert ledgers[0] == ledgers[1]
    assert verdicts[0] == verdicts[1]


class SimCrash(Exception):
    pass


def crash_after(n):
    state = {"count": 0}

    def hook(record):
        state["count"] += 1
        if state["count"] >= n:
            raise SimCrash(f"crashed at append {record['seq']}")

    return hook


def test_crash_resume_reproduces_uninterrupted_ledger(tmp_path):
    text = _small_trace()
    reference = os.path.join(str(tmp_path), "reference.ledger")
    run_trace(parse_trace(text), ledger_path=reference)
    ref_bytes = open(reference, "rb").read()
    assert ref_bytes.count(b"\n") > 25, "trace too small to crash mid-run"

    crashed = os.path.join(str(tmp_path), "crashed.ledger")
    with pytest.raises(SimCrash):
        run_trace(
            parse_trace(text), ledger_path=crashed, crash_hook=crash_after(20)
        )
    # Simulate torn crash damage on top of the clean prefix.
    with open(crashed, "a") as handle:
        handle.write('{"kind": "torn')

    ledger = MultiplexedLedger.resume(crashed)
    assert ledger.torn_bytes_truncated == len('{"kind": "torn')
    trace = parse_trace(ledger.trace_text, name="resumed")
    service = ClusterBFTService(trace, ledger=ledger)
    result = service.run()

    assert open(crashed, "rb").read() == ref_bytes
    assert result.resumed_prefix == 20
    assert result.all_assured
    torn = service.audit.events(kind=TORN_TAIL)
    assert len(torn) == 1
    assert torn[0].details["bytes_truncated"] == len('{"kind": "torn')


def test_resume_via_run_trace_rejects_mismatched_trace(tmp_path):
    from repro.service.ledger import LedgerError

    path = os.path.join(str(tmp_path), "svc.ledger")
    run_trace(parse_trace(_small_trace()), ledger_path=path)
    other = parse_trace(trace_text([tenant("alice", [job(0.0)])]))
    with pytest.raises(LedgerError, match="does not match"):
        run_trace(other, ledger_path=path, resume=True)
