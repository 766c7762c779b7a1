"""Open-loop multi-tenant traffic: the synthetic workload generator
and the service-tier benchmark behind ``repro serve --bench`` and the
``service_traffic`` suite entry (``BENCH_service_traffic.json``).

The generator emits a *trace text* (the JSON the service would read
from disk), not in-memory objects — so the bench exercises the same
parse → validate → run path as ``repro serve``, and the trace can be
dumped for inspection or replayed by hand.

Open-loop means arrival times are fixed by the trace, not gated on
completions: a slow (or flooding) tenant cannot slow the injection
rate, which is exactly the regime where admission control and
fair-share matter.  Faulty tenants arrive first and densest, driving
the planted faulty nodes early, so the benchmark also measures the
cross-tenant amortization of suspicion: honest tenants' later runs
schedule around nodes another tenant's traffic implicated.
"""

from __future__ import annotations

import json

from repro.common.errors import ConfigError
from repro.telemetry.analysis import percentile

#: Workload mix cycled across tenants (honest tenants skew toward the
#: heavier shapes; flooding tenants send cheap selects).
_HONEST_MIX = ("groupcount", "select", "distinctcount")
_FLOOD_WORKLOAD = "select"


def synth_trace(
    tenants: int = 4,
    jobs_per_tenant: int = 4,
    quota: int = 2,
    queue_limit: int = 2,
    faulty_tenants: int = 1,
    nodes: int = 12,
    slots: int = 3,
    seed: int = 20131209,
    rows: int = 30,
    arrival_period: float = 2.0,
    name: str = "synthetic",
    bft: dict | None = None,
    faults: list | None = None,
) -> str:
    """Deterministic synthetic tenant trace (JSON text).

    ``faulty_tenants`` of the ``tenants`` are flagged faulty: they get a
    flood of cheap jobs at 4x the honest arrival rate starting at t=0,
    while one planted commission node (plus a flaky one for larger
    clusters) gives their traffic something to trip over.  Honest
    tenants start after the first flood wave, so shared suspicion has
    cross-tenant work to amortize.
    """
    if tenants <= 0:
        raise ConfigError(f"tenants={tenants} must be positive")
    if faulty_tenants < 0 or faulty_tenants > tenants:
        raise ConfigError(
            f"faulty_tenants={faulty_tenants} outside [0, {tenants}]"
        )
    if faults is None:
        faults = [{"kind": "commission", "node": 2, "params": {}}]
        if nodes >= 10:
            faults.append(
                {
                    "kind": "flaky-commission",
                    "node": 7,
                    "params": {"probability": 0.6},
                }
            )
    tenant_specs = []
    for index in range(tenants):
        faulty = index < faulty_tenants
        tname = f"tenant{index:02d}"
        jobs = []
        if faulty:
            # Flood: 2x the jobs at 4x the rate, cheap selects, from t=0.
            period = arrival_period / 4.0
            for job in range(jobs_per_tenant * 2):
                jobs.append(
                    {
                        "at": round(job * period, 6),
                        "workload": _FLOOD_WORKLOAD,
                        "rows": max(rows // 2, 5),
                    }
                )
        else:
            offset = arrival_period * (1.0 + 0.25 * index)
            for job in range(jobs_per_tenant):
                jobs.append(
                    {
                        "at": round(offset + job * arrival_period, 6),
                        "workload": _HONEST_MIX[(index + job) % len(_HONEST_MIX)],
                        "rows": rows,
                    }
                )
        tenant_specs.append(
            {
                "tenant": tname,
                "faulty": faulty,
                "quota": {
                    "max_concurrent": quota,
                    "queue_limit": queue_limit,
                },
                "jobs": jobs,
            }
        )
    trace = {
        "name": name,
        "seed": seed,
        "cluster": {"nodes": nodes, "slots": slots, "heartbeat": 0.4},
        "bft": {"f": 1, "replication": 4, **(bft or {})},
        "faults": faults,
        "tenants": tenant_specs,
    }
    return json.dumps(trace, indent=2, sort_keys=True)


def traffic_stats(result) -> dict:
    """Aggregate a :class:`~repro.service.loop.ServiceResult` into the
    benchmark's headline numbers."""
    latencies = result.latencies()
    honest = [
        run for run in result.runs if run.tenant not in result.faulty_tenants
    ]
    stats = {
        "jobs_total": len(result.runs) + len(result.rejects),
        "admitted": len(result.runs),
        "rejected": len(result.rejects),
        "assured": sum(1 for run in result.runs if run.assured),
        "honest_runs": len(honest),
        "honest_assured": sum(1 for run in honest if run.assured),
        "quarantined_nodes": len(result.quarantined),
        "evicted_nodes": len(result.evicted),
        "makespan": round(result.makespan, 6),
        "jobs_per_second": (
            round(len(result.runs) / result.makespan, 6)
            if result.makespan
            else 0.0
        ),
    }
    if latencies:
        stats["latency_p50"] = round(percentile(latencies, 50), 6)
        stats["latency_p99"] = round(percentile(latencies, 99), 6)
    return stats


def run_traffic(trace_text: str, ledger_path: str | None = None) -> tuple:
    """Parse + run a trace text; returns ``(result, stats)``."""
    from repro.service.loop import run_trace
    from repro.service.tenants import parse_trace

    trace = parse_trace(trace_text, name="bench")
    result = run_trace(trace, ledger_path=ledger_path)
    return result, traffic_stats(result)


def run_traffic_bench(smoke: bool) -> dict:
    """The ``service_traffic`` suite's run: an open-loop multi-tenant
    trace (>= 50 jobs in the full variant) with faulty tenants, run in
    a throwaway ledger (host-side I/O — byte-identical simulation).
    Returns the :func:`traffic_stats` of the run."""
    import os
    import tempfile

    trace_text = synth_trace(
        tenants=3 if smoke else 6,
        jobs_per_tenant=2 if smoke else 7,
        quota=2,
        queue_limit=2,
        faulty_tenants=1 if smoke else 2,
        nodes=10 if smoke else 14,
        rows=20 if smoke else 30,
        name="service-traffic-smoke" if smoke else "service-traffic",
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        _result, stats = run_traffic(
            trace_text, ledger_path=os.path.join(tmp, "service.ledger")
        )
    return stats
