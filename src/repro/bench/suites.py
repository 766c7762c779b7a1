"""Benchmark suite definitions.

Each spec is a named, seeded, deterministic measurement.  The paper's
figures and ablations live in :mod:`repro.bench.figures` and
:mod:`repro.bench.ablations`; the suites here gate the system's own
mechanisms (assured execution, region placement, tracing, checkpoints,
the service tier).  They are **trace-backed** where they can be: they
run the workload under telemetry and derive their metrics from the
recorded records via :mod:`repro.telemetry.analysis` — the same numbers
``repro report`` shows — rather than keeping bespoke in-benchmark
bookkeeping.  The ``smoke`` variant shrinks sizes for CI while keeping
the same code paths.
"""

from __future__ import annotations

from repro.bench.ablations import ABLATIONS
from repro.bench.figures import FIGURES
from repro.bench.spec import BenchSpec, Metric, Outcome, metric
from repro.telemetry import Telemetry
from repro.telemetry.analysis import summarize

# ---------------------------------------------------------------------------
# exec — assured group-count execution (controller, trace-backed)
# ---------------------------------------------------------------------------

_EXEC_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
STORE C INTO 'out';
"""


def _exec(smoke: bool) -> Outcome:
    import os
    import tempfile

    from repro.chaos.runner import workload
    from repro.common.config import (
        ClusterBFTConfig,
        ClusterConfig,
        SystemConfig,
    )
    from repro.core import journal as wal
    from repro.core.controller import ClusterBFTController

    telemetry = Telemetry.recording()
    config = SystemConfig(
        cluster=ClusterConfig(
            num_nodes=16 if smoke else 32,
            slots_per_node=3,
            heartbeat_period=0.2,
        ),
        bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
        seed=20131209,
    )
    inputs = {"in": workload(7)[: 120 if smoke else 320]}
    # Journal into a throwaway file: the WAL is pure host-side I/O, so
    # every simulated-time metric must stay byte-identical to the
    # baselines committed before journaling existed — the regression
    # gate doubles as the zero-overhead proof for the durable tier.
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        journal = wal.Journal.create(
            os.path.join(tmp, "exec.wal"),
            config,
            _EXEC_SCRIPT,
            inputs,
            block_bytes=2048,
        )
        controller = ClusterBFTController(
            config, block_bytes=2048, telemetry=telemetry, journal=journal
        )
        for path, records in inputs.items():
            controller.load_input(path, records)
        result = controller.run_assured(_EXEC_SCRIPT)
    summary = summarize(telemetry.export_records())
    return Outcome([
        metric("latency", round(result.latency, 6), "simulated_seconds"),
        metric("assured", int(result.assured), "bool"),
        metric("attempts", result.attempts, "attempts"),
        metric("tasks", summary.task_count, "tasks"),
        metric(
            "task_seconds", round(summary.task_seconds, 6), "simulated_seconds"
        ),
        metric(
            "verify_seconds",
            round(summary.verify_seconds, 6),
            "simulated_seconds",
        ),
        metric(
            "verify_tail_seconds",
            round(summary.verify_tail_seconds, 6),
            "simulated_seconds",
        ),
    ])


# ---------------------------------------------------------------------------
# geo_placement — assured latency vs. region placement (Fig.-style sweep)
# ---------------------------------------------------------------------------

#: (layout name, region triples) — same node count per row so the only
#: variable is placement; WAN latency applies to cross-region digests.
_GEO_LAYOUTS = (
    ("flat", ()),
    ("two_regions", (("east", 8, 1.0), ("west", 8, 1.0))),
    ("three_regions", (("east", 6, 1.0), ("west", 5, 1.0), ("south", 5, 1.0))),
    ("slow_region", (("east", 6, 1.0), ("west", 5, 1.0), ("south", 5, 0.5))),
)


def _geo(smoke: bool) -> Outcome:
    from repro.chaos.runner import workload
    from repro.common.config import (
        ClusterBFTConfig,
        ClusterConfig,
        SystemConfig,
    )
    from repro.core.controller import ClusterBFTController

    rows = 120 if smoke else 320
    metrics: list[Metric] = []
    latencies: dict[str, float] = {}
    for layout, regions in _GEO_LAYOUTS:
        config = SystemConfig(
            cluster=ClusterConfig(
                num_nodes=16,
                slots_per_node=3,
                heartbeat_period=0.2,
                regions=regions,
                wan_latency_seconds=0.25,
            ),
            bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
            seed=20131209,
        )
        controller = ClusterBFTController(config, block_bytes=2048)
        controller.load_input("in", workload(7)[:rows])
        result = controller.run_assured(_EXEC_SCRIPT)
        latencies[layout] = result.latency
        metrics.append(
            metric(
                f"latency_{layout}",
                round(result.latency, 6),
                "simulated_seconds",
            )
        )
        metrics.append(metric(f"assured_{layout}", int(result.assured), "bool"))
    metrics.append(
        metric(
            "wan_overhead_two_regions",
            round(latencies["two_regions"] - latencies["flat"], 6),
            "simulated_seconds",
        )
    )
    metrics.append(
        metric(
            "slow_region_overhead",
            round(latencies["slow_region"] - latencies["three_regions"], 6),
            "simulated_seconds",
        )
    )
    return Outcome(metrics)


# ---------------------------------------------------------------------------
# trace_overhead — causal tracing must not perturb simulated time
# ---------------------------------------------------------------------------


def _trace_overhead(smoke: bool) -> Outcome:
    """Same-seed run untraced, traced, and causal-traced.

    Telemetry (including the causal layer) observes the simulation; it
    never schedules events or draws randomness.  The proof is in the
    payload: identical output digests and identical simulated latency
    across all three modes.  Host-time overhead is deliberately *not* a
    metric here — the CI bench-smoke job byte-compares double runs, and
    wall-clock numbers would break that; a loose bound lives in the unit
    tests instead.
    """
    import hashlib

    from repro.chaos.runner import workload
    from repro.common.config import (
        ClusterBFTConfig,
        ClusterConfig,
        SystemConfig,
    )
    from repro.common.records import encode_record
    from repro.core.controller import ClusterBFTController
    from repro.telemetry.causal import build_causal

    rows = 120 if smoke else 320

    def one_run(telemetry):
        config = SystemConfig(
            cluster=ClusterConfig(
                num_nodes=16, slots_per_node=3, heartbeat_period=0.2
            ),
            bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
            seed=20131209,
        )
        controller = ClusterBFTController(
            config, block_bytes=2048, telemetry=telemetry
        )
        controller.load_input("in", workload(7)[:rows])
        result = controller.run_assured(_EXEC_SCRIPT)
        hasher = hashlib.sha256()
        for path in sorted(result.outputs):
            hasher.update(path.encode())
            for record in result.outputs[path]:
                hasher.update(encode_record(record))
        return result, hasher.hexdigest()

    untraced, digest_untraced = one_run(None)
    traced_telemetry = Telemetry.recording()
    traced, digest_traced = one_run(traced_telemetry)
    causal_telemetry = Telemetry.recording(causal=True)
    causal, digest_causal = one_run(causal_telemetry)

    traced_records = traced_telemetry.export_records()
    causal_records = causal_telemetry.export_records()
    graph = build_causal(causal_records)
    return Outcome([
        metric(
            "output_digest_match_traced",
            int(digest_traced == digest_untraced),
            "bool",
        ),
        metric(
            "output_digest_match_causal",
            int(digest_causal == digest_untraced),
            "bool",
        ),
        metric(
            "latency_untraced",
            round(untraced.latency, 6),
            "simulated_seconds",
        ),
        metric(
            "latency_delta_traced",
            round(traced.latency - untraced.latency, 6),
            "simulated_seconds",
        ),
        metric(
            "latency_delta_causal",
            round(causal.latency - untraced.latency, 6),
            "simulated_seconds",
        ),
        metric("trace_records", len(traced_records), "records"),
        metric(
            "causal_extra_records",
            len(causal_records) - len(traced_records),
            "records",
        ),
        metric("causal_message_edges", len(graph.message_edge), "edges"),
        metric("causal_orphans", len(graph.orphans()), "spans"),
    ])


# ---------------------------------------------------------------------------
# rerun_makespan — checkpointed vs full-rerun faulty makespan
# ---------------------------------------------------------------------------

#: Two chained group-bys: two MapReduce jobs with one internal job
#: boundary, so a checkpoint can land between them.
_RERUN_SCRIPT = """
A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
H = GROUP C BY n;
D = FOREACH H GENERATE group AS n, COUNT(C) AS m;
STORE D INTO 'out';
"""


def _rerun_makespan(smoke: bool) -> Outcome:
    """Faulty makespan with the checkpoint tier vs full rerun.

    One slow node pushes the downstream job past the verifier timeout,
    forcing a rerun.  With the checkpoint tier on (expected-rerun-cost
    placement + eager verdict-time commits) the upstream job's verified
    output commits during the failed attempt and the rerun reuses it;
    the checkpoint-free baseline has no intermediate verification
    point, so its rerun recomputes the whole sub-graph.  The gate is
    ``checkpointed_strictly_lower`` — checkpoints must shorten the
    faulty makespan — while ``output_digest_match`` proves they never
    change the published bytes.
    """
    import hashlib

    from repro.chaos.runner import workload
    from repro.common.config import (
        ClusterBFTConfig,
        ClusterConfig,
        SystemConfig,
    )
    from repro.common.records import encode_record
    from repro.core.controller import ClusterBFTController
    from repro.faults.behaviors import SlowBehavior
    from repro.faults.injection import FaultPlan

    rows = 120 if smoke else 320

    def one_run(checkpoints: bool, density: float):
        config = SystemConfig(
            cluster=ClusterConfig(
                num_nodes=12, slots_per_node=3, heartbeat_period=0.2
            ),
            bft=ClusterBFTConfig(
                f=1,
                replication=4,
                verification_points=0,
                checkpoints=checkpoints,
                checkpoint_density=density,
                verifier_timeout=6.0,
            ),
            seed=20131209,
        )
        plan = FaultPlan()
        plan.assign("node_0003", SlowBehavior(factor=8.0))
        controller = ClusterBFTController(
            config, fault_plan=plan, block_bytes=2048
        )
        controller.load_input("in", workload(7)[:rows])
        result = controller.run_assured(_RERUN_SCRIPT)
        hasher = hashlib.sha256()
        for path in sorted(result.outputs):
            hasher.update(path.encode())
            for record in result.outputs[path]:
                hasher.update(encode_record(record))
        return result, hasher.hexdigest()

    checkpointed, digest_checkpointed = one_run(True, 1.0)
    full, digest_full = one_run(False, 0.0)
    return Outcome([
        metric(
            "makespan_checkpointed",
            round(checkpointed.latency, 6),
            "simulated_seconds",
        ),
        metric(
            "makespan_full_rerun", round(full.latency, 6), "simulated_seconds"
        ),
        metric(
            "makespan_saving",
            round(full.latency - checkpointed.latency, 6),
            "simulated_seconds",
        ),
        metric(
            "checkpointed_strictly_lower",
            int(checkpointed.latency < full.latency),
            "bool",
        ),
        metric(
            "output_digest_match",
            int(digest_checkpointed == digest_full),
            "bool",
        ),
        metric("assured_checkpointed", int(checkpointed.assured), "bool"),
        metric("assured_full_rerun", int(full.assured), "bool"),
        metric("attempts_checkpointed", checkpointed.attempts, "attempts"),
        metric("attempts_full_rerun", full.attempts, "attempts"),
        metric(
            "checkpoint_commits", checkpointed.checkpoint_commits, "commits"
        ),
        metric("reused_jobs", checkpointed.reused_jobs, "jobs"),
    ])


# ---------------------------------------------------------------------------
# service_traffic — multi-tenant open-loop traffic over the service tier
# ---------------------------------------------------------------------------


def _service_traffic(smoke: bool) -> Outcome:
    from repro.service.bench import run_traffic_bench

    stats = run_traffic_bench(smoke)
    return Outcome([
        metric("jobs_total", stats["jobs_total"], "jobs"),
        metric("admitted", stats["admitted"], "jobs"),
        metric("rejected", stats["rejected"], "jobs"),
        metric("assured", stats["assured"], "jobs"),
        metric("honest_assured", stats["honest_assured"], "jobs"),
        metric("jobs_per_second", stats["jobs_per_second"], "jobs/sim_second"),
        metric(
            "latency_p50", stats.get("latency_p50", 0.0), "simulated_seconds"
        ),
        metric(
            "latency_p99", stats.get("latency_p99", 0.0), "simulated_seconds"
        ),
        metric("quarantined_nodes", stats["quarantined_nodes"], "nodes"),
        metric("evicted_nodes", stats["evicted_nodes"], "nodes"),
        metric("makespan", stats["makespan"], "simulated_seconds"),
    ])


SUITES: tuple[BenchSpec, ...] = (
    *FIGURES,
    BenchSpec(
        name="exec_groupcount",
        description="assured execution latency/verification split from a trace",
        seed=20131209,
        run=_exec,
    ),
    BenchSpec(
        name="geo_placement",
        description="assured latency vs. region placement: flat, 2-region, "
        "3-region and slow-region layouts under one WAN latency",
        seed=20131209,
        run=_geo,
    ),
    BenchSpec(
        name="trace_overhead",
        description="causal-tracing overhead: same-seed untraced vs traced "
        "vs causal-traced output digests and simulated latency (must match)",
        seed=20131209,
        run=_trace_overhead,
    ),
    BenchSpec(
        name="rerun_makespan",
        description="faulty makespan with the checkpoint tier (rerun-cost "
        "placement + verdict-time commits) vs checkpoint-free full rerun — "
        "must be strictly lower with byte-identical outputs",
        seed=20131209,
        run=_rerun_makespan,
    ),
    BenchSpec(
        name="service_traffic",
        description="multi-tenant open-loop traffic: jobs/sec, p50/p99 "
        "admission-to-verdict latency, cross-tenant quarantine",
        seed=20131209,
        run=_service_traffic,
    ),
    *ABLATIONS,
)


def spec_by_name(name: str) -> BenchSpec:
    for spec in SUITES:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in SUITES)
    raise KeyError(f"unknown benchmark {name!r} (known: {known})")
