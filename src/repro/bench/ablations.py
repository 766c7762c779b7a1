"""Ablation benches for the design choices DESIGN.md §6 calls out.

Each suite runs one scenario with a mechanism on and off (or placed
three ways), returns the numbers as metrics and, on the full variant,
renders the table and checks that the mechanism pays.  The overlap
ablation is not here: ``benchmarks/test_ablation_overlap.py`` keeps it
until the isolation policy's verdict lands.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.figures import always_commission, midpipeline_node
from repro.bench.spec import BenchSpec, Outcome, metric
from repro.common.config import ClusterBFTConfig, ClusterConfig, SystemConfig
from repro.common.rng import DEFAULT_SEED
from repro.compiler.mr_compiler import CompileOptions
from repro.core.controller import ClusterBFTController
from repro.core.request_handler import RequestHandler
from repro.dataflow.optimizer import optimize
from repro.faults.injection import combined, single_commission, slow_node
from repro.reporting.tables import Table
from repro.workloads.airline import TOP_AIRPORTS, flight_records
from repro.workloads.twitter import FOLLOWER_ANALYSIS, follower_edges


def _on_off(flag: bool) -> str:
    return "on" if flag else "off"


# ---------------------------------------------------------------------------
# combiner — map-side combining under 4-way replication
# ---------------------------------------------------------------------------


class _NoCombinerController(ClusterBFTController):
    """A controller whose compiler never plans a map-side combiner
    (combining is a compiler knob, not a client one)."""

    def _compile_options(self) -> CompileOptions:
        return replace(super()._compile_options(), enable_combiners=False)


def _combiner(smoke: bool) -> Outcome:
    """With r replicas every shuffled byte is paid r times, so combining
    the algebraic COUNT shrinks the dominant intermediate-data term of
    the BFT overhead.  Not a paper experiment: the paper inherits Pig's
    combiners silently."""
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=32, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
    )
    edges = follower_edges(6_000 if smoke else 60_000)
    results = {}
    for enabled in (True, False):
        controller_class = ClusterBFTController if enabled else _NoCombinerController
        controller = controller_class(config, block_bytes=256 * 1024)
        controller.load_input("twitter/followers", edges)
        results[enabled] = controller.run_assured(FOLLOWER_ANALYSIS)
    metrics = [
        metric(f"latency_combiners_{_on_off(k)}", r.latency, "simulated_seconds")
        for k, r in results.items()
    ] + [
        metric(f"shuffle_bytes_combiners_{_on_off(k)}", r.metrics.file_write, "bytes")
        for k, r in results.items()
    ]
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Ablation — map-side combining under 4-way replication",
        ["combiners", "latency(s)", "shuffle bytes (all replicas)", "hdfs write"],
    )
    for enabled, result in results.items():
        table.add_row(
            _on_off(enabled), result.latency, result.metrics.file_write, result.metrics.hdfs_write
        )
    on, off = results[True], results[False]
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": on.assured and off.assured,
            "same_outputs": on.outputs == off.outputs,
            "combining_cuts_shuffle_10x": on.metrics.file_write < off.metrics.file_write / 10,
            "combining_never_slower": on.latency <= off.latency * 1.02,
        },
    )


# ---------------------------------------------------------------------------
# marker — verification-point placement under a commission fault
# ---------------------------------------------------------------------------


def _marker(smoke: bool) -> Outcome:
    """The marker function (paper Fig. 3) against two naive placements
    on the airline query, with a commission-faulty node and r = f+1 = 2,
    so every detected fault forces a rerun: ``marker`` (the paper's two
    points), ``first`` (the earliest job boundary) and ``final`` (no
    intermediate point).  Verified prefixes are reused, so marker
    placement wastes the least recomputation."""
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=24, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(
            f=1, replication=2, verification_points=2, verifier_timeout=30.0, max_reruns=4
        ),
    )
    records = flight_records(4_000 if smoke else 20_000)

    def controller_for(fault_plan):
        controller = ClusterBFTController(
            config, fault_plan=fault_plan, block_bytes=128 * 1024
        )
        controller.load_input("airline/flights", records)
        return controller

    (probe := controller_for(None)).run_assured(TOP_AIRPORTS)
    faulty_node = midpipeline_node(probe)
    rows = {}
    assured = True
    for placement in ("marker", "first", "final"):
        controller = controller_for(always_commission(faulty_node))
        plan = controller._to_plan(TOP_AIRPORTS)
        if placement == "marker":
            result = controller.run_assured(plan)
        elif placement == "first":
            boundaries = RequestHandler(config.bft).candidate_vertices(plan)
            result = controller.run_assured(plan, explicit_points=boundaries[:1])
        else:
            result = controller.run_assured(plan, explicit_points=[])
        assured = assured and result.assured
        rows[placement] = (
            result.latency,
            result.attempts,
            result.reused_jobs,
            result.metrics.jobs,
        )
    metrics = []
    for placement, (latency, attempts, reused, executions) in rows.items():
        metrics.append(metric(f"latency_{placement}", latency, "simulated_seconds"))
        metrics.append(metric(f"attempts_{placement}", attempts, "attempts"))
        metrics.append(metric(f"jobs_reused_{placement}", reused, "jobs"))
        metrics.append(metric(f"job_executions_{placement}", executions, "jobs"))
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Ablation — verification-point placement under a commission fault "
        "(r = f+1: every fault forces a rerun)",
        ["placement", "latency(s)", "attempts", "jobs reused", "job executions"],
    )
    for placement, row in rows.items():
        table.add_row(placement, *row)
    marker, final = rows["marker"], rows["final"]
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": assured,
            # r = f+1 cannot mask the fault: both placements rerun ...
            "fault_forces_rerun": marker[1] > 1 and final[1] > 1,
            # ... but only marker placement reuses verified sub-graphs.
            "marker_reuses_more_jobs": marker[2] > final[2],
            "marker_faster": marker[0] < final[0],
            "marker_fewer_job_executions": marker[3] < final[3],
        },
    )


# ---------------------------------------------------------------------------
# optimizer — filter-into-join rewrite before replication
# ---------------------------------------------------------------------------

#: Two-hop pairs for "celebrity" source users only, written naively
#: with the selective filter after the self-join.
_SELECTIVE_TWO_HOP = """
a      = LOAD 'twitter/followers' AS (user:int, follower:int);
b      = LOAD 'twitter/followers' AS (user:int, follower:int);
clean  = FILTER b BY follower IS NOT NULL;
joined = JOIN a BY user, clean BY follower;
vips   = FILTER joined BY a::user > 500;
pairs  = FOREACH vips GENERATE a::follower AS src, clean::user AS dst;
STORE pairs INTO 'twitter/vip_two_hop';
"""


def _sorted_outputs(outputs):
    return {
        path: sorted((r.fields for r in records), key=repr)
        for path, records in outputs.items()
    }


def _optimizer(smoke: bool) -> Outcome:
    """Pushing the filter into the join input shrinks the shuffled side,
    and under r-way replication every shuffled byte is paid r times.
    Not a paper experiment: it measures the substrate's rewrite rules."""
    config = SystemConfig(
        cluster=ClusterConfig(num_nodes=24, slots_per_node=3, heartbeat_period=0.2),
        bft=ClusterBFTConfig(f=1, replication=4, verification_points=1),
    )
    edges = follower_edges(2_000 if smoke else 8_000, num_users=600)
    results = {}
    for optimized in (True, False):
        controller = ClusterBFTController(config, block_bytes=256 * 1024)
        controller.load_input("twitter/followers", edges)
        plan = controller._to_plan(_SELECTIVE_TWO_HOP)
        report = optimize(plan) if optimized else None
        results[optimized] = (controller.run_assured(plan), report)
    metrics = [
        metric(f"latency_optimizer_{_on_off(k)}", r.latency, "simulated_seconds")
        for k, (r, _) in results.items()
    ] + [
        metric(f"shuffle_bytes_optimizer_{_on_off(k)}", r.metrics.file_write, "bytes")
        for k, (r, _) in results.items()
    ]
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Ablation — filter-into-join rewrite under 4-way replication",
        ["optimizer", "latency(s)", "shuffle bytes", "rules fired"],
    )
    for optimized, (result, report) in results.items():
        table.add_row(
            _on_off(optimized),
            result.latency,
            result.metrics.file_write,
            ", ".join(report.applied) if report else "—",
        )
    (on, report), (off, _) = results[True], results[False]
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": on.assured and off.assured,
            "filter_into_join_fires": report is not None
            and "filter-into-join" in report.applied,
            "same_outputs": _sorted_outputs(on.outputs) == _sorted_outputs(off.outputs),
            "rewrite_cuts_shuffle_1.5x": on.metrics.file_write < off.metrics.file_write / 1.5,
            "rewrite_never_slower": on.latency <= off.latency * 1.02,
        },
    )


# ---------------------------------------------------------------------------
# speculation — backup attempts vs a verifier-timeout rerun
# ---------------------------------------------------------------------------


def _speculation(smoke: bool) -> Outcome:
    """Table 3's case 2 (a slow correct replica plus a commission node,
    r = 3) with and without Hadoop-style speculative execution: backup
    attempts rescue the slow replica before the verifier timeout and
    spare the rerun."""
    edges = follower_edges(8_000 if smoke else 40_000)
    results = {}
    for speculative in (True, False):
        config = SystemConfig(
            cluster=ClusterConfig(
                num_nodes=24,
                slots_per_node=3,
                heartbeat_period=0.2,
                speculative_execution=speculative,
            ),
            bft=ClusterBFTConfig(
                f=1, replication=3, verification_points=1, verifier_timeout=15.0
            ),
        )
        fault_plan = combined(
            single_commission("node_0000"), slow_node("node_0001", factor=60.0)
        )
        controller = ClusterBFTController(
            config, fault_plan=fault_plan, block_bytes=256 * 1024
        )
        controller.load_input("twitter/followers", edges)
        result = controller.run_assured(FOLLOWER_ANALYSIS)
        backups = sum(run.speculative_attempts for run in controller.engine.runs)
        results[speculative] = (result, backups)
    metrics = []
    for speculative, (result, backups) in results.items():
        tag = _on_off(speculative)
        metrics.append(metric(f"latency_speculation_{tag}", result.latency, "simulated_seconds"))
        metrics.append(metric(f"attempts_speculation_{tag}", result.attempts, "attempts"))
        metrics.append(metric(f"backup_attempts_speculation_{tag}", backups, "tasks"))
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Ablation — speculative execution vs timeout rerun "
        "(slow correct replica + commission node, r = 3)",
        ["speculation", "latency(s)", "attempts", "backup attempts"],
    )
    for speculative, (result, backups) in results.items():
        table.add_row(_on_off(speculative), result.latency, result.attempts, backups)
    (on, backups), (off, _) = results[True], results[False]
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": on.assured and off.assured,
            "backup_attempts_launched": backups >= 1,
            "no_more_attempts_with_speculation": on.attempts <= off.attempts,
            "faster_with_speculation": on.latency < off.latency,
            "same_outputs": on.outputs == off.outputs,
        },
    )


ABLATIONS: tuple[BenchSpec, ...] = (
    BenchSpec(
        name="ablation_combiner",
        description="map-side combining on vs off under 4-way replication: "
        "latency and replicated shuffle bytes",
        seed=DEFAULT_SEED,
        run=_combiner,
    ),
    BenchSpec(
        name="ablation_marker",
        description="marker vs first-boundary vs final-only verification "
        "points under a commission fault with r = f+1",
        seed=DEFAULT_SEED,
        run=_marker,
    ),
    BenchSpec(
        name="ablation_optimizer",
        description="filter-into-join rewrite on vs off under 4-way "
        "replication: latency and shuffle bytes",
        seed=DEFAULT_SEED,
        run=_optimizer,
    ),
    BenchSpec(
        name="ablation_speculation",
        description="speculative execution vs verifier-timeout rerun for a "
        "slow correct replica (Table 3 case 2)",
        seed=DEFAULT_SEED,
        run=_speculation,
    ),
)
