"""The paper's §6 evaluation as bench suites: Figs. 9–14 and Table 3.

Each suite runs its figure's sweep, returns the numbers as metrics,
and on the full variant also renders the paper table and checks the
figure's shape (the claims in EXPERIMENTS.md).  The smoke variant runs
the same code paths on reduced sizes and yields metrics only.
"""

from __future__ import annotations

from repro.bench.spec import BenchSpec, Metric, Outcome, metric
from repro.common.config import (
    ADVERSARY_WEAK,
    ClusterBFTConfig,
    ClusterConfig,
    SystemConfig,
)
from repro.common.rng import DEFAULT_SEED
from repro.core.controller import ClusterBFTController
from repro.core.graph_analyzer import candidate_vertices
from repro.faults.behaviors import CommissionBehavior
from repro.faults.injection import FaultPlan, combined, slow_node
from repro.isolation.simulator import (
    RATIO_R1,
    RATIO_R2,
    IsolationSimulator,
    jobs_to_isolation,
)
from repro.reporting.tables import Series, Table, percentage_overhead, render_figure
from repro.telemetry import Telemetry
from repro.telemetry.analysis import (
    TraceModel,
    first_event,
    gauge_series,
    last_gauge_value,
)
from repro.workloads.airline import TOP_AIRPORTS, flight_records
from repro.workloads.twitter import (
    FOLLOWER_ANALYSIS,
    TWO_HOP_ANALYSIS,
    follower_edges,
)
from repro.workloads.weather import AVERAGE_TEMPERATURE, daily_temperatures

# ---------------------------------------------------------------------------
# Figs. 9 and 10 — digest positions: Pure Pig vs Single vs BFT execution
# ---------------------------------------------------------------------------

#: Fig. 9 verification-point sets: (L)oad, (F)ilter, (G)roup, (C)ount.
_FIG9_POINTS = (
    ("L", ("edges",)),
    ("F", ("clean",)),
    ("G", ("grouped",)),
    ("C", ("counts",)),
    ("GC", ("grouped", "counts")),
    ("FG", ("clean", "grouped")),
    ("FGC", ("clean", "grouped", "counts")),
    ("LFGC", ("edges", "clean", "grouped", "counts")),
)
#: Fig. 10 verification-point sets over the two-hop self-join.
_FIG10_POINTS = (
    ("Join", ("joined",)),
    ("Project", ("pairs",)),
    ("Filter", ("clean",)),
    ("J&F", ("joined", "clean")),
    ("J,P&F", ("joined", "pairs", "clean")),
)


#: The Fig. 9/10 deployment.  Heartbeats are fast relative to the
#: simulated job durations, so scheduling quantization does not dominate
#: the small synthetic workloads the way it never dominated the paper's
#: minute-long jobs.
_SWEEP_CONFIG = SystemConfig(
    cluster=ClusterConfig(num_nodes=32, slots_per_node=3, heartbeat_period=0.2),
    bft=ClusterBFTConfig(f=1, replication=4, verification_points=2, verifier_timeout=600.0),
)


def _sweep_controller(edges) -> ClusterBFTController:
    controller = ClusterBFTController(_SWEEP_CONFIG, block_bytes=256 * 1024)
    controller.load_input("twitter/followers", edges)
    return controller


def _point_sweep(script, edges, point_sets):
    """Pure Pig once, then per point set one single execution and one
    assured run, each on a fresh deployment."""

    def points(controller, aliases):
        plan = controller._to_plan(script)
        return plan, [plan.find_by_alias(alias) for alias in aliases]

    pure_pig = _sweep_controller(edges).run_plain(script).latency
    rows = []
    for name, aliases in point_sets:
        plan, vertices = points(single_ctrl := _sweep_controller(edges), aliases)
        single = single_ctrl.run_single(
            plan, explicit_points=vertices, include_output_points=False
        )
        plan, vertices = points(bft_ctrl := _sweep_controller(edges), aliases)
        bft = bft_ctrl.run_assured(plan, explicit_points=vertices)
        rows.append((name, len(aliases), single.latency, bft))
    return pure_pig, rows


def _sweep_metrics(pure_pig, rows) -> list[Metric]:
    metrics = [metric("purepig_latency", pure_pig, "simulated_seconds")]
    for name, _, single, bft in rows:
        metrics.append(metric(f"single_latency_{name}", single, "simulated_seconds"))
        metrics.append(metric(f"bft_latency_{name}", bft.latency, "simulated_seconds"))
    return metrics


def _fig9(smoke: bool) -> Outcome:
    """§6.1: BFT execution costs under 10% over a single execution with
    one verification point, and more with three."""
    edges = follower_edges(6_000 if smoke else 60_000)
    pure_pig, rows = _point_sweep(FOLLOWER_ANALYSIS, edges, _FIG9_POINTS)
    metrics = _sweep_metrics(pure_pig, rows)
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Fig. 9 — Twitter Follower Analysis latency (seconds, simulated)",
        ["config", "#VPs", "PurePig", "Single", "BFT", "BFT-vs-Single %"],
    )
    by_points: dict[int, list[float]] = {}
    for name, n_points, single, bft in rows:
        overhead = percentage_overhead(bft.latency, single)
        table.add_row(name, n_points, pure_pig, single, bft.latency, overhead)
        by_points.setdefault(n_points, []).append(overhead)
    one_point = by_points[1]
    average = {n: sum(v) / len(v) for n, v in by_points.items()}
    marker_run = _sweep_controller(edges).run_assured(FOLLOWER_ANALYSIS)
    return Outcome(
        metrics,
        table.render(),
        {
            "bft_assured": all(bft.assured for *_, bft in rows),
            "marker_points_assured": marker_run.assured,
            # "a minimal overhead of 8% and worst case of 9% ... with 1
            # verification point"
            "one_point_min_overhead_under_10pct": min(one_point) < 10.0,
            "one_point_overhead_under_16pct": all(o < 16.0 for o in one_point),
            "overhead_grows_1_to_3_points_under_35pct": average[1]
            < average[3]
            < 35.0,
            "single_digest_overhead_under_10pct": all(
                percentage_overhead(single, pure_pig) < 10.0
                for _, _, single, _ in rows
            ),
        },
    )


def _fig10(smoke: bool) -> Outcome:
    """Digest cost at the join, project and filter of the two-hop query:
    small for a single execution at every position, BFT within 15%."""
    edges = follower_edges(1_500 if smoke else 9_000, num_users=200 if smoke else 700)
    pure_pig, rows = _point_sweep(TWO_HOP_ANALYSIS, edges, _FIG10_POINTS)
    metrics = _sweep_metrics(pure_pig, rows)
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Fig. 10 — Twitter Two-Hop Analysis latency (seconds, simulated)",
        ["config", "PurePig", "Single", "BFT", "BFT-vs-Single %"],
    )
    for name, _, single, bft in rows:
        table.add_row(
            name, pure_pig, single, bft.latency, percentage_overhead(bft.latency, single)
        )
    bft_by_name = {name: bft.latency for name, _, _, bft in rows}
    marker_run = _sweep_controller(edges).run_assured(TWO_HOP_ANALYSIS)
    return Outcome(
        metrics,
        table.render(),
        {
            "bft_assured": all(bft.assured for *_, bft in rows),
            "marker_points_assured": marker_run.assured,
            "bft_overhead_under_15pct": all(
                percentage_overhead(bft.latency, single) < 15.0
                for _, _, single, bft in rows
            ),
            "single_digest_overhead_under_10pct": all(
                percentage_overhead(single, pure_pig) < 10.0
                for _, _, single, _ in rows
            ),
            "single_not_below_pure_pig": all(
                single >= pure_pig * 0.99 for _, _, single, _ in rows
            ),
            # The join emits the largest intermediate data set, so
            # digesting it costs at least as much as the filtered input.
            "join_point_most_expensive": bft_by_name["J,P&F"]
            >= bft_by_name["Filter"] * 0.999,
        },
    )


# ---------------------------------------------------------------------------
# Table 3 — Byzantine failures on the airline multi-store query
# ---------------------------------------------------------------------------


def midpipeline_node(controller: ClusterBFTController) -> str:
    """A node that a finished clean run used for the group jobs (1–3)
    but not for the first job.

    Commission faults do not perturb scheduling until they fire, so the
    same node corrupts a mid-pipeline task in the matching faulty run.
    The paper's averaged runs include exactly such strikes, and they are
    the ones where variable-grain reuse pays off.
    """
    per_job: dict[str, set] = {}
    for run in controller.engine.runs:
        job = run.sid.rsplit(".j", 1)[-1]
        per_job.setdefault(job, set()).update(run.nodes_used)
    first = per_job.get("0", set())
    groups = per_job.get("1", set()) | per_job.get("2", set()) | per_job.get("3", set())
    candidates = sorted(groups - first)
    if not candidates:
        later: set = set()
        for job, nodes in per_job.items():
            if job != "0":
                later |= nodes
        candidates = sorted(later - first)
    return candidates[0] if candidates else "node_0000"


def always_commission(node: str) -> FaultPlan:
    """One node corrupting a slice of every stream it touches: Table 3's
    "always produce commission failures resulting in an incorrect
    digest" (one tampered record could miss the top-20 window)."""
    return FaultPlan({node: CommissionBehavior(probability=1.0, per_record_fraction=0.05)})


#: (case, r, fault plan for the faulty node).  Case 2 adds a correct but
#: slow replica that misses the verifier timeout, forcing a rerun.
_TABLE3_CASES = (
    ("r=2", 2, always_commission),
    ("r=3 case1", 3, always_commission),
    (
        "r=3 case2",
        3,
        lambda node: combined(always_commission(node), slow_node("node_0001", factor=60.0)),
    ),
    ("r=4", 4, always_commission),
)


def _table3(smoke: bool) -> Outcome:
    """C (ClusterBFT, marker points) against P (final output verified
    only) under one always-commission node, as multipliers over one
    unreplicated plain run."""
    records = flight_records(3_000 if smoke else 30_000)

    def controller_for(r, fault_plan):
        config = SystemConfig(
            cluster=ClusterConfig(num_nodes=32, slots_per_node=3, heartbeat_period=0.2),
            bft=ClusterBFTConfig(
                f=1,
                replication=r,
                verification_points=2,
                verifier_timeout=18.0,
                max_reruns=3,
            ),
        )
        controller = ClusterBFTController(
            config, fault_plan=fault_plan, block_bytes=256 * 1024
        )
        controller.load_input("airline/flights", records)
        return controller

    def run_mode(controller, mode):
        points = None if mode == "C" else []
        return controller.run_assured(TOP_AIRPORTS, explicit_points=points)

    baseline = controller_for(4, None).run_plain(TOP_AIRPORTS)
    rows = {}
    assured = True
    for name, r, fault_plan in _TABLE3_CASES:
        for mode in ("C", "P"):
            # The probe runs in the measured mode: digest placement
            # shifts task timing and therefore node usage.
            run_mode(probe := controller_for(r, None), mode)
            result = run_mode(controller_for(r, fault_plan(midpipeline_node(probe))), mode)
            assured = assured and result.assured
            rows[(name, mode)] = result.metrics.ratios_over(baseline.metrics) | {
                "attempts": result.attempts,
                "reused": result.reused_jobs,
            }
    metrics = []
    for (name, mode), row in sorted(rows.items()):
        tag = f"{name.replace(' ', '_').replace('=', '')}_{mode}"
        for measure in ("latency", "cpu", "file_write", "hdfs_write"):
            metrics.append(metric(f"{measure}_ratio_{tag}", row[measure], "multiplier"))
        metrics.append(metric(f"attempts_{tag}", row["attempts"], "attempts"))
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Table 3 — ClusterBFT under Byzantine failures (multipliers over unreplicated Pig)",
        ["measure"] + [f"{name}/{m}" for name, _, _ in _TABLE3_CASES for m in ("C", "P")],
    )
    for measure in ("latency", "cpu", "file_read", "file_write", "hdfs_write", "attempts"):
        table.add_row(
            measure, *[rows[(name, m)][measure] for name, _, _ in _TABLE3_CASES for m in ("C", "P")]
        )
    rescheduled = ("r=2", "r=3 case2")
    rerun_cases = [rows[(case, "C")] for case in rescheduled if rows[(case, "C")]["attempts"] > 1]
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": assured,
            # Runs without rescheduling stay close to one run's latency.
            "case1_latency_under_1.35x": rows[("r=3 case1", "C")]["latency"] < 1.35,
            "r4_latency_under_1.35x": rows[("r=4", "C")]["latency"] < 1.35,
            "rescheduling_costs_more": rows[("r=2", "C")]["latency"]
            > rows[("r=3 case1", "C")]["latency"],
            # C reuses verified sub-graphs; P recomputes the whole script
            # (paper: ~23% latency saved on rescheduled runs), and C's
            # extra digest CPU stays in P's ballpark.
            "c_faster_than_p_when_rescheduled": all(
                rows[(case, "C")]["latency"] < rows[(case, "P")]["latency"]
                for case in rescheduled
            ),
            "c_reuses_more_than_p_when_rescheduled": all(
                rows[(case, "C")]["reused"] > rows[(case, "P")]["reused"]
                for case in rescheduled
            ),
            "c_cpu_within_1.25x_of_p_when_rescheduled": all(
                rows[(case, "C")]["cpu"] <= rows[(case, "P")]["cpu"] * 1.25
                for case in rescheduled
            ),
            # Resources track the replica count (C's CPU runs above r×:
            # the combiner-optimized baseline spends little compute).
            "r4_cpu_3x_to_8x": 3.0 <= rows[("r=4", "C")]["cpu"] <= 8.0,
            "r4_hdfs_write_3x_to_5x": 3.0 <= rows[("r=4", "C")]["hdfs_write"] <= 5.0,
            "rerun_reuses_verified_jobs": any(case["reused"] > 0 for case in rerun_cases),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 11 — jobs to isolate |D| = f disjoint fault sets
# ---------------------------------------------------------------------------

_FIG11_CURVES = (
    ("f=1,r1", 1, RATIO_R1),
    ("f=1,r2", 1, RATIO_R2),
    ("f=2,r1", 2, RATIO_R1),
    ("f=2,r2", 2, RATIO_R2),
)


def _fig11(smoke: bool) -> Outcome:
    """Average jobs completed when |D| = f on the 250-node simulator, per
    commission probability: falls steeply with p, under 20 jobs for
    p ≥ 0.6 at f = 1, and more jobs for f = 2 than for f = 1."""
    probabilities = (0.2, 0.6, 1.0) if smoke else (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    trials = 1 if smoke else 5
    curves: dict[str, Series] = {}
    for label, f, ratio in _FIG11_CURVES:
        series = curves[label] = Series(label)
        for p in probabilities:
            series.add(p, jobs_to_isolation(f, ratio, p, trials=trials, max_time=600))
    metrics = [
        metric(f"jobs_to_isolation_{label}_p{p}", jobs, "jobs")
        for label, series in curves.items()
        for p, jobs in series.points
    ]
    if smoke:
        return Outcome(metrics)
    checks: dict[str, bool] = {}
    for label, series in curves.items():
        ys = series.ys()
        checks[f"declines_with_p_{label}"] = ys[-1] < ys[0]
        # Compare the tails so one noisy trial cannot pass or fail it.
        checks[f"steep_decline_{label}"] = min(ys[:2]) > max(ys[-3:])
    for label in ("f=1,r1", "f=1,r2"):
        # "less than 20 jobs are required" for p >= 0.6
        checks[f"under_20_jobs_at_p0.6_up_{label}"] = all(
            y < 20 for p, y in curves[label].points if p >= 0.6
        )
    checks["f2_needs_more_jobs_than_f1"] = curves["f=2,r1"].ys()[0] > curves["f=1,r1"].ys()[0]
    table = render_figure(
        "Fig. 11 — jobs completed when |D| = f vs commission probability",
        "p",
        list(curves.values()),
    )
    return Outcome(metrics, table, checks)


# ---------------------------------------------------------------------------
# Fig. 12 — suspicion bands over time (isolation simulator, trace-backed)
# ---------------------------------------------------------------------------


def _fig12(smoke: bool) -> Outcome:
    """Suspects appear with the first commission fault, stop growing at
    |D| = f, and in the end only the faulty node stays High.  The
    metrics come from the recorded trace, the same series ``repro
    report`` shows, and must agree with the simulator's own stats."""
    telemetry = Telemetry.recording()
    simulator = IsolationSimulator(
        f=1, commission_probability=0.8, seed=12, telemetry=telemetry
    )
    stats = simulator.run(max_time=30 if smoke else 150)
    records = TraceModel.of(telemetry.export_records())
    saturation = first_event(records, "saturation")
    metrics = [
        metric("saturation_time", saturation["ts"] if saturation else -1, "simulated_seconds"),
        metric(
            "jobs_at_saturation",
            (saturation.get("attrs") or {}).get("jobs_completed", -1) if saturation else -1,
            "jobs",
        ),
        metric("jobs_completed", last_gauge_value(records, "sim_jobs_completed", 0), "jobs"),
        metric("final_suspects", last_gauge_value(records, "suspicion_suspects", 0), "nodes"),
        metric(
            "final_high_band",
            last_gauge_value(records, "suspicion_band_nodes", 0, band="high"),
            "nodes",
        ),
    ]
    if smoke:
        return Outcome(metrics)
    bands = {name: Series(name) for name in ("Low", "Med", "High")}
    for point in stats.timeline[::5]:
        bands["Low"].add(point.time, point.low)
        bands["Med"].add(point.time, point.med)
        bands["High"].add(point.time, point.high)
    table = render_figure(
        "Fig. 12 — suspicion bands over time (f=1, p=0.8)", "time", list(bands.values())
    )
    high_by_time = {point.time: point.high for point in stats.timeline}
    saturation_time = stats.saturation_time
    post = [
        p.suspects
        for p in stats.timeline
        if saturation_time is not None and p.time > saturation_time
    ]
    first, final = stats.timeline[0], stats.timeline[-1]
    return Outcome(
        metrics,
        table,
        {
            "saturation_event_traced": saturation is not None,
            "saturates": saturation_time is not None,
            "trace_saturation_matches_stats": saturation is not None
            and saturation_time is not None
            and saturation["ts"] == float(saturation_time),
            "trace_jobs_completed_matches_stats": last_gauge_value(
                records, "sim_jobs_completed"
            )
            == float(stats.jobs_completed),
            "trace_suspects_match_stats": last_gauge_value(records, "suspicion_suspects")
            == float(len(stats.final_suspects)),
            "trace_high_band_matches_stats": all(
                high_by_time.get(int(ts), value) == value
                for ts, value in gauge_series(records, "suspicion_band_nodes", band="high")
            ),
            "no_suspicion_at_start": first.low + first.med + first.high == 0,
            "suspects_flat_after_saturation": bool(post) and max(post) == post[0],
            "only_faulty_nodes_high_at_end": final.high == len(stats.true_faulty),
            "exact_isolation": stats.exact_isolation,
            "innocents_leave_med": final.med == 0,
            "innocents_decay_to_low": final.low > 0,
        },
    )


# ---------------------------------------------------------------------------
# Fig. 13 — suspicion spikes from overlapping large clusters
# ---------------------------------------------------------------------------


def _fig13(smoke: bool) -> Outcome:
    """The paper's "occasional spikes in the number of suspicious nodes
    ... before |D| becomes equal to f", pruned "within a few more runs".
    A large-job-heavy mix, a low commission probability and f = 2 let
    big clusters accumulate before saturation.  Peaks are read back from
    the recorded ``suspicion_suspects`` series."""
    runs = []
    for seed in (3, 5) if smoke else (3, 5, 11, 17, 23):
        telemetry = Telemetry.recording()
        simulator = IsolationSimulator(
            f=2,
            ratio=(10, 1, 1),
            commission_probability=0.25,
            seed=seed,
            telemetry=telemetry,
        )
        stats = simulator.run(max_time=60 if smoke else 150)
        series = gauge_series(telemetry.export_records(), "suspicion_suspects")
        runs.append((stats, max((value for _, value in series), default=0.0)))
    peaks = [peak for _, peak in runs]
    metrics = [
        metric("peak_suspects_max", max(peaks), "nodes"),
        metric("peak_suspects_mean", sum(peaks) / len(peaks), "nodes"),
        metric("runs", len(peaks), "runs"),
    ]
    if smoke:
        return Outcome(metrics)
    timelines = [[p.suspects for p in stats.timeline] for stats, _ in runs]
    spiky = max((stats for stats, _ in runs), key=lambda s: max(p.suspects for p in s.timeline))
    suspects, high = Series("suspects"), Series("High")
    for point in spiky.timeline[::5]:
        suspects.add(point.time, point.suspects)
        high.add(point.time, point.high)
    table = render_figure(
        "Fig. 13 — suspicion spikes (f=2, large-job mix, p=0.25)", "time", [suspects, high]
    )
    return Outcome(
        metrics,
        table,
        {
            "trace_peaks_match_stats": peaks == [float(max(t)) for t in timelines],
            # A spike: a saturating run peaking at 25 or more suspects.
            "a_run_spikes": any(
                stats.saturation_time is not None and max(t) >= 25 and t[-1] <= max(t)
                for (stats, _), t in zip(runs, timelines)
            ),
            "suspects_pruned_to_at_most_peak": all(t[-1] <= max(t) for t in timelines),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 14 — approximation accuracy with a BFT-replicated request handler
# ---------------------------------------------------------------------------


def _fig14(smoke: bool) -> Outcome:
    """Weather averages with the request handler run as 3f+1 PBFT
    replicas.  *Full* verifies only the final output, *ClusterBFT* two
    marker points, *Individual* every eligible vertex, for f ∈ {1,2,3}
    and d ∈ {10k, 1k, 100} records per digest chunk.  ClusterBFT stays
    within 20% of Full; Individual is the most expensive."""
    records = daily_temperatures(40, 20) if smoke else daily_temperatures(250, 60)
    f_values = (1, 2) if smoke else (1, 2, 3)
    chunks = (1_000, 100) if smoke else (10_000, 1_000, 100)
    results = {}
    assured = True
    for f in f_values:
        for chunk in chunks:
            for mode in ("full", "clusterbft", "individual"):
                config = SystemConfig(
                    cluster=ClusterConfig(num_nodes=44, slots_per_node=3, heartbeat_period=0.2),
                    bft=ClusterBFTConfig(
                        f=f,
                        replication=3 * f + 1,
                        verification_points=2,
                        digest_chunk_records=chunk,
                        verifier_timeout=600.0,
                    ),
                )
                controller = ClusterBFTController(
                    config, block_bytes=128 * 1024, replicate_frontend=True
                )
                controller.load_input("weather/daily", records)
                plan = controller._to_plan(AVERAGE_TEMPERATURE)
                if mode == "full":
                    result = controller.run_assured(plan, explicit_points=[])
                elif mode == "clusterbft":
                    result = controller.run_assured(plan)
                else:  # every vertex a weak adversary can corrupt
                    points = candidate_vertices(plan, ADVERSARY_WEAK)
                    result = controller.run_assured(plan, explicit_points=points)
                assured = assured and result.assured
                results[(f, chunk, mode)] = result.latency
    metrics = [
        metric(f"{mode}_latency_f{f}_d{chunk}", latency, "simulated_seconds")
        for (f, chunk, mode), latency in sorted(results.items())
    ]
    if smoke:
        return Outcome(metrics)
    table = Table(
        "Fig. 14 — weather average temperature latency (s), BFT-replicated request handler",
        ["f,d", "Full", "ClusterBFT", "Individual", "CBFT-vs-Full %"],
    )
    for f in f_values:
        for chunk in chunks:
            full, cbft, individual = (
                results[(f, chunk, mode)] for mode in ("full", "clusterbft", "individual")
            )
            table.add_row(f"{f},{chunk}", full, cbft, individual, percentage_overhead(cbft, full))
    return Outcome(
        metrics,
        table.render(),
        {
            "assured": assured,
            "clusterbft_within_20pct_of_full": all(
                percentage_overhead(results[(f, d, "clusterbft")], results[(f, d, "full")]) < 20.0
                for f in f_values
                for d in chunks
            ),
            "individual_at_least_clusterbft": all(
                results[(f, d, "individual")] >= results[(f, d, "clusterbft")] * 0.98
                for f in f_values
                for d in chunks
            ),
            # More replicas on the same cluster.
            "latency_grows_with_f": all(
                results[(3, d, "clusterbft")] >= results[(1, d, "clusterbft")] * 0.98
                for d in chunks
            ),
        },
    )


FIGURES: tuple[BenchSpec, ...] = (
    BenchSpec(
        name="fig9",
        description="Twitter follower analysis latency: Pure Pig vs single "
        "vs BFT execution per verification-point set (paper Fig. 9)",
        seed=DEFAULT_SEED,
        run=_fig9,
    ),
    BenchSpec(
        name="fig10",
        description="Twitter two-hop digest overhead at join, project and "
        "filter (paper Fig. 10)",
        seed=DEFAULT_SEED,
        run=_fig10,
    ),
    BenchSpec(
        name="table3",
        description="airline query under an always-commission node: "
        "ClusterBFT vs final-output verification (paper Table 3)",
        seed=DEFAULT_SEED,
        run=_table3,
    ),
    BenchSpec(
        name="fig11",
        description="jobs to isolate |D| = f vs commission probability "
        "(paper Fig. 11)",
        seed=DEFAULT_SEED,
        run=_fig11,
    ),
    BenchSpec(
        name="fig12",
        description="suspicion saturation from an isolation-simulator trace",
        seed=12,
        run=_fig12,
    ),
    BenchSpec(
        name="fig13",
        description="suspicion spike peaks across seeds (trace-backed)",
        seed=3,
        run=_fig13,
    ),
    BenchSpec(
        name="fig14",
        description="weather latency: Full vs ClusterBFT vs Individual over "
        "f and digest granularity, PBFT front end (paper Fig. 14)",
        seed=DEFAULT_SEED,
        run=_fig14,
    ),
)
