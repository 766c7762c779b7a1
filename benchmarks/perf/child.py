"""In-process measurement: what one benchmark process does.

``run.py`` spawns this module's roles in fresh interpreters (with
``PYTHONHASHSEED=0``) and aggregates what they print; nothing here
spawns anything.  The first thing a role does is take a calibration
reading — before ``repro`` is imported — so set-up time can be
normalised like every other time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import ExitStack
from time import perf_counter

import tracing
from calib import CALIB_REF_S, calib, normalise

MIN_REPS = 10
MIN_TRACE_ROUNDS = 3
#: ``--check`` runs every workload at 1/20 size.
CHECK_SCALE = 20


def median_index(values: list[float]) -> int:
    """Index of the (lower) median element."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def iqr_ratio(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Bench:
    """One set-up workload plus the calibrated repetition loop."""

    def __init__(self, name: str, seed: int, workdir: str,
                 spawned_at: float | None = None, scale: int = 1) -> None:
        started = spawned_at if spawned_at is not None else perf_counter()
        first_calib = calib()
        import workloads  # imports repro: only after the first reading

        os.makedirs(workdir, exist_ok=True)
        self.workload = workloads.build(name, seed, scale, workdir)
        self.attempted = 0
        self.failed = 0
        self.last_calib = first_calib
        warm = self.rep()
        self.sim_latency = warm["sim_latency"]
        # Process start to "ready for the first timed repetition",
        # less the two calibration readings taken on the way.
        setup_wall = perf_counter() - started - first_calib - self.last_calib
        self.setup = {
            "setup_s": normalise(setup_wall, first_calib, self.last_calib),
            "setup_raw_s": setup_wall,
        }

    def rep(self, telemetry=None, wrap=None, keep=False, sync_disk=False) -> dict:
        """One repetition: collect garbage, run the timed region, take
        the closing calibration reading, then run the oracle.

        ``wrap`` is a context manager entered around the timed region
        (tracing or a sensitivity shim); ``keep`` returns the outcome
        for per-layer counters instead of dropping it."""
        gc.collect()
        fsyncs = [0]
        with ExitStack() as stack:
            if not sync_disk:
                stack.enter_context(tracing.no_disk_sync(fsyncs))
            if wrap is not None:
                stack.enter_context(wrap)
            start = perf_counter()
            outcome = self.workload.run(telemetry=telemetry)
            wall = perf_counter() - start
        closing = calib()
        outcome.fsyncs = fsyncs[0]
        row = {
            "wall": wall,
            "norm": normalise(wall, self.last_calib, closing),
            "calib": (self.last_calib + closing) / 2.0,
            "sim_latency": outcome.sim_latency,
        }
        self.last_calib = closing
        attempted, failed = self.workload.check(outcome)
        self.attempted += attempted
        self.failed += failed
        if outcome.wal_path is not None:
            row["wal_bytes"] = os.path.getsize(outcome.wal_path)
            os.unlink(outcome.wal_path)
        if keep:
            row["outcome"] = outcome
        return row

    def result(self, metrics: dict) -> dict:
        return {
            "workload": self.workload.name,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------


def timed_phase(bench: Bench, seconds: float) -> dict:
    """Repeat until ``seconds`` have elapsed, at least ``MIN_REPS``
    times, and summarise."""
    rows = []
    began = perf_counter()
    while perf_counter() - began < seconds or len(rows) < MIN_REPS:
        rows.append(bench.rep())
    norms = [row["norm"] for row in rows]
    walls = [row["wall"] for row in rows]
    units = bench.workload.units
    mean_calib = statistics.fmean(row["calib"] for row in rows)
    return {
        "throughput": units / statistics.median(norms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "harness.reps": len(rows),
        "harness.host_speed": CALIB_REF_S / mean_calib,
        "harness.rep_iqr_ratio": iqr_ratio(norms),
        "harness.throughput_raw": units / statistics.median(walls),
        "harness.rep_s": statistics.median(norms),
        "harness.sim_latency_s": bench.sim_latency,
    }


def role_timed(args) -> dict:
    bench = Bench(args.workload, args.seed, args.workdir, args.spawned_at)
    metrics = dict(bench.setup)
    if args.role == "timed":
        metrics.update(timed_phase(bench, args.seconds))
    return bench.result(metrics)


def role_trace(args) -> dict:
    bench = Bench(args.workload, args.seed, args.workdir, args.spawned_at)
    metrics, spans = trace_phase(bench, args.seconds, MIN_TRACE_ROUNDS)
    if args.trace_path:
        with open(args.trace_path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, handle)
    return bench.result(metrics)


def trace_phase(bench: Bench, seconds: float, min_rounds: int):
    """Per-layer attribution.  Each round is one untraced, one
    span-traced and one telemetry-recording repetition, interleaved so
    the three medians see the same host; counts that need per-record
    wrappers come from one extra repetition at the end."""
    from repro.telemetry import Telemetry

    plain, traced, recorded = [], [], []
    telemetry_records = 0
    began = perf_counter()
    while perf_counter() - began < seconds or len(plain) < min_rounds:
        plain.append(bench.rep())
        traced.append(_traced_rep(bench))
        telemetry = Telemetry.recording()
        recorded.append(bench.rep(telemetry=telemetry))
        telemetry_records = len(telemetry.sink.records)

    plain_norm = statistics.median(row["norm"] for row in plain)
    # Report one real repetition - the median one - so that the printed
    # self times tile the printed root exactly.
    pick = traced[median_index([row["norm"] for row in traced])]
    recorder = pick["recorder"]
    to_reference = pick["norm"] / pick["wall"]
    self_s = {
        layer: spent * to_reference
        for layer, spent in recorder.self_times().items()
    }
    root_s = recorder.root_seconds() * to_reference

    # Counting-only repetition: per-record wrappers would distort times.
    tally = Counter()
    bench.rep(
        wrap=tracing.together(
            tracing.encode_counted(tally), tracing.tasks_counted(tally)
        )
    )
    replica_tasks = tally.pop("tasks")

    def count_tasks(run) -> int:
        with tracing.tasks_counted(tally):
            run()
        return tally.pop("tasks")

    plain_tasks = bench.workload.plain_task_runs(count_tasks)

    fsync_disk = [0.0]
    if bench.workload.name == "serve_mixed":
        bench.rep(sync_disk=True, wrap=tracing.fsync_timed(fsync_disk))

    counts = recorder.counts
    calls = recorder.calls
    events = sum(1 for span in recorder.spans if span[0] == "simulation.loop")
    assigns = calls("mapreduce.scheduler")
    decisions = counts["service.admission.decisions"]
    journal_bytes = ledger_bytes = 0
    if bench.workload.name == "serve_mixed":
        ledger_bytes = pick.get("wal_bytes", 0)
    else:
        journal_bytes = pick.get("wal_bytes", 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "harness.reps": len(traced),
        "harness.host_speed": CALIB_REF_S / statistics.fmean(
            row["calib"] for row in plain + traced + recorded
        ),
        "harness.rep_iqr_ratio": iqr_ratio([row["norm"] for row in plain]),
        "harness.throughput_raw": bench.workload.units / statistics.median(
            row["wall"] for row in plain
        ),
        "harness.rep_s": root_s,
        "harness.sim_latency_s": bench.sim_latency,
        "harness.trace_overhead_ratio": pick["norm"] / plain_norm,
        "unattributed_share": self_s.get(tracing.ROOT, 0.0) / root_s,
        "core.prepare.calls": calls("core.prepare"),
        "core.verifier.reports": counts["core.verifier.reports"],
        "core.journal.appends": counts["core.journal.appends"],
        "core.journal.fsyncs": counts["core.journal.fsyncs"],
        "core.journal.bytes": journal_bytes,
        "core.attempts_per_run": pick["attempts_per_run"],
        "dataflow.parse.calls": calls("dataflow.parse"),
        "dataflow.pipeline.records": counts["dataflow.pipeline.records"],
        "compiler.compile.calls": calls("compiler.compile"),
        "mapreduce.map_task.calls": calls("mapreduce.map_task"),
        "mapreduce.reduce_task.calls": calls("mapreduce.reduce_task"),
        "mapreduce.scheduler.assign_calls": assigns,
        "mapreduce.scheduler.assign_hit_ratio": ratio(
            counts["mapreduce.scheduler.assign_hits"], assigns
        ),
        "mapreduce.replica_work_ratio": ratio(replica_tasks, plain_tasks),
        "common.digest.records": counts["common.digest.records"],
        "common.digest.chunks": counts["common.digest.chunks"],
        "common.encode.calls": tally["common.encode.calls"],
        "common.encode.calls_per_record": ratio(
            tally["common.encode.calls"], bench.workload.input_records
        ),
        "storage.dfs.calls": calls("storage.dfs"),
        "storage.dfs.bytes_written": pick["dfs_bytes_written"],
        "storage.dfs.bytes_read": pick["dfs_bytes_read"],
        "simulation.events": events,
        "simulation.host_us_per_event": ratio(1e6 * root_s, events),
        "service.admission.decisions": decisions,
        "service.admit_ratio": pick["admit_ratio"],
        "service.ledger.appends": counts["service.ledger.appends"],
        "service.ledger.fsyncs": counts["service.ledger.fsyncs"],
        "service.ledger.bytes": ledger_bytes,
        "service.ledger.fsync_disk_s": fsync_disk[0],
        "telemetry.record_overhead_ratio": statistics.median(
            row["norm"] for row in recorded
        ) / plain_norm,
        "telemetry.records": telemetry_records,
        "bft.messages": pick["bft_messages"],
    }
    for layer in tracing.TARGETS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics, recorder.to_json()


def _traced_rep(bench: Bench) -> dict:
    """One span-traced repetition, reduced to what the report needs (the
    outcome holds the whole DFS; keeping one per round would grow the
    heap under the repetitions that follow)."""
    recorder = tracing.Recorder()
    row = bench.rep(
        wrap=tracing.together(
            tracing.spans_installed(recorder), recorder.span(tracing.ROOT)
        ),
        keep=True,
    )
    outcome = row.pop("outcome")
    result = outcome.result
    if hasattr(result, "runs"):  # a ServiceResult
        attempts = [run.attempts for run in result.runs]
        row["attempts_per_run"] = statistics.fmean(attempts) if attempts else 0.0
        row["admit_ratio"] = len(result.runs) / (len(result.runs) + len(result.rejects))
    else:
        row["attempts_per_run"] = float(result.attempts)
        row["admit_ratio"] = 0.0
    frontend = getattr(outcome.controller, "frontend", None)
    row["bft_messages"] = frontend.network.messages_sent if frontend else 0
    counters = recorder.dfs.global_counters
    row["dfs_bytes_written"] = counters.bytes_written
    row["dfs_bytes_read"] = counters.bytes_read
    recorder.dfs = None
    row["recorder"] = recorder
    return row


# ---------------------------------------------------------------------------
# sensitivity: "gates must bite"
# ---------------------------------------------------------------------------

#: (label, wrapped targets, workload that must slow, workload that must not)
SENSITIVITY_CASES = [
    ("run_pipeline", "dataflow.pipeline", None,
     "follower_assured", "serve_mixed"),
    ("StreamingDigest.update_all", "common.digest", "update_all",
     "twohop_hardened", "follower_plain"),
    ("scheduler.assign", "mapreduce.scheduler", None,
     "serve_mixed", "follower_assured"),
]
INJECTED_SHARE = 0.35
SENSITIVITY_REPS = 9


def role_sensitivity(args) -> dict:
    """Inject a slowdown worth 35 % of a repetition into one layer at a
    time and see whether ``throughput`` notices.

    The shim follows every outermost call of the layer's entry point by
    a busy-wait of ``factor`` times the call's own duration; ``factor``
    is set so the waits add up to 35 % of the repetition on the workload
    the interaction table names for that layer.  The same ``factor`` on
    the bypass workload must leave its throughput within the bound."""
    benches: dict[str, Bench] = {}

    def bench_for(name: str) -> Bench:
        if name not in benches:
            benches[name] = Bench(name, args.seed,
                                  os.path.join(args.workdir, name))
        return benches[name]

    rows = []
    ok = True
    for label, layer, attribute, named, bypass in SENSITIVITY_CASES:
        targets = [
            target for target in tracing.TARGETS[layer]
            if attribute is None or target[2] == attribute
        ]
        share = _layer_share(bench_for(named), targets)
        factor = INJECTED_SHARE / share
        for role, name in (("named", named), ("bypass", bypass)):
            drop = _throughput_drop(bench_for(name), targets, factor)
            passed = drop > args.bound if role == "named" else abs(drop) <= args.bound
            ok = ok and passed
            rows.append({"layer": label, "workload": name, "role": role,
                         "layer_share": share if role == "named" else None,
                         "factor": factor, "throughput_drop": drop,
                         "bound": args.bound, "pass": passed})
    failed = sum(bench.failed for bench in benches.values())
    return {"rows": rows, "pass": ok and failed == 0, "failed": failed}


def _layer_share(bench: Bench, targets) -> float:
    """Share of a repetition spent inside ``targets`` (median of 3)."""
    shares = []
    for _ in range(3):
        totals = [0.0]
        row = bench.rep(wrap=tracing.slowed(targets, 0.0, totals))
        shares.append(totals[0] / row["wall"])
    return statistics.median(shares)


def _throughput_drop(bench: Bench, targets, factor: float) -> float:
    """1 - slowed/base throughput, base and slowed repetitions
    alternating so both medians see the same host."""
    base, slow = [], []
    for _ in range(SENSITIVITY_REPS):
        base.append(bench.rep()["norm"])
        slow.append(bench.rep(wrap=tracing.slowed(targets, factor, [0.0]))["norm"])
    return 1.0 - statistics.median(base) / statistics.median(slow)


# ---------------------------------------------------------------------------
# check: fast smoke over every workload
# ---------------------------------------------------------------------------


def role_check(args) -> dict:
    """Every workload at 1/20 size: one timed and one traced repetition."""
    import workloads

    out = {}
    for name in workloads.WORKLOAD_NAMES:
        bench = Bench(name, args.seed, os.path.join(args.workdir, name),
                      scale=CHECK_SCALE)
        metrics = dict(bench.setup)
        row = bench.rep()
        metrics["throughput"] = bench.workload.units / row["norm"]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        layers, _ = trace_phase(bench, 0.0, 1)
        bench.failed += len(tracing.leftovers())  # tracing must clean up
        out[name] = {"attempted": bench.attempted, "failed": bench.failed,
                     "end_to_end": metrics, "per_layer": layers}
    return out


ROLES = {
    "setup": role_timed,
    "timed": role_timed,
    "trace": role_trace,
    "sensitivity": role_sensitivity,
    "check": role_check,
}


def main(args) -> int:
    try:
        payload = ROLES[args.role](args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0
